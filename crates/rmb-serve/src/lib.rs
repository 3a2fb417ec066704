//! Open-loop serving mode for the RMB reproduction.
//!
//! Every experiment before this crate was *closed-loop*: a finite batch
//! of messages runs to quiescence, so the network's own backpressure
//! paces the sources and saturation never shows its real cost. This crate
//! adds the serving view — arrivals stream in from an external clock at a
//! configured rate whether or not the network is keeping up — which is
//! how interconnects are actually characterised: offered load on the
//! x-axis, latency percentiles on the y-axis, and the hockey stick where
//! the two meet.
//!
//! Three pieces:
//!
//! * [`ServeTarget`] — the engine abstraction: submit one message now,
//!   advance a tick, poll completions, read gauges. Adapters wrap the
//!   flat ring ([`FlatTarget`]), the bridged hierarchy ([`HierTarget`])
//!   and a wormhole torus baseline ([`WormholeTarget`]).
//! * [`serve`] — the driver: per-node arrival clocks on an event queue,
//!   admission control with explicit shedding
//!   ([`AdmissionMode::PerSource`] for sweeps,
//!   [`AdmissionMode::Aggregate`] for counters-only soaks), online
//!   p50/p99/p999 via a streaming quantile sketch.
//! * [`ServeReport`] — the result, implementing
//!   [`rmb_types::StatsReport`] so emitters treat open- and closed-loop
//!   runs through one schema. [`ServeReport::loss_accounted`] certifies
//!   that every offered arrival is explicitly shed, in flight, delivered
//!   or aborted — nothing is ever lost silently, at any retention
//!   setting.
//!
//! # Examples
//!
//! ```
//! use rmb_core::RmbNetwork;
//! use rmb_serve::{serve, FlatTarget, ServeConfig};
//! use rmb_types::{RmbConfig, StatsReport};
//! use rmb_workloads::PoissonStream;
//!
//! let net = RmbNetwork::new(RmbConfig::new(16, 4).unwrap());
//! let cfg = ServeConfig::sweep(0.003, 6_000, 42);
//! let report = serve(
//!     &mut FlatTarget::new(net),
//!     &mut PoissonStream::new(cfg.rate),
//!     &cfg,
//! );
//! assert!(report.loss_accounted());
//! assert!(report.latency.p99.unwrap() >= report.latency.p50.unwrap());
//! let row = report.to_json_object(); // canonical cross-engine schema
//! assert!(row.contains("\"shed\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod target;

pub use driver::{
    serve, serve_with_policy, AdmissionMode, DestinationPolicy, ServeConfig, ServeReport,
};
pub use target::{Completion, FlatTarget, HierTarget, ServeTarget, TargetTotals, WormholeTarget};
