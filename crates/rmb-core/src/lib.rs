//! The RMB core: an executable model of *"RMB — A Reconfigurable Multiple
//! Bus Network"* (ElGindy, Schröder, Spray, Somani, Schmeck — HPCA 1996).
//!
//! The RMB connects `N` nodes in a ring with `k` parallel physical bus
//! segments between every pair of adjacent interconnection network
//! controllers (INCs). Circuits ("virtual buses") are set up by a
//! wormhole-derived protocol — header flit on the top bus, data only after
//! the header acknowledgement — while an independent *compaction* protocol
//! continuously migrates live circuits down to the lowest free segments,
//! releasing the top bus for new requests. Synchronisation between
//! neighbouring INCs uses the paper's five-rule odd/even cycle handshake.
//!
//! Module map:
//!
//! * [`PortStatus`] / [`SourceDir`] — Table 1's 3-bit output-port codes.
//! * [`HopContext`] / [`MoveCondition`] — Fig. 7's four legal downward
//!   transitions; [`assessed_in_phase`] — Fig. 8's odd/even assessment.
//! * [`mbb_stages_upstream`] / [`mbb_stages_downstream`] — Fig. 4's
//!   make-before-break sequences, as status-register codes.
//! * [`CycleController`] / [`CycleRing`] — §2.5's state machine
//!   (Table 2, Fig. 9–10) with Lemma 1 instrumentation.
//! * [`RmbNetwork`] — the ring simulator: routing protocol, synchronous or
//!   handshake compaction, statistics, tracing, invariant checking.
//! * [`LoneMemo`] — lives of lone circuits, recorded and replayed by
//!   [`RmbNetwork::run_window`] instead of ticked.
//! * `microsim::FlitLevelRmb` — an independent flit-object engine with
//!   explicit Table 1 registers that the cross-validation suite runs
//!   against `RmbNetwork`. Built only with the dev-only `oracle` feature,
//!   which rmb-core's own tests turn on.
//! * [`derive_inc`] — projects Table 1 registers out of the network state.
//! * [`render_occupancy`] — ASCII occupancy art for the paper's figures.
//!
//! # Examples
//!
//! ```
//! use rmb_core::RmbNetwork;
//! use rmb_types::{MessageSpec, NodeId, RmbConfig};
//!
//! // 16 nodes, 4 buses; send two overlapping messages.
//! let cfg = RmbConfig::new(16, 4)?;
//! let mut net = RmbNetwork::new(cfg);
//! net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(9), 32))?;
//! net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(11), 32))?;
//! let report = net.run_to_quiescence(100_000);
//! assert_eq!(report.delivered, 2);
//! assert!(report.compaction_moves > 0); // the second circuit compacted down
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compaction;
mod cycle;
mod inc;
mod invariants;
#[cfg(feature = "oracle")]
pub mod microsim;
mod network;
mod occupancy;
mod options;
mod render;
mod status;
mod virtual_bus;

pub use compaction::{
    assessed_in_phase, mbb_stages_downstream, mbb_stages_upstream, EndpointHeight, HopContext,
    MbbStage, MoveCondition, Phase,
};
pub use cycle::{CycleController, CycleFlags, CycleRing, CycleStep, SwitchState};
pub use inc::{derive_inc, IncView};
pub use invariants::InvariantViolation;
pub use network::{CompactionMode, LoneLife, LoneMemo, RmbNetwork, RunReport};
#[cfg(feature = "oracle")]
pub use options::SchedulerMode;
pub use options::{LogRetention, RmbNetworkBuilder, SimOptions};
pub use render::{bus_letter, render_inc_status, render_occupancy, render_virtual_buses};
pub use status::{PortStatus, SourceDir};
pub use virtual_bus::{BusState, StreamState, VirtualBus};
