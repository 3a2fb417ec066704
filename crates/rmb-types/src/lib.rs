//! Shared vocabulary for the RMB (Reconfigurable Multiple Bus Network)
//! reproduction.
//!
//! The RMB paper (ElGindy, Schröder, Spray, Somani, Schmeck — HPCA 1996)
//! describes a ring of `N` nodes, each holding a processing element (PE)
//! and an interconnection network controller (INC), with `k` parallel bus
//! segments between every pair of adjacent INCs. This crate defines the
//! identifier newtypes, message descriptors, configuration structures and
//! error types that every other crate in the workspace builds on, the
//! shared [`report`] schema, and [`json`]: a minimal JSON parser and
//! emitter with the codec of [`MessageSpec`], the element of a recorded
//! trace file.
//!
//! # Examples
//!
//! ```
//! use rmb_types::{NodeId, BusIndex, RingSize, RmbConfig};
//!
//! let cfg = RmbConfig::new(16, 4).expect("valid dimensions");
//! assert_eq!(cfg.nodes(), RingSize::new(16).unwrap());
//! assert_eq!(cfg.top_bus(), BusIndex::new(3));
//! let n = NodeId::new(15);
//! assert_eq!(cfg.nodes().advance(n, 1), NodeId::new(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod exec;
mod fault;
mod hier;
mod ids;
pub mod json;
mod message;
pub mod report;

pub use config::{InsertionPolicy, NodeConfig, RmbConfig, RmbConfigBuilder};
pub use error::{ConfigError, ProtocolError};
pub use exec::PerfStats;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
pub use hier::{
    HierConfig, HierConfigBuilder, HierConfigError, HierLeg, HierMessageSpec, NodeAddr,
};
pub use ids::{BusIndex, NodeId, RequestId, RingSize, VirtualBusId};
pub use message::{AbortedMessage, DeliveredMessage, MessageSpec};
pub use report::{LatencySummary, StatsReport};
