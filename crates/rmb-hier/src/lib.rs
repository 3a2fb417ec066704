//! Hierarchical multi-ring RMB: local rings bridged over a global ring.
//!
//! A single RMB ring scales in `k` (parallel segments per hop) but not in
//! `N` — one ring means one injection domain and mean span `N/2`. This
//! crate composes several *local* rings (each a full
//! [`RmbNetwork`](rmb_core::RmbNetwork) with its own scheduler, fault
//! machinery and compaction) with one *global* ring joined through
//! **bridge INCs**: a bridge occupies one node position on its local ring
//! and one on the global ring.
//!
//! An inter-ring message is carried as a chain of ordinary RMB circuit
//! set-ups — source → bridge on the source ring, bridge → bridge on the
//! global ring, bridge → destination on the destination ring — with the
//! full Nack/teardown and retry/backoff protocol applied per leg. Each
//! ring keeps the paper's no-intermediate-buffering property; the only
//! buffering anywhere is the bridges' bounded queues (one *up* queue
//! toward the global ring and one *down* queue toward the local ring,
//! [`HierConfig::bridge_queue_depth`](rmb_types::HierConfig) slots each).
//! A leg is only launched once a slot at the receiving bridge is
//! reserved; when the queue is full the message stays where it is and
//! backs off — the up/down split makes the slot dependency acyclic, so
//! bridge queues cannot deadlock against each other.
//!
//! # One composition engine
//!
//! The hierarchy runs on the crate's ring-composition engine. Each tick it
//! advances only the rings with due work, catches idle rings up when they
//! are next touched, and skips stretches in which nothing is due; results
//! are identical to ticking every ring every tick. [`route`] runs the same
//! engine over any [`LegMap`], handing legs off at unbounded corners
//! instead of bridge queues: `rmb-analysis` maps its lattice of rings and
//! its dual ring this way.
//!
//! # Examples
//!
//! ```
//! use rmb_hier::HierNetwork;
//! use rmb_types::{HierConfig, HierMessageSpec, NodeAddr, NodeId};
//!
//! // 4 local rings of 16 nodes, k = 4, bridges at position 0.
//! let cfg = HierConfig::builder(4, 16, 4).build()?;
//! let mut net = HierNetwork::new(cfg);
//! // r0.n3 → r2.n9 crosses two bridges and the global ring.
//! net.submit(HierMessageSpec::new(
//!     NodeAddr::new(0, NodeId::new(3)),
//!     NodeAddr::new(2, NodeId::new(9)),
//!     16,
//! ))?;
//! let report = net.run_to_quiescence(100_000);
//! assert_eq!(report.delivered, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod engine;
pub mod model;
mod network;

pub use compose::{route, route_checked, Leg, LegMap, Routed};
pub use network::{HierAborted, HierDelivered, HierNetwork, HierNetworkBuilder, HierReport};
