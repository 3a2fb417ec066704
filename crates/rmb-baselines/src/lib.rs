//! Comparator interconnection networks for the RMB reproduction.
//!
//! §3 of the paper compares the RMB against the hypercube family, the
//! fat-tree and the 2-D mesh. This crate implements those comparators from
//! scratch so that the permutation-routing experiments (EXPERIMENTS.md,
//! experiment E2) can *measure* the comparison rather than only reproduce
//! the closed-form cost analysis:
//!
//! * [`Hypercube`] — binary n-cube with deterministic e-cube
//!   (dimension-ordered) routing.
//! * [`Mesh2D`] — square 2-D mesh with XY routing.
//! * [`KAryNCube`] — the torus (§4's "k-ary n cube"), dimension-ordered
//!   minimal routing with two dateline virtual channels per wire.
//! * [`FatTree`] — binary fat tree with channel capacities capped at `k`
//!   (the paper's Fig. 11 structure), randomized up-link selection in the
//!   style of Greenberg–Leiserson.
//!
//! All four run on a shared flit-level [`wormhole`] engine: the header
//! flit acquires channels one hop per tick, body flits pipeline behind
//! through single-flit channel buffers, and the tail releases channels as
//! it passes. The engine is deliberately *not* the RMB protocol — it is
//! the standard wormhole switching of the era (Dally, the paper's
//! reference \[10\]) that these topologies actually used.
//!
//! # Examples
//!
//! ```
//! use rmb_baselines::{Hypercube, Network};
//! use rmb_types::{MessageSpec, NodeId};
//!
//! let mut cube = Hypercube::new(16);
//! let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(9), 8)];
//! let outcome = cube.route_messages(&msgs, 10_000);
//! assert_eq!(outcome.delivered.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fattree;
mod graph;
mod hypercube;
mod mesh;
mod torus;
mod traits;
pub mod wormhole;

pub use fattree::FatTree;
pub use graph::{Channel, Graph, Vertex};
pub use hypercube::Hypercube;
pub use mesh::Mesh2D;
pub use torus::KAryNCube;
pub use traits::{Network, RoutingOutcome};
pub use wormhole::{RoutingFn, WormholeEngine, WormholeReport};
