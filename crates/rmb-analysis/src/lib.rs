//! Analysis tools for the RMB reproduction.
//!
//! Three jobs:
//!
//! 1. [`cost`] — the closed-form §3.2 comparison: links, cross points and
//!    VLSI area needed by each architecture to support a k-permutation.
//! 2. [`structural`] — cross-checks of those formulas against *actually
//!    constructed* network instances from `rmb-baselines` and `rmb-core`.
//! 3. [`offline`] — the offline-optimal batch scheduler for the ring
//!    (clockwise arcs over `k` buses) and the competitive-ratio
//!    computation the paper's §4 proposes as future work.
//!
//! Plus the [`Network`](rmb_baselines::Network) adapters that let RMB
//! systems take part in the same permutation-routing experiments as the
//! baseline networks: one ring ([`RmbRing`]), and the two compositions
//! that run on `rmb-hier`'s engine as leg maps, the dual ring
//! ([`DualRmbRing`]) and the lattice of rings ([`RmbLattice`], whose 2-D
//! case is the grid of rings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod dual_ring;
mod lattice;
pub mod model;
pub mod offline;
pub mod report;
mod rmb_adapter;
pub mod structural;

pub use cost::{Architecture, Cost};
pub use dual_ring::DualRmbRing;
pub use lattice::RmbLattice;
pub use offline::{competitive_ratio, offline_schedule, ring_lower_bound, OfflineSchedule};
pub use report::Table;
pub use rmb_adapter::RmbRing;

use rmb_baselines::RoutingOutcome;

/// A composition's engine run as the common routing outcome.
fn outcome(routed: rmb_hier::Routed) -> RoutingOutcome {
    RoutingOutcome {
        delivered: routed.delivered,
        ticks: routed.ticks,
        stalled: routed.stalled,
        peak_busy_channels: routed.peak_circuits,
    }
}
