//! An N-dimensional lattice of RMB rings — the general form of the §4
//! future-work item ("reconfigurable multiple bus systems for 2- and 3-D
//! grid connected computers"), built from the ring RMB as the module the
//! paper proposes (§1: "the ring-based medium-sized system is used as a
//! module").
//!
//! For each dimension `d` and each *line* of the lattice along `d` (all
//! other coordinates fixed), one RMB ring connects the `dims[d]` nodes of
//! that line. A message routes dimension-ordered: one ring leg per
//! dimension where source and destination coordinates differ, handed off
//! at each corner. The lattice is a [`LegMap`]: the legs run on the
//! composition engine of `rmb-hier`, which launches each leg only when it
//! is due.
//!
//! The 2-D case is a grid of rings. `RmbLattice::new(vec![cols, rows],
//! cfg)` puts one row ring over the `cols` nodes of each row and one
//! column ring over the `rows` nodes of each column, with flat node `i` at
//! row `i / cols`, column `i % cols`; messages take the row leg first.

use rmb_baselines::{Network, RoutingOutcome};
use rmb_hier::{Leg, LegMap};
use rmb_types::{MessageSpec, NodeId, RmbConfig};

/// A lattice of RMB rings over `dims[0] × dims[1] × …` nodes.
///
/// Flat node ids use mixed-radix order: coordinate 0 varies fastest.
///
/// # Examples
///
/// ```
/// use rmb_analysis::RmbLattice;
/// use rmb_baselines::Network;
/// use rmb_types::{MessageSpec, NodeId, RmbConfig};
///
/// // A 3-D 4x4x4 lattice: 64 nodes, three ring legs at most.
/// let mut lat = RmbLattice::new(vec![4, 4, 4], RmbConfig::new(4, 2)?);
/// let out = lat.route_messages(
///     &[MessageSpec::new(NodeId::new(0), NodeId::new(63), 8)],
///     200_000,
/// );
/// assert_eq!(out.delivered.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RmbLattice {
    dims: Vec<u32>,
    cfgs: Vec<RmbConfig>,
}

impl RmbLattice {
    /// Builds a lattice; each dimension-`d` ring gets `ring_cfg`'s knobs
    /// sized to `dims[d]` nodes. Send/receive slots are widened to 2 so
    /// corner nodes can forward while originating.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given, any dimension is
    /// below 2, or the lattice has more than `u32::MAX` nodes.
    pub fn new(dims: Vec<u32>, ring_cfg: RmbConfig) -> Self {
        assert!(dims.len() >= 2, "a lattice needs at least two dimensions");
        assert!(
            dims.iter().all(|&d| d >= 2),
            "each dimension needs >= 2 nodes"
        );
        assert!(
            dims.iter()
                .try_fold(1u32, |n, &d| n.checked_mul(d))
                .is_some(),
            "a lattice has at most u32::MAX nodes"
        );
        let cfgs = dims
            .iter()
            .map(|&d| {
                let mut b = RmbConfig::builder(d, ring_cfg.buses())
                    .compaction(ring_cfg.compaction)
                    .early_compaction(ring_cfg.early_compaction)
                    .insertion(ring_cfg.insertion)
                    .retry_backoff(ring_cfg.node.retry_backoff)
                    .max_concurrent_sends(ring_cfg.node.max_concurrent_sends.max(2))
                    .max_concurrent_receives(ring_cfg.node.max_concurrent_receives.max(2));
                if let Some(t) = ring_cfg.head_timeout {
                    b = b.head_timeout(t);
                }
                b.build().expect("derived ring config is valid")
            })
            .collect();
        RmbLattice { dims, cfgs }
    }

    /// Flat-id distance between neighbours along dimension `d`.
    fn stride(&self, d: usize) -> u32 {
        self.dims[..d].iter().product()
    }

    /// Coordinate `d` of flat node `node`.
    fn coord(&self, node: NodeId, d: usize) -> u32 {
        node.index() / self.stride(d) % self.dims[d]
    }

    /// Rings along dimension `d`: one per line.
    fn lines_in_dim(&self, d: usize) -> u32 {
        self.node_count() / self.dims[d]
    }

    /// Carrier index of the dimension-`d` ring through `node`. Carriers
    /// are numbered dimension by dimension; within one, lines follow the
    /// flat id with coordinate `d` removed.
    fn carrier(&self, node: NodeId, d: usize) -> u32 {
        let (stride, flat) = (self.stride(d), node.index());
        let line = flat % stride + flat / (stride * self.dims[d]) * stride;
        (0..d).map(|e| self.lines_in_dim(e)).sum::<u32>() + line
    }
}

impl LegMap for RmbLattice {
    fn carriers(&self) -> Vec<RmbConfig> {
        (0..self.dims.len())
            .flat_map(|d| std::iter::repeat_n(self.cfgs[d], self.lines_in_dim(d) as usize))
            .collect()
    }

    /// The leg along the lowest dimension in which `at` and the
    /// destination differ.
    fn next_leg(&self, msg: &MessageSpec, at: NodeId) -> Leg {
        let d = (0..self.dims.len())
            .find(|&d| self.coord(at, d) != self.coord(msg.destination, d))
            .expect("a message still travelling differs in some coordinate");
        let (from, to) = (self.coord(at, d), self.coord(msg.destination, d));
        Leg {
            carrier: self.carrier(at, d),
            from: NodeId::new(from),
            to: NodeId::new(to),
            reaches: NodeId::new(at.index() - from * self.stride(d) + to * self.stride(d)),
        }
    }

    fn stall_window(&self, messages: &[MessageSpec]) -> u64 {
        8 * u64::from(self.dims.iter().sum::<u32>())
            + 3 * self.cfgs[0].head_timeout.unwrap_or(0)
            + 16 * self.cfgs[0].node.retry_backoff
            + messages
                .iter()
                .map(|m| u64::from(m.data_flits))
                .max()
                .unwrap_or(0)
            + 128
    }
}

impl Network for RmbLattice {
    fn label(&self) -> String {
        let shape: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        format!(
            "rmb-lattice({}, k={})",
            shape.join("x"),
            self.cfgs[0].buses()
        )
    }

    fn node_count(&self) -> u32 {
        self.dims.iter().product()
    }

    fn link_count(&self) -> u64 {
        // One ring per line per dimension, each with dims[d] * k segments.
        (0..self.dims.len())
            .map(|d| {
                u64::from(self.lines_in_dim(d))
                    * u64::from(self.dims[d])
                    * u64::from(self.cfgs[d].buses())
            })
            .sum()
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        crate::outcome(rmb_hier::route(self, messages, max_ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: u16) -> RmbConfig {
        RmbConfig::builder(4, k)
            .head_timeout(256)
            .retry_backoff(16)
            .build()
            .unwrap()
    }

    #[test]
    fn three_d_lattice_routes_corner_to_corner() {
        let mut lat = RmbLattice::new(vec![4, 4, 4], cfg(2));
        assert_eq!(lat.node_count(), 64);
        // Rings: 3 dims x 16 lines x 4 nodes x 2 buses = 384 segments.
        assert_eq!(lat.link_count(), 384);
        let out = lat.route_messages(
            &[MessageSpec::new(NodeId::new(0), NodeId::new(63), 8)],
            200_000,
        );
        assert_eq!(out.delivered.len(), 1, "stalled={}", out.stalled);
    }

    #[test]
    fn single_message_routes_row_then_column() {
        let mut grid = RmbLattice::new(vec![4, 4], cfg(2));
        // (row 0, col 0) -> (3, 3): row leg 0->3 then column leg 0->3.
        let out = grid.route_messages(
            &[MessageSpec::new(NodeId::new(0), NodeId::new(15), 8)],
            100_000,
        );
        assert_eq!(out.delivered.len(), 1, "stalled={}", out.stalled);
        // Two ring legs: strictly slower than one leg, but bounded.
        let lat = out.delivered[0].latency();
        assert!(lat > 20 && lat < 200, "latency {lat}");
    }

    #[test]
    fn same_row_and_same_column_messages_take_one_leg() {
        let mut grid = RmbLattice::new(vec![4, 4], cfg(2));
        let out = grid.route_messages(
            &[
                MessageSpec::new(NodeId::new(0), NodeId::new(3), 4), // same row
                MessageSpec::new(NodeId::new(1), NodeId::new(13), 4), // same column
            ],
            100_000,
        );
        assert_eq!(out.delivered.len(), 2, "stalled={}", out.stalled);
    }

    #[test]
    fn a_first_leg_waiting_for_its_tick_blocks_no_hand_off() {
        // A (1 -> 13) shares its source's column, so its only leg runs on
        // column ring 1, but not before tick 5,000. B (0 -> 9) reaches
        // node 1 by row at once and hands off into that same column ring.
        // A leg enters its ring only when due, so B never queues behind A.
        let a = MessageSpec::new(NodeId::new(1), NodeId::new(13), 8).at(5_000);
        let b = MessageSpec::new(NodeId::new(0), NodeId::new(9), 8);
        let mut grid = RmbLattice::new(vec![4, 4], cfg(2));
        let alone = grid.route_messages(&[b], 100_000);
        assert_eq!(alone.delivered[0].latency(), 28);
        let out = grid.route_messages(&[a, b], 100_000);
        assert_eq!(out.delivered.len(), 2, "stalled={}", out.stalled);
        let got = out.delivered.iter().find(|d| d.request.get() == 1).unwrap();
        assert_eq!(got.spec, b);
        assert_eq!(got.latency(), 28);
    }

    #[test]
    fn grid_beats_single_ring_at_equal_wiring() {
        // 36 nodes of far traffic at equal hardware: one ring with k = 8
        // (36*8 = 288 segments) against a 6x6 grid of k = 4 rings
        // (2*36*4 = 288 segments). Staggered injection keeps both below
        // outright saturation; the grid's sqrt-diameter rings win.
        let n = 36u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .map(|s| {
                MessageSpec::new(NodeId::new(s), NodeId::new((s + 17) % n), 8).at(u64::from(s) * 24)
            })
            .collect();
        let ring_cfg = RmbConfig::builder(n, 8)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .unwrap();
        let mut ring = crate::RmbRing::new(ring_cfg);
        let grid_cfg = RmbConfig::builder(6, 4)
            .head_timeout(256)
            .retry_backoff(16)
            .build()
            .unwrap();
        let mut grid = RmbLattice::new(vec![6, 6], grid_cfg);
        assert_eq!(grid.link_count(), ring.link_count());
        let r = ring.route_messages(&msgs, 4_000_000);
        let g = grid.route_messages(&msgs, 4_000_000);
        assert_eq!(r.delivered.len(), msgs.len(), "ring stalled={}", r.stalled);
        assert_eq!(g.delivered.len(), msgs.len(), "grid stalled={}", g.stalled);
        assert!(
            g.makespan() < r.makespan(),
            "grid {} vs ring {}",
            g.makespan(),
            r.makespan()
        );
    }

    #[test]
    fn grid_routes_a_full_permutation() {
        let mut grid = RmbLattice::new(vec![4, 4], cfg(2));
        let n = 16u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .filter(|&s| n - 1 - s != s)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new(n - 1 - s), 8))
            .collect();
        let out = grid.route_messages(&msgs, 1_000_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
    }

    #[test]
    fn matches_2d_grid_semantics() {
        // The 2-D case is a grid of rings: one row ring per row and one
        // column ring per column, k buses each. It routes the transpose
        // permutation, whose every message turns a corner.
        let mut lat = RmbLattice::new(vec![4, 4], cfg(2));
        assert_eq!(lat.node_count(), 16);
        assert_eq!(lat.link_count(), 2 * 16 * 2);
        let msgs: Vec<MessageSpec> = (0..16u32)
            .map(|s| (s, (s % 4) * 4 + s / 4))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| MessageSpec::new(NodeId::new(s), NodeId::new(d), 8))
            .collect();
        assert_eq!(msgs.len(), 12);
        let out = lat.route_messages(&msgs, 1_000_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
    }

    #[test]
    fn partial_alignment_skips_legs() {
        let mut lat = RmbLattice::new(vec![3, 3, 3], cfg(2));
        // (0,1,2) -> (2,1,2): only dimension 0 differs; flat ids:
        // 0 + 1*3 + 2*9 = 21 -> 2 + 1*3 + 2*9 = 23.
        let out = lat.route_messages(
            &[MessageSpec::new(NodeId::new(21), NodeId::new(23), 4)],
            100_000,
        );
        assert_eq!(out.delivered.len(), 1);
        // Single ring leg: latency well under two-leg cost.
        assert!(
            out.delivered[0].latency() < 40,
            "{}",
            out.delivered[0].latency()
        );
    }

    #[test]
    fn random_traffic_over_3d() {
        let mut lat = RmbLattice::new(vec![3, 4, 3], cfg(2));
        let n = 36u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .filter(|&s| (s * 13 + 7) % n != s)
            .map(|s| {
                MessageSpec::new(NodeId::new(s), NodeId::new((s * 13 + 7) % n), 6)
                    .at(u64::from(s) * 8)
            })
            .collect();
        let out = lat.route_messages(&msgs, 2_000_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
    }

    #[test]
    #[should_panic(expected = "two dimensions")]
    fn rejects_one_dimension() {
        let _ = RmbLattice::new(vec![8], cfg(2));
    }

    #[test]
    #[should_panic(expected = ">= 2 nodes")]
    fn rejects_degenerate_grids() {
        // A 1 x 8 grid is just a ring.
        let _ = RmbLattice::new(vec![8, 1], cfg(2));
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX nodes")]
    fn rejects_lattices_whose_node_count_overflows() {
        let _ = RmbLattice::new(vec![65_536, 65_536], cfg(2));
    }
}
