//! The k-capped binary fat tree (paper Fig. 11).
//!
//! Leiserson's fat tree (the paper's reference \[6\]) doubles channel
//! capacity at every level; the paper's §3.2 trims it to the *minimum*
//! structure that still supports a k-permutation: capacity `min(2^i, k)`
//! at distance `i` above the leaves. Routing is up to the lowest common
//! ancestor and down to the destination; the up-link within a capacity
//! bundle is chosen by a salt-rotated scan, modelling the randomized
//! routing of Greenberg–Leiserson (the paper's reference \[12\]).

use crate::graph::{Graph, Vertex};
use crate::traits::{Network, RoutingOutcome};
use crate::wormhole::run_wormhole;
use rmb_types::MessageSpec;

/// A binary fat tree over `N` leaves with capacities capped at `k`.
///
/// Vertices use heap indexing: the root is 1, internal node `h` has
/// children `2h` and `2h + 1`, and leaf (PE) `i` is vertex `N + i`.
/// Vertex 0 is unused padding.
///
/// # Examples
///
/// ```
/// use rmb_baselines::{FatTree, Network};
///
/// let t = FatTree::new(16, 4);
/// assert_eq!(t.node_count(), 16);
/// // Edge above each leaf: capacity 1; above size-2 subtree: 2;
/// // above size-4/8 subtrees: 4 (capped).
/// assert_eq!(t.capacity_above_subtree(1), 1);
/// assert_eq!(t.capacity_above_subtree(8), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FatTree {
    n: u32,
    k: u16,
    layout_wires: bool,
    graph: Graph,
}

impl FatTree {
    /// Builds the fat tree over `n` leaves (power of two, at least 2) with
    /// capacities capped at `k >= 1`.
    ///
    /// # Panics
    ///
    /// Panics on a non-power-of-two `n`, `n < 2`, or `k == 0`.
    pub fn new(n: u32, k: u16) -> Self {
        FatTree::build(n, k, false)
    }

    /// Builds the fat tree with H-tree layout wire latencies: the link
    /// above a subtree of `s` leaves spans `sqrt(s)` unit wires — the
    /// §3.2 remark that fat-tree "link lengths depend on the layout",
    /// made measurable.
    pub fn new_with_layout_wires(n: u32, k: u16) -> Self {
        FatTree::build(n, k, true)
    }

    fn build(n: u32, k: u16, layout_wires: bool) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "fat tree needs a power-of-two leaf count"
        );
        assert!(k >= 1, "capacity cap must be at least 1");
        // Heap vertices 1 .. 2N (leaves N .. 2N-1), plus unused vertex 0.
        let mut graph = Graph::new(2 * n as usize);
        for h in 2..2 * n as usize {
            let parent = h / 2;
            let subtree = Self::subtree_leaves(n, h);
            let cap = subtree.min(u32::from(k));
            let latency = if layout_wires {
                (f64::from(subtree).sqrt().round() as u32).max(1)
            } else {
                1
            };
            for _ in 0..cap {
                graph.add_link_with_latency(h, parent, latency);
            }
        }
        FatTree {
            n,
            k,
            layout_wires,
            graph,
        }
    }

    /// Number of leaves below heap vertex `h`.
    fn subtree_leaves(n: u32, h: usize) -> u32 {
        // Depth of h: floor(log2 h); leaves at depth log2 n.
        let depth = u32::BITS - 1 - (h as u32).leading_zeros();
        let leaf_depth = n.trailing_zeros();
        1 << (leaf_depth - depth)
    }

    /// The capacity of the channel bundle above a subtree of the given
    /// leaf count: `min(size, k)`.
    pub fn capacity_above_subtree(&self, subtree_leaves: u32) -> u32 {
        subtree_leaves.min(u32::from(self.k))
    }

    /// The underlying channel graph.
    pub const fn graph(&self) -> &Graph {
        &self.graph
    }

    fn depth(h: Vertex) -> u32 {
        u32::BITS - 1 - (h as u32).leading_zeros()
    }

    /// `true` if leaf vertex `leaf` lies in the subtree rooted at `h`.
    fn in_subtree(h: Vertex, leaf: Vertex) -> bool {
        let gap = Self::depth(leaf) - Self::depth(h);
        leaf >> gap == h
    }

    /// Up toward the LCA, then down toward the destination leaf. Up-links
    /// are scanned starting at a salt-dependent offset (randomized
    /// routing); down-links likewise within the bundle to the one child on
    /// the path.
    fn route(&self, graph: &Graph, at: Vertex, dst: Vertex, salt: u64) -> Vec<usize> {
        let bundle = if Self::in_subtree(at, dst) {
            // Go down toward the child whose subtree holds dst.
            let gap = Self::depth(dst) - Self::depth(at);
            debug_assert!(gap > 0, "routing called at the destination");
            let child = dst >> (gap - 1);
            graph.channels_between(at, child)
        } else {
            graph.channels_between(at, at / 2)
        };
        // Rotate the bundle by the salt so parallel channels share load.
        let m = bundle.len();
        debug_assert!(m > 0);
        let start = (salt as usize) % m;
        let mut rotated = Vec::with_capacity(m);
        rotated.extend_from_slice(&bundle[start..]);
        rotated.extend_from_slice(&bundle[..start]);
        rotated
    }
}

impl Network for FatTree {
    fn label(&self) -> String {
        if self.layout_wires {
            format!("fat-tree(N={}, k={}, layout wires)", self.n, self.k)
        } else {
            format!("fat-tree(N={}, k={})", self.n, self.k)
        }
    }

    fn node_count(&self) -> u32 {
        self.n
    }

    fn link_count(&self) -> u64 {
        self.graph.undirected_links()
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        let tree = self.clone();
        let leaf_base = self.n;
        let report = run_wormhole(
            &self.graph,
            &move |g: &Graph, at: Vertex, dst: Vertex, salt: u64| tree.route(g, at, dst, salt),
            &|node| (leaf_base + node) as Vertex,
            messages,
            max_ticks,
        );
        RoutingOutcome {
            delivered: report.delivered,
            ticks: report.ticks,
            stalled: report.stalled,
            peak_busy_channels: report.peak_busy_channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::NodeId;

    #[test]
    fn capacities_follow_min_rule() {
        let t = FatTree::new(16, 4);
        // Bundle above leaf h=16..31: subtree 1 -> capacity 1.
        assert_eq!(t.graph().channels_between(16, 8).len(), 1);
        // h=8 (subtree 2) -> parent 4: capacity 2.
        assert_eq!(t.graph().channels_between(8, 4).len(), 2);
        // h=4 (subtree 4) -> 2: capacity 4.
        assert_eq!(t.graph().channels_between(4, 2).len(), 4);
        // h=2 (subtree 8) -> root: capped at k=4.
        assert_eq!(t.graph().channels_between(2, 1).len(), 4);
    }

    #[test]
    fn link_count_matches_formula() {
        // Sum over levels of per-edge capacities (undirected).
        let t = FatTree::new(16, 4);
        // 16 leaf edges*1 + 8 edges*2 + 4 edges*4 + 2 edges*4 = 16+16+16+8.
        assert_eq!(t.link_count(), 56);
    }

    #[test]
    fn single_message_up_down_distance() {
        let mut t = FatTree::new(16, 4);
        // Leaves 0 and 15 meet at the root: 4 up + 4 down = 8 hops.
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(15), 0)];
        let out = t.route_messages(&msgs, 1_000);
        assert_eq!(out.delivered.len(), 1);
        assert_eq!(out.delivered[0].circuit_at, 8);
        // Siblings meet one level up: 2 hops.
        let msgs = vec![MessageSpec::new(NodeId::new(4), NodeId::new(5), 0)];
        let out = t.route_messages(&msgs, 1_000);
        assert_eq!(out.delivered[0].circuit_at, 2);
    }

    #[test]
    fn k_permutation_routes_through_capped_tree() {
        // A full reversal permutation on 16 leaves with k=4: heavy root
        // traffic, but randomized up-links spread it over the bundle.
        let mut t = FatTree::new(16, 4);
        let msgs: Vec<MessageSpec> = (0..16u32)
            .filter(|&s| 15 - s != s)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new(15 - s), 4))
            .collect();
        let out = t.route_messages(&msgs, 100_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
        assert!(!out.stalled);
    }

    #[test]
    fn local_traffic_stays_cheap_even_with_k1() {
        let mut t = FatTree::new(8, 1);
        let msgs: Vec<MessageSpec> = (0..4u32)
            .map(|i| MessageSpec::new(NodeId::new(2 * i), NodeId::new(2 * i + 1), 8))
            .collect();
        let out = t.route_messages(&msgs, 10_000);
        assert_eq!(out.delivered.len(), 4);
        // Sibling pairs never contend: all circuits are 2 hops.
        assert!(out.delivered.iter().all(|d| d.setup_latency() <= 4));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_bad_sizes() {
        let _ = FatTree::new(10, 2);
    }

    #[test]
    fn layout_wires_slow_the_top_of_the_tree() {
        let mut flat = FatTree::new(16, 4);
        let mut laid_out = FatTree::new_with_layout_wires(16, 4);
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(15), 0)];
        let f = flat.route_messages(&msgs, 1_000);
        let l = laid_out.route_messages(&msgs, 1_000);
        assert!(
            l.delivered[0].circuit_at > f.delivered[0].circuit_at,
            "H-tree wires must slow the root crossing: {} vs {}",
            l.delivered[0].circuit_at,
            f.delivered[0].circuit_at
        );
    }
}
