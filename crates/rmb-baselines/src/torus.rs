//! The k-ary n-cube (torus) — the "other universal interconnection
//! network" the paper's §4 names for future comparison.
//!
//! `N = r^d` nodes arranged as `d` nested rings of radix `r`, with
//! bidirectional links. Routing is dimension-ordered and minimal (the
//! shorter ring direction per dimension). The wrap-around rings would
//! deadlock plain wormhole routing, so every directed ring carries **two
//! virtual channels** multiplexed over one physical wire (Dally's
//! dateline scheme): a packet rides VC0 while it still has the wrap edge
//! ahead of it in the current dimension, and VC1 otherwise, which breaks
//! the cyclic channel dependency.

use crate::graph::{Graph, Vertex};
use crate::traits::{Network, RoutingOutcome};
use crate::wormhole::run_wormhole;
use rmb_types::MessageSpec;

/// A `radix`-ary `dims`-cube with two virtual channels per directed link.
///
/// # Examples
///
/// ```
/// use rmb_baselines::{KAryNCube, Network};
///
/// let torus = KAryNCube::new(4, 2); // 16 nodes, 4x4 torus
/// assert_eq!(torus.node_count(), 16);
/// // Physical wires: N * d * 2 directions = 64; VCs double the channel
/// // count but not the wire count.
/// assert_eq!(torus.physical_links(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct KAryNCube {
    radix: u32,
    dims: u32,
    graph: Graph,
    /// `vc_channel[dim][dir][node][vc]` — channel id leaving `node` along
    /// `dim` in direction `dir` (0 = +, 1 = -) on virtual channel `vc`.
    vc_channel: Vec<Vec<Vec<[usize; 2]>>>,
}

impl KAryNCube {
    /// Builds an `r`-ary `d`-cube.
    ///
    /// # Panics
    ///
    /// Panics if `radix < 3` (radix 2 degenerates to a hypercube and
    /// needs no wrap links; use [`crate::Hypercube`]) or `dims == 0`.
    pub fn new(radix: u32, dims: u32) -> Self {
        assert!(radix >= 3, "use Hypercube for radix-2 structures");
        assert!(dims >= 1, "need at least one dimension");
        let n = radix.pow(dims) as usize;
        let mut graph = Graph::new(n);
        let mut vc_channel = vec![vec![vec![[usize::MAX; 2]; n]; 2]; dims as usize];
        let mut next_group = 0usize;
        // `dim`/`node` double as coordinates and table indices; plain
        // ranges read best here.
        #[allow(clippy::needless_range_loop)]
        for dim in 0..dims as usize {
            let stride = radix.pow(dim as u32) as usize;
            for node in 0..n {
                let coord = (node / stride) % radix as usize;
                // + direction neighbour.
                let plus = node - coord * stride + ((coord + 1) % radix as usize) * stride;
                // - direction neighbour.
                let minus = node - coord * stride
                    + ((coord + radix as usize - 1) % radix as usize) * stride;
                for (dir, to) in [(0usize, plus), (1usize, minus)] {
                    let group = next_group;
                    next_group += 1;
                    let vc0 = graph.add_channel_full(node, to, 1, group);
                    let vc1 = graph.add_channel_full(node, to, 1, group);
                    vc_channel[dim][dir][node] = [vc0, vc1];
                }
            }
        }
        KAryNCube {
            radix,
            dims,
            graph,
            vc_channel,
        }
    }

    /// The underlying channel graph (two VCs per physical wire).
    pub const fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of physical wires: `N · d · 2`.
    pub fn physical_links(&self) -> u64 {
        self.graph.physical_link_count()
    }

    fn coord(&self, v: Vertex, dim: usize) -> usize {
        let stride = self.radix.pow(dim as u32) as usize;
        (v / stride) % self.radix as usize
    }

    /// Dimension-ordered minimal routing with dateline VC selection, as a
    /// [`crate::wormhole::RoutingFn`]-shaped oracle. Public so drivers
    /// that own a [`crate::wormhole::WormholeEngine`] directly (the
    /// open-loop serving adapter) can reuse the exact routing that
    /// [`Network::route_messages`] uses.
    pub fn candidates(&self, at: Vertex, dst: Vertex, salt: u64) -> Vec<usize> {
        self.route(at, dst, salt)
    }

    /// Dimension-ordered minimal routing with dateline VC selection.
    fn route(&self, at: Vertex, dst: Vertex, _salt: u64) -> Vec<usize> {
        let r = self.radix as usize;
        for dim in 0..self.dims as usize {
            let a = self.coord(at, dim);
            let b = self.coord(dst, dim);
            if a == b {
                continue;
            }
            let forward = (b + r - a) % r;
            let backward = (a + r - b) % r;
            // Prefer the shorter direction; ties go forward.
            let dir = if forward <= backward { 0 } else { 1 };
            // Dateline: while the wrap edge is still ahead on the chosen
            // ring direction, ride VC0; afterwards (or when no wrap is
            // needed) ride VC1. Going + the wrap edge is r-1 -> 0, so it
            // lies ahead iff a > b; going - it is 0 -> r-1, ahead iff
            // a < b.
            let wrap_ahead = if dir == 0 { a > b } else { a < b };
            let vc = usize::from(!wrap_ahead);
            return vec![self.vc_channel[dim][dir][at][vc]];
        }
        unreachable!("routing called at the destination");
    }
}

impl Network for KAryNCube {
    fn label(&self) -> String {
        format!("torus({}-ary {}-cube)", self.radix, self.dims)
    }

    fn node_count(&self) -> u32 {
        self.radix.pow(self.dims)
    }

    fn link_count(&self) -> u64 {
        // Undirected physical links: N * d.
        self.physical_links() / 2
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        let torus = self.clone();
        let report = run_wormhole(
            &self.graph,
            &move |_g: &Graph, at: Vertex, dst: Vertex, salt: u64| torus.route(at, dst, salt),
            &|node| node as Vertex,
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
    fn structure_counts() {
        let t = KAryNCube::new(4, 2);
        assert_eq!(t.node_count(), 16);
        // Channels: N * d * 2 dirs * 2 VCs = 128; wires: 64.
        assert_eq!(t.graph().channel_count(), 128);
        assert_eq!(t.physical_links(), 64);
        assert_eq!(t.link_count(), 32);
    }

    #[test]
    #[should_panic(expected = "radix-2")]
    fn rejects_radix_two() {
        let _ = KAryNCube::new(2, 3);
    }

    #[test]
    fn minimal_routing_distance() {
        let mut t = KAryNCube::new(5, 2);
        // (0,0) -> (2,2): 2 + 2 hops.
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(12), 0)];
        let out = t.route_messages(&msgs, 1_000);
        assert_eq!(out.delivered[0].circuit_at, 4);
        // (0,0) -> (4,0): one hop backward around the wrap.
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(4), 0)];
        let out = t.route_messages(&msgs, 1_000);
        assert_eq!(out.delivered[0].circuit_at, 1);
    }

    #[test]
    fn wrap_heavy_permutation_does_not_deadlock() {
        // Rotation by r-1 in each ring: every message uses a wrap edge.
        let r = 4u32;
        let t_nodes = r * r;
        let mut t = KAryNCube::new(r, 2);
        let msgs: Vec<MessageSpec> = (0..t_nodes)
            .map(|s| {
                let x = s % r;
                let y = s / r;
                let dst = ((y + r - 1) % r) * r + (x + r - 1) % r;
                MessageSpec::new(NodeId::new(s), NodeId::new(dst), 8)
            })
            .filter(|m| m.source != m.destination)
            .collect();
        let out = t.route_messages(&msgs, 200_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
        assert!(!out.stalled);
    }

    #[test]
    fn full_random_permutation_routes() {
        let mut t = KAryNCube::new(3, 3); // 27 nodes
        let n = 27u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .filter(|&s| (s * 16 + 5) % n != s)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new((s * 16 + 5) % n), 6))
            .collect();
        let out = t.route_messages(&msgs, 400_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
    }

    #[test]
    fn vcs_share_one_wire() {
        // Two worms forced onto the same physical +x wire: even on
        // different VCs they serialise flit by flit.
        let mut t = KAryNCube::new(4, 1); // a single 4-ring
        let msgs = vec![
            MessageSpec::new(NodeId::new(0), NodeId::new(1), 16),
            MessageSpec::new(NodeId::new(3), NodeId::new(1), 16),
        ];
        let out = t.route_messages(&msgs, 100_000);
        assert_eq!(out.delivered.len(), 2);
        // Wire 0->1 carries both streams: total 36 flits over one wire
        // cannot finish before tick ~36.
        assert!(out.makespan() >= 34, "makespan {}", out.makespan());
    }
}
