//! The binary hypercube with e-cube (dimension-ordered) routing.
//!
//! The paper's §3.1 describes the n-cube (its reference \[2\], the Cosmic
//! Cube) and its permutation-capable derivatives EHC and GFC. The
//! simulated comparator here is the plain binary cube with deterministic
//! e-cube routing — correct the lowest differing address bit first —
//! which is deadlock-free under wormhole switching.

use crate::graph::{Graph, Vertex};
use crate::traits::{Network, RoutingOutcome};
use crate::wormhole::run_wormhole;
use rmb_types::MessageSpec;

/// An `n`-dimensional binary hypercube of `N = 2^n` nodes.
///
/// # Examples
///
/// ```
/// use rmb_baselines::{Hypercube, Network};
///
/// let cube = Hypercube::new(32);
/// assert_eq!(cube.link_count(), 32 * 5 / 2); // N log N / 2 undirected
/// ```
#[derive(Debug, Clone)]
pub struct Hypercube {
    n: u32,
    layout_wires: bool,
    graph: Graph,
}

impl Hypercube {
    /// Builds a hypercube over `n` nodes with unit-length wires.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two and at least 2.
    pub fn new(n: u32) -> Self {
        Hypercube::build(n, false)
    }

    /// Builds a hypercube whose wire latencies follow a 2-D VLSI layout:
    /// dimension `d` links span `2^(d/2)` unit wires. This is the §3.2
    /// observation that hypercube "link lengths vary in different
    /// dimensions in any layout", made measurable.
    pub fn new_with_layout_wires(n: u32) -> Self {
        Hypercube::build(n, true)
    }

    fn build(n: u32, layout_wires: bool) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "hypercube size must be a power of two >= 2"
        );
        let dims = n.trailing_zeros();
        let mut graph = Graph::new(n as usize);
        for u in 0..n as usize {
            for d in 0..dims {
                let v = u ^ (1 << d);
                let latency = if layout_wires { 1 << (d / 2) } else { 1 };
                // Add each directed channel once (the twin appears when we
                // visit `v`).
                graph.add_channel_with_latency(u, v, latency);
            }
        }
        Hypercube {
            n,
            layout_wires,
            graph,
        }
    }

    /// The underlying channel graph.
    pub const fn graph(&self) -> &Graph {
        &self.graph
    }

    /// E-cube: resolve the lowest differing dimension first. Returns a
    /// single candidate, which makes the routing deterministic and
    /// deadlock-free.
    fn route(graph: &Graph, at: Vertex, dst: Vertex, _salt: u64) -> Vec<usize> {
        let diff = at ^ dst;
        debug_assert!(diff != 0, "routing called at the destination");
        let dim = diff.trailing_zeros();
        let next = at ^ (1 << dim);
        graph.channels_between(at, next)
    }
}

impl Network for Hypercube {
    fn label(&self) -> String {
        if self.layout_wires {
            format!("hypercube(N={}, layout wires)", self.n)
        } else {
            format!("hypercube(N={})", self.n)
        }
    }

    fn node_count(&self) -> u32 {
        self.n
    }

    fn link_count(&self) -> u64 {
        self.graph.undirected_links()
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        let report = run_wormhole(
            &self.graph,
            &Hypercube::route,
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
        let c = Hypercube::new(16);
        assert_eq!(c.graph().channel_count(), 16 * 4); // directed
        assert_eq!(c.link_count(), 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Hypercube::new(12);
    }

    #[test]
    fn ecube_delivers_single_message_in_hamming_distance_steps() {
        let mut c = Hypercube::new(16);
        // 0 -> 15: Hamming distance 4.
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(15), 0)];
        let out = c.route_messages(&msgs, 1_000);
        assert_eq!(out.delivered.len(), 1);
        assert_eq!(out.delivered[0].circuit_at, 4);
    }

    #[test]
    fn ecube_routes_full_permutation() {
        let n = 32;
        let mut c = Hypercube::new(n);
        // Bit-complement permutation: the classic e-cube stress.
        let msgs: Vec<MessageSpec> = (0..n)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new(!s & (n - 1)), 8))
            .collect();
        let out = c.route_messages(&msgs, 100_000);
        assert_eq!(out.delivered.len(), n as usize, "stalled={}", out.stalled);
        assert!(!out.stalled);
    }

    #[test]
    fn layout_wires_slow_high_dimensions() {
        let mut flat = Hypercube::new(16);
        let mut laid_out = Hypercube::new_with_layout_wires(16);
        // 0 -> 15 crosses dimensions 0..4; with layout wires the higher
        // dimensions cost 1,1,2,2 ticks instead of 1 each.
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(15), 0)];
        let f = flat.route_messages(&msgs, 1_000);
        let l = laid_out.route_messages(&msgs, 1_000);
        assert_eq!(f.delivered[0].circuit_at, 4);
        assert_eq!(l.delivered[0].circuit_at, 6);
    }

    #[test]
    fn random_permutation_has_no_deadlock() {
        let n = 64u32;
        let mut c = Hypercube::new(n);
        // Deterministic scramble: multiply by odd constant mod 64.
        let msgs: Vec<MessageSpec> = (0..n)
            .filter(|&s| (s * 37 + 11) % n != s)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new((s * 37 + 11) % n), 4))
            .collect();
        let out = c.route_messages(&msgs, 200_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
    }
}
