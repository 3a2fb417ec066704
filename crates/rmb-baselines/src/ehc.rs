//! The Enhanced Hypercube (EHC) — the paper's reference \[4\].
//!
//! "A hypercube with duplicate pairs of links in any one dimension is
//! defined as the Enhanced Hyper Cube. An n-dimensional EHC has 2^n nodes
//! and each node has n + 1 links" (§3.1). The duplicated dimension gives
//! the rearrangeability Choi & Somani use to embed arbitrary permutations;
//! here it simply gives e-cube routing a second channel to fall back on in
//! the duplicated dimension, which is where dimension-ordered traffic
//! concentrates.

use crate::graph::{Graph, Vertex};
use crate::traits::{Network, RoutingOutcome};
use crate::wormhole::run_wormhole;
use rmb_types::MessageSpec;

/// An n-dimensional Enhanced Hypercube: a binary cube with the links of
/// one dimension duplicated (degree `n + 1`).
///
/// # Examples
///
/// ```
/// use rmb_baselines::{Ehc, Network};
///
/// let ehc = Ehc::new(16, 0);
/// // N(log N + 1) / 2 undirected links: 16 * 5 / 2.
/// assert_eq!(ehc.link_count(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct Ehc {
    n: u32,
    duplicated: u32,
    graph: Graph,
}

impl Ehc {
    /// Builds an EHC over `n` nodes with dimension `duplicated` doubled.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two (at least 2) and `duplicated`
    /// names one of its `log2 n` dimensions.
    pub fn new(n: u32, duplicated: u32) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "EHC size must be a power of two >= 2"
        );
        let dims = n.trailing_zeros();
        assert!(duplicated < dims, "duplicated dimension out of range");
        let mut graph = Graph::new(n as usize);
        for u in 0..n as usize {
            for d in 0..dims {
                let v = u ^ (1 << d);
                graph.add_channel(u, v);
                if d == duplicated {
                    graph.add_channel(u, v);
                }
            }
        }
        Ehc {
            n,
            duplicated,
            graph,
        }
    }

    /// The underlying channel graph.
    pub const fn graph(&self) -> &Graph {
        &self.graph
    }

    /// E-cube with bundle fallback: in the duplicated dimension both
    /// parallel channels are offered, salt-rotated.
    fn route(&self, graph: &Graph, at: Vertex, dst: Vertex, salt: u64) -> Vec<usize> {
        let diff = at ^ dst;
        debug_assert!(diff != 0, "routing called at the destination");
        let dim = diff.trailing_zeros();
        let next = at ^ (1usize << dim);
        let bundle = graph.channels_between(at, next);
        if bundle.len() <= 1 {
            return bundle;
        }
        let start = (salt as usize) % bundle.len();
        let mut rotated = Vec::with_capacity(bundle.len());
        rotated.extend_from_slice(&bundle[start..]);
        rotated.extend_from_slice(&bundle[..start]);
        rotated
    }
}

impl Network for Ehc {
    fn label(&self) -> String {
        format!("ehc(N={}, dup=d{})", self.n, self.duplicated)
    }

    fn node_count(&self) -> u32 {
        self.n
    }

    fn link_count(&self) -> u64 {
        self.graph.undirected_links()
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        let ehc = self.clone();
        let report = run_wormhole(
            &self.graph,
            &move |g: &Graph, at: Vertex, dst: Vertex, salt: u64| ehc.route(g, at, dst, salt),
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
    use crate::hypercube::Hypercube;
    use rmb_types::NodeId;

    #[test]
    fn degree_is_log_n_plus_one() {
        let e = Ehc::new(16, 2);
        // Directed channels: N * (log N + 1).
        assert_eq!(e.graph().channel_count(), 16 * 5);
        assert_eq!(e.link_count(), 40);
        // The duplicated dimension has a two-channel bundle.
        assert_eq!(e.graph().channels_between(0, 4).len(), 2);
        assert_eq!(e.graph().channels_between(0, 1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_dimension() {
        let _ = Ehc::new(16, 4);
    }

    #[test]
    fn routes_permutation_at_least_as_fast_as_plain_cube() {
        // Bit-complement: every message crosses every dimension, so the
        // duplicated dimension 0 relieves the first-hop bottleneck.
        let n = 32u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new(!s & (n - 1)), 8))
            .collect();
        let mut cube = Hypercube::new(n);
        let mut ehc = Ehc::new(n, 0);
        let c = cube.route_messages(&msgs, 200_000);
        let e = ehc.route_messages(&msgs, 200_000);
        assert_eq!(c.delivered.len(), msgs.len());
        assert_eq!(e.delivered.len(), msgs.len());
        let cm = c.delivered.iter().map(|d| d.delivered_at).max().unwrap();
        let em = e.delivered.iter().map(|d| d.delivered_at).max().unwrap();
        assert!(em <= cm, "EHC {em} must not lose to the plain cube {cm}");
    }
}
