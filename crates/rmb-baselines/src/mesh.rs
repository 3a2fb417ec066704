//! The 2-D mesh with XY (dimension-ordered) routing.
//!
//! §3.1 calls the mesh "another attractive structure": degree-4 nodes, any
//! size, straightforward layout and simple routing. XY routing — correct
//! the column first, then the row — is deadlock-free under wormhole
//! switching.

use crate::graph::{Graph, Vertex};
use crate::traits::{Network, RoutingOutcome};
use crate::wormhole::run_wormhole;
use rmb_types::MessageSpec;

/// A `cols × rows` 2-D mesh (no wraparound links).
///
/// Node `i` sits at `(x, y) = (i % cols, i / cols)`.
///
/// # Examples
///
/// ```
/// use rmb_baselines::{Mesh2D, Network};
///
/// let mesh = Mesh2D::square(16); // 4x4
/// assert_eq!(mesh.node_count(), 16);
/// assert_eq!(mesh.link_count(), 24); // 2 * 4 * 3
/// ```
#[derive(Debug, Clone)]
pub struct Mesh2D {
    cols: u32,
    rows: u32,
    graph: Graph,
}

impl Mesh2D {
    /// Builds a `cols × rows` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh has fewer than two
    /// nodes.
    pub fn new(cols: u32, rows: u32) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        assert!(cols * rows >= 2, "mesh needs at least two nodes");
        let mut graph = Graph::new((cols * rows) as usize);
        for y in 0..rows {
            for x in 0..cols {
                let v = (y * cols + x) as usize;
                if x + 1 < cols {
                    graph.add_link(v, v + 1);
                }
                if y + 1 < rows {
                    graph.add_link(v, v + cols as usize);
                }
            }
        }
        Mesh2D { cols, rows, graph }
    }

    /// Builds the (near-)square mesh over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a perfect square (the paper's layout argument
    /// assumes `√N × √N`).
    pub fn square(n: u32) -> Self {
        let side = (n as f64).sqrt().round() as u32;
        assert_eq!(
            side * side,
            n,
            "square mesh needs a perfect-square node count"
        );
        Mesh2D::new(side, side)
    }

    /// The underlying channel graph.
    pub const fn graph(&self) -> &Graph {
        &self.graph
    }

    fn coords(&self, v: Vertex) -> (u32, u32) {
        (v as u32 % self.cols, v as u32 / self.cols)
    }

    /// XY routing: move along X until the column matches, then along Y.
    fn route(&self, graph: &Graph, at: Vertex, dst: Vertex, _salt: u64) -> Vec<usize> {
        let (x, y) = self.coords(at);
        let (dx, dy) = self.coords(dst);
        let next = if x < dx {
            at + 1
        } else if x > dx {
            at - 1
        } else if y < dy {
            at + self.cols as usize
        } else {
            debug_assert!(y > dy, "routing called at the destination");
            at - self.cols as usize
        };
        graph.channels_between(at, next)
    }
}

impl Network for Mesh2D {
    fn label(&self) -> String {
        format!("mesh({}x{})", self.cols, self.rows)
    }

    fn node_count(&self) -> u32 {
        self.cols * self.rows
    }

    fn link_count(&self) -> u64 {
        self.graph.undirected_links()
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        let mesh = self.clone();
        let report = run_wormhole(
            &self.graph,
            &move |g: &Graph, at: Vertex, dst: Vertex, salt: u64| mesh.route(g, at, dst, salt),
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
        let m = Mesh2D::new(4, 3);
        assert_eq!(m.node_count(), 12);
        // Links: 3 rows * 3 horizontal + 4 cols * 2 vertical = 9 + 8.
        assert_eq!(m.link_count(), 17);
    }

    #[test]
    #[should_panic(expected = "perfect-square")]
    fn square_rejects_non_squares() {
        let _ = Mesh2D::square(12);
    }

    #[test]
    fn xy_route_takes_manhattan_distance() {
        let mut m = Mesh2D::square(16);
        // (0,0) -> (3,2): 3 + 2 = 5 hops.
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(11), 0)];
        let out = m.route_messages(&msgs, 1_000);
        assert_eq!(out.delivered.len(), 1);
        assert_eq!(out.delivered[0].circuit_at, 5);
    }

    #[test]
    fn transpose_permutation_routes_without_deadlock() {
        // Transpose is the worst case for XY routing (all traffic turns at
        // the diagonal) but remains deadlock-free.
        let mut m = Mesh2D::square(16);
        let msgs: Vec<MessageSpec> = (0..16u32)
            .filter(|&s| (s % 4) * 4 + s / 4 != s)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new((s % 4) * 4 + s / 4), 6))
            .collect();
        let out = m.route_messages(&msgs, 100_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
        assert!(!out.stalled);
    }

    #[test]
    fn opposite_corner_storm_drains() {
        let mut m = Mesh2D::square(25);
        let msgs: Vec<MessageSpec> = (0..25u32)
            .filter(|&s| 24 - s != s)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new(24 - s), 4))
            .collect();
        let out = m.route_messages(&msgs, 200_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
    }
}
