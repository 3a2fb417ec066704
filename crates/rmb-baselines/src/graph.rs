//! Directed channel graphs shared by the baseline topologies.

/// A vertex in a channel graph (a switch or a terminal).
pub type Vertex = usize;

/// One directed channel between two vertices. Parallel channels (fat-tree
/// capacity bundles) are separate entries with the same endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Upstream vertex.
    pub from: Vertex,
    /// Downstream vertex.
    pub to: Vertex,
    /// Ticks a flit needs to traverse this channel — the wire-length
    /// model of §3.2 ("costs also depend on the length of the wire").
    /// Unit-length wires (the RMB's constant) have latency 1.
    pub latency: u32,
    /// Physical-link group: channels sharing a group are virtual channels
    /// multiplexed over one physical wire, which carries at most one flit
    /// per tick. Defaults to the channel's own id (a dedicated wire).
    pub group: usize,
}

/// A directed multigraph with per-vertex adjacency, the substrate every
/// baseline topology builds on.
///
/// # Examples
///
/// ```
/// use rmb_baselines::Graph;
///
/// let mut g = Graph::new(3);
/// let c = g.add_channel(0, 1);
/// g.add_channel(1, 2);
/// assert_eq!(g.channel(c).to, 1);
/// assert_eq!(g.channels_between(0, 1), vec![c]);
/// assert_eq!(g.channel_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    channels: Vec<Channel>,
    out: Vec<Vec<usize>>,
}

impl Graph {
    /// Creates a graph with `vertices` vertices and no channels.
    pub fn new(vertices: usize) -> Self {
        Graph {
            channels: Vec::new(),
            out: vec![Vec::new(); vertices],
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Adds a unit-latency directed channel and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_channel(&mut self, from: Vertex, to: Vertex) -> usize {
        self.add_channel_with_latency(from, to, 1)
    }

    /// Adds a directed channel with an explicit wire latency in ticks.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `latency == 0`.
    pub fn add_channel_with_latency(&mut self, from: Vertex, to: Vertex, latency: u32) -> usize {
        let id = self.channels.len();
        self.add_channel_full(from, to, latency, id)
    }

    /// Adds a directed channel as a *virtual channel* of physical group
    /// `group`: all channels with the same group share one wire (one flit
    /// per tick across the whole group).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `latency == 0`.
    pub fn add_channel_full(
        &mut self,
        from: Vertex,
        to: Vertex,
        latency: u32,
        group: usize,
    ) -> usize {
        assert!(
            from < self.out.len() && to < self.out.len(),
            "endpoint out of range"
        );
        assert!(latency >= 1, "a wire needs at least one tick");
        let id = self.channels.len();
        self.channels.push(Channel {
            from,
            to,
            latency,
            group,
        });
        self.out[from].push(id);
        id
    }

    /// Number of distinct physical-link groups (physical wires).
    pub fn physical_link_count(&self) -> u64 {
        let mut groups: Vec<usize> = self.channels.iter().map(|c| c.group).collect();
        groups.sort_unstable();
        groups.dedup();
        groups.len() as u64
    }

    /// Adds a bidirectional link as two directed channels, returning their
    /// ids as `(forward, backward)`.
    pub fn add_link(&mut self, a: Vertex, b: Vertex) -> (usize, usize) {
        self.add_link_with_latency(a, b, 1)
    }

    /// Adds a bidirectional link with an explicit wire latency.
    pub fn add_link_with_latency(&mut self, a: Vertex, b: Vertex, latency: u32) -> (usize, usize) {
        (
            self.add_channel_with_latency(a, b, latency),
            self.add_channel_with_latency(b, a, latency),
        )
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: usize) -> Channel {
        self.channels[id]
    }

    /// All channel ids from `from` to `to` (parallel bundle).
    pub fn channels_between(&self, from: Vertex, to: Vertex) -> Vec<usize> {
        self.out[from]
            .iter()
            .copied()
            .filter(|&c| self.channels[c].to == to)
            .collect()
    }

    /// Number of undirected links (assumes every channel has a reverse
    /// twin, which holds for all topologies in this crate).
    pub fn undirected_links(&self) -> u64 {
        debug_assert!(self.channels.len().is_multiple_of(2));
        self.channels.len() as u64 / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_link_creates_twins() {
        let mut g = Graph::new(2);
        let (f, b) = g.add_link(0, 1);
        assert_eq!(
            g.channel(f),
            Channel {
                from: 0,
                to: 1,
                latency: 1,
                group: 0
            }
        );
        assert_eq!(
            g.channel(b),
            Channel {
                from: 1,
                to: 0,
                latency: 1,
                group: 1
            }
        );
        assert_eq!(g.undirected_links(), 1);
        assert_eq!(g.physical_link_count(), 2);
    }

    #[test]
    fn virtual_channels_share_a_group() {
        let mut g = Graph::new(2);
        let a = g.add_channel_full(0, 1, 1, 7);
        let b = g.add_channel_full(0, 1, 1, 7);
        assert_eq!(g.channel(a).group, 7);
        assert_eq!(g.channel(b).group, 7);
        assert_eq!(g.physical_link_count(), 1);
    }

    #[test]
    fn latency_and_wire_length() {
        let mut g = Graph::new(3);
        g.add_link_with_latency(0, 1, 4);
        g.add_link(1, 2);
        assert_eq!(g.channel(0).latency, 4);
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_latency_rejected() {
        let mut g = Graph::new(2);
        g.add_channel_with_latency(0, 1, 0);
    }

    #[test]
    fn parallel_channels_are_distinct() {
        let mut g = Graph::new(2);
        g.add_link(0, 1);
        g.add_link(0, 1);
        assert_eq!(g.channels_between(0, 1).len(), 2);
        assert_eq!(g.channels_between(1, 0).len(), 2);
        assert_eq!(g.channels_between(1, 1).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_channel_validates_endpoints() {
        let mut g = Graph::new(1);
        g.add_channel(0, 1);
    }
}
