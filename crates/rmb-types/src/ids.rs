//! Identifier newtypes for nodes, buses, requests and virtual buses.

use std::fmt;

/// Identifies a node (a PE + INC pair) on the ring, numbered `0..N`.
///
/// The paper numbers the nodes of the multiprocessor `0` to `N - 1` and uses
/// the same number to refer to the PE and the INC of a node (§2.1).
///
/// # Examples
///
/// ```
/// use rmb_types::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw ring position.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw ring position.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the position as a `usize`, convenient for indexing vectors.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` when the node occupies an even ring position.
    ///
    /// The odd/even cycle protocol (§2.4) marks each INC as odd or even
    /// "depending on its position"; this parity drives which bus segments
    /// an INC assesses for compaction in each cycle.
    pub const fn is_even(self) -> bool {
        self.0.is_multiple_of(2)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifies one of the `k` parallel physical bus segments, numbered
/// `0` (bottom) to `k - 1` (top).
///
/// New communication requests enter the RMB only on the *top* bus segment
/// `k - 1`; the compaction protocol migrates live virtual buses strictly
/// downward toward index `0` (§2.2).
///
/// # Examples
///
/// ```
/// use rmb_types::BusIndex;
/// let b = BusIndex::new(2);
/// assert_eq!(b.lower(), Some(BusIndex::new(1)));
/// assert_eq!(BusIndex::new(0).lower(), None);
/// assert!(b.is_even());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BusIndex(u16);

impl BusIndex {
    /// Creates a bus index.
    pub const fn new(index: u16) -> Self {
        BusIndex(index)
    }

    /// Returns the raw index (0 = bottom).
    pub const fn index(self) -> u16 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for indexing vectors.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the next bus segment *down* (toward 0), or `None` at the
    /// bottom. Compaction only ever moves transactions in this direction.
    pub const fn lower(self) -> Option<BusIndex> {
        match self.0.checked_sub(1) {
            Some(v) => Some(BusIndex(v)),
            None => None,
        }
    }

    /// Returns the next bus segment *up* (toward `k - 1`).
    pub const fn upper(self) -> BusIndex {
        BusIndex(self.0 + 1)
    }

    /// Returns `true` when the segment index is even.
    ///
    /// Segment parity, together with node parity and the odd/even cycle
    /// phase, decides which segments are assessed for compaction (§2.4).
    pub const fn is_even(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// Returns `true` if `other` is reachable from `self` through a single
    /// INC, i.e. the indices differ by at most one. The paper's INC design
    /// allows input port `l` to connect only to output ports
    /// `{l - 1, l, l + 1}` (§2.2).
    pub const fn is_adjacent_or_equal(self, other: BusIndex) -> bool {
        self.0.abs_diff(other.0) <= 1
    }
}

impl fmt::Display for BusIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<u16> for BusIndex {
    fn from(v: u16) -> Self {
        BusIndex(v)
    }
}

/// The size `N` of the ring, with modular clockwise arithmetic (all
/// indices modulo `N`, §2.2).
///
/// # Examples
///
/// ```
/// use rmb_types::{NodeId, RingSize};
/// let ring = RingSize::new(8).unwrap();
/// assert_eq!(ring.advance(NodeId::new(7), 1), NodeId::new(0));
/// assert_eq!(ring.clockwise_distance(NodeId::new(6), NodeId::new(2)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingSize(u32);

impl RingSize {
    /// Creates a ring size. Returns `None` for rings smaller than 2 nodes,
    /// which cannot host any communication.
    pub const fn new(n: u32) -> Option<Self> {
        if n >= 2 {
            Some(RingSize(n))
        } else {
            None
        }
    }

    /// Number of nodes on the ring.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Number of nodes as a `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Number of clockwise hops from `from` to `to`. Data on the RMB flows
    /// only clockwise, so this is the path length of a message.
    pub const fn clockwise_distance(self, from: NodeId, to: NodeId) -> u32 {
        let d = to.index() + self.0 - from.index();
        if d < self.0 {
            d
        } else {
            d - self.0
        }
    }

    /// Advances `node` by `hops` clockwise steps.
    ///
    /// Hop counts below the ring size (every per-hop walk in the
    /// protocol) take the division-free path: one compare-subtract
    /// instead of two hardware divides.
    pub const fn advance(self, node: NodeId, hops: u32) -> NodeId {
        let h = if hops < self.0 { hops } else { hops % self.0 };
        let s = node.index() + h;
        NodeId(if s < self.0 { s } else { s - self.0 })
    }

    /// Returns an iterator over all node identifiers `0..N`.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.0).map(NodeId::new)
    }

    /// Returns `true` when `node` is a valid position on this ring.
    pub const fn contains(self, node: NodeId) -> bool {
        node.index() < self.0
    }
}

impl fmt::Display for RingSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={}", self.0)
    }
}

/// Identifies one communication request (one message) end to end.
///
/// A request is born when a PE asks its INC for a connection, and dies when
/// the final-flit acknowledgement (`Fack`) has removed its virtual bus, or
/// when a `Nack` refused it (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request identifier.
    pub const fn new(v: u64) -> Self {
        RequestId(v)
    }

    /// Returns the raw value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies one virtual bus: the chain of physical bus segments currently
/// carrying a request's circuit.
///
/// The paper distinguishes physical bus segments from the *virtual* buses
/// laid over them: during the lifetime of a communication, the virtual bus
/// "may be moved down to other buses" by compaction, which is the reason for
/// calling the channel a virtual bus (§2.2, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualBusId(u64);

impl VirtualBusId {
    /// Creates a virtual-bus identifier.
    pub const fn new(v: u64) -> Self {
        VirtualBusId(v)
    }

    /// Returns the raw value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VirtualBusId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_parity() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.as_usize(), 7);
        assert!(!n.is_even());
        assert!(NodeId::new(0).is_even());
        assert_eq!(NodeId::from(5u32), NodeId::new(5));
    }

    #[test]
    fn bus_index_lower_upper() {
        let b = BusIndex::new(3);
        assert_eq!(b.lower(), Some(BusIndex::new(2)));
        assert_eq!(b.upper(), BusIndex::new(4));
        assert_eq!(BusIndex::new(0).lower(), None);
    }

    #[test]
    fn bus_index_adjacency_matches_inc_switch_range() {
        let b = BusIndex::new(5);
        assert!(b.is_adjacent_or_equal(BusIndex::new(4)));
        assert!(b.is_adjacent_or_equal(BusIndex::new(5)));
        assert!(b.is_adjacent_or_equal(BusIndex::new(6)));
        assert!(!b.is_adjacent_or_equal(BusIndex::new(7)));
        assert!(!b.is_adjacent_or_equal(BusIndex::new(3)));
    }

    #[test]
    fn ring_size_rejects_degenerate_rings() {
        assert!(RingSize::new(0).is_none());
        assert!(RingSize::new(1).is_none());
        assert!(RingSize::new(2).is_some());
    }

    #[test]
    fn ring_modular_arithmetic() {
        let ring = RingSize::new(5).unwrap();
        assert_eq!(ring.clockwise_distance(NodeId::new(1), NodeId::new(1)), 0);
        assert_eq!(ring.clockwise_distance(NodeId::new(3), NodeId::new(1)), 3);
        assert_eq!(ring.advance(NodeId::new(3), 7), NodeId::new(0));
        assert_eq!(ring.nodes().count(), 5);
        assert!(ring.contains(NodeId::new(4)));
        assert!(!ring.contains(NodeId::new(5)));
    }

    #[test]
    fn display_forms_are_nonempty_and_stable() {
        assert_eq!(NodeId::new(1).to_string(), "n1");
        assert_eq!(BusIndex::new(2).to_string(), "b2");
        assert_eq!(RequestId::new(3).to_string(), "r3");
        assert_eq!(VirtualBusId::new(4).to_string(), "v4");
        assert_eq!(RingSize::new(6).unwrap().to_string(), "N=6");
    }
}
