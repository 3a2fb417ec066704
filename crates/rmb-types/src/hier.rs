//! Hierarchical (multi-ring) addressing and configuration.
//!
//! A single RMB ring saturates once concurrent circuits exceed its `k`
//! segments per hop. The scale-out move is composition: several *local*
//! RMB rings joined to one *global* RMB ring through bridge INCs. A
//! bridge occupies one node position on its local ring and one on the
//! global ring; inter-ring messages route source-ring → bridge → global
//! ring → bridge → destination-ring as chained circuit set-ups.
//!
//! This module holds the vocabulary for that composition — the
//! two-level [`NodeAddr`], the [`HierMessageSpec`] fed to hierarchical
//! simulators, the [`HierLeg`] names used in error reporting, and the
//! validated [`HierConfig`]. The executable model lives in the
//! `rmb-hier` crate.
//!
//! # Examples
//!
//! ```
//! use rmb_types::{HierConfig, NodeAddr, NodeId};
//!
//! let cfg = HierConfig::builder(4, 16, 4).build()?;
//! assert_eq!(cfg.total_nodes(), 64);
//! assert_eq!(cfg.compute_nodes(), 60); // one bridge per local ring
//! let a = NodeAddr::new(2, NodeId::new(5));
//! assert!(cfg.contains(a));
//! assert!(!cfg.is_bridge(a));
//! # Ok::<(), rmb_types::HierConfigError>(())
//! ```

use crate::config::RmbConfig;
use crate::ids::NodeId;
use std::error::Error;
use std::fmt;

/// A node position in a hierarchical multi-ring RMB: which local ring,
/// and which position on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr {
    /// Index of the local ring, `0..rings`.
    pub ring: u32,
    /// Position on that local ring.
    pub node: NodeId,
}

impl NodeAddr {
    /// Creates an address from a ring index and a ring position.
    pub const fn new(ring: u32, node: NodeId) -> Self {
        NodeAddr { ring, node }
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.ring, self.node)
    }
}

/// A message between two hierarchical addresses — the multi-ring
/// counterpart of [`MessageSpec`](crate::MessageSpec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierMessageSpec {
    /// Originating address. Must not name a bridge position.
    pub source: NodeAddr,
    /// Destination address. Must differ from `source` and must not name
    /// a bridge position.
    pub destination: NodeAddr,
    /// Number of data flits in the message body.
    pub data_flits: u32,
    /// Tick at which the source PE first asks for a connection.
    pub inject_at: u64,
}

impl HierMessageSpec {
    /// Creates a message injected at tick 0.
    pub const fn new(source: NodeAddr, destination: NodeAddr, data_flits: u32) -> Self {
        HierMessageSpec {
            source,
            destination,
            data_flits,
            inject_at: 0,
        }
    }

    /// Returns a copy scheduled for injection at `tick`.
    pub const fn at(mut self, tick: u64) -> Self {
        self.inject_at = tick;
        self
    }

    /// `true` when source and destination share a local ring (no bridge
    /// or global-ring hop involved).
    pub const fn is_intra_ring(&self) -> bool {
        self.source.ring == self.destination.ring
    }
}

impl fmt::Display for HierMessageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} ({} DFs @t{})",
            self.source, self.destination, self.data_flits, self.inject_at
        )
    }
}

/// One leg of a hierarchical route, named in error reports so a failure
/// can be located ("the global leg of r7 aborted").
///
/// An intra-ring message has a single [`SourceLocal`](HierLeg::SourceLocal)
/// leg; an inter-ring message chains all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierLeg {
    /// Source node to its local ring's bridge (or, for intra-ring
    /// traffic, straight to the destination).
    SourceLocal,
    /// Source bridge to destination bridge across the global ring.
    Global,
    /// Destination ring's bridge to the destination node.
    DestLocal,
}

impl fmt::Display for HierLeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HierLeg::SourceLocal => "source-local",
            HierLeg::Global => "global",
            HierLeg::DestLocal => "dest-local",
        };
        f.write_str(s)
    }
}

/// Errors raised while validating a hierarchical configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HierConfigError {
    /// A hierarchy needs at least two local rings.
    TooFewRings(u32),
    /// The bridge queue needs at least one slot.
    ZeroQueueDepth,
    /// An underlying ring configuration was invalid.
    Ring(crate::ConfigError),
}

impl fmt::Display for HierConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierConfigError::TooFewRings(r) => {
                write!(f, "a hierarchy needs at least 2 local rings, got {r}")
            }
            HierConfigError::ZeroQueueDepth => f.write_str("bridge queue depth must be at least 1"),
            HierConfigError::Ring(e) => write!(f, "invalid ring configuration: {e}"),
        }
    }
}

impl Error for HierConfigError {}

impl From<crate::ConfigError> for HierConfigError {
    fn from(e: crate::ConfigError) -> Self {
        HierConfigError::Ring(e)
    }
}

/// Validated static configuration of a hierarchical multi-ring RMB:
/// `rings` identical local rings, one global ring of `rings` bridge
/// nodes, and the bridge parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierConfig {
    rings: u32,
    local: RmbConfig,
    global: RmbConfig,
    bridge_queue_depth: u32,
    bridge_backoff: u64,
}

impl HierConfig {
    /// Starts building a hierarchy of `rings` local rings, each with
    /// `nodes_per_ring` nodes and `buses` segments per hop (the global
    /// ring defaults to the same `k`).
    pub fn builder(rings: u32, nodes_per_ring: u32, buses: u16) -> HierConfigBuilder {
        HierConfigBuilder {
            rings,
            local_nodes: nodes_per_ring,
            local_buses: buses,
            global_buses: buses,
            bridge_queue_depth: 4,
            bridge_backoff: 8,
            head_timeout: None,
            retry_backoff: None,
        }
    }

    /// Number of local rings (also the global ring's node count).
    pub const fn rings(&self) -> u32 {
        self.rings
    }

    /// Configuration of every local ring.
    pub const fn local(&self) -> &RmbConfig {
        &self.local
    }

    /// Configuration of the global ring.
    pub const fn global(&self) -> &RmbConfig {
        &self.global
    }

    /// Position of the bridge INC on each local ring: node 0.
    pub const fn bridge(&self) -> NodeId {
        NodeId::new(0)
    }

    /// Bound on messages a bridge may hold (queued plus in transit to or
    /// from it) — the only buffering point of the composition.
    pub const fn bridge_queue_depth(&self) -> u32 {
        self.bridge_queue_depth
    }

    /// Base backoff, in ticks, after a bridge-queue refusal (grows
    /// linearly with the refusal count, like the core contention path).
    pub const fn bridge_backoff(&self) -> u64 {
        self.bridge_backoff
    }

    /// Total node positions: `rings × nodes_per_ring` (bridges included).
    pub fn total_nodes(&self) -> u32 {
        self.rings * self.local.nodes().get()
    }

    /// Node positions that host a PE: bridges carry no compute.
    pub fn compute_nodes(&self) -> u32 {
        self.rings * (self.local.nodes().get() - 1)
    }

    /// `true` when `addr` is a valid position in this hierarchy.
    pub fn contains(&self, addr: NodeAddr) -> bool {
        addr.ring < self.rings && self.local.nodes().contains(addr.node)
    }

    /// `true` when `addr` names a bridge position (no PE there).
    pub fn is_bridge(&self, addr: NodeAddr) -> bool {
        addr.node == self.bridge()
    }

    /// Maps an address onto the equal-node-count flat ring used by the
    /// `hier_scaling` comparison: ring-major order.
    pub fn flatten(&self, addr: NodeAddr) -> NodeId {
        NodeId::new(addr.ring * self.local.nodes().get() + addr.node.index())
    }
}

/// Builder for [`HierConfig`] (see [`HierConfig::builder`]).
#[derive(Debug, Clone)]
pub struct HierConfigBuilder {
    rings: u32,
    local_nodes: u32,
    local_buses: u16,
    global_buses: u16,
    bridge_queue_depth: u32,
    bridge_backoff: u64,
    head_timeout: Option<u64>,
    retry_backoff: Option<u64>,
}

impl HierConfigBuilder {
    /// Sets the number of buses on the global ring (defaults to the
    /// local `k`).
    #[must_use]
    pub fn global_buses(mut self, k: u16) -> Self {
        self.global_buses = k;
        self
    }

    /// Bounds each bridge's buffering (default 4 slots).
    #[must_use]
    pub fn bridge_queue_depth(mut self, depth: u32) -> Self {
        self.bridge_queue_depth = depth;
        self
    }

    /// Sets the base backoff after a bridge-queue refusal (default 8).
    #[must_use]
    pub fn bridge_backoff(mut self, ticks: u64) -> Self {
        self.bridge_backoff = ticks;
        self
    }

    /// Applies a head timeout to every ring (local and global) — the
    /// anti-deadlock extension of [`RmbConfig::head_timeout`].
    #[must_use]
    pub fn head_timeout(mut self, ticks: u64) -> Self {
        self.head_timeout = Some(ticks);
        self
    }

    /// Sets the per-ring retry backoff after a `Nack`.
    #[must_use]
    pub fn retry_backoff(mut self, ticks: u64) -> Self {
        self.retry_backoff = Some(ticks);
        self
    }

    /// Finalises the configuration. The global ring has one node per
    /// local ring: its bridge.
    ///
    /// # Errors
    ///
    /// Returns [`HierConfigError`] when a ring configuration is invalid,
    /// fewer than two rings are requested, or the queue depth is zero.
    pub fn build(self) -> Result<HierConfig, HierConfigError> {
        let mut local = RmbConfig::builder(self.local_nodes, self.local_buses);
        let mut global = RmbConfig::builder(self.rings.max(2), self.global_buses);
        if let Some(t) = self.head_timeout {
            local = local.head_timeout(t);
            global = global.head_timeout(t);
        }
        if let Some(b) = self.retry_backoff {
            local = local.retry_backoff(b);
            global = global.retry_backoff(b);
        }
        let (local, global) = (local.build()?, global.build()?);
        if self.rings < 2 {
            return Err(HierConfigError::TooFewRings(self.rings));
        }
        if self.bridge_queue_depth == 0 {
            return Err(HierConfigError::ZeroQueueDepth);
        }
        Ok(HierConfig {
            rings: self.rings,
            local,
            global,
            bridge_queue_depth: self.bridge_queue_depth,
            bridge_backoff: self.bridge_backoff.max(1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_and_spec_builders() {
        let a = NodeAddr::new(1, NodeId::new(4));
        let b = NodeAddr::new(3, NodeId::new(2));
        assert_eq!(a.to_string(), "r1.n4");
        let m = HierMessageSpec::new(a, b, 8).at(7);
        assert_eq!(m.inject_at, 7);
        assert!(!m.is_intra_ring());
        assert!(HierMessageSpec::new(a, NodeAddr::new(1, NodeId::new(9)), 1).is_intra_ring());
        assert_eq!(m.to_string(), "r1.n4->r3.n2 (8 DFs @t7)");
    }

    #[test]
    fn builder_defaults_validate() {
        let cfg = HierConfig::builder(4, 16, 4).build().unwrap();
        assert_eq!(cfg.rings(), 4);
        assert_eq!(cfg.local().nodes().get(), 16);
        assert_eq!(cfg.global().nodes().get(), 4);
        assert_eq!(cfg.global().buses(), 4);
        assert_eq!(cfg.bridge(), NodeId::new(0));
        assert_eq!(cfg.bridge_queue_depth(), 4);
        assert_eq!(cfg.total_nodes(), 64);
        assert_eq!(cfg.compute_nodes(), 60);
        assert!(cfg.is_bridge(NodeAddr::new(2, NodeId::new(0))));
        assert!(!cfg.contains(NodeAddr::new(4, NodeId::new(0))));
        assert!(!cfg.contains(NodeAddr::new(0, NodeId::new(16))));
    }

    #[test]
    fn builder_knobs_propagate() {
        let cfg = HierConfig::builder(2, 8, 2)
            .global_buses(3)
            .bridge_queue_depth(1)
            .bridge_backoff(16)
            .head_timeout(99)
            .retry_backoff(5)
            .build()
            .unwrap();
        assert_eq!(cfg.global().buses(), 3);
        assert_eq!(cfg.bridge_queue_depth(), 1);
        assert_eq!(cfg.bridge_backoff(), 16);
        assert_eq!(cfg.local().head_timeout, Some(99));
        assert_eq!(cfg.global().head_timeout, Some(99));
        assert_eq!(cfg.local().node.retry_backoff, 5);
    }

    #[test]
    fn validation_rejects_degenerate_hierarchies() {
        assert!(matches!(
            HierConfig::builder(1, 8, 2).build(),
            Err(HierConfigError::TooFewRings(1))
        ));
        assert!(matches!(
            HierConfig::builder(4, 8, 2).bridge_queue_depth(0).build(),
            Err(HierConfigError::ZeroQueueDepth)
        ));
        assert!(matches!(
            HierConfig::builder(4, 8, 0).build(),
            Err(HierConfigError::Ring(_))
        ));
    }

    #[test]
    fn flatten_is_ring_major() {
        let cfg = HierConfig::builder(4, 16, 4).build().unwrap();
        assert_eq!(
            cfg.flatten(NodeAddr::new(0, NodeId::new(5))),
            NodeId::new(5)
        );
        assert_eq!(
            cfg.flatten(NodeAddr::new(2, NodeId::new(3))),
            NodeId::new(35)
        );
    }

    #[test]
    fn error_display_is_lowercase() {
        let msgs = [
            HierConfigError::TooFewRings(1).to_string(),
            HierConfigError::ZeroQueueDepth.to_string(),
            HierConfigError::Ring(crate::ConfigError::NoBuses).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }
}
