//! Configuration of an RMB instance.

use crate::error::ConfigError;
use crate::ids::{BusIndex, RingSize};

/// Where new header flits may be inserted into the multiple bus system.
///
/// The paper restricts insertion to the top bus segment `k - 1` (§2.2): each
/// INC then has to monitor only one segment for header flits, and deadlock
/// during circuit establishment is avoided. `AnyFreeBus` is an *ablation*
/// mode used to measure what that restriction costs and buys; it is not part
/// of the paper's design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InsertionPolicy {
    /// Paper behaviour: new requests enter only at bus segment `k - 1`.
    #[default]
    TopBusOnly,
    /// Ablation: a new request may enter at the highest currently-free
    /// segment of the source hop.
    AnyFreeBus,
}

/// Per-node behavioural limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeConfig {
    /// How many sends a PE may have in flight at once. The paper's base
    /// design and the Theorem 1 argument assume 1; values above 1 model the
    /// §4 "multiple send/receive messages per node" future-work extension.
    pub max_concurrent_sends: u32,
    /// How many messages a PE may be receiving at once (paper: 1).
    pub max_concurrent_receives: u32,
    /// Ticks a refused request waits before re-attempting insertion.
    pub retry_backoff: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            max_concurrent_sends: 1,
            max_concurrent_receives: 1,
            retry_backoff: 4,
        }
    }
}

/// Complete static configuration of an RMB instance.
///
/// # Examples
///
/// ```
/// use rmb_types::RmbConfig;
/// let cfg = RmbConfig::builder(32, 8)
///     .compaction(true)
///     .retry_backoff(8)
///     .build()?;
/// assert_eq!(cfg.buses(), 8);
/// # Ok::<(), rmb_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RmbConfig {
    nodes: RingSize,
    buses: u16,
    /// Whether the compaction protocol runs (§2.4). Disabling it is the
    /// paper's implicit baseline: the top bus is then never released early
    /// and utilisation collapses; measured by the compaction ablation.
    pub compaction: bool,
    /// Whether compaction may move a virtual bus before its `Hack` has been
    /// received. The paper allows this "to release the top bus as soon as
    /// possible" (§2.2); turning it off is an ablation.
    pub early_compaction: bool,
    /// Insertion policy for new header flits.
    pub insertion: InsertionPolicy,
    /// If set, a header flit parked (blocked) at an intermediate INC for
    /// more than this many ticks is refused by that INC with a `Nack`,
    /// releasing its partial virtual bus for a later retry.
    ///
    /// The paper does not specify this mechanism; without it, a saturated
    /// one-way ring can reach a circular-wait state in which every hop is
    /// full of partial circuits and no header can ever advance (see the
    /// deadlock experiments in EXPERIMENTS.md). `None` (the default) runs
    /// the paper's protocol verbatim.
    pub head_timeout: Option<u64>,
    /// Per-node limits.
    pub node: NodeConfig,
}

impl RmbConfig {
    /// Creates the default configuration for `n` nodes and `k` buses.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n < 2` (no communication possible) or
    /// `k == 0` (no buses).
    pub fn new(n: u32, k: u16) -> Result<Self, ConfigError> {
        RmbConfig::builder(n, k).build()
    }

    /// Starts building a configuration for `n` nodes and `k` buses.
    pub fn builder(n: u32, k: u16) -> RmbConfigBuilder {
        RmbConfigBuilder {
            nodes: n,
            buses: k,
            compaction: true,
            early_compaction: true,
            insertion: InsertionPolicy::default(),
            head_timeout: None,
            node: NodeConfig::default(),
        }
    }

    /// Ring size `N`.
    pub const fn nodes(&self) -> RingSize {
        self.nodes
    }

    /// Number of parallel bus segments `k`.
    pub const fn buses(&self) -> u16 {
        self.buses
    }

    /// The top bus segment `k - 1`, where new requests are inserted.
    pub const fn top_bus(&self) -> BusIndex {
        BusIndex::new(self.buses - 1)
    }
}

/// Builder for [`RmbConfig`] (see [`RmbConfig::builder`]).
#[derive(Debug, Clone)]
pub struct RmbConfigBuilder {
    nodes: u32,
    buses: u16,
    compaction: bool,
    early_compaction: bool,
    insertion: InsertionPolicy,
    head_timeout: Option<u64>,
    node: NodeConfig,
}

impl RmbConfigBuilder {
    /// Enables or disables the compaction protocol.
    pub fn compaction(mut self, on: bool) -> Self {
        self.compaction = on;
        self
    }

    /// Enables or disables compaction before the `Hack` arrives.
    pub fn early_compaction(mut self, on: bool) -> Self {
        self.early_compaction = on;
        self
    }

    /// Sets the header-flit insertion policy.
    pub fn insertion(mut self, policy: InsertionPolicy) -> Self {
        self.insertion = policy;
        self
    }

    /// Refuses header flits blocked at an intermediate INC for longer than
    /// `ticks` (an anti-deadlock extension; see [`RmbConfig::head_timeout`]).
    pub fn head_timeout(mut self, ticks: u64) -> Self {
        self.head_timeout = Some(ticks);
        self
    }

    /// Sets the retry backoff after a `Nack`, in ticks.
    pub fn retry_backoff(mut self, ticks: u64) -> Self {
        self.node.retry_backoff = ticks;
        self
    }

    /// Sets how many concurrent sends each PE may have in flight.
    pub fn max_concurrent_sends(mut self, n: u32) -> Self {
        self.node.max_concurrent_sends = n;
        self
    }

    /// Sets how many concurrent receives each PE may accept.
    pub fn max_concurrent_receives(mut self, n: u32) -> Self {
        self.node.max_concurrent_receives = n;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::RingTooSmall`] if fewer than two nodes were
    /// requested, [`ConfigError::NoBuses`] if `k == 0`, and
    /// [`ConfigError::NoSendSlots`] / [`ConfigError::NoReceiveSlots`] if a
    /// node limit is zero.
    pub fn build(self) -> Result<RmbConfig, ConfigError> {
        let nodes = RingSize::new(self.nodes).ok_or(ConfigError::RingTooSmall(self.nodes))?;
        if self.buses == 0 {
            return Err(ConfigError::NoBuses);
        }
        if self.node.max_concurrent_sends == 0 {
            return Err(ConfigError::NoSendSlots);
        }
        if self.node.max_concurrent_receives == 0 {
            return Err(ConfigError::NoReceiveSlots);
        }
        Ok(RmbConfig {
            nodes,
            buses: self.buses,
            compaction: self.compaction,
            early_compaction: self.early_compaction,
            insertion: self.insertion,
            head_timeout: self.head_timeout,
            node: self.node,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let cfg = RmbConfig::new(16, 4).unwrap();
        assert!(cfg.compaction);
        assert!(cfg.early_compaction);
        assert_eq!(cfg.insertion, InsertionPolicy::TopBusOnly);
        assert_eq!(cfg.node.max_concurrent_sends, 1);
        assert_eq!(cfg.node.max_concurrent_receives, 1);
        assert_eq!(cfg.head_timeout, None);
        assert_eq!(cfg.top_bus(), BusIndex::new(3));
    }

    #[test]
    fn builder_rejects_degenerate_inputs() {
        assert!(matches!(
            RmbConfig::new(1, 4),
            Err(ConfigError::RingTooSmall(1))
        ));
        assert!(matches!(RmbConfig::new(8, 0), Err(ConfigError::NoBuses)));
        assert!(matches!(
            RmbConfig::builder(8, 2).max_concurrent_sends(0).build(),
            Err(ConfigError::NoSendSlots)
        ));
        assert!(matches!(
            RmbConfig::builder(8, 2).max_concurrent_receives(0).build(),
            Err(ConfigError::NoReceiveSlots)
        ));
    }

    #[test]
    fn builder_sets_all_knobs() {
        let cfg = RmbConfig::builder(8, 2)
            .compaction(false)
            .early_compaction(false)
            .insertion(InsertionPolicy::AnyFreeBus)
            .head_timeout(99)
            .retry_backoff(17)
            .max_concurrent_sends(3)
            .max_concurrent_receives(2)
            .build()
            .unwrap();
        assert!(!cfg.compaction);
        assert!(!cfg.early_compaction);
        assert_eq!(cfg.insertion, InsertionPolicy::AnyFreeBus);
        assert_eq!(cfg.head_timeout, Some(99));
        assert_eq!(cfg.node.retry_backoff, 17);
        assert_eq!(cfg.node.max_concurrent_sends, 3);
        assert_eq!(cfg.node.max_concurrent_receives, 2);
    }
}
