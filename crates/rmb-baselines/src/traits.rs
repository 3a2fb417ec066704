//! The common interface every comparator network implements.

use rmb_types::{DeliveredMessage, MessageSpec};

/// Outcome of routing a message batch through a network.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// Completed messages.
    pub delivered: Vec<DeliveredMessage>,
    /// Ticks simulated.
    pub ticks: u64,
    /// `true` if the run ended in a stall (blocked worms, no progress).
    pub stalled: bool,
    /// Peak number of simultaneously busy channels (or bus segments).
    pub peak_busy_channels: usize,
}

impl RoutingOutcome {
    /// Tick of the last delivery (0 when nothing was delivered).
    pub fn makespan(&self) -> u64 {
        self.delivered
            .iter()
            .map(|d| d.delivered_at)
            .max()
            .unwrap_or(0)
    }

    /// Mean end-to-end latency over delivered messages.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered.is_empty() {
            return 0.0;
        }
        self.delivered
            .iter()
            .map(|d| d.latency() as f64)
            .sum::<f64>()
            / self.delivered.len() as f64
    }
}

/// A network that can route message batches — implemented by the baseline
/// topologies here and by the RMB adapter in `rmb-analysis`.
pub trait Network {
    /// Human-readable name for report tables.
    fn label(&self) -> String;

    /// Number of processing nodes the network connects.
    fn node_count(&self) -> u32;

    /// Number of undirected physical links (for cost cross-checks).
    fn link_count(&self) -> u64;

    /// Routes a batch of messages, running to completion, stall or
    /// `max_ticks`.
    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome;
}
