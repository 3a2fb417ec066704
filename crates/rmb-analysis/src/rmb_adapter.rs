//! Adapter letting the RMB take part in the baseline `Network`
//! experiments.

use rmb_baselines::{Network, RoutingOutcome};
use rmb_core::RmbNetwork;
use rmb_types::{MessageSpec, RmbConfig};

/// The ring-based RMB viewed through the common [`Network`] interface.
///
/// Each [`route_messages`](Network::route_messages) call runs a fresh
/// simulator from the stored configuration, so an adapter can be reused
/// across workloads.
///
/// # Examples
///
/// ```
/// use rmb_analysis::RmbRing;
/// use rmb_baselines::Network;
/// use rmb_types::{MessageSpec, NodeId, RmbConfig};
///
/// let mut rmb = RmbRing::new(RmbConfig::new(16, 4)?);
/// let out = rmb.route_messages(
///     &[MessageSpec::new(NodeId::new(0), NodeId::new(5), 8)],
///     10_000,
/// );
/// assert_eq!(out.delivered.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RmbRing {
    cfg: RmbConfig,
}

impl RmbRing {
    /// Creates an adapter for the given configuration.
    pub fn new(cfg: RmbConfig) -> Self {
        RmbRing { cfg }
    }

    /// The stored configuration.
    pub const fn config(&self) -> &RmbConfig {
        &self.cfg
    }
}

impl Network for RmbRing {
    fn label(&self) -> String {
        format!("rmb(N={}, k={})", self.cfg.nodes().get(), self.cfg.buses())
    }

    fn node_count(&self) -> u32 {
        self.cfg.nodes().get()
    }

    fn link_count(&self) -> u64 {
        // N * k unidirectional bus segments (§3.2).
        u64::from(self.cfg.nodes().get()) * u64::from(self.cfg.buses())
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        let mut net = RmbNetwork::new(self.cfg);
        net.submit_all(messages.iter().copied())
            .expect("workload messages are valid for this ring");
        let report = net.run_to_quiescence(max_ticks);
        RoutingOutcome {
            delivered: net.delivered_log().to_vec(),
            ticks: report.ticks,
            stalled: report.stalled,
            peak_busy_channels: report.peak_virtual_buses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::NodeId;

    #[test]
    fn adapter_routes_a_permutation() {
        let cfg = RmbConfig::builder(8, 4).head_timeout(64).build().unwrap();
        let mut rmb = RmbRing::new(cfg);
        assert_eq!(rmb.node_count(), 8);
        assert_eq!(rmb.link_count(), 32);
        assert!(rmb.label().contains("rmb"));
        let msgs: Vec<MessageSpec> = (0..8u32)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new((s + 3) % 8), 4))
            .collect();
        let out = rmb.route_messages(&msgs, 100_000);
        assert_eq!(out.delivered.len(), 8, "stalled={}", out.stalled);
        // Adapter is reusable: second run starts fresh.
        let out2 = rmb.route_messages(&msgs, 100_000);
        assert_eq!(out2.delivered.len(), 8);
    }
}
