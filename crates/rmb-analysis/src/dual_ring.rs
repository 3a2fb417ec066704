//! The two-ring organisation the paper sketches in §2.1: "for efficiency
//! reasons, one may like to organize the communication as two parallel
//! uni-directional rings".
//!
//! Each message is routed on whichever ring gives it the shorter path
//! (clockwise on the primary ring, or clockwise on the *reversed* ring,
//! which is counter-clockwise in primary coordinates). The two rings run
//! independently, each with `k` buses; total wiring is `2·N·k` segments.

use rmb_baselines::{Network, RoutingOutcome};
use rmb_hier::{Leg, LegMap};
use rmb_types::{MessageSpec, NodeId, RmbConfig};

/// Two opposite unidirectional RMB rings behind the common [`Network`]
/// interface, run as a [`LegMap`] of one leg per message on the
/// composition engine of `rmb-hier`.
///
/// # Examples
///
/// ```
/// use rmb_analysis::DualRmbRing;
/// use rmb_baselines::Network;
/// use rmb_types::{MessageSpec, NodeId, RmbConfig};
///
/// let mut dual = DualRmbRing::new(RmbConfig::new(16, 2)?);
/// // 0 -> 15 is 15 hops clockwise but 1 hop on the reverse ring.
/// let out = dual.route_messages(
///     &[MessageSpec::new(NodeId::new(0), NodeId::new(15), 4)],
///     10_000,
/// );
/// assert_eq!(out.delivered.len(), 1);
/// assert!(out.delivered[0].latency() < 20);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DualRmbRing {
    cfg: RmbConfig,
}

impl DualRmbRing {
    /// Creates the dual-ring adapter; each ring uses the full `cfg`.
    pub fn new(cfg: RmbConfig) -> Self {
        DualRmbRing { cfg }
    }

    /// Mirrors a node id into reverse-ring coordinates.
    fn mirror(&self, node: NodeId) -> NodeId {
        let n = self.cfg.nodes().get();
        NodeId::new((n - node.index()) % n)
    }

    /// Predicted unloaded delivery latency for `spec`: the shorter
    /// direction's span fed through the per-leg circuit model shared
    /// with the hierarchical composition ([`rmb_hier::model`]), so the
    /// two-ring estimate and the multi-ring simulator can never drift
    /// apart.
    pub fn estimated_latency(&self, spec: &MessageSpec) -> u64 {
        let ring = self.cfg.nodes();
        let cw = ring.clockwise_distance(spec.source, spec.destination);
        let span = cw.min(ring.get() - cw);
        rmb_hier::model::leg_delivery_ticks(u64::from(span), spec.data_flits)
    }
}

impl LegMap for DualRmbRing {
    fn carriers(&self) -> Vec<RmbConfig> {
        vec![self.cfg; 2]
    }

    /// One leg on carrier 0 (the primary ring) or carrier 1 (the reverse
    /// ring, in mirrored coordinates), whichever is shorter.
    fn next_leg(&self, msg: &MessageSpec, at: NodeId) -> Leg {
        let cw = self.cfg.nodes().clockwise_distance(at, msg.destination);
        let ccw = self.cfg.nodes().get() - cw;
        // Strictly shorter direction wins; ties (the diameter) are split
        // by source parity so the two rings share the load.
        let (carrier, from, to) = if cw < ccw || (cw == ccw && at.is_even()) {
            (0, at, msg.destination)
        } else {
            // Node i maps to (N - i) mod N, so counter-clockwise hops
            // become clockwise ones.
            (1, self.mirror(at), self.mirror(msg.destination))
        };
        Leg {
            carrier,
            from,
            to,
            reaches: msg.destination,
        }
    }

    /// `4N + 8·retry_backoff + 3·head_timeout + 64` ticks. A lone ring's
    /// `run_to_quiescence` also adds its longest live body; this window
    /// does not, and `route_identity.rs` pins the stalled dual ring it
    /// yields.
    fn stall_window(&self, _messages: &[MessageSpec]) -> u64 {
        4 * u64::from(self.cfg.nodes().get())
            + 8 * self.cfg.node.retry_backoff
            + 3 * self.cfg.head_timeout.unwrap_or(0)
            + 64
    }
}

impl Network for DualRmbRing {
    fn label(&self) -> String {
        format!(
            "dual-rmb(N={}, k={}x2)",
            self.cfg.nodes().get(),
            self.cfg.buses()
        )
    }

    fn node_count(&self) -> u32 {
        self.cfg.nodes().get()
    }

    fn link_count(&self) -> u64 {
        2 * u64::from(self.cfg.nodes().get()) * u64::from(self.cfg.buses())
    }

    fn route_messages(&mut self, messages: &[MessageSpec], max_ticks: u64) -> RoutingOutcome {
        crate::outcome(rmb_hier::route(self, messages, max_ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_take_the_shorter_ring() {
        let mut dual = DualRmbRing::new(RmbConfig::new(16, 2).unwrap());
        let msgs = vec![
            MessageSpec::new(NodeId::new(0), NodeId::new(3), 4), // 3 cw
            MessageSpec::new(NodeId::new(0), NodeId::new(13), 4), // 3 ccw
        ];
        let out = dual.route_messages(&msgs, 10_000);
        assert_eq!(out.delivered.len(), 2);
        // Both spans are 3 hops, so both latencies are small and similar.
        let lats: Vec<u64> = out.delivered.iter().map(|d| d.latency()).collect();
        assert!(lats.iter().all(|&l| l < 30), "{lats:?}");
    }

    #[test]
    fn each_delivery_names_its_own_input() {
        // 1 -> 4 rides the primary ring; both 0 -> 13 messages ride the
        // reverse ring. Every record must carry its input's index as the
        // request id and that input's spec, even where two inputs share
        // their endpoints.
        let mut dual = DualRmbRing::new(RmbConfig::new(16, 2).unwrap());
        let msgs = vec![
            MessageSpec::new(NodeId::new(1), NodeId::new(4), 4),
            MessageSpec::new(NodeId::new(0), NodeId::new(13), 4),
            MessageSpec::new(NodeId::new(0), NodeId::new(13), 16).at(100),
        ];
        let out = dual.route_messages(&msgs, 10_000);
        assert_eq!(out.delivered.len(), 3, "stalled={}", out.stalled);
        let mut ids: Vec<u64> = out.delivered.iter().map(|d| d.request.get()).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2]);
        for d in &out.delivered {
            assert_eq!(d.spec, msgs[d.request.get() as usize], "{d:?}");
        }
    }

    #[test]
    fn a_long_refusal_stretch_is_not_a_stall() {
        // Far traffic saturates two k = 2 rings of 64 nodes: for longer
        // than the stall window no message lands while headers time out
        // and retry. The rings keep making progress, so the run completes,
        // as each ring did when it ran to quiescence on its own.
        let n = 64u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .map(|s| {
                MessageSpec::new(NodeId::new(s), NodeId::new((s + n / 2 + 1) % n), 8)
                    .at(u64::from(s) * 24)
            })
            .collect();
        let cfg = RmbConfig::builder(n, 2)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .unwrap();
        let out = DualRmbRing::new(cfg).route_messages(&msgs, 16_000_000);
        assert_eq!(out.delivered.len(), msgs.len(), "stalled={}", out.stalled);
        assert_eq!(out.makespan(), 27_317);
    }

    #[test]
    fn dual_ring_beats_single_ring_on_reversal_permutation() {
        let n = 16u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .filter(|&s| n - 1 - s != s)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new(n - 1 - s), 8))
            .collect();
        let cfg = RmbConfig::builder(n, 4).head_timeout(128).build().unwrap();
        let mut single = crate::RmbRing::new(cfg);
        let mut dual = DualRmbRing::new(cfg);
        let s = single.route_messages(&msgs, 1_000_000);
        let d = dual.route_messages(&msgs, 1_000_000);
        assert_eq!(
            s.delivered.len(),
            msgs.len(),
            "single stalled={}",
            s.stalled
        );
        assert_eq!(d.delivered.len(), msgs.len(), "dual stalled={}", d.stalled);
        assert!(
            d.makespan() < s.makespan(),
            "dual {} vs single {}",
            d.makespan(),
            s.makespan()
        );
    }

    #[test]
    fn tied_distances_split_across_rings() {
        // The "opposite" permutation: every path is exactly N/2 both ways.
        let n = 16u32;
        let msgs: Vec<MessageSpec> = (0..n)
            .map(|s| MessageSpec::new(NodeId::new(s), NodeId::new((s + n / 2) % n), 8))
            .collect();
        let cfg = RmbConfig::builder(n, 4).head_timeout(128).build().unwrap();
        let mut single = crate::RmbRing::new(cfg);
        let mut dual = DualRmbRing::new(cfg);
        let s = single.route_messages(&msgs, 1_000_000);
        let d = dual.route_messages(&msgs, 1_000_000);
        assert_eq!(d.delivered.len(), msgs.len(), "dual stalled={}", d.stalled);
        // Splitting the diameter traffic across both rings must beat the
        // single ring carrying all of it.
        assert!(
            s.stalled || d.makespan() < s.makespan(),
            "dual {} vs single {}",
            d.makespan(),
            s.makespan()
        );
    }

    #[test]
    fn estimate_matches_unloaded_simulation_on_both_rings() {
        // One message at a time, so the rings are unloaded: the shared
        // per-leg model must predict the simulated latency exactly,
        // whichever direction the adapter picks.
        let mut dual = DualRmbRing::new(RmbConfig::new(16, 2).unwrap());
        for (src, dst, flits) in [(0, 3, 4), (0, 13, 4), (2, 10, 8), (7, 6, 1)] {
            let spec = MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits);
            let out = dual.route_messages(&[spec], 10_000);
            assert_eq!(out.delivered.len(), 1);
            assert_eq!(
                out.delivered[0].latency(),
                dual.estimated_latency(&spec),
                "{src} -> {dst} ({flits} flits)"
            );
        }
    }

    #[test]
    fn estimate_tracks_a_simulated_two_ring_hierarchy() {
        // Cross-check against the other two-ring organisation: a 2-ring
        // hierarchy routed through bridges. Intra-ring legs there use
        // the same shared model, so an unloaded intra-ring message must
        // land exactly on `leg_delivery_ticks`.
        use rmb_hier::HierNetwork;
        use rmb_types::{HierConfig, HierMessageSpec, NodeAddr};

        let cfg = HierConfig::builder(2, 16, 2).build().unwrap();
        let spec = HierMessageSpec::new(
            NodeAddr::new(0, NodeId::new(2)),
            NodeAddr::new(0, NodeId::new(7)),
            6,
        );
        let mut net = HierNetwork::new(cfg);
        net.submit(spec).unwrap();
        assert_eq!(net.run_to_quiescence(10_000).delivered, 1);
        let d = &net.delivered_log()[0];
        let simulated = d.delivered_at - d.spec.inject_at;
        assert_eq!(simulated, rmb_hier::model::leg_delivery_ticks(5, 6));
        // And the dual-ring estimator agrees for the same span.
        let dual = DualRmbRing::new(RmbConfig::new(16, 2).unwrap());
        let flat = MessageSpec::new(NodeId::new(2), NodeId::new(7), 6);
        assert_eq!(dual.estimated_latency(&flat), simulated);
    }

    #[test]
    fn mirror_roundtrips() {
        let dual = DualRmbRing::new(RmbConfig::new(8, 1).unwrap());
        for i in 0..8 {
            let m = dual.mirror(NodeId::new(i));
            assert_eq!(dual.mirror(m), NodeId::new(i));
        }
        assert_eq!(dual.mirror(NodeId::new(0)), NodeId::new(0));
        assert_eq!(dual.mirror(NodeId::new(3)), NodeId::new(5));
    }
}
