//! Analytical latency model for hierarchical routes — the one source of
//! truth for bridge hop cost, shared with `rmb-analysis`.
//!
//! Each leg is an ordinary RMB circuit over `L` hops carrying `m` data
//! flits, so its unloaded delivery time is the single-ring model's
//! `3L + m + 1` (header out, `Hack` back, data streamed; see
//! `rmb-analysis::model`). Crossing a bridge adds [`BRIDGE_DWELL_TICKS`]:
//! the message enters the bounded queue on the tick its leg completes and
//! may launch the next leg on the following tick.

use rmb_types::{HierConfig, HierMessageSpec, NodeId, RmbConfig};

/// Ticks a message dwells in a bridge queue between two legs on an
/// otherwise idle network (ingress on the delivery tick, egress launch on
/// the next).
pub const BRIDGE_DWELL_TICKS: u64 = 1;

/// Unloaded delivery time of one RMB circuit leg: `3·span + flits + 1`
/// ticks from injection to the final flit's arrival.
pub const fn leg_delivery_ticks(span: u64, data_flits: u32) -> u64 {
    3 * span + data_flits as u64 + 1
}

/// The longest one leg can live on an otherwise idle ring of `cfg`, from
/// injection to teardown: [`leg_delivery_ticks`] over the longest span,
/// then the tail-first teardown, one hop per tick.
pub(crate) fn lone_leg_ticks(cfg: &RmbConfig, data_flits: u32) -> u64 {
    let span = u64::from(cfg.nodes().get() - 1);
    leg_delivery_ticks(span, data_flits) + span
}

/// Predicts the end-to-end unloaded latency of `spec` under `cfg`:
/// the sum of its legs' circuit times plus one bridge dwell per bridge
/// crossed (zero for intra-ring traffic, two for inter-ring traffic).
pub fn unloaded_latency(cfg: &HierConfig, spec: &HierMessageSpec) -> u64 {
    let local = cfg.local().nodes();
    let m = spec.data_flits;
    if spec.is_intra_ring() {
        let span = local.clockwise_distance(spec.source.node, spec.destination.node);
        return leg_delivery_ticks(span as u64, m);
    }
    let l1 = local.clockwise_distance(spec.source.node, cfg.bridge()) as u64;
    let l2 = cfg.global().nodes().clockwise_distance(
        NodeId::new(spec.source.ring),
        NodeId::new(spec.destination.ring),
    ) as u64;
    let l3 = local.clockwise_distance(cfg.bridge(), spec.destination.node) as u64;
    leg_delivery_ticks(l1, m)
        + leg_delivery_ticks(l2, m)
        + leg_delivery_ticks(l3, m)
        + 2 * BRIDGE_DWELL_TICKS
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::NodeAddr;

    fn cfg() -> HierConfig {
        HierConfig::builder(4, 16, 4).build().unwrap()
    }

    #[test]
    fn intra_ring_matches_single_ring_model() {
        let spec = HierMessageSpec::new(
            NodeAddr::new(1, NodeId::new(2)),
            NodeAddr::new(1, NodeId::new(7)),
            8,
        );
        // span 5, m 8: 3·5 + 8 + 1 = 24.
        assert_eq!(unloaded_latency(&cfg(), &spec), 24);
    }

    #[test]
    fn inter_ring_sums_three_legs_and_two_dwells() {
        let spec = HierMessageSpec::new(
            NodeAddr::new(0, NodeId::new(3)),
            NodeAddr::new(2, NodeId::new(9)),
            16,
        );
        // Leg spans: n3→n0 = 13, r0→r2 = 2, n0→n9 = 9.
        let want = leg_delivery_ticks(13, 16)
            + leg_delivery_ticks(2, 16)
            + leg_delivery_ticks(9, 16)
            + 2 * BRIDGE_DWELL_TICKS;
        assert_eq!(unloaded_latency(&cfg(), &spec), want);
    }
}
