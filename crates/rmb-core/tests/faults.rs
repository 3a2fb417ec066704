//! Fault-injection and recovery tests: deterministic fault schedules
//! drive the network through segment failures, link cuts and dead INCs,
//! and the simulator must tear down, retry and re-route without ever
//! violating the structural invariants or losing a message silently.

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_core::RmbNetwork;
use rmb_types::{BusIndex, FaultPlan, MessageSpec, NodeId, RmbConfig};

fn msg(src: u32, dst: u32, flits: u32) -> MessageSpec {
    MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits)
}

#[test]
fn segment_fault_is_visible_until_repair() {
    let plan = FaultPlan::new().segment_stuck(5, NodeId::new(3), BusIndex::new(1), Some(50));
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .checked(true)
        .fault_plan(plan)
        .build();
    assert!(!net.is_segment_faulted(NodeId::new(3), BusIndex::new(1)));
    net.run(10);
    assert!(net.is_segment_faulted(NodeId::new(3), BusIndex::new(1)));
    assert_eq!(net.faulted_segments(), 1);
    net.run(50);
    assert!(!net.is_segment_faulted(NodeId::new(3), BusIndex::new(1)));
    assert_eq!(net.faulted_segments(), 0);
}

#[test]
fn link_cut_faults_every_bus_on_the_hop() {
    let plan = FaultPlan::new().link_cut(1, NodeId::new(2), Some(20));
    let mut net = RmbNetwork::builder(RmbConfig::new(6, 3).unwrap())
        .checked(true)
        .fault_plan(plan)
        .build();
    net.run(5);
    assert_eq!(net.faulted_segments(), 3, "all k segments of the hop");
    for b in 0..3 {
        assert!(net.is_segment_faulted(NodeId::new(2), BusIndex::new(b)));
    }
    net.run(20);
    assert_eq!(net.faulted_segments(), 0);
}

#[test]
fn fault_under_live_circuit_kills_then_recovers() {
    // A long stream 0 -> 4 settles on bus 0; at t = 20 that segment dies
    // under it. The circuit is torn down, the source backs off, retries
    // once the fault clears, and the message is still delivered.
    let plan = FaultPlan::new().segment_stuck(20, NodeId::new(1), BusIndex::new(0), Some(120));
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .checked(true)
        .fault_plan(plan)
        .build();
    net.submit(msg(0, 4, 200)).unwrap();
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 1, "stalled={}", report.stalled);
    assert_eq!(report.undelivered, 0);
    assert!(report.fault_kills >= 1, "the fault must hit the circuit");
    assert!(report.retries >= 1, "the kill must requeue the request");
    assert_eq!(report.recovered(), 1);
    assert!(report.mean_time_to_recover() > 0.0);
    assert!(report.max_time_to_recover() > 0);
    assert!(net.is_quiescent());
}

#[test]
fn live_circuit_routes_around_permanent_fault() {
    // Bus 0 of hop 2 is dead from the start; a circuit crossing hop 2
    // must settle with that hop on bus 1 while free hops compact to 0.
    let plan = FaultPlan::new().segment_stuck(0, NodeId::new(2), BusIndex::new(0), None);
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .checked(true)
        .fault_plan(plan)
        .build();
    net.submit(msg(0, 5, 400)).unwrap();
    net.run(60);
    let bus = net.virtual_buses().next().expect("circuit is live");
    // Hop index 2 of a circuit from node 0 crosses the faulted segment.
    assert_eq!(
        bus.heights[2],
        BusIndex::new(1),
        "heights: {:?}",
        bus.heights
    );
    assert!(
        bus.heights
            .iter()
            .enumerate()
            .all(|(j, h)| j == 2 || *h == BusIndex::new(0)),
        "unfaulted hops compact to the bottom: {:?}",
        bus.heights
    );
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 1);
}

#[test]
fn dead_destination_aborts_after_retry_budget() {
    let plan = FaultPlan::new().inc_dead(0, NodeId::new(4), None);
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .checked(true)
        .fault_plan(plan)
        .max_retries(2)
        .build();
    net.submit(msg(0, 4, 4)).unwrap();
    let report = net.run_to_quiescence(1_000_000);
    assert_eq!(report.delivered, 0);
    assert_eq!(report.aborted, 1, "explicitly dropped, not silently lost");
    assert_eq!(report.undelivered, 1);
    assert!(!report.stalled, "an abort is a clean outcome, not a stall");
    assert!(net.is_quiescent());
}

#[test]
fn dead_source_refuses_injection_until_repair() {
    let plan = FaultPlan::new().inc_dead(0, NodeId::new(0), Some(200));
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .checked(true)
        .fault_plan(plan)
        .build();
    net.submit(msg(0, 3, 2)).unwrap();
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 1, "stalled={}", report.stalled);
    assert!(
        report.refusals >= 1,
        "injection refused while the INC is down"
    );
    assert!(
        net.delivered_log()[0].circuit_at >= 200,
        "only after repair"
    );
}

#[test]
fn fault_events_appear_in_the_trace() {
    use rmb_sim::trace::TraceKind;
    let plan = FaultPlan::new().segment_stuck(10, NodeId::new(1), BusIndex::new(0), Some(60));
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .checked(true)
        .recording(true)
        .fault_plan(plan)
        .build();
    net.submit(msg(0, 4, 200)).unwrap();
    net.run_to_quiescence(100_000);
    let events = net.take_events();
    let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceKind::FaultInject));
    assert!(kinds.contains(&TraceKind::FaultRepair));
    assert!(kinds.contains(&TraceKind::FaultKill));
}

#[test]
fn abort_is_traced() {
    use rmb_sim::trace::TraceKind;
    let plan = FaultPlan::new().inc_dead(0, NodeId::new(4), None);
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .recording(true)
        .fault_plan(plan)
        .max_retries(1)
        .build();
    net.submit(msg(0, 4, 4)).unwrap();
    net.run_to_quiescence(1_000_000);
    let events = net.take_events();
    assert!(events.iter().any(|e| e.kind == TraceKind::Abort));
}

#[test]
fn overlapping_faults_keep_segment_down_until_both_clear() {
    // A link cut and a segment fault overlap on the same segment; the
    // segment only returns to service when the *last* covering fault is
    // repaired.
    let plan = FaultPlan::new()
        .segment_stuck(5, NodeId::new(2), BusIndex::new(0), Some(30))
        .link_cut(10, NodeId::new(2), Some(50));
    let mut net = RmbNetwork::builder(RmbConfig::new(6, 2).unwrap())
        .checked(true)
        .fault_plan(plan)
        .build();
    net.run(35);
    assert!(
        net.is_segment_faulted(NodeId::new(2), BusIndex::new(0)),
        "link cut still covers the segment after the stuck fault cleared"
    );
    net.run(20);
    assert!(!net.is_segment_faulted(NodeId::new(2), BusIndex::new(0)));
    assert_eq!(net.faulted_segments(), 0);
}

/// Workload item: (source, destination offset, flits, delay).
type RawMsg = (u32, u32, u32, u64);

fn build_msgs(n: u32, raw: &[RawMsg]) -> Vec<MessageSpec> {
    raw.iter()
        .map(|&(s, off, flits, at)| {
            let src = s % n;
            let dst = (src + 1 + off % (n - 1)) % n;
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits % 24).at(at % 400)
        })
        .collect()
}

/// Raw fault item: (kind, at, node, bus, outage).
type RawFault = (u8, u64, u32, u16, u64);

fn build_plan(n: u32, k: u16, raw: &[RawFault]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, at, node, bus, outage) in raw {
        let at = at % 2_000;
        let node = NodeId::new(node % n);
        let repair = if outage % 3 == 0 {
            None
        } else {
            Some(at + 1 + outage % 600)
        };
        plan = match kind % 4 {
            0 | 1 => plan.segment_stuck(at, node, BusIndex::new(bus % k), repair),
            2 => plan.link_cut(at, node, repair),
            _ => plan.inc_dead(at, node, repair),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A plan whose events all lie beyond the end of the run changes
    /// nothing: the fault machinery must be a strict no-op on the
    /// fault-free prefix, byte for byte.
    #[test]
    fn fault_free_run_is_byte_identical_to_no_plan_run(
        n in 4u32..12,
        k in 1u16..4,
        raw in vec(any::<RawMsg>(), 1..10),
        seed in any::<u64>(),
    ) {
        let msgs = build_msgs(n, &raw);
        let cfg = RmbConfig::new(n, k).unwrap();

        let mut bare = RmbNetwork::builder(cfg).checked(true).build();
        bare.submit_all(msgs.clone()).unwrap();
        let r_bare = bare.run_to_quiescence(2_000_000);

        // Every fault is scheduled after the bare run finished, so the
        // planned run quiesces before any of them fire.
        let horizon = r_bare.ticks + 1;
        let plan = FaultPlan::new()
            .segment_stuck(horizon, NodeId::new(0), BusIndex::new(0), None)
            .link_cut(horizon + 5, NodeId::new(n - 1), Some(horizon + 10))
            .inc_dead(horizon + 7, NodeId::new(n / 2), None);
        let mut planned = RmbNetwork::builder(cfg)
            .checked(true)
            .fault_plan(plan)
            .fault_seed(seed)
            .build();
        planned.submit_all(msgs).unwrap();
        let r_planned = planned.run_to_quiescence(2_000_000);

        prop_assert_eq!(r_bare.ticks, r_planned.ticks);
        prop_assert_eq!(r_bare.delivered, r_planned.delivered);
        prop_assert_eq!(r_bare.refusals, r_planned.refusals);
        prop_assert_eq!(r_bare.retries, r_planned.retries);
        prop_assert_eq!(r_bare.compaction_moves, r_planned.compaction_moves);
        prop_assert_eq!(r_bare.fault_kills, 0u64);
        prop_assert_eq!(r_planned.fault_kills, 0u64);
        let log = |net: &RmbNetwork| -> Vec<(u64, u64, u64, u32)> {
            net.delivered_log()
                .iter()
                .map(|d| (d.request.get(), d.circuit_at, d.delivered_at, d.refusals))
                .collect()
        };
        prop_assert_eq!(log(&bare), log(&planned));
    }

    /// Under arbitrary fault schedules every submitted message is
    /// accounted for — delivered or explicitly aborted, never silently
    /// lost — the run reaches quiescence (no deadlock), and the
    /// fault-aware invariants hold throughout (checked mode panics on
    /// the first violation).
    #[test]
    fn no_silent_loss_under_random_faults(
        n in 5u32..12,
        k in 2u16..4,
        raw in vec(any::<RawMsg>(), 1..10),
        faults in vec(any::<RawFault>(), 1..8),
        seed in any::<u64>(),
    ) {
        let msgs = build_msgs(n, &raw);
        let submitted = msgs.len();
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * n as u64)
            .retry_backoff(n as u64)
            .build()
            .unwrap();
        let mut net = RmbNetwork::builder(cfg)
            .checked(true)
            .fault_plan(build_plan(n, k, &faults))
            .fault_seed(seed)
            .max_retries(8)
            .build();
        net.submit_all(msgs).unwrap();
        let report = net.run_to_quiescence(4_000_000);

        prop_assert!(!report.stalled, "faults must not deadlock the ring");
        prop_assert!(net.is_quiescent());
        prop_assert_eq!(
            report.delivered + report.aborted,
            submitted,
            "every message delivered or explicitly aborted"
        );
        prop_assert_eq!(report.undelivered, report.aborted);
        net.check_invariants().unwrap();
    }
}
