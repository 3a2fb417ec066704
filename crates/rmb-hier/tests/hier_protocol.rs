//! End-to-end hierarchical protocol tests, including the PR's acceptance
//! scenario: a 4-ring hierarchy (N=16, k=4, locality 0.8) completing a
//! random workload with zero lost messages under fault injection.

use rmb_hier::HierNetwork;
use rmb_sim::SimRng;
use rmb_types::{HierConfig, HierMessageSpec, NodeAddr, NodeId};
use rmb_workloads::{FaultScenario, LocalityTraffic};

fn four_rings() -> HierConfig {
    HierConfig::builder(4, 16, 4).build().unwrap()
}

fn workload(count: usize, locality: f64, spread: u64, seed: u64) -> Vec<HierMessageSpec> {
    LocalityTraffic {
        rings: 4,
        nodes: 16,
        bridge: NodeId::new(0),
        locality,
        flits: 8,
    }
    .generate(count, spread, &mut SimRng::seed(seed))
}

/// Acceptance: transient faults on every local ring and on the global
/// ring, legs retrying forever — every message must still arrive.
#[test]
fn four_ring_workload_survives_faults_with_zero_loss() {
    let scenario = FaultScenario {
        fraction: 0.15,
        horizon: 2_000,
        outage: Some(400),
    };
    let mut rng = SimRng::seed(0xFA);
    let mut builder = HierNetwork::builder(four_rings())
        .checked(true)
        .fault_seed(7);
    for r in 0..4 {
        builder = builder.local_fault_plan(r, scenario.draw(16, 4, &mut rng));
    }
    builder = builder.global_fault_plan(scenario.draw(4, 4, &mut rng));
    let mut net = builder.build();

    let msgs = workload(240, 0.8, 2_000, 42);
    let submitted = msgs.len();
    net.submit_all(msgs).unwrap();
    let report = net.run_to_quiescence(5_000_000);

    assert!(!report.stalled, "must quiesce: {report:?}");
    assert_eq!(report.delivered, submitted, "zero lost messages");
    assert_eq!(report.aborted, 0);
    assert_eq!(report.undelivered, 0);
    assert!(report.fault_kills > 0, "faults must actually hit circuits");
    assert!(net.is_quiescent());
    // All bridge slots returned.
    for r in 0..4 {
        assert_eq!(net.bridge_load(r), (0, 0));
    }
}

/// The same workload without faults delivers everything too, and higher
/// locality means lower mean latency (fewer bridge crossings).
#[test]
fn locality_lowers_latency() {
    let run = |locality: f64| {
        let mut net = HierNetwork::new(four_rings());
        net.submit_all(workload(300, locality, 3_000, 9)).unwrap();
        let report = net.run_to_quiescence(1_000_000);
        assert_eq!(report.delivered, 300, "locality {locality}: {report:?}");
        report.mean_latency()
    };
    let local = run(0.9);
    let remote = run(0.1);
    assert!(
        local < remote,
        "locality 0.9 ({local:.1}) must beat 0.1 ({remote:.1})"
    );
}

/// Legs carry the per-ring retry machinery: a permanently dead segment
/// wall on one ring aborts exactly the messages that need it, each with
/// an error naming the failing leg, while unaffected traffic flows.
#[test]
fn permanent_fault_aborts_name_the_leg() {
    use rmb_types::{BusIndex, FaultPlan, ProtocolError};
    // Kill every bus of hop n2 on ring 1 forever: circuits from n1 to n3
    // on ring 1 cannot form.
    let mut plan = FaultPlan::new();
    for b in 0..4 {
        plan = plan.segment_stuck(0, NodeId::new(2), BusIndex::new(b), None);
    }
    let mut net = HierNetwork::builder(four_rings())
        .local_fault_plan(1, plan)
        .leg_max_retries(3)
        .build();
    // Blocked: r1.n1 → r1.n3 crosses the dead hop.
    net.submit(HierMessageSpec::new(
        NodeAddr::new(1, NodeId::new(1)),
        NodeAddr::new(1, NodeId::new(3)),
        8,
    ))
    .unwrap();
    // Unaffected: a different ring entirely.
    net.submit(HierMessageSpec::new(
        NodeAddr::new(2, NodeId::new(1)),
        NodeAddr::new(3, NodeId::new(5)),
        8,
    ))
    .unwrap();
    let report = net.run_to_quiescence(2_000_000);
    assert!(!report.stalled, "{report:?}");
    assert_eq!(report.delivered, 1);
    assert_eq!(report.aborted, 1);
    let abort = &net.aborted_log()[0];
    match abort.error {
        ProtocolError::LegAborted { ring, .. } => assert_eq!(ring, Some(1)),
        other => panic!("expected LegAborted, got {other:?}"),
    }
    assert!(abort.error.to_string().contains("leg on ring 1"));
}

/// `take_events` contract: globally ordered by `(tick, ring, seq)` — at
/// nondecreasing, ring nondecreasing within a tick.
#[test]
fn take_events_is_ordered_by_tick_then_ring() {
    let mut net = HierNetwork::builder(HierConfig::builder(3, 8, 2).build().unwrap())
        .recording(true)
        .build();
    for i in 0..30u32 {
        let src = NodeAddr::new(i % 3, NodeId::new(1 + i % 7));
        let dst = NodeAddr::new((i + 1) % 3, NodeId::new(1 + (i + 3) % 7));
        net.submit(HierMessageSpec::new(src, dst, 4).at(u64::from(i)))
            .unwrap();
    }
    net.run_to_quiescence(100_000);
    let events = net.take_events();
    assert!(!events.is_empty(), "bridge traffic must trace");
    for w in events.windows(2) {
        let a = (w[0].at, w[0].node);
        let b = (w[1].at, w[1].node);
        assert!(a <= b, "events out of (tick, ring) order: {w:?}");
    }
}
