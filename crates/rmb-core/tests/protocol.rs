//! Protocol-level tests of the RMB network simulator: exact timing of the
//! routing protocol, compaction behaviour, refusal/retry, ablation modes,
//! and randomized invariant checking.

use rmb_core::{BusState, CompactionMode, RmbNetwork};
use rmb_types::{BusIndex, InsertionPolicy, MessageSpec, NodeId, RmbConfig, RmbConfigBuilder};

fn net(n: u32, k: u16) -> RmbNetwork {
    RmbNetwork::builder(RmbConfig::new(n, k).unwrap())
        .checked(true)
        .build()
}

fn msg(src: u32, dst: u32, flits: u32) -> MessageSpec {
    MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits)
}

#[test]
fn single_message_exact_timing() {
    // N=8, k=2, 0 -> 4 (span L=4), 4 data flits, injected at tick 0.
    //
    // t0 inject; t1..t3 header extends; head parked at n4 after t3;
    // t4 accept; Hack crosses 4 segments (t5..t8) -> circuit at t8;
    // DF0..DF3 sent t9..t12; FF sent t13; FF arrives t13+4 = t17.
    let mut net = net(8, 2);
    net.submit(msg(0, 4, 4)).unwrap();
    let report = net.run_to_quiescence(1_000);
    assert_eq!(report.delivered, 1);
    let d = &net.delivered_log()[0];
    assert_eq!(d.requested_at, 0);
    assert_eq!(d.circuit_at, 8);
    assert_eq!(d.delivered_at, 17);
    assert_eq!(d.refusals, 0);
    assert!(!report.stalled);
    assert!(net.is_quiescent());
    assert_eq!(net.busy_segments(), 0);
}

#[test]
fn adjacent_message_minimal_path() {
    // 0 -> 1: span 1. t0 inject (head parked at n1 = dst);
    // t1 accept; Hack 1 hop -> circuit at t2; DF at t3; FF t4; arrives t5.
    let mut net = net(4, 2);
    net.submit(msg(0, 1, 1)).unwrap();
    let report = net.run_to_quiescence(100);
    assert_eq!(report.delivered, 1);
    assert_eq!(net.delivered_log()[0].circuit_at, 2);
    assert_eq!(net.delivered_log()[0].delivered_at, 5);
}

#[test]
fn zero_data_flit_message_is_legal() {
    let mut net = net(6, 2);
    net.submit(msg(1, 3, 0)).unwrap();
    let report = net.run_to_quiescence(1_000);
    assert_eq!(report.delivered, 1);
}

#[test]
fn wraparound_path_crosses_node_zero() {
    let mut net = net(8, 2);
    net.submit(msg(6, 2, 4)).unwrap();
    let report = net.run_to_quiescence(1_000);
    assert_eq!(report.delivered, 1);
    // Span is 4 hops: 6->7->0->1->2.
    assert_eq!(net.delivered_log()[0].circuit_at, 8);
}

#[test]
fn second_circuit_compacts_below_first() {
    // Two long overlapping messages from the same region: the first is
    // compacted off the top bus, letting the second inject while the
    // first still streams.
    let mut net = net(12, 3);
    net.submit(msg(0, 8, 64)).unwrap();
    net.submit(msg(1, 7, 64)).unwrap();
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 2);
    assert!(report.compaction_moves > 0);
    // Both circuits overlap in time: the second need not wait for the
    // first to finish (full utilisation of the multiple buses).
    let d0 = &net.delivered_log()[0];
    let d1 = &net.delivered_log()[1];
    assert!(
        d1.circuit_at < d0.delivered_at || d0.circuit_at < d1.delivered_at,
        "circuits should overlap: {d0:?} {d1:?}"
    );
}

#[test]
fn without_compaction_top_bus_serialises_overlapping_requests() {
    let cfg = RmbConfig::builder(12, 3).compaction(false).build().unwrap();
    let mut without = RmbNetwork::builder(cfg).checked(true).build();
    without.submit(msg(0, 8, 64)).unwrap();
    without.submit(msg(1, 7, 64)).unwrap();
    let r_without = without.run_to_quiescence(10_000);
    assert_eq!(r_without.delivered, 2);
    assert_eq!(r_without.compaction_moves, 0);

    let mut with = net(12, 3);
    with.submit(msg(0, 8, 64)).unwrap();
    with.submit(msg(1, 7, 64)).unwrap();
    let r_with = with.run_to_quiescence(10_000);

    // Compaction strictly improves makespan for overlapping circuits.
    assert!(
        r_with.makespan() < r_without.makespan(),
        "with: {} without: {}",
        r_with.makespan(),
        r_without.makespan()
    );
}

#[test]
fn destination_busy_triggers_nack_and_retry() {
    // Two messages to the same destination: the second is refused while
    // the first is being received, then retried and delivered.
    let mut net = net(8, 2);
    net.submit(msg(0, 4, 40)).unwrap();
    net.submit(msg(2, 4, 4)).unwrap();
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 2);
    assert!(report.refusals >= 1, "one of the requests must be Nacked");
    // Whichever message lost the receive-port race carries the refusals.
    let total_refusals: u32 = net.delivered_log().iter().map(|d| d.refusals).sum();
    assert!(total_refusals >= 1);
}

#[test]
fn nack_releases_all_segments() {
    let mut net = net(8, 2);
    net.submit(msg(0, 4, 100)).unwrap();
    net.submit(msg(2, 4, 4)).unwrap();
    // Run until the refusal has happened and the Nack has torn down.
    net.run(40);
    // At most the two live circuits' segments are busy; the Nacked bus
    // must not leak segments. Invariant checking (set_checked) verifies
    // consistency; here we check the count is sane.
    let live_hops: usize = net
        .virtual_buses()
        .map(|b| b.active_hops(net.bus_state(b.id).expect("live bus")))
        .sum();
    assert_eq!(net.busy_segments(), live_hops);
}

#[test]
fn top_bus_busy_buffers_header_at_node() {
    // k = 1: a single bus segment. Two messages from the same source
    // cannot overlap at all; the second HF waits in the node buffer.
    let mut net = net(6, 1);
    net.submit(msg(0, 3, 8)).unwrap();
    net.submit(msg(0, 3, 8)).unwrap();
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 2);
    assert_eq!(report.compaction_moves, 0, "k=1 has nowhere to compact");
}

#[test]
fn single_send_limit_respected() {
    let mut net = net(8, 4);
    for _ in 0..3 {
        net.submit(msg(0, 4, 16)).unwrap();
    }
    let mut max_seen = 0;
    for _ in 0..200 {
        net.tick();
        let from_zero = net
            .virtual_buses()
            .filter(|b| b.spec.source == NodeId::new(0))
            .count();
        max_seen = max_seen.max(from_zero);
    }
    assert_eq!(max_seen, 1, "paper's base design: one send per PE");
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 3);
}

#[test]
fn multi_send_extension_allows_parallel_sends() {
    let cfg = RmbConfig::builder(8, 4)
        .max_concurrent_sends(2)
        .max_concurrent_receives(2)
        .build()
        .unwrap();
    let mut net = RmbNetwork::builder(cfg).checked(true).build();
    net.submit(msg(0, 4, 64)).unwrap();
    net.submit(msg(0, 5, 64)).unwrap();
    let mut max_seen = 0;
    for _ in 0..300 {
        net.tick();
        let from_zero = net
            .virtual_buses()
            .filter(|b| b.spec.source == NodeId::new(0))
            .count();
        max_seen = max_seen.max(from_zero);
    }
    assert_eq!(max_seen, 2, "future-work extension: two concurrent sends");
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 2);
}

#[test]
fn any_free_bus_ablation_delivers() {
    let cfg = RmbConfig::builder(10, 3)
        .insertion(InsertionPolicy::AnyFreeBus)
        .build()
        .unwrap();
    let mut net = RmbNetwork::builder(cfg).checked(true).build();
    for s in 0..5 {
        net.submit(msg(s, s + 5, 16)).unwrap();
    }
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 5);
}

#[test]
fn early_compaction_ablation_freezes_pre_hack_buses() {
    let build = |early: bool| -> RmbConfig {
        RmbConfig::builder(12, 3)
            .early_compaction(early)
            .build()
            .unwrap()
    };
    // With early compaction the top bus is released before the Hack
    // returns; without it the second injection must wait longer.
    let mut early = RmbNetwork::new(build(true));
    early.submit(msg(0, 9, 4)).unwrap();
    early.run(6); // header still travelling / Hack in flight
    let moves_early = early.report().compaction_moves;

    let mut late = RmbNetwork::new(build(false));
    late.submit(msg(0, 9, 4)).unwrap();
    late.run(6);
    let moves_late = late.report().compaction_moves;

    assert!(moves_early > 0, "early compaction moves pre-Hack hops");
    assert_eq!(
        moves_late, 0,
        "late compaction must not touch pre-Hack hops"
    );
}

#[test]
fn compaction_settles_circuits_on_lowest_buses() {
    // One long-lived circuit: after compaction quiesces, every hop should
    // sit on bus 0 (nothing below it).
    let mut net = net(10, 4);
    net.submit(msg(0, 6, 500)).unwrap();
    net.run(60);
    let bus = net.virtual_buses().next().expect("circuit is live");
    assert!(matches!(
        net.bus_state(bus.id),
        Some(BusState::Streaming(_))
    ));
    assert!(
        bus.heights.iter().all(|h| *h == BusIndex::new(0)),
        "heights: {:?}",
        bus.heights
    );
}

#[test]
fn compaction_makes_room_for_k_circuits_on_shared_hop() {
    // k = 3 overlapping circuits crossing one shared hop: all three can be
    // live at once thanks to compaction.
    let mut net = net(12, 3);
    net.submit(msg(0, 6, 300)).unwrap();
    net.submit(msg(1, 7, 300)).unwrap();
    net.submit(msg(2, 8, 300)).unwrap();
    net.run(80);
    assert_eq!(net.active_virtual_buses(), 3);
    assert!(net
        .virtual_buses()
        .all(|b| matches!(net.bus_state(b.id), Some(BusState::Streaming(_)))));
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 3);
}

#[test]
fn handshake_mode_uniform_clocks_delivers_same_messages() {
    let workload: Vec<MessageSpec> = (0..6).map(|s| msg(s, (s + 7) % 12, 24)).collect();

    let mut sync = net(12, 3);
    sync.submit_all(workload.clone()).unwrap();
    let r_sync = sync.run_to_quiescence(100_000);

    let mut hs = RmbNetwork::builder(RmbConfig::new(12, 3).unwrap())
        .checked(true)
        .compaction_mode(CompactionMode::Handshake {
            periods: vec![1; 12],
        })
        .build();
    hs.submit_all(workload).unwrap();
    let r_hs = hs.run_to_quiescence(100_000);

    assert_eq!(r_sync.delivered, 6);
    assert_eq!(r_hs.delivered, 6);
    assert!(hs.max_cycle_skew().unwrap() <= 1, "Lemma 1");
}

#[test]
fn handshake_mode_with_skewed_clocks_obeys_lemma1_and_delivers() {
    // Wildly different activation periods: INC 0 is 7x slower than INC 5.
    let periods = vec![7, 1, 3, 2, 5, 1, 4, 2, 6, 3];
    let mut hs = RmbNetwork::builder(RmbConfig::new(10, 3).unwrap())
        .checked(true)
        .compaction_mode(CompactionMode::Handshake { periods })
        .build();
    for s in 0..5 {
        hs.submit(msg(s, s + 5, 32)).unwrap();
    }
    let report = hs.run_to_quiescence(200_000);
    assert_eq!(report.delivered, 5);
    assert!(hs.max_cycle_skew().unwrap() <= 1, "Lemma 1 under skew");
    let transitions = hs.cycle_transitions().unwrap();
    assert!(transitions.iter().all(|&t| t > 0), "all INCs made progress");
}

#[test]
fn path_feasibility_oracle() {
    let mut net = net(8, 2);
    assert!(net.path_feasible(NodeId::new(0), NodeId::new(7)));
    net.submit(msg(0, 4, 400)).unwrap();
    net.submit(msg(1, 5, 400)).unwrap();
    net.run(40);
    // Hops 1..4 carry two circuits on k=2 buses: saturated.
    assert!(!net.path_feasible(NodeId::new(1), NodeId::new(3)));
    // A hop outside the congested stretch is free.
    assert!(net.path_feasible(NodeId::new(6), NodeId::new(7)));
}

#[test]
fn submit_validation() {
    let mut net = net(4, 2);
    assert!(net.submit(msg(0, 0, 1)).is_err());
    assert!(net.submit(msg(0, 9, 1)).is_err());
    assert!(net.submit(msg(9, 0, 1)).is_err());
    assert!(net.submit(msg(3, 0, 1)).is_ok());
}

#[test]
fn delayed_injection_waits_for_its_tick() {
    let mut net = net(6, 2);
    net.submit(msg(0, 3, 2).at(50)).unwrap();
    net.run(50);
    assert_eq!(net.active_virtual_buses(), 0, "not yet injected");
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 1);
    assert!(net.delivered_log()[0].requested_at == 50);
    assert!(net.delivered_log()[0].delivered_at > 50);
}

#[test]
fn saturated_ring_without_timeout_reaches_circular_wait() {
    // Every node sends to the diametrically opposite node simultaneously:
    // total segment demand is N * (N/2) = 128 > N * k = 64, so partial
    // circuits fill every hop and no header can advance — the circular
    // wait the paper's deadlock-avoidance argument does not cover.
    // (See EXPERIMENTS.md, deadlock study.)
    let n = 16u32;
    let mut net = net(n, 4);
    for s in 0..n {
        net.submit(msg(s, (s + n / 2) % n, 8)).unwrap();
    }
    let report = net.run_to_quiescence(1_000_000);
    assert!(report.stalled, "expected circular wait under saturation");
    assert_eq!(report.delivered, 0);
}

#[test]
fn saturation_with_head_timeout_eventually_drains() {
    // The head-timeout extension converts blocked headers into Nacks and
    // retries, which breaks the circular wait.
    let n = 16u32;
    let cfg = RmbConfig::builder(n, 4)
        .head_timeout(64)
        .retry_backoff(16)
        .build()
        .unwrap();
    let mut net = RmbNetwork::builder(cfg).checked(true).build();
    for s in 0..n {
        net.submit(msg(s, (s + n / 2) % n, 8)).unwrap();
    }
    let report = net.run_to_quiescence(1_000_000);
    assert_eq!(
        report.delivered, n as usize,
        "stalled={} refusals={}",
        report.stalled, report.refusals
    );
    assert!(!report.stalled);
    assert!(report.mean_utilization > 0.0);
}

#[test]
fn moderate_load_drains_without_timeout() {
    // The same permutation injected with staggered start times stays well
    // below saturation and drains under the paper's verbatim protocol.
    let n = 16u32;
    let mut net = net(n, 4);
    for s in 0..n {
        net.submit(msg(s, (s + n / 2) % n, 8).at(s as u64 * 40))
            .unwrap();
    }
    let report = net.run_to_quiescence(1_000_000);
    assert_eq!(report.delivered, n as usize, "stalled={}", report.stalled);
    assert!(!report.stalled);
}

#[test]
fn random_workload_keeps_invariants_and_drains() {
    // Deterministic pseudo-random workload over a mid-sized network with
    // per-tick invariant checking enabled.
    let n = 24u32;
    let mut net = net(n, 6);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..150 {
        let src = (next() % n as u64) as u32;
        let mut dst = (next() % n as u64) as u32;
        if dst == src {
            dst = (dst + 1) % n;
        }
        let flits = (next() % 32) as u32;
        net.submit(msg(src, dst, flits).at(i * 12)).unwrap();
    }
    let report = net.run_to_quiescence(2_000_000);
    assert_eq!(report.delivered, 150, "stalled={}", report.stalled);
    assert_eq!(net.busy_segments(), 0);
    net.check_invariants().unwrap();
}

#[test]
fn trace_records_protocol_lifecycle() {
    use rmb_sim::trace::TraceKind;
    let mut net = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
        .checked(true)
        .recording(true)
        .build();
    net.submit(msg(0, 3, 2)).unwrap();
    net.run_to_quiescence(1_000);
    let events = net.take_events();
    let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceKind::Inject));
    assert!(kinds.contains(&TraceKind::Extend));
    assert!(kinds.contains(&TraceKind::Accept));
    assert!(kinds.contains(&TraceKind::Deliver));
    assert!(kinds.contains(&TraceKind::Teardown));
    // Lifecycle order: inject before accept before deliver.
    let pos = |k: TraceKind| kinds.iter().position(|&x| x == k).unwrap();
    assert!(pos(TraceKind::Inject) < pos(TraceKind::Accept));
    assert!(pos(TraceKind::Accept) < pos(TraceKind::Deliver));
    assert!(pos(TraceKind::Deliver) < pos(TraceKind::Teardown));
}

#[test]
fn report_metrics_are_consistent() {
    let mut net = net(10, 2);
    net.submit(msg(0, 5, 10)).unwrap();
    net.submit(msg(5, 0, 10)).unwrap();
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 2);
    assert_eq!(report.undelivered, 0);
    assert!(report.mean_latency() > 0.0);
    assert!(report.mean_setup_latency() > 0.0);
    assert!(report.mean_setup_latency() < report.mean_latency());
    assert!(report.makespan() <= report.ticks);
    assert!(report.peak_virtual_buses >= 1);
}

mod builder_misuse {
    use super::*;

    #[test]
    #[should_panic(expected = "one activation period per INC")]
    fn handshake_periods_must_match_ring() {
        let _ = RmbNetwork::builder(RmbConfig::new(8, 2).unwrap())
            .compaction_mode(CompactionMode::Handshake {
                periods: vec![1; 3],
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn handshake_periods_must_be_positive() {
        let _ = RmbNetwork::builder(RmbConfig::new(4, 2).unwrap())
            .compaction_mode(CompactionMode::Handshake {
                periods: vec![1, 0, 1, 1],
            })
            .build();
    }

    #[test]
    fn builder_type_is_reusable() {
        let b: RmbConfigBuilder = RmbConfig::builder(8, 2);
        let cfg = b.clone().compaction(false).build().unwrap();
        assert!(!cfg.compaction);
        let cfg2 = b.build().unwrap();
        assert!(cfg2.compaction);
    }
}
