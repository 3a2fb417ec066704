//! Scheduler equivalence: the event-driven active-set engine must be
//! *byte-identical* to the dense per-tick sweep — same delivered log,
//! same protocol trace, same [`RunReport`], floats included — over random
//! workloads, random fault schedules, and every protocol option. The
//! dense sweep is the oracle; any divergence is a scheduler bug by
//! definition. The dense sweep also decides compaction with the per-hop
//! rule rather than the event engine's ring kernel, so the suite compares
//! the two rules, and the kernel's lanes with the heights they mirror.

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_core::{CompactionMode, RmbNetwork, RunReport, SchedulerMode};
use rmb_sim::trace::TraceEvent;
use rmb_sim::SimRng;
use rmb_types::{BusIndex, FaultPlan, MessageSpec, NodeId, RmbConfig};

/// Workload item: (source, destination offset, flits, delay) — the same
/// shape the fault suite uses.
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

/// Full observable behaviour of one run.
struct Observed {
    report: RunReport,
    log: Vec<(u64, u64, u64, u64, u32)>,
    events: Vec<TraceEvent>,
}

/// Runs `drive` on a fresh network under the given scheduler and captures
/// everything observable: the report, the delivered log, and the trace.
fn observe(
    cfg: RmbConfig,
    mode: SchedulerMode,
    compaction: CompactionMode,
    plan: &FaultPlan,
    seed: u64,
    drive: &dyn Fn(&mut RmbNetwork),
) -> Observed {
    let mut net = RmbNetwork::builder(cfg)
        .scheduler(mode)
        .compaction_mode(compaction)
        .checked(true)
        .recording(true)
        .fault_plan(plan.clone())
        .fault_seed(seed)
        .max_retries(8)
        .build();
    drive(&mut net);
    let report = net.run_to_quiescence(4_000_000);
    let log = net
        .delivered_log()
        .iter()
        .map(|d| {
            (
                d.request.get(),
                d.requested_at,
                d.circuit_at,
                d.delivered_at,
                d.refusals,
            )
        })
        .collect();
    Observed {
        report,
        log,
        events: net.take_events(),
    }
}

/// Asserts byte-identical behaviour of the event engine and the dense
/// sweep.
fn assert_equivalent(
    cfg: RmbConfig,
    compaction: CompactionMode,
    plan: &FaultPlan,
    seed: u64,
    drive: &dyn Fn(&mut RmbNetwork),
) -> Result<(), TestCaseError> {
    let ev = observe(
        cfg,
        SchedulerMode::EventDriven,
        compaction.clone(),
        plan,
        seed,
        drive,
    );
    let dn = observe(
        cfg,
        SchedulerMode::DenseSweep,
        compaction,
        plan,
        seed,
        drive,
    );
    prop_assert_eq!(ev.report.ticks, dn.report.ticks);
    prop_assert_eq!(ev.report.delivered, dn.report.delivered);
    prop_assert_eq!(ev.report.refusals, dn.report.refusals);
    prop_assert_eq!(ev.report.retries, dn.report.retries);
    prop_assert_eq!(ev.report.aborted, dn.report.aborted);
    prop_assert_eq!(ev.report.compaction_moves, dn.report.compaction_moves);
    prop_assert_eq!(ev.report.fault_kills, dn.report.fault_kills);
    prop_assert_eq!(ev.report.stalled, dn.report.stalled);
    prop_assert_eq!(ev.report.peak_virtual_buses, dn.report.peak_virtual_buses);
    prop_assert_eq!(ev.report.makespan(), dn.report.makespan());
    prop_assert_eq!(
        ev.report.mean_latency().to_bits(),
        dn.report.mean_latency().to_bits()
    );
    prop_assert_eq!(
        ev.report.mean_setup_latency().to_bits(),
        dn.report.mean_setup_latency().to_bits()
    );
    prop_assert_eq!(ev.report.recovered(), dn.report.recovered());
    prop_assert_eq!(
        ev.report.mean_time_to_recover().to_bits(),
        dn.report.mean_time_to_recover().to_bits()
    );
    prop_assert_eq!(
        ev.report.max_time_to_recover(),
        dn.report.max_time_to_recover()
    );
    // Both engines sample utilisation at the same ticks with the same
    // occupancy, so even the floating-point mean matches bit for bit.
    prop_assert_eq!(
        ev.report.mean_utilization.to_bits(),
        dn.report.mean_utilization.to_bits()
    );
    prop_assert_eq!(&ev.log, &dn.log);
    prop_assert_eq!(&ev.events, &dn.events);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random unicast workloads with random fault schedules, synchronous
    /// compaction (the configuration the settled-ring skip accelerates).
    #[test]
    fn engines_agree_under_random_faults(
        n in 4u32..12,
        k in 1u16..4,
        raw in vec(any::<RawMsg>(), 1..10),
        faults in vec(any::<RawFault>(), 0..8),
        seed in any::<u64>(),
    ) {
        let msgs = build_msgs(n, &raw);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * n as u64)
            .retry_backoff(n as u64)
            .build()
            .unwrap();
        let plan = build_plan(n, k, &faults);
        assert_equivalent(cfg, CompactionMode::Synchronous, &plan, seed, &|net| {
            net.submit_all(msgs.clone()).unwrap();
        })?;
    }

    /// Same, under the handshake compactor (per-INC activation periods):
    /// each INC's activation runs the ring kernel at its one hop in the
    /// event engine and the per-hop rule in the dense sweep, and stream,
    /// establishment and injection still run through the active set.
    #[test]
    fn engines_agree_under_handshake_compaction(
        n in 4u32..10,
        k in 2u16..4,
        raw in vec(any::<RawMsg>(), 1..8),
        faults in vec(any::<RawFault>(), 0..5),
        periods in vec(1u64..4, 10..11),
        seed in any::<u64>(),
    ) {
        let msgs = build_msgs(n, &raw);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * n as u64)
            .retry_backoff(n as u64)
            .build()
            .unwrap();
        let plan = build_plan(n, k, &faults);
        let mode = CompactionMode::Handshake {
            periods: periods[..n as usize].to_vec(),
        };
        assert_equivalent(cfg, mode, &plan, seed, &|net| {
            net.submit_all(msgs.clone()).unwrap();
        })?;
    }
}

#[test]
fn engines_agree_on_multicast() {
    let cfg = RmbConfig::new(12, 3).unwrap();
    assert_equivalent(
        cfg,
        CompactionMode::Synchronous,
        &FaultPlan::new(),
        1,
        &|net| {
            net.submit_multicast(
                NodeId::new(0),
                &[NodeId::new(3), NodeId::new(6), NodeId::new(9)],
                40,
                0,
            )
            .unwrap();
            net.submit_multicast(NodeId::new(5), &[NodeId::new(7), NodeId::new(10)], 12, 30)
                .unwrap();
            net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(8), 16))
                .unwrap();
        },
    )
    .unwrap();
}

/// Early compaction with a 64-tick head timeout on a 10-node, k=4 ring,
/// under a segment fault and a dead INC, both repaired.
#[test]
fn engines_agree_with_early_compaction_head_timeout_and_two_faults() {
    let cfg = RmbConfig::builder(10, 4)
        .early_compaction(true)
        .head_timeout(64)
        .build()
        .unwrap();
    let plan = FaultPlan::new()
        .segment_stuck(25, NodeId::new(4), BusIndex::new(0), Some(150))
        .inc_dead(300, NodeId::new(7), Some(380));
    assert_equivalent(cfg, CompactionMode::Synchronous, &plan, 7, &|net| {
        for s in 0..10u32 {
            net.submit(
                MessageSpec::new(NodeId::new(s), NodeId::new((s + 4) % 10), 30)
                    .at(u64::from(s) * 7),
            )
            .unwrap();
        }
    })
    .unwrap();
}

/// A uniform batch as a scenario file draws one: random pairs, injected
/// over a window of ticks.
#[test]
fn engines_agree_on_a_uniform_batch() {
    let cfg = RmbConfig::builder(12, 3)
        .head_timeout(16 * 12)
        .retry_backoff(12)
        .build()
        .unwrap();
    let mut rng = SimRng::seed(20_260_808);
    let msgs: Vec<MessageSpec> = (0..80)
        .map(|_| {
            let src = rng.next_u32() % 12;
            let dst = (src + 1 + rng.next_u32() % 11) % 12;
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), 6).at(rng.next_u64() % 200)
        })
        .collect();
    assert_equivalent(
        cfg,
        CompactionMode::Synchronous,
        &FaultPlan::new(),
        0,
        &|net| {
            net.submit_all(msgs.clone()).unwrap();
        },
    )
    .unwrap();
}

/// Open-loop serving: between ticks, every node starts a message with
/// probability `rate`, stamped with the current tick, for 3,000 ticks.
#[test]
fn engines_agree_when_submitting_between_ticks() {
    let n = 16u32;
    let cfg = RmbConfig::builder(n, 4)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .unwrap();
    for rate in [0.002, 0.006] {
        assert_equivalent(
            cfg,
            CompactionMode::Synchronous,
            &FaultPlan::new(),
            42,
            &|net| {
                let mut rng = SimRng::seed(42);
                for _ in 0..3_000 {
                    for src in 0..n {
                        if rng.chance(rate) {
                            let dst = (src + 1 + rng.next_u32() % (n - 1)) % n;
                            let at = net.now().get();
                            net.submit(
                                MessageSpec::new(NodeId::new(src), NodeId::new(dst), 8).at(at),
                            )
                            .unwrap();
                        }
                    }
                    net.tick();
                }
            },
        )
        .unwrap();
    }
}

/// Uniform `flits`-flit messages on an `n`-node ring: each tick below
/// `ticks`, each node starts one with probability `rate`.
fn bernoulli(n: u32, rate: f64, ticks: u64, flits: u32, seed: u64) -> Vec<MessageSpec> {
    let mut rng = SimRng::seed(seed);
    let mut msgs = Vec::new();
    for at in 0..ticks {
        for src in 0..n {
            if rng.chance(rate) {
                let r = rng.index(n as usize - 1).unwrap() as u32;
                let dst = if r >= src { r + 1 } else { r };
                msgs.push(MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits).at(at));
            }
        }
    }
    msgs
}

/// A 16-node, k=4 ring (head timeout 256, retry backoff 16) offered
/// 0.012 msgs/node/tick for 2,000 ticks: past the knee, where the ring
/// drains for thousands of ticks more, every one of them checked.
fn saturating_ring() -> (RmbConfig, Vec<MessageSpec>) {
    let cfg = RmbConfig::builder(16, 4)
        .head_timeout(256)
        .retry_backoff(16)
        .build()
        .unwrap();
    (cfg, bernoulli(16, 0.012, 2_000, 8, 1996))
}

#[test]
fn engines_agree_past_the_knee() {
    let (cfg, msgs) = saturating_ring();
    assert_equivalent(
        cfg,
        CompactionMode::Synchronous,
        &FaultPlan::new(),
        0,
        &|net| {
            net.submit_all(msgs.clone()).unwrap();
        },
    )
    .unwrap();
}

/// The same saturated ring under twelve random segment, link and INC
/// faults, some of them permanent, over the loaded stretch.
#[test]
fn engines_agree_past_the_knee_under_faults() {
    let (cfg, msgs) = saturating_ring();
    let mut rng = SimRng::seed(28);
    let raw: Vec<RawFault> = (0..12)
        .map(|_| {
            let (kind, node, bus) = (rng.next_u32() as u8, rng.next_u32(), rng.next_u32() as u16);
            (kind, rng.next_u64(), node, bus, rng.next_u64())
        })
        .collect();
    let plan = build_plan(16, 4, &raw);
    assert_equivalent(cfg, CompactionMode::Synchronous, &plan, 28, &|net| {
        net.submit_all(msgs.clone()).unwrap();
    })
    .unwrap();
}

/// DL's symmetric case: every node of an 8-node, k=8 ring sends to the
/// opposite node at tick 0. The partial circuits wait on one another in
/// a circle until head timeouts refuse them.
#[test]
fn engines_agree_on_simultaneous_all_to_opposite() {
    let cfg = RmbConfig::builder(8, 8)
        .head_timeout(64)
        .retry_backoff(16)
        .build()
        .unwrap();
    assert_equivalent(
        cfg,
        CompactionMode::Synchronous,
        &FaultPlan::new(),
        0,
        &|net| {
            for s in 0..8 {
                net.submit(MessageSpec::new(
                    NodeId::new(s),
                    NodeId::new((s + 4) % 8),
                    4,
                ))
                .unwrap();
            }
        },
    )
    .unwrap();
}

#[test]
fn engines_agree_without_compaction_and_without_fast_forward() {
    // `compaction(false)` skips the compaction phase entirely; fast-forward
    // off forces every idle tick through the full phase sequence.
    let cfg = RmbConfig::builder(8, 2).compaction(false).build().unwrap();
    let drive: &dyn Fn(&mut RmbNetwork) = &|net| {
        net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(5), 20))
            .unwrap();
        net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(6), 8).at(400))
            .unwrap();
    };
    let run = |mode: SchedulerMode| {
        let mut net = RmbNetwork::builder(cfg)
            .scheduler(mode)
            .fast_forward(false)
            .checked(true)
            .recording(true)
            .build();
        drive(&mut net);
        let report = net.run_to_quiescence(100_000);
        (
            report.ticks,
            report.delivered,
            report.compaction_moves,
            net.take_events(),
        )
    };
    assert_eq!(
        run(SchedulerMode::EventDriven),
        run(SchedulerMode::DenseSweep)
    );
}
