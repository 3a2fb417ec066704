//! Property-based tests of the RMB protocol engine.
//!
//! Each property runs full simulations with per-tick invariant checking
//! enabled, so every generated workload also stress-tests consistency,
//! continuity, head-pinning and the Table 1 port codes.

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_core::{CompactionMode, LoneMemo, RmbNetwork, RmbNetworkBuilder, RunReport};
use rmb_types::{BusIndex, FaultPlan, InsertionPolicy, MessageSpec, NodeId, RmbConfig};

/// A generated workload item: (source, destination offset, flits, delay).
type RawMsg = (u32, u32, u32, u64);

fn build_msgs(n: u32, raw: &[RawMsg]) -> Vec<MessageSpec> {
    raw.iter()
        .map(|&(s, off, flits, at)| {
            let src = s % n;
            let dst = (src + 1 + off % (n - 1)) % n;
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits % 24).at(at % 500)
        })
        .collect()
}

fn checked_builder(n: u32, k: u16) -> RmbNetworkBuilder {
    let cfg = RmbConfig::builder(n, k)
        .head_timeout(8 * n as u64)
        .retry_backoff(n as u64)
        .build()
        .unwrap();
    RmbNetwork::builder(cfg).checked(true)
}

fn checked_net(n: u32, k: u16) -> RmbNetwork {
    checked_builder(n, k).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every submitted message is eventually delivered exactly once, and
    /// the network returns to the empty configuration.
    #[test]
    fn all_messages_delivered_and_network_drains(
        n in 3u32..20,
        k in 1u16..6,
        raw in vec(any::<RawMsg>(), 1..40),
    ) {
        let msgs = build_msgs(n, &raw);
        let mut net = checked_net(n, k);
        let ids = net.submit_all(msgs.clone()).unwrap();
        let report = net.run_to_quiescence(4_000_000);
        prop_assert!(!report.stalled, "stalled with {} delivered", report.delivered);
        prop_assert_eq!(report.delivered, msgs.len());
        prop_assert_eq!(net.busy_segments(), 0);
        prop_assert!(net.is_quiescent());
        // Exactly-once delivery: each request id appears once.
        let mut seen: Vec<u64> = net.delivered_log().iter().map(|d| d.request.get()).collect();
        seen.sort_unstable();
        let mut want: Vec<u64> = ids.iter().map(|r| r.get()).collect();
        want.sort_unstable();
        prop_assert_eq!(seen, want);
    }

    /// Latency is bounded below by the physical pipeline: header travel,
    /// Hack return, data stream, final flit.
    #[test]
    fn latency_respects_pipeline_lower_bound(
        n in 3u32..16,
        k in 1u16..5,
        raw in vec(any::<RawMsg>(), 1..16),
    ) {
        let msgs = build_msgs(n, &raw);
        let mut net = checked_net(n, k);
        net.submit_all(msgs).unwrap();
        let report = net.run_to_quiescence(4_000_000);
        prop_assert!(!report.stalled);
        let ring = net.ring();
        for d in net.delivered_log() {
            let span = ring.clockwise_distance(d.spec.source, d.spec.destination) as u64;
            // Head: >= span-1 extension ticks; Hack: span; DFs + FF:
            // >= data + 1 sends; FF travel: span.
            let lower = 3 * span + d.spec.data_flits as u64;
            prop_assert!(
                d.latency() >= lower,
                "latency {} below physical bound {} for {}",
                d.latency(), lower, d.spec
            );
            prop_assert!(d.setup_latency() >= 2 * span);
            prop_assert!(d.circuit_at <= d.delivered_at);
        }
    }

    /// The synchronous and handshake (uniform-clock) compactors deliver
    /// the same set of requests — the five-rule state machine implements
    /// the same cycles the idealised alternation does.
    #[test]
    fn handshake_equals_sync_on_delivered_set(
        n in 3u32..14,
        k in 1u16..5,
        raw in vec(any::<RawMsg>(), 1..20),
    ) {
        let msgs = build_msgs(n, &raw);

        let mut sync = checked_net(n, k);
        sync.submit_all(msgs.clone()).unwrap();
        let r_sync = sync.run_to_quiescence(4_000_000);

        let mut hs = checked_builder(n, k)
            .compaction_mode(CompactionMode::Handshake {
                periods: vec![1; n as usize],
            })
            .build();
        hs.submit_all(msgs).unwrap();
        let r_hs = hs.run_to_quiescence(4_000_000);

        prop_assert!(!r_sync.stalled && !r_hs.stalled);
        prop_assert_eq!(r_sync.delivered, r_hs.delivered);
        prop_assert!(hs.max_cycle_skew().unwrap() <= 1, "Lemma 1");
    }

    /// Lemma 1 holds for arbitrary per-INC activation periods, and the
    /// network still drains.
    #[test]
    fn lemma1_under_arbitrary_clock_skew(
        n in 3u32..12,
        k in 2u16..5,
        periods in vec(1u64..9, 3..12),
        raw in vec(any::<RawMsg>(), 1..12),
    ) {
        let n = n.min(periods.len() as u32).max(3);
        let periods: Vec<u64> = (0..n as usize)
            .map(|i| periods[i % periods.len()])
            .collect();
        let msgs = build_msgs(n, &raw);
        let mut net = checked_builder(n, k)
            .compaction_mode(CompactionMode::Handshake { periods })
            .build();
        net.submit_all(msgs.clone()).unwrap();
        let mut max_skew = 0;
        // Sample the skew during the run, not only at the end.
        while !net.is_quiescent() && net.now().get() < 2_000_000 {
            net.tick();
            max_skew = max_skew.max(net.max_cycle_skew().unwrap());
        }
        prop_assert!(net.is_quiescent(), "did not drain");
        prop_assert_eq!(net.report().delivered, msgs.len());
        prop_assert!(max_skew <= 1, "Lemma 1 violated: skew {}", max_skew);
    }

    /// With a single bus (k = 1) compaction never fires, yet everything
    /// still delivers — the RMB degenerates to a single shared ring bus.
    #[test]
    fn k1_degenerates_to_single_bus(
        n in 3u32..12,
        raw in vec(any::<RawMsg>(), 1..10),
    ) {
        let msgs = build_msgs(n, &raw);
        let mut net = checked_net(n, 1);
        net.submit_all(msgs.clone()).unwrap();
        let report = net.run_to_quiescence(4_000_000);
        prop_assert!(!report.stalled);
        prop_assert_eq!(report.delivered, msgs.len());
        prop_assert_eq!(report.compaction_moves, 0);
    }

    /// Theorem 1 (admission): when the network is otherwise idle, a request
    /// whose clockwise path exists is always granted on first attempt —
    /// no refusals, no retries.
    #[test]
    fn idle_network_always_admits(
        n in 3u32..24,
        k in 1u16..6,
        s in any::<u32>(),
        off in any::<u32>(),
        flits in 0u32..50,
    ) {
        let src = s % n;
        let dst = (src + 1 + off % (n - 1)) % n;
        let mut net = checked_net(n, k);
        prop_assert!(net.path_feasible(NodeId::new(src), NodeId::new(dst)));
        net.submit(MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits)).unwrap();
        let report = net.run_to_quiescence(1_000_000);
        prop_assert_eq!(report.delivered, 1);
        prop_assert_eq!(report.refusals, 0);
        prop_assert_eq!(net.delivered_log()[0].refusals, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The idle-tick fast-forward in `run_to_quiescence` is unobservable:
    /// a trickle workload with multi-thousand-tick gaps produces the same
    /// report (ticks, deliveries, refusals, compaction moves) and the
    /// same per-message delivery log as the naive one-tick-at-a-time run.
    /// `run_window` skips idle stretches the same way: advancing in
    /// random windows, many ending partway through a gap, with messages
    /// submitted between windows, matches ticking at every boundary.
    #[test]
    fn fast_forward_matches_naive_run(
        n in 4u32..20,
        k in 1u16..5,
        raw in vec(any::<RawMsg>(), 1..12),
        windows in vec(1u64..5_000, 1..7),
    ) {
        // Spread injections so most ticks have no due work (the case the
        // fast-forward exists for), with occasional bursts.
        let msgs: Vec<MessageSpec> = raw
            .iter()
            .map(|&(s, off, flits, at)| {
                let src = s % n;
                let dst = (src + 1 + off % (n - 1)) % n;
                MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits % 24)
                    .at((at % 8) * 5_000)
            })
            .collect();
        let outcome = |net: &RmbNetwork, r: RunReport| {
            let log: Vec<_> = net
                .delivered_log()
                .iter()
                .map(|d| (d.request.get(), d.circuit_at, d.delivered_at, d.refusals))
                .collect();
            let now = net.now().get();
            (
                now,
                r.ticks,
                r.delivered,
                r.refusals,
                r.compaction_moves,
                r.mean_utilization.to_bits(),
                r.stalled,
                log,
            )
        };
        let run = |fast: bool| {
            let mut net = checked_builder(n, k).fast_forward(fast).build();
            net.submit_all(msgs.iter().copied()).unwrap();
            let r = net.run_to_quiescence(1_000_000);
            outcome(&net, r)
        };
        prop_assert_eq!(run(true), run(false));

        // Windowed: half the messages up front, the rest submitted one
        // per window boundary (due shortly after it), then a drain. The
        // reference ticks through every window one tick at a time.
        let windowed = |fast: bool| {
            let mut net = checked_builder(n, k).fast_forward(fast).build();
            let (first, later) = msgs.split_at(msgs.len() / 2);
            net.submit_all(first.iter().copied()).unwrap();
            let mut later = later.iter();
            let mut seen = Vec::new();
            for &len in &windows {
                let until = net.now().get() + len;
                if fast {
                    net.run_window(until, &mut LoneMemo::new());
                } else {
                    while net.now().get() < until {
                        net.tick();
                    }
                }
                seen.push(outcome(&net, net.report()));
                if let Some(m) = later.next() {
                    net.submit(m.at(until + m.inject_at / 4)).unwrap();
                }
            }
            net.submit_all(later.copied()).unwrap();
            let r = net.run_to_quiescence(1_000_000);
            seen.push(outcome(&net, r));
            seen
        };
        prop_assert_eq!(windowed(true), windowed(false));
    }
}

/// Rings at the compaction kernel's word boundaries: an odd ring shorter
/// than a word, a quarter word, either side of one word, and a ring whose
/// third word holds two hops. Odd rings put two even nodes side by side
/// at the cut, which the Fig. 8 parity masks must not smooth over.
const KERNEL_RINGS: [u32; 6] = [5, 16, 63, 64, 65, 130];

/// A generated fault: (kind, at, node, bus, outage).
type RawFault = (u8, u64, u32, u16, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random multi-circuit rings in checked mode at the kernel's word
    /// boundaries. Every tick, checked mode compares each activation's
    /// ring-kernel moves with the per-hop rule over every bus compaction
    /// may move, and the lanes with lanes rebuilt from the heights and
    /// states (invariant #7). The draws add fault plans, insertion at any
    /// free bus, early compaction off, multicast and the handshake
    /// compactor.
    #[test]
    fn ring_kernel_matches_the_per_hop_rule_at_word_boundaries(
        ring in 0usize..6,
        k in 1u16..6,
        raw in vec(any::<RawMsg>(), 1..12),
        casts in vec((any::<u32>(), vec(any::<u32>(), 1..4), 0u32..16, 0u64..300), 0..3),
        faults in vec(any::<RawFault>(), 0..4),
        any_free in any::<bool>(),
        early in any::<bool>(),
        handshake in any::<bool>(),
        periods in vec(1u64..4, 130..131),
    ) {
        let n = KERNEL_RINGS[ring];
        let insertion = if any_free {
            InsertionPolicy::AnyFreeBus
        } else {
            InsertionPolicy::TopBusOnly
        };
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * n as u64)
            .retry_backoff(n as u64)
            .early_compaction(early)
            .insertion(insertion)
            .build()
            .unwrap();
        let mut plan = FaultPlan::new();
        for &(kind, at, node, bus, outage) in &faults {
            let (at, node) = (at % 600, NodeId::new(node % n));
            let repair = (outage % 3 != 0).then_some(at + 1 + outage % 200);
            plan = match kind % 3 {
                0 => plan.segment_stuck(at, node, BusIndex::new(bus % k), repair),
                1 => plan.link_cut(at, node, repair),
                _ => plan.inc_dead(at, node, repair),
            };
        }
        let mode = if handshake {
            CompactionMode::Handshake { periods: periods[..n as usize].to_vec() }
        } else {
            CompactionMode::Synchronous
        };
        let mut net = RmbNetwork::builder(cfg)
            .checked(true)
            .compaction_mode(mode)
            .fault_plan(plan)
            .max_retries(8)
            .build();
        net.submit_all(build_msgs(n, &raw)).unwrap();
        for (src, offsets, flits, at) in &casts {
            let src = src % n;
            let mut dsts: Vec<NodeId> = offsets
                .iter()
                .map(|off| NodeId::new((src + 1 + off % (n - 1)) % n))
                .collect();
            dsts.sort();
            dsts.dedup();
            net.submit_multicast(NodeId::new(src), &dsts, *flits, *at).unwrap();
        }
        net.run_to_quiescence(200_000);
        prop_assert_eq!(net.check_invariants(), Ok(()));
    }
}

/// One step of a lone-circuit script: what to submit at a window
/// boundary `(kind, circuit)`, then the window length. Even kinds submit
/// one circuit, two contending ones, or a multicast, at the boundary or
/// one tick later.
type Step = (u8, u8, u64);

/// Ring sizes: 3–19, plus both sides of the 64-hop lane word boundary
/// and a two-word ring.
fn script_ring(pick: u32) -> u32 {
    match pick {
        0..=16 => 3 + pick,
        17 => 63,
        18 => 64,
        19 => 65,
        _ => 127,
    }
}

/// Runs `steps` on two rings built from `builder`: an unchecked one
/// advanced window by window through `run_window` with one shared memo,
/// and a checked one ticked one tick at a time. Compares them at every
/// window boundary and returns the memo.
fn lone_script(builder: RmbNetworkBuilder, steps: &[Step]) -> Result<LoneMemo, TestCaseError> {
    let mut fast = builder.clone().build();
    let mut slow = builder.checked(true).build();
    let n = fast.ring().get();
    let mut memo = LoneMemo::new();
    let observe = |net: &RmbNetwork| {
        let report = net.report();
        let log = format!(
            "{:?} {:?} {:?}",
            net.delivered_log(),
            net.aborted_log(),
            report
        );
        (net.now().get(), log, report.mean_utilization.to_bits())
    };
    for &(kind, src, window) in steps {
        let now = fast.now().get();
        // Few distinct circuits, so keys repeat; two start at the last
        // node and cross the cut.
        let (src, span, flits) = [
            (n - 1, 2, 8),
            (0, n - 1, 8),
            (n / 2, 1, 0),
            (n - 1, n / 2, 1),
        ][usize::from(src % 4)];
        let span = span.clamp(1, n - 1);
        let dst = NodeId::new((src + span) % n);
        let src = NodeId::new(src);
        let at = now + u64::from(kind / 32 % 2);
        // Every other step submits nothing, so rings drain and most
        // circuits run alone.
        let kind = if kind % 2 == 0 { kind / 2 % 8 } else { 7 };
        for net in [&mut fast, &mut slow] {
            match kind {
                0..=3 => {
                    net.submit(MessageSpec::new(src, dst, flits).at(at))
                        .unwrap();
                }
                4 => {
                    let other = NodeId::new((src.index() + 1) % n);
                    net.submit(MessageSpec::new(src, dst, flits).at(at))
                        .unwrap();
                    if other != dst {
                        net.submit(MessageSpec::new(other, dst, flits).at(at))
                            .unwrap();
                    }
                }
                5 if span >= 2 => {
                    let tap = NodeId::new((src.index() + 1) % n);
                    net.submit_multicast(src, &[tap, dst], flits, at).unwrap();
                }
                _ => {}
            }
        }
        let until = now + window;
        fast.run_window(until, &mut memo);
        while slow.now().get() < until {
            slow.tick();
        }
        prop_assert_eq!(observe(&fast), observe(&slow));
        prop_assert!(
            fast.check_invariants().is_ok(),
            "{:?}",
            fast.check_invariants()
        );
    }
    Ok(memo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Replaying memoised lone circuits is unobservable: windowed
    /// `run_window` calls sharing one memo match a checked ring ticked
    /// one tick at a time at every window boundary, under lone,
    /// contended and multicast traffic, with submissions into rings that
    /// defer a circuit, and with faults striking mid-life.
    #[test]
    fn lone_circuit_replay_matches_checked_ticks(
        ring in 0u32..21,
        k in 1u16..5,
        raw in vec(any::<(u8, u8, u16)>(), 2..80),
        faults in vec(any::<(u8, u8, u16, u16)>(), 0..3),
    ) {
        // Mostly short windows, so many end inside a segment.
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(kind, circuit, w)| {
                let len = if w % 3 == 0 { w % 700 } else { w % 40 };
                (kind, circuit, 1 + u64::from(len))
            })
            .collect();
        let n = script_ring(ring);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .unwrap();
        let mut plan = FaultPlan::new();
        for &(hop, bus, at, outage) in &faults {
            let hop = NodeId::new(u32::from(hop) % n);
            let bus = BusIndex::new(u16::from(bus) % k);
            let at = u64::from(at % 2_000);
            plan = plan.segment_stuck(at, hop, bus, Some(at + 1 + u64::from(outage % 300)));
        }
        let builder = RmbNetwork::builder(cfg).fault_plan(plan).max_retries(6);
        lone_script(builder, &steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A circuit alone on its ring never goes more than its span plus
    /// one tick without progress; the longest pause is the `Hack` return.
    /// A composition that counts every tick of a replayed life as
    /// progress therefore reaches the ticked life's stall decisions under
    /// any stall window of at least that.
    #[test]
    fn a_lone_circuit_pauses_at_most_its_span_plus_one(
        ring in 0u32..21,
        k in 1u16..5,
        src in any::<u32>(),
        span in any::<u32>(),
        flits in 0u32..48,
        at in 0u64..4,
    ) {
        let n = script_ring(ring);
        let mut net = RmbNetwork::new(RmbConfig::new(n, k).unwrap());
        let (src, span) = (src % n, 1 + span % (n - 1));
        let dst = NodeId::new((src + span) % n);
        net.submit(MessageSpec::new(NodeId::new(src), dst, flits).at(at))
            .unwrap();
        while net.now().get() <= at {
            net.tick();
        }
        let mut longest = 0;
        while net.next_wake().is_some() {
            net.tick();
            longest = longest.max(net.now().get() - net.last_progress());
        }
        prop_assert_eq!(net.delivered_total(), 1);
        prop_assert!(longest <= u64::from(span) + 1, "{} ticks, span {}", longest, span);
    }
}

/// The property above reaches the replay: identical lone circuits whose
/// windows end after both segments, at the delivery, inside the first
/// segment and inside the second jump most of their ticks and still
/// match the checked ring.
#[test]
fn lone_circuit_replay_engages() {
    // Two hops from the last node (across the cut on odd rings), eight
    // flits: delivery 15 ticks after injection, teardown 17. Every
    // circuit is injected on an even tick, the end of a one-tick window.
    let windows: [&[u64]; 4] = [&[1, 199], &[1, 15, 200], &[1, 5, 200], &[1, 16, 201]];
    let steps: Vec<Step> = windows
        .iter()
        .cycle()
        .take(12)
        .flat_map(|w| {
            w.iter()
                .enumerate()
                .map(|(i, &len)| (if i == 0 { 0 } else { 7 }, 0, len))
        })
        .collect();
    for n in [8u32, 9, 65] {
        let cfg = RmbConfig::builder(n, 2).build().unwrap();
        let memo = lone_script(RmbNetwork::builder(cfg), &steps).unwrap();
        assert_eq!((memo.misses(), memo.hits()), (1, 11), "n = {n}");
        assert!(memo.jumped_ticks() > 100, "n = {n}: {memo:?}");
    }
}
