//! Property-based tests of the RMB protocol engine.
//!
//! Each property runs full simulations with per-tick invariant checking
//! enabled, so every generated workload also stress-tests consistency,
//! continuity, head-pinning and the Table 1 port codes.

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_core::{CompactionMode, RmbNetwork, RmbNetworkBuilder, RunReport};
use rmb_types::{MessageSpec, NodeId, RmbConfig};

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
            (now, r.ticks, r.delivered, r.refusals, r.compaction_moves, r.stalled, log)
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
                    net.run_window(until);
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
