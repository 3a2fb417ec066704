//! Log-retention policy tests: windowed and counters-only retention keep
//! memory bounded without ever losing a record silently, and every
//! aggregate statistic matches the full-retention oracle bit for bit.

use rmb_core::{LogRetention, RmbNetwork};
use rmb_sim::SimRng;
use rmb_types::{MessageSpec, NodeId, RmbConfig};

fn cfg(n: u32, k: u16) -> RmbConfig {
    RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .unwrap()
}

/// A deterministic batch of random messages spread over a window.
fn workload(n: u32, count: usize, seed: u64) -> Vec<MessageSpec> {
    let mut rng = SimRng::seed(seed);
    (0..count)
        .map(|i| {
            let src = rng.index(n as usize).unwrap() as u32;
            let off = 1 + rng.index(n as usize - 1).unwrap() as u32;
            let dst = (src + off) % n;
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), 4).at(i as u64 * 3)
        })
        .collect()
}

fn run(policy: LogRetention) -> RmbNetwork {
    let mut net = RmbNetwork::builder(cfg(16, 2))
        .log_retention(policy)
        .build();
    net.submit_all(workload(16, 200, 42)).unwrap();
    net.run_to_quiescence(1_000_000);
    net
}

#[test]
fn window_and_counters_only_match_full_aggregates() {
    let full = run(LogRetention::Full);
    let oracle = full.report();
    assert_eq!(oracle.delivered, 200, "baseline must deliver everything");

    for policy in [LogRetention::Window(16), LogRetention::CountersOnly] {
        let net = run(policy);
        let r = net.report();
        assert_eq!(r.delivered, oracle.delivered, "{policy:?}");
        assert_eq!(r.undelivered, oracle.undelivered, "{policy:?}");
        assert_eq!(r.refusals, oracle.refusals, "{policy:?}");
        assert_eq!(r.ticks, oracle.ticks, "{policy:?}");
        assert_eq!(r.makespan(), oracle.makespan(), "{policy:?}");
        assert_eq!(r.mean_latency(), oracle.mean_latency(), "{policy:?}");
        assert_eq!(net.delivered_total(), full.delivered_total(), "{policy:?}");
    }
}

#[test]
fn window_retains_a_bounded_suffix() {
    let w = 16;
    let net = run(LogRetention::Window(w));
    let retained = net.delivered_log().len();
    assert!(retained >= w && retained <= 2 * w, "retained {retained}");
    // The retained records are exactly the tail of the full log.
    let full = run(LogRetention::Full);
    let tail = &full.delivered_log()[full.delivered_log().len() - retained..];
    assert_eq!(net.delivered_log(), tail);
    // And the absolute cursor of the first retained record is its index
    // in the full log.
    let base = net.delivered_total() as usize - retained;
    assert_eq!(net.delivered_since(base), tail);
}

#[test]
fn counters_only_retains_nothing() {
    let net = run(LogRetention::CountersOnly);
    assert!(net.delivered_log().is_empty());
    assert!(net.aborted_log().is_empty());
    assert_eq!(net.delivered_total(), 200);
    // A cursor at the current total yields the (empty) future.
    assert!(net
        .delivered_since(net.delivered_total() as usize)
        .is_empty());
}

#[test]
#[should_panic(expected = "points below the retention window")]
fn stale_cursor_panics_instead_of_losing_records() {
    let net = run(LogRetention::CountersOnly);
    // Cursor 0 predates every dropped record: must fail loudly.
    let _ = net.delivered_since(0);
}

#[test]
fn polling_within_the_window_sees_every_delivery() {
    // Drive tick by tick, draining through absolute cursors; with a
    // window comfortably above per-tick completions nothing is missed.
    let mut net = RmbNetwork::builder(cfg(16, 2))
        .log_retention(LogRetention::Window(32))
        .build();
    let msgs = workload(16, 200, 43);
    net.submit_all(msgs).unwrap();
    let mut cursor = 0usize;
    let mut seen = 0usize;
    for _ in 0..1_000_000 {
        if net.is_quiescent() {
            break;
        }
        net.tick();
        let new = net.delivered_since(cursor);
        seen += new.len();
        cursor = net.delivered_total() as usize;
    }
    assert_eq!(seen, 200);
    assert_eq!(net.report().delivered, 200);
}

#[test]
fn latency_sketch_tracks_percentiles_under_counters_only() {
    let mut net = RmbNetwork::builder(cfg(16, 2))
        .log_retention(LogRetention::CountersOnly)
        .build();
    net.submit_all(workload(16, 200, 44)).unwrap();
    let report = net.run_to_quiescence(1_000_000);
    assert_eq!(report.delivered, 200);
    let p50 = net.latency_quantile(0.5).expect("sketch is on");
    let p999 = net.latency_quantile(0.999).expect("sketch is on");
    assert!(p50 >= 1 && p50 <= p999, "p50 {p50}, p999 {p999}");
    // The sketch's mean agrees with the aggregate mean despite the log
    // being empty.
    assert!(net.delivered_log().is_empty());
    assert!(report.mean_latency() > 0.0);
}

#[test]
fn sketch_disabled_by_default() {
    let net = run(LogRetention::Full);
    assert_eq!(net.latency_quantile(0.5), None);
}

#[test]
fn aborts_respect_retention_too() {
    // A fault-free saturated run with a tiny retry budget generates
    // aborts; counters-only must count them without retaining records.
    let build = |policy| {
        let mut net = RmbNetwork::builder(cfg(8, 1))
            .max_retries(1)
            .log_retention(policy)
            .build();
        net.submit_all(workload(8, 120, 45)).unwrap();
        net.run_to_quiescence(1_000_000);
        net
    };
    let full = build(LogRetention::Full);
    let counters = build(LogRetention::CountersOnly);
    assert_eq!(full.report().aborted, counters.report().aborted);
    assert_eq!(full.aborted_records(), counters.aborted_records());
    assert!(counters.aborted_log().is_empty());
    if full.aborted_records() > 0 {
        assert!(!full.aborted_log().is_empty());
    }
}
