//! Integration tests for the open-loop serving driver: determinism,
//! admission shedding, loss accounting across all three targets, and the
//! counters-only soak path.

use rmb_core::{LogRetention, RmbNetwork};
use rmb_hier::HierNetwork;
use rmb_serve::{
    serve, AdmissionMode, FlatTarget, HierTarget, ServeConfig, ServeReport, ServeTarget,
    WormholeTarget,
};
use rmb_types::{HierConfig, RmbConfig, StatsReport};
use rmb_workloads::{BurstyStream, PoissonStream};

fn flat(n: u32, k: u16, retention: LogRetention) -> FlatTarget {
    let cfg = RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .unwrap();
    FlatTarget::new(RmbNetwork::builder(cfg).log_retention(retention).build())
}

fn run_flat(rate: f64) -> ServeReport {
    let mut target = flat(16, 4, LogRetention::Full);
    let cfg = ServeConfig::sweep(rate, 6_000, 42);
    serve(&mut target, &mut PoissonStream::new(rate), &cfg)
}

/// The report minus its wall-clock perf record: byte-identity claims are
/// about simulation results; perf is host measurement metadata and the
/// one field allowed to differ between two otherwise identical runs.
fn untimed(r: &ServeReport) -> ServeReport {
    ServeReport {
        perf: None,
        ..r.clone()
    }
}

#[test]
fn same_seed_same_report() {
    let a = run_flat(0.004);
    let b = run_flat(0.004);
    assert_eq!(a, b);
    assert_eq!(untimed(&a).to_json_object(), untimed(&b).to_json_object());
    // Timed runs record the wall clock (single-threaded targets: 1).
    assert_eq!(a.perf.expect("serve times itself").threads, 1);
}

#[test]
fn light_load_sheds_nothing_and_accounts_everything() {
    let r = run_flat(0.001);
    assert!(r.loss_accounted(), "{r:?}");
    assert_eq!(r.shed, 0, "light load must not shed: {r:?}");
    assert!(r.delivered > 0);
    assert!(!r.stalled);
    let lat = r.latency;
    assert!(lat.p50.unwrap() <= lat.p99.unwrap());
    assert!(lat.p99.unwrap() <= lat.max.unwrap());
}

#[test]
fn overload_sheds_explicitly() {
    // A 16-node single-bus ring cannot serve 0.2 arrivals/node/tick;
    // admission control must shed rather than queue without bound.
    let mut target = flat(16, 1, LogRetention::Full);
    let cfg = ServeConfig::sweep(0.2, 4_000, 7);
    let r = serve(&mut target, &mut PoissonStream::new(0.2), &cfg);
    assert!(r.loss_accounted(), "{r:?}");
    assert!(r.shed > 0, "overload must shed: {r:?}");
    assert!(r.shed_rate() > 0.3, "shed rate {}", r.shed_rate());
    // Outstanding work stays bounded by the admission depth.
    assert!(r.in_flight <= 4 * 16, "in_flight {}", r.in_flight);
}

#[test]
fn latency_grows_with_offered_load() {
    let low = run_flat(0.001);
    let high = run_flat(0.02);
    assert!(
        high.latency.p99.unwrap() > low.latency.p99.unwrap(),
        "p99 must climb with load: low {:?}, high {:?}",
        low.latency,
        high.latency
    );
    assert!(high.mean_utilization > low.mean_utilization);
}

#[test]
fn bursty_arrivals_shed_more_than_poisson_at_equal_rate() {
    let rate = 0.012;
    let run = |bursty: bool| {
        let mut target = flat(16, 2, LogRetention::Full);
        let cfg = ServeConfig::sweep(rate, 8_000, 11);
        if bursty {
            serve(&mut target, &mut BurstyStream::new(rate, 8), &cfg)
        } else {
            serve(&mut target, &mut PoissonStream::new(rate), &cfg)
        }
    };
    let p = run(false);
    let b = run(true);
    assert!(p.loss_accounted() && b.loss_accounted());
    assert!(
        b.shed_rate() >= p.shed_rate(),
        "bursty {} vs poisson {}",
        b.shed_rate(),
        p.shed_rate()
    );
}

#[test]
fn counters_only_soak_stays_bounded_and_loses_nothing() {
    // The soak path: aggregate admission + counters-only retention. The
    // delivered log must stay empty (bounded memory) while percentiles
    // come from the engine's own sketch and accounting stays exact.
    let mut target = flat(16, 4, LogRetention::CountersOnly);
    let cfg = ServeConfig {
        rate: 0.004,
        warmup: 1_000,
        duration: 50_000,
        flits: 8,
        admission: AdmissionMode::Aggregate { depth: 4 },
        seed: 3,
    };
    let r = serve(&mut target, &mut PoissonStream::new(cfg.rate), &cfg);
    assert!(r.loss_accounted(), "{r:?}");
    assert!(r.delivered > 1_000);
    assert_eq!(
        target.network().delivered_log().len(),
        0,
        "counters-only must retain no records"
    );
    assert!(
        r.latency.p50.is_some() && r.latency.p999.is_some(),
        "engine sketch must supply percentiles: {:?}",
        r.latency
    );
}

#[test]
fn windowed_retention_feeds_per_source_admission() {
    // Window(n) keeps enough records for the driver's per-tick poll; the
    // run must behave identically to Full retention.
    let run = |retention| {
        let mut target = flat(16, 4, retention);
        let cfg = ServeConfig::sweep(0.006, 5_000, 19);
        serve(&mut target, &mut PoissonStream::new(0.006), &cfg)
    };
    let full = run(LogRetention::Full);
    let windowed = run(LogRetention::Window(64));
    assert_eq!(full, windowed);
}

#[test]
fn hier_target_serves_and_accounts() {
    let cfg = HierConfig::builder(4, 5, 2)
        .head_timeout(80)
        .retry_backoff(5)
        .build()
        .unwrap();
    let mut target = HierTarget::new(HierNetwork::new(cfg));
    assert_eq!(target.node_count(), 16); // 4 rings x 4 compute nodes
    let cfg = ServeConfig::sweep(0.002, 6_000, 21);
    let r = serve(&mut target, &mut PoissonStream::new(0.002), &cfg);
    assert!(r.loss_accounted(), "{r:?}");
    assert!(r.delivered > 0, "{r:?}");
    assert!(r.label.starts_with("rmb-hier"));
    assert!(r.latency.p50.is_some());
}

#[test]
fn wormhole_target_serves_and_accounts() {
    let mut target = WormholeTarget::torus(4, 2); // 16 nodes
    assert_eq!(target.node_count(), 16);
    let cfg = ServeConfig::sweep(0.002, 6_000, 23);
    let r = serve(&mut target, &mut PoissonStream::new(0.002), &cfg);
    assert!(r.loss_accounted(), "{r:?}");
    assert!(r.delivered > 0, "{r:?}");
    assert_eq!(r.aborted, 0, "wormhole switching never aborts");
    assert!(r.label.starts_with("torus"));
    assert!(!r.stalled);
}

#[test]
fn stats_report_schema_is_shared_across_engines() {
    use rmb_types::json::Value;
    let open = run_flat(0.004);
    let closed = {
        let mut net = RmbNetwork::new(RmbConfig::new(16, 4).unwrap());
        net.submit_all(
            (0..8)
                .map(|i| {
                    rmb_types::MessageSpec::new(
                        rmb_types::NodeId::new(i),
                        rmb_types::NodeId::new((i + 5) % 16),
                        8,
                    )
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        net.run_to_quiescence(100_000)
    };
    let keys = |s: &str| {
        let v = Value::parse(s).expect("valid json");
        match v {
            Value::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            _ => panic!("expected object"),
        }
    };
    assert_eq!(
        keys(&open.to_json_object()),
        keys(&closed.to_json_object()),
        "open- and closed-loop reports must share one schema"
    );
}
