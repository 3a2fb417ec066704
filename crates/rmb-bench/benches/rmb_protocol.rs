//! Criterion benchmarks of the RMB protocol engine (experiment index B1):
//! simulation tick cost across network sizes, end-to-end delivery, and a
//! compaction-heavy steady state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rmb_core::RmbNetwork;
use rmb_types::{MessageSpec, NodeId, RmbConfig};

/// A network with a rotating open workload that keeps roughly half the
/// segments busy, so tick cost is measured under realistic load.
fn loaded_network(n: u32, k: u16) -> RmbNetwork {
    let cfg = RmbConfig::builder(n, k)
        .head_timeout(8 * u64::from(n))
        .build()
        .expect("valid");
    let mut net = RmbNetwork::new(cfg);
    for s in 0..n {
        let spec = MessageSpec::new(NodeId::new(s), NodeId::new((s + n / 3) % n), 10_000)
            .at(u64::from(s) * 3);
        if spec.source != spec.destination {
            net.submit(spec).expect("valid");
        }
    }
    // Warm up into steady state.
    net.run(16 * u64::from(n));
    net
}

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("rmb_tick");
    // (64, 4) is the saturated reference point: 64 long-lived circuits
    // contend for 4 buses, so every phase of the tick scans live state.
    for (n, k) in [(16u32, 4u16), (64, 4), (64, 8), (256, 16)] {
        group.throughput(Throughput::Elements(u64::from(n) * u64::from(k)));
        group.bench_with_input(
            BenchmarkId::new("loaded", format!("N{n}_k{k}")),
            &(n, k),
            |b, &(n, k)| {
                let mut net = loaded_network(n, k);
                b.iter(|| net.tick());
            },
        );
    }
    group.finish();
}

/// A large, mostly idle ring: exactly four long-lived circuits stream
/// while every other node sits silent. Per-tick cost should track the
/// active-circuit count, not N×k.
fn duty_cycle_network(n: u32) -> RmbNetwork {
    let cfg = RmbConfig::builder(n, 8)
        .head_timeout(8 * u64::from(n))
        .build()
        .expect("valid");
    let mut net = RmbNetwork::new(cfg);
    let stride = n / 4;
    for i in 0..4u32 {
        let s = i * stride;
        // Long enough to outlive any benchmark run (one flit per tick).
        net.submit(MessageSpec::new(
            NodeId::new(s),
            NodeId::new((s + stride / 2 + 1) % n),
            1_000_000_000,
        ))
        .expect("valid");
    }
    // Warm up until all four circuits are established and streaming.
    net.run(16 * u64::from(n));
    net
}

fn bench_duty_cycle(c: &mut Criterion) {
    // The tentpole claim: with the event-driven scheduler the cost of a
    // tick at N=1024 with 4 live circuits is about the cost at N=64 with
    // the same 4 circuits.
    let mut group = c.benchmark_group("rmb_tick");
    for n in [64u32, 1024] {
        group.bench_with_input(
            BenchmarkId::new("duty_cycle", format!("N{n}_k8_active4")),
            &n,
            |b, &n| {
                let mut net = duty_cycle_network(n);
                b.iter(|| net.tick());
            },
        );
    }
    group.finish();
}

fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("rmb_delivery");
    group.sample_size(20);
    for n in [16u32, 64] {
        group.bench_with_input(BenchmarkId::new("rotation", n), &n, |b, &n| {
            b.iter(|| {
                let cfg = RmbConfig::builder(n, 4)
                    .head_timeout(8 * u64::from(n))
                    .build()
                    .expect("valid");
                let mut net = RmbNetwork::new(cfg);
                for s in 0..n {
                    net.submit(MessageSpec::new(
                        NodeId::new(s),
                        NodeId::new((s + 3) % n),
                        16,
                    ))
                    .expect("valid");
                }
                let report = net.run_to_quiescence(1_000_000);
                assert_eq!(report.delivered, n as usize);
                report.ticks
            });
        });
    }
    group.finish();
}

fn bench_sparse_quiescence(c: &mut Criterion) {
    // A trickle workload: 32 short messages spread over ~128k ticks, so
    // the overwhelming majority of ticks have no due work. This is the
    // scenario the idle-tick fast-forward in `run_to_quiescence` targets.
    let mut group = c.benchmark_group("rmb_sparse");
    group.sample_size(15);
    group.bench_function("trickle_quiescence", |b| {
        b.iter(|| {
            let mut net = RmbNetwork::new(RmbConfig::new(64, 4).expect("valid"));
            for i in 0..32u32 {
                net.submit(
                    MessageSpec::new(NodeId::new(i % 64), NodeId::new((i + 7) % 64), 8)
                        .at(u64::from(i) * 4_000),
                )
                .expect("valid");
            }
            let report = net.run_to_quiescence(1_000_000);
            assert_eq!(report.delivered, 32);
            report.ticks
        });
    });
    group.finish();
}

fn bench_compaction(c: &mut Criterion) {
    // One long circuit injected at the top of a tall bus array: measures
    // pure compaction churn (the move scan dominates).
    let mut group = c.benchmark_group("rmb_compaction");
    group.sample_size(30);
    for k in [8u16, 32] {
        group.bench_with_input(BenchmarkId::new("sink_full_bus", k), &k, |b, &k| {
            b.iter(|| {
                let mut net = RmbNetwork::new(RmbConfig::new(64, k).expect("valid"));
                net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(40), 100_000))
                    .expect("valid");
                // Run until the circuit has sunk to the bottom everywhere.
                net.run(8 + 2 * u64::from(k));
                net.report().compaction_moves
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tick,
    bench_duty_cycle,
    bench_delivery,
    bench_sparse_quiescence,
    bench_compaction
);
criterion_main!(benches);
