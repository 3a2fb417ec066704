//! Criterion benchmarks of the bit-parallel tick kernel (experiment
//! index X9): per-active-circuit tick cost and the feasibility kernels
//! in isolation.
//!
//! The headline metric is **ns per active circuit per tick** at a fixed
//! live-circuit count on rings of very different size — the kernel's
//! budget is ≤ 10 ns per active circuit, independent of N. Those
//! circuits finish compacting during the warm-up, so the `compaction`
//! cases time ticks on rings where some bus is always sinking, in ns per
//! tick. The `feasibility` group isolates the occupancy query itself: the
//! AND of the bus layers' packed blocked bits over each 64-hop stretch,
//! on a ring long enough that arcs straddle `u64` word boundaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rmb_core::{LogRetention, RmbNetwork};
use rmb_types::{MessageSpec, NodeId, RmbConfig};

/// A mostly idle ring with exactly `active` long-lived streaming
/// circuits, evenly spread; per-tick cost should track `active`, not N×k.
fn streaming_network(n: u32, active: u32) -> RmbNetwork {
    let cfg = RmbConfig::builder(n, 8)
        .head_timeout(8 * u64::from(n))
        .build()
        .expect("valid");
    let mut net = RmbNetwork::new(cfg);
    let stride = n / active;
    for i in 0..active {
        let s = i * stride;
        // Long enough to outlive any benchmark run (one flit per tick).
        net.submit(MessageSpec::new(
            NodeId::new(s),
            NodeId::new((s + stride / 2 + 1) % n),
            1_000_000_000,
        ))
        .expect("valid");
    }
    // Warm up until every circuit is established and streaming.
    net.run(16 * u64::from(n));
    assert_eq!(net.active_virtual_buses(), active as usize);
    net
}

fn bench_per_circuit(c: &mut Criterion) {
    // The tentpole claim: tick cost divided by the live-circuit count
    // stays within budget and is flat in N. Throughput is declared in
    // circuits, so Criterion's per-element figure *is* ns per active
    // circuit per tick.
    let mut group = c.benchmark_group("tick_kernel");
    for n in [64u32, 1024] {
        for active in [4u32, 16] {
            group.throughput(Throughput::Elements(u64::from(active)));
            group.bench_with_input(
                BenchmarkId::new("per_circuit", format!("N{n}_k8_active{active}")),
                &(n, active),
                |b, &(n, active)| {
                    let mut net = streaming_network(n, active);
                    b.iter(|| net.tick());
                },
            );
        }
    }
    group.finish();
}

/// A ring on which some bus is always sinking: `k` circuits of half the
/// ring each, and whenever one completes a fresh one takes its place from
/// the next source in a fixed stride. Fresh circuits enter on the top bus
/// and sink beneath the older ones; every completion frees segments the
/// survivors sink into.
struct Churn {
    net: RmbNetwork,
    n: u32,
    circuits: usize,
    next: u32,
}

impl Churn {
    fn new(n: u32, k: u16) -> Self {
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * u64::from(n))
            .build()
            .expect("valid");
        let net = RmbNetwork::builder(cfg)
            .log_retention(LogRetention::CountersOnly)
            .build();
        let mut churn = Churn {
            net,
            n,
            circuits: usize::from(k),
            next: 0,
        };
        // Warm up past the first wave, then prove the timed ticks still
        // reach the compactor.
        for _ in 0..16 * n {
            churn.tick();
        }
        let before = churn.net.report().compaction_moves;
        for _ in 0..4 * n {
            churn.tick();
        }
        assert!(
            churn.net.report().compaction_moves > before,
            "no bus sinking"
        );
        churn
    }

    fn tick(&mut self) {
        self.net.tick();
        while self.net.active_virtual_buses() + self.net.pending_requests() < self.circuits {
            let src = self.next * 37 % self.n;
            self.next += 1;
            let spec = MessageSpec::new(
                NodeId::new(src),
                NodeId::new((src + self.n / 2) % self.n),
                self.n / 4,
            )
            .at(self.net.now().get());
            self.net.submit(spec).expect("valid");
        }
    }
}

fn bench_compaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("tick_kernel");
    for (n, k) in [(64u32, 8u16), (1024, 32)] {
        group.bench_with_input(
            BenchmarkId::new("compaction", format!("N{n}_k{k}")),
            &(n, k),
            |b, &(n, k)| {
                let mut churn = Churn::new(n, k);
                b.iter(|| churn.tick());
            },
        );
    }
    group.finish();
}

fn bench_feasibility(c: &mut Criterion) {
    // The feasibility query in isolation: half the ring's hops are
    // saturated by live circuits, then every (src, dst) pair is asked.
    // N = 192 makes arcs span multiple bitmap words and wrap the cut.
    let mut group = c.benchmark_group("tick_kernel");
    let n = 192u32;
    group.throughput(Throughput::Elements(u64::from(n) * u64::from(n - 1)));
    group.bench_function(
        BenchmarkId::new("feasibility", format!("N{n}_k2_bitmap")),
        |b| {
            let cfg = RmbConfig::builder(n, 2)
                .head_timeout(8 * u64::from(n))
                .build()
                .expect("valid");
            let mut net = RmbNetwork::new(cfg);
            // 24 long circuits spread over the ring occupy scattered
            // segments, so queries see mixed occupancy.
            for i in 0..24u32 {
                let s = i * (n / 24);
                net.submit(MessageSpec::new(
                    NodeId::new(s),
                    NodeId::new((s + 5) % n),
                    1_000_000_000,
                ))
                .expect("valid");
            }
            net.run(16 * u64::from(n));
            b.iter(|| {
                let mut feasible = 0u32;
                for src in 0..n {
                    for dst in 0..n {
                        if src != dst && net.path_feasible(NodeId::new(src), NodeId::new(dst)) {
                            feasible += 1;
                        }
                    }
                }
                feasible
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_per_circuit,
    bench_compaction,
    bench_feasibility
);
criterion_main!(benches);
