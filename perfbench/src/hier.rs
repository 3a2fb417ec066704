//! `hier-batch` and `hier-cross`: closed batches through the bridged
//! hierarchy (`HierNetwork`), run serially to quiescence.

use crate::{latency_stats, Bench, EngineReport, Metric, Scale, Sim, Span};
use rmb_hier::{HierNetwork, HierReport};
use rmb_sim::SimRng;
use rmb_types::HierConfig;
use rmb_workloads::LocalityTraffic;
use std::time::Instant;

/// Tick budget of one batch; the `hier-shard` experiment's.
const MAX_TICKS: u64 = 64_000_000;

pub(crate) struct HierBatch {
    rings: u32,
    nodes: u32,
    buses: u16,
    locality: f64,
    /// Messages per compute node, as a fraction.
    per_node: f64,
    /// Messages are injected uniformly over this many ticks per message.
    ticks_per_message: u64,
}

impl HierBatch {
    /// 64 rings x 16 nodes at locality 0.9, the shape of the `hier-shard`
    /// experiment's 64x16 cell, at light load: one message per two
    /// compute nodes (480), injected over 46 ticks per message. Few
    /// carriers have due work on a tick (about 2 %) and about 240
    /// messages are pending, so advancing idle rings dominates a tick.
    ///
    /// `hier-shard`'s own load, 4 messages per node over 2 ticks per
    /// message, drives the hierarchy into congestion collapse: linear
    /// retry backoff leaves a straggler tail whose length swings by
    /// 20-30 % from seed to seed. Below collapse, every future message
    /// waits in the source list that each tick scans, so a batch of 4 per
    /// node keeps about 1,900 pending and the scan dominates instead.
    pub(crate) fn batch(scale: Scale) -> Self {
        let rings = match scale {
            Scale::Full => 64,
            Scale::Small => 8,
        };
        HierBatch {
            rings,
            nodes: 16,
            buses: 4,
            locality: 0.9,
            per_node: 0.5,
            ticks_per_message: 46,
        }
    }

    /// 16 rings x 16 nodes at locality 0.2, 16 messages per compute node
    /// (3,840) over 16 ticks per message: most messages cross the global
    /// ring, about 30 % of carriers have due work on a tick, and about
    /// 1,900 messages are pending, so scanning them dominates a tick.
    pub(crate) fn cross(scale: Scale) -> Self {
        let (rings, per_node) = match scale {
            Scale::Full => (16, 16.0),
            Scale::Small => (4, 4.0),
        };
        HierBatch {
            rings,
            nodes: 16,
            buses: 4,
            locality: 0.2,
            per_node,
            ticks_per_message: 16,
        }
    }

    fn outcome(&self, report: HierReport, net: &HierNetwork) -> Sim {
        let mut problems = Vec::new();
        if report.stalled {
            problems.push(format!("hierarchy stalled at tick {}", report.ticks));
        }
        if report.delivered != report.submitted {
            problems.push(format!(
                "delivered {} of {} messages ({} aborted)",
                report.delivered, report.submitted, report.aborted
            ));
        }
        let latencies: Vec<u64> = net.delivered_log().iter().map(|d| d.latency()).collect();
        let (latency_mean, latency_p99) = latency_stats(&latencies);
        Sim {
            ticks: report.ticks,
            offered: report.submitted as u64,
            delivered: report.delivered as u64,
            failed: (report.aborted + report.undelivered) as u64,
            latency_mean,
            latency_p99,
            problems,
            report: EngineReport::Hier(report),
        }
    }
}

impl Bench for HierBatch {
    type Input = HierNetwork;

    fn setup(&self, seed: u64) -> (HierNetwork, f64) {
        let (rings, n, k) = (self.rings, self.nodes, self.buses);
        let cfg = HierConfig::builder(rings, n, k)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .expect("valid hierarchy");
        let count = (self.per_node * f64::from(cfg.compute_nodes())) as usize;
        let t = Instant::now();
        let mut rng =
            SimRng::seed(seed).fork(&format!("perfbench/hier/{rings}x{n}x{k}/{}", self.locality));
        let msgs = LocalityTraffic {
            rings,
            nodes: n,
            bridge: cfg.bridge(),
            locality: self.locality,
            flits: 8,
        }
        .generate(count, self.ticks_per_message * count as u64, &mut rng);
        let generate_s = t.elapsed().as_secs_f64();
        let mut net = HierNetwork::new(cfg);
        net.submit_all(msgs).expect("generated messages are valid");
        (net, generate_s)
    }

    fn run(&self, net: &mut HierNetwork) -> Sim {
        let report = net.run_to_quiescence(MAX_TICKS);
        self.outcome(report, net)
    }

    /// Mirrors `run_to_quiescence` tick by tick: samples the carriers
    /// before each tick, then times the tick and the due-work scan that
    /// `run_to_quiescence` makes after it.
    fn run_traced(&self, net: &mut HierNetwork, layers: &mut Vec<Metric>) -> Sim {
        let rings = net.config().rings();
        let (mut tick, mut scan) = (Span::default(), Span::default());
        let (mut busy, mut pending) = (0u64, 0u64);
        while !net.is_quiescent() && net.now() < MAX_TICKS {
            busy += (0..rings).filter(|&r| net.local(r).has_due_work()).count() as u64
                + u64::from(net.global_ring().has_due_work());
            pending += net.pending_messages() as u64;
            let t = Instant::now();
            net.tick();
            tick.close(t);
            let t = Instant::now();
            std::hint::black_box(net.has_due_work());
            scan.close(t);
        }
        let report = net.report();
        let ticks = tick.calls.max(1) as f64;
        let carriers = (0..rings).map(|r| net.local(r)).chain([net.global_ring()]);
        let (mut refusals, mut retries) = (0, 0);
        let (mut compaction_moves, mut peak_buses, mut utilization) = (0, 0, 0.0);
        for ring in carriers {
            let r = ring.report();
            refusals += r.refusals;
            retries += r.retries;
            compaction_moves += r.compaction_moves;
            peak_buses = peak_buses.max(r.peak_virtual_buses);
            utilization += r.mean_utilization;
        }
        layers.extend([
            Metric::new("core.refusals", "count", refusals as f64),
            Metric::new("core.retries", "count", retries as f64),
            Metric::new("core.compaction_moves", "count", compaction_moves as f64),
            Metric::new("core.peak_virtual_buses", "count", peak_buses as f64),
            Metric::new(
                "core.mean_utilization",
                "fraction",
                utilization / f64::from(rings + 1),
            ),
            Metric::new("hier.tick_ns", "ns", tick.ns_per_call()),
            Metric::new("hier.due_scan_ns", "ns", scan.ns_per_call()),
            Metric::new(
                "hier.busy_carrier_frac",
                "fraction",
                busy as f64 / (ticks * f64::from(rings + 1)),
            ),
            Metric::new("hier.pending_mean", "count", pending as f64 / ticks),
            Metric::new(
                "hier.bridge_refusals",
                "count",
                report.bridge_refusals as f64,
            ),
            Metric::new("hier.leg_refusals", "count", report.leg_refusals as f64),
            Metric::new("hier.leg_retries", "count", report.leg_retries as f64),
        ]);
        self.outcome(report, net)
    }
}
