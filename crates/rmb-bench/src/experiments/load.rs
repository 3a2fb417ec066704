//! Open-loop load sweep: delivered throughput, latency and bus
//! utilisation as functions of offered load — the figure-style series
//! behind the paper's "full utilisation" narrative.

use rmb_analysis::Table;
use rmb_core::{LogRetention, RmbNetwork};
use rmb_types::RmbConfig;
use rmb_workloads::{SizeDistribution, WorkloadConfig, WorkloadSuite};

/// One point of the load sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered per-node injection probability per tick.
    pub offered: f64,
    /// Messages offered within the window.
    pub messages: usize,
    /// Messages delivered by the end of the (extended) run.
    pub delivered: usize,
    /// Delivered flits per tick across the network, measured over the
    /// injection window.
    pub throughput: f64,
    /// Mean end-to-end latency of delivered messages.
    pub mean_latency: f64,
    /// Mean fraction of busy bus segments.
    pub utilization: f64,
}

/// Sweeps Bernoulli offered load over `rates`, each for `window` ticks of
/// injection plus a drain phase.
///
/// Each rate is an independent simulation seeded only by `(n, seed)`, so
/// the points run in parallel; the output order (and any serialized
/// report) is identical to a sequential sweep.
pub fn load_sweep(
    n: u32,
    k: u16,
    rates: &[f64],
    window: u64,
    flits: u32,
    seed: u64,
) -> Vec<LoadPoint> {
    rmb_sim::par::par_map(rates, |&rate| {
        let suite = WorkloadSuite::new(
            WorkloadConfig::new(n, seed).with_sizes(SizeDistribution::Fixed(flits)),
        );
        let msgs = suite.bernoulli(rate, window);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .expect("valid");
        // Message sizes are fixed, so the flit count follows from the
        // delivered counter alone — counters-only retention keeps a long
        // sweep's memory flat without changing any output value.
        let mut net = RmbNetwork::builder(cfg)
            .log_retention(LogRetention::CountersOnly)
            .build();
        net.submit_all(msgs.iter().copied())
            .expect("valid workload");
        let report = net.run_to_quiescence(window * 40 + 100_000);
        let delivered_flits = report.delivered as u64 * (u64::from(flits) + 2);
        LoadPoint {
            offered: rate,
            messages: msgs.len(),
            delivered: report.delivered,
            throughput: delivered_flits as f64 / report.ticks.max(1) as f64,
            mean_latency: report.mean_latency(),
            utilization: report.mean_utilization,
        }
    })
}

/// Renders load-sweep points as a table.
pub fn load_table(points: &[LoadPoint]) -> Table {
    let mut t = Table::new(vec![
        "offered rate",
        "msgs",
        "delivered",
        "flits/tick",
        "mean latency",
        "utilization",
    ]);
    for p in points {
        t.row(vec![
            format!("{:.4}", p.offered),
            p.messages.to_string(),
            p.delivered.to_string(),
            format!("{:.3}", p.throughput),
            format!("{:.1}", p.mean_latency),
            format!("{:.3}", p.utilization),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_utilization_grow_with_load() {
        // Both rates sit below saturation: past it, delivered flits/tick
        // over the (drain-extended) run stops growing with offered load.
        let points = load_sweep(16, 4, &[0.001, 0.004], 3_000, 8, 21);
        assert_eq!(points.len(), 2);
        let (lo, hi) = (&points[0], &points[1]);
        assert_eq!(lo.delivered, lo.messages, "light load fully drains");
        assert_eq!(hi.delivered, hi.messages, "heavier load fully drains");
        assert!(hi.mean_latency > lo.mean_latency);
        assert!(hi.utilization > lo.utilization);
        assert!(hi.throughput > lo.throughput);
        assert_eq!(load_table(&points).len(), 2);
    }
}
