//! Fault-tolerance sweep: throughput degradation under randomly failing
//! bus segments.
//!
//! The paper's reliability pitch (§1: multiple buses provide "graceful
//! degradation in case of faults") is qualitative; this experiment
//! measures it. For each (N, k) and each fault fraction, a random
//! [`FaultScenario`] knocks out that fraction of the `N * k` physical
//! segments at random times early in the run, each for a `16 N`-tick
//! outage, and a full rotation workload is routed across the degraded
//! ring with bounded retries. Faults are transient rather than permanent
//! because the paper's insertion rule admits headers only on the top
//! bus: a top-lane segment that never recovers makes every circuit
//! crossing that hop unroutable, a cliff rather than a curve. With
//! repairs, struck circuits are torn down, back off and re-establish —
//! the interesting output is how much throughput the waiting costs and
//! how many messages still exhaust their retry budget as the fraction
//! grows.

use rmb_analysis::Table;
use rmb_core::RmbNetwork;
use rmb_sim::SimRng;
use rmb_types::{MessageSpec, NodeId, RmbConfig};
use rmb_workloads::FaultScenario;

/// One (N, k, fault-fraction) measurement.
#[derive(Debug, Clone)]
pub struct FaultToleranceRow {
    /// Ring size.
    pub n: u32,
    /// Buses per hop.
    pub k: u16,
    /// Fraction of the `n * k` segments failed.
    pub fraction: f64,
    /// Concrete number of segments the scenario killed.
    pub faulted_segments: usize,
    /// Messages submitted (one per node).
    pub messages: usize,
    /// Messages delivered in full.
    pub delivered: usize,
    /// Messages dropped after exhausting the retry budget.
    pub aborted: usize,
    /// Requeue events (fault kills and ordinary refusals).
    pub retries: u64,
    /// Live circuits torn down by a fault.
    pub fault_kills: u64,
    /// Delivered messages per thousand ticks.
    pub throughput: f64,
    /// Mean end-to-end latency of the delivered messages.
    pub mean_latency: f64,
    /// `true` if the run deadlocked (it must not).
    pub stalled: bool,
}

/// Sweeps fault fraction over each `(n, k)` size. Every cell is an
/// independent deterministic simulation (seed + cell label), fanned out
/// over worker threads; rows come back in input order.
pub fn fault_tolerance_experiment(
    sizes: &[(u32, u16)],
    fractions: &[f64],
    flits: u32,
    seed: u64,
) -> Vec<FaultToleranceRow> {
    let cells: Vec<(u32, u16, f64)> = sizes
        .iter()
        .flat_map(|&(n, k)| fractions.iter().map(move |&f| (n, k, f)))
        .collect();
    rmb_sim::par::par_map(&cells, |&(n, k, fraction)| {
        let scenario = FaultScenario {
            fraction,
            horizon: 4 * u64::from(n),
            outage: Some(16 * u64::from(n)),
        };
        let mut rng = SimRng::seed(seed).fork(&format!("fault-tolerance/{n}x{k}/{fraction}"));
        let plan = scenario.draw(n, k, &mut rng);
        let faulted_segments = plan.events().len();

        let msgs: Vec<MessageSpec> = (0..n)
            .map(|s| {
                MessageSpec::new(NodeId::new(s), NodeId::new((s + n / 2) % n), flits)
                    .at(u64::from(s) * 8)
            })
            .filter(|m| m.source != m.destination)
            .collect();
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .expect("valid");
        let mut net = RmbNetwork::builder(cfg)
            .fault_plan(plan)
            .fault_seed(seed ^ 0x5eed_fa17)
            .max_retries(16)
            .build();
        net.submit_all(msgs.iter().copied())
            .expect("valid workload");
        let report = net.run_to_quiescence(8_000_000);
        FaultToleranceRow {
            n,
            k,
            fraction,
            faulted_segments,
            messages: msgs.len(),
            delivered: report.delivered,
            aborted: report.aborted,
            retries: report.retries,
            fault_kills: report.fault_kills,
            throughput: if report.ticks == 0 {
                0.0
            } else {
                report.delivered as f64 * 1_000.0 / report.ticks as f64
            },
            mean_latency: report.mean_latency(),
            stalled: report.stalled,
        }
    })
}

/// Renders fault-tolerance rows.
pub fn fault_tolerance_table(rows: &[FaultToleranceRow]) -> Table {
    let mut t = Table::new(vec![
        "N",
        "k",
        "fraction",
        "faulted",
        "delivered",
        "aborted",
        "retries",
        "thr/kt",
        "latency",
    ]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.k.to_string(),
            format!("{:.2}", r.fraction),
            r.faulted_segments.to_string(),
            format!("{}/{}", r.delivered, r.messages),
            r.aborted.to_string(),
            r.retries.to_string(),
            format!("{:.3}", r.throughput),
            format!("{:.1}", r.mean_latency),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrades_gracefully_up_to_twenty_percent() {
        let fractions = [0.0, 0.1, 0.2];
        let rows = fault_tolerance_experiment(&[(16, 4)], &fractions, 8, 1996);
        assert_eq!(rows.len(), fractions.len());
        for r in &rows {
            assert!(!r.stalled, "no deadlock at fraction {}", r.fraction);
            assert_eq!(
                r.delivered + r.aborted,
                r.messages,
                "every message accounted for at fraction {}",
                r.fraction
            );
        }
        // The healthy ring delivers everything without drops.
        assert_eq!(rows[0].aborted, 0);
        assert_eq!(rows[0].delivered, rows[0].messages);
        assert_eq!(rows[0].fault_kills, 0);
        // Degradation, not collapse: even at 20% the ring still delivers.
        let worst = &rows[fractions.len() - 1];
        assert!(worst.delivered > 0, "20% faults must not kill the ring");
        assert!(worst.throughput <= rows[0].throughput);
        assert_eq!(fault_tolerance_table(&rows).len(), rows.len());
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = fault_tolerance_experiment(&[(12, 3)], &[0.15], 4, 7);
        let b = fault_tolerance_experiment(&[(12, 3)], &[0.15], 4, 7);
        assert_eq!(a[0].delivered, b[0].delivered);
        assert_eq!(a[0].retries, b[0].retries);
        assert_eq!(a[0].faulted_segments, b[0].faulted_segments);
    }
}
