//! Hierarchical scaling sweep: bridged local rings vs one flat ring of
//! equal node count.
//!
//! The flat RMB's weakness at scale is that every circuit contends for
//! the same `N·k` segments and spans average `N/2` hops. The hierarchy
//! splits the node set into `R` local rings joined through a global
//! bridge ring, so intra-ring traffic — the fraction the `locality`
//! knob controls — runs on short spans and in parallel across rings.
//! This experiment offers the *same* workload to both organisations
//! (hierarchical addresses are mapped onto the flat ring with
//! [`HierConfig::flatten`], injection times untouched) and compares
//! aggregate throughput. The expected picture: at high locality the
//! hierarchy wins by a widening margin as `R` grows; at locality 0 every
//! message pays three legs plus two bridge dwells and the flat ring
//! catches back up.

use rmb_analysis::Table;
use rmb_core::RmbNetwork;
use rmb_hier::HierNetwork;
use rmb_sim::SimRng;
use rmb_types::{HierConfig, MessageSpec, RmbConfig};
use rmb_workloads::LocalityTraffic;

/// One topology's measurement for a `(rings, n, k, locality)` cell.
#[derive(Debug, Clone)]
pub struct HierScalingRow {
    /// `"hier"` or `"flat"`.
    pub topology: String,
    /// Local rings in the hierarchy (the flat row keeps the cell's value
    /// for grouping).
    pub rings: u32,
    /// Nodes per local ring, bridge included.
    pub n: u32,
    /// Total ring positions (`rings * n`; the flat ring's size).
    pub total_nodes: u32,
    /// Buses per hop on every ring.
    pub k: u16,
    /// Fraction of traffic staying on its source ring.
    pub locality: f64,
    /// Messages offered.
    pub messages: usize,
    /// Messages delivered in full.
    pub delivered: usize,
    /// Messages aborted.
    pub aborted: usize,
    /// Bridge-queue refusals (0 for the flat ring).
    pub bridge_refusals: u64,
    /// Tick of the last delivery.
    pub makespan: u64,
    /// Delivered messages per thousand ticks of makespan.
    pub throughput: f64,
    /// Mean end-to-end latency of delivered messages.
    pub mean_latency: f64,
    /// `true` if the run deadlocked (it must not).
    pub stalled: bool,
    /// Wall-clock milliseconds of the run. Host measurement metadata:
    /// the one nondeterministic column in the row (absent for rows built
    /// without timing).
    pub wall_ms: Option<f64>,
    /// Simulated ticks per wall second. Same caveat as `wall_ms`.
    pub sim_ticks_per_sec: Option<f64>,
}

fn throughput(delivered: usize, makespan: u64) -> f64 {
    if makespan == 0 {
        0.0
    } else {
        delivered as f64 * 1_000.0 / makespan as f64
    }
}

/// Sweeps `(rings, nodes-per-ring, k)` shapes against locality fractions.
/// Each cell offers an identical workload to the hierarchy and to a flat
/// ring of `rings * n` nodes, and yields one row per topology (hier
/// first). Cells run in parallel; rows come back in input order.
pub fn hier_scaling_experiment(
    shapes: &[(u32, u32, u16)],
    localities: &[f64],
    flits: u32,
    seed: u64,
) -> Vec<HierScalingRow> {
    let cells: Vec<(u32, u32, u16, f64)> = shapes
        .iter()
        .flat_map(|&(r, n, k)| localities.iter().map(move |&p| (r, n, k, p)))
        .collect();
    rmb_sim::par::par_map(&cells, |&(rings, n, k, locality)| {
        // Saturated rings need the head-timeout extension to break the
        // verbatim protocol's circular waits (see the deadlock study);
        // both organisations get the same rule, scaled to their ring.
        let cfg = HierConfig::builder(rings, n, k)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .expect("valid shape");
        // Four messages per compute node, injected over a window tight
        // enough that the network, not the arrival process, is the
        // bottleneck.
        let count = 4 * cfg.compute_nodes() as usize;
        let spread = 2 * count as u64;
        let mut rng = SimRng::seed(seed).fork(&format!("hier-scaling/{rings}x{n}x{k}/{locality}"));
        let msgs = LocalityTraffic {
            rings,
            nodes: n,
            bridge: cfg.bridge(),
            locality,
            flits,
        }
        .generate(count, spread, &mut rng);

        let mut hier = HierNetwork::new(cfg);
        hier.submit_all(msgs.iter().copied())
            .expect("valid workload");
        let hr = hier.run_to_quiescence(64_000_000);
        let hier_row = HierScalingRow {
            topology: "hier".to_string(),
            rings,
            n,
            total_nodes: cfg.total_nodes(),
            k,
            locality,
            messages: count,
            delivered: hr.delivered,
            aborted: hr.aborted,
            bridge_refusals: hr.bridge_refusals,
            makespan: hr.makespan,
            throughput: throughput(hr.delivered, hr.makespan),
            mean_latency: hr.mean_latency(),
            stalled: hr.stalled,
            wall_ms: hr.perf.map(|p| p.wall_ms),
            sim_ticks_per_sec: hr.perf.map(|p| p.sim_ticks_per_sec),
        };

        // Same messages on one flat ring: addresses flattened ring-major,
        // arrival times identical, so the offered load matches exactly.
        let flat_cfg = RmbConfig::builder(cfg.total_nodes(), k)
            .head_timeout(16 * u64::from(cfg.total_nodes()))
            .retry_backoff(u64::from(cfg.total_nodes()))
            .build()
            .expect("valid flat ring");
        let mut flat = RmbNetwork::new(flat_cfg);
        flat.submit_all(msgs.iter().map(|m| {
            MessageSpec::new(
                cfg.flatten(m.source),
                cfg.flatten(m.destination),
                m.data_flits,
            )
            .at(m.inject_at)
        }))
        .expect("valid flat workload");
        let fr = flat.run_to_quiescence(64_000_000);
        let flat_row = HierScalingRow {
            topology: "flat".to_string(),
            rings,
            n,
            total_nodes: cfg.total_nodes(),
            k,
            locality,
            messages: count,
            delivered: fr.delivered,
            aborted: fr.aborted,
            bridge_refusals: 0,
            makespan: fr.makespan(),
            throughput: throughput(fr.delivered, fr.makespan()),
            mean_latency: fr.mean_latency(),
            stalled: fr.stalled,
            wall_ms: None,
            sim_ticks_per_sec: None,
        };
        [hier_row, flat_row]
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Renders hierarchical-scaling rows.
pub fn hier_scaling_table(rows: &[HierScalingRow]) -> Table {
    let mut t = Table::new(vec![
        "topology",
        "rings",
        "N/ring",
        "total",
        "k",
        "locality",
        "delivered",
        "makespan",
        "thr/kt",
        "latency",
    ]);
    for r in rows {
        t.row(vec![
            r.topology.clone(),
            r.rings.to_string(),
            r.n.to_string(),
            r.total_nodes.to_string(),
            r.k.to_string(),
            format!("{:.2}", r.locality),
            format!("{}/{}", r.delivered, r.messages),
            r.makespan.to_string(),
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
    fn hierarchy_beats_the_flat_ring_at_high_locality() {
        // The acceptance shape: 4 rings of 16 (flat N = 64), k = 4,
        // locality 0.8.
        let rows = hier_scaling_experiment(&[(4, 16, 4)], &[0.8], 8, 1996);
        assert_eq!(rows.len(), 2);
        let (hier, flat) = (&rows[0], &rows[1]);
        assert_eq!(hier.topology, "hier");
        assert_eq!(flat.topology, "flat");
        for r in &rows {
            assert!(!r.stalled, "{}: must not stall", r.topology);
            assert_eq!(r.delivered + r.aborted, r.messages);
            assert_eq!(r.aborted, 0, "{}: no faults, no drops", r.topology);
        }
        assert!(
            hier.throughput > flat.throughput,
            "hier {:.3}/kt must beat flat {:.3}/kt",
            hier.throughput,
            flat.throughput
        );
        assert_eq!(hier_scaling_table(&rows).len(), rows.len());
    }

    #[test]
    fn sweep_is_deterministic_and_conserves_messages() {
        let a = hier_scaling_experiment(&[(2, 8, 2)], &[0.5], 4, 7);
        let b = hier_scaling_experiment(&[(2, 8, 2)], &[0.5], 4, 7);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.delivered, y.delivered);
            assert_eq!(x.makespan, y.makespan);
            assert_eq!(x.delivered + x.aborted, x.messages);
        }
    }
}
