//! Experiment E2 — measured permutation routing: the RMB ring against the
//! hypercube, fat tree and mesh on the paper's §3 workload (permutations),
//! all at the same flit-per-tick wire speed.

use rmb_analysis::{DualRmbRing, RmbRing, Table};
use rmb_baselines::{FatTree, Hypercube, KAryNCube, Mesh2D, Network};
use rmb_types::RmbConfig;
use rmb_workloads::{PermutationKind, WorkloadConfig, WorkloadSuite};

/// One (network, permutation) measurement.
#[derive(Debug, Clone)]
pub struct PermutationRow {
    /// Network label.
    pub network: String,
    /// Permutation family.
    pub permutation: String,
    /// Messages routed.
    pub messages: usize,
    /// Makespan in ticks (0 if the run stalled).
    pub makespan: u64,
    /// Mean message latency.
    pub mean_latency: f64,
    /// Whether the run stalled.
    pub stalled: bool,
}

/// Routes each permutation family over the RMB (single and dual ring) and
/// the three comparators. `n` must be an even power of two and a perfect
/// square to satisfy every topology (16, 64, 256, ...).
pub fn permutation_comparison(n: u32, k: u16, flits: u32, seed: u64) -> Vec<PermutationRow> {
    assert!(n.is_power_of_two(), "comparison needs power-of-two N");
    let side = (n as f64).sqrt().round() as u32;
    assert_eq!(side * side, n, "comparison needs a perfect-square N");

    let suite = WorkloadSuite::new(
        WorkloadConfig::new(n, seed).with_sizes(rmb_workloads::SizeDistribution::Fixed(flits)),
    );
    let kinds = [
        PermutationKind::Random,
        PermutationKind::Rotation(1),
        PermutationKind::Opposite,
        PermutationKind::Reversal,
        PermutationKind::BitReversal,
        PermutationKind::Transpose,
    ];
    let rmb_cfg = RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .expect("valid");

    // Generate the (cheap, deterministic) workloads up front, then fan
    // every (permutation, network) simulation out over worker threads.
    // Results return in input order, so the rows match a serial sweep.
    let workloads: Vec<(PermutationKind, Vec<_>)> = kinds
        .iter()
        .map(|&kind| (kind, suite.permutation(kind)))
        .collect();
    let net_count = if side >= 3 { 6 } else { 5 };
    let cells: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..net_count).map(move |which| (w, which)))
        .collect();
    rmb_sim::par::par_map(&cells, |&(w, which)| {
        let (kind, ref msgs) = workloads[w];
        let max_ticks = 4_000_000;
        let mut net: Box<dyn Network> = match which {
            0 => Box::new(RmbRing::new(rmb_cfg)),
            1 => Box::new(DualRmbRing::new(rmb_cfg)),
            2 => Box::new(Hypercube::new(n)),
            3 => Box::new(FatTree::new(n, k)),
            4 => Box::new(Mesh2D::square(n)),
            // §4's k-ary n-cube, as the square torus.
            _ => Box::new(KAryNCube::new(side, 2)),
        };
        let out = net.route_messages(msgs, max_ticks);
        PermutationRow {
            network: net.label(),
            permutation: kind.to_string(),
            messages: msgs.len(),
            makespan: if out.delivered.len() == msgs.len() {
                out.makespan()
            } else {
                0
            },
            mean_latency: out.mean_latency(),
            stalled: out.stalled || out.delivered.len() != msgs.len(),
        }
    })
}

/// Renders permutation-comparison rows as a table.
pub fn permutation_table(rows: &[PermutationRow]) -> Table {
    let mut t = Table::new(vec![
        "permutation",
        "network",
        "msgs",
        "makespan",
        "mean latency",
    ]);
    for r in rows {
        t.row(vec![
            r.permutation.clone(),
            r.network.clone(),
            r.messages.to_string(),
            if r.stalled {
                "stalled".into()
            } else {
                r.makespan.to_string()
            },
            format!("{:.1}", r.mean_latency),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_all_networks_on_small_instance() {
        let rows = permutation_comparison(16, 4, 8, 3);
        assert_eq!(rows.len(), 6 * 6);
        // Everything completes at this size.
        for r in &rows {
            assert!(!r.stalled, "{} stalled on {}", r.network, r.permutation);
            assert!(r.makespan > 0);
        }
        // Shape check (paper §3): for the nearest-neighbour rotation the
        // ring is unbeatable-ish; for the opposite permutation the
        // hypercube's log-distance wins over the one-way ring.
        let find = |perm: &str, net_prefix: &str| {
            rows.iter()
                .find(|r| r.permutation == perm && r.network.starts_with(net_prefix))
                .unwrap()
        };
        let ring_rot = find("rotation(1)", "rmb");
        let cube_rot = find("rotation(1)", "hypercube");
        assert!(ring_rot.makespan <= cube_rot.makespan * 2);
        let ring_opp = find("opposite", "rmb");
        let cube_opp = find("opposite", "hypercube");
        assert!(cube_opp.makespan < ring_opp.makespan);
        // Dual ring at least matches the single ring on the reversal.
        let single_rev = find("reversal", "rmb");
        let dual_rev = find("reversal", "dual-rmb");
        assert!(dual_rev.makespan <= single_rev.makespan);
        // The torus (mesh + wraps) never loses to the plain mesh by much.
        let torus_opp = find("opposite", "torus");
        let mesh_opp = find("opposite", "mesh");
        assert!(torus_opp.makespan <= 2 * mesh_opp.makespan);
        let t = permutation_table(&rows);
        assert_eq!(t.len(), rows.len());
    }
}
