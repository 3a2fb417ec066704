//! Scaling sweep: how the ring, dual-ring and grid-of-rings makespans
//! grow with N on far traffic — the measured version of the paper's
//! scalability discussion (§1: modules composed into larger systems;
//! §4: 2-D grids as future work).

use rmb_analysis::{DualRmbRing, RmbLattice, RmbRing, Table};
use rmb_baselines::Network;
use rmb_types::{MessageSpec, NodeId, RmbConfig};

/// One (N, network) scaling point.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// System size.
    pub n: u32,
    /// Network label.
    pub network: String,
    /// Makespan on the shared workload (0 = incomplete).
    pub makespan: u64,
}

/// Sweeps square system sizes. For each `side` in `sides`, routes a
/// staggered rotation-by-(N/2+1) workload (far traffic) over one ring
/// with `2k` buses and a `side × side` grid of `k`-bus rings — equal
/// wiring — plus the dual ring at `k` buses per direction.
///
/// Every (side, network) cell is an independent simulation, so the grid
/// fans out over worker threads; results come back in input order, so the
/// rows (and any serialized report) are identical to a sequential sweep.
pub fn scaling_experiment(sides: &[u32], k: u16, flits: u32) -> Vec<ScalingRow> {
    let cells: Vec<(u32, usize)> = sides
        .iter()
        .flat_map(|&side| (0..3).map(move |which| (side, which)))
        .collect();
    rmb_sim::par::par_map(&cells, |&(side, which)| {
        let n = side * side;
        let msgs: Vec<MessageSpec> = (0..n)
            .map(|s| {
                MessageSpec::new(NodeId::new(s), NodeId::new((s + n / 2 + 1) % n), flits)
                    .at(u64::from(s) * 24)
            })
            .filter(|m| m.source != m.destination)
            .collect();
        let max_ticks = 16_000_000;
        let cfg = |nodes: u32, buses: u16| {
            RmbConfig::builder(nodes, buses)
                .head_timeout(16 * u64::from(nodes))
                .retry_backoff(u64::from(nodes))
                .build()
                .expect("valid")
        };
        let mut net: Box<dyn Network> = match which {
            0 => Box::new(RmbRing::new(cfg(n, 2 * k))),
            1 => Box::new(DualRmbRing::new(cfg(n, k))),
            _ => Box::new(RmbLattice::new(vec![side, side], cfg(side, k))),
        };
        let out = net.route_messages(&msgs, max_ticks);
        ScalingRow {
            n,
            network: net.label(),
            makespan: if out.delivered.len() == msgs.len() {
                out.makespan()
            } else {
                0
            },
        }
    })
}

/// Renders scaling rows.
pub fn scaling_table(rows: &[ScalingRow]) -> Table {
    let mut t = Table::new(vec!["N", "network", "makespan"]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.network.clone(),
            if r.makespan == 0 {
                "incomplete".into()
            } else {
                r.makespan.to_string()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_scales_better_than_the_ring() {
        let rows = scaling_experiment(&[4, 6], 2, 8);
        assert_eq!(rows.len(), 6);
        let get = |n: u32, prefix: &str| {
            rows.iter()
                .find(|r| r.n == n && r.network.starts_with(prefix))
                .unwrap()
                .makespan
        };
        for n in [16u32, 36] {
            assert!(get(n, "rmb(") > 0, "ring incomplete at N={n}");
            assert!(get(n, "rmb-lattice") > 0, "grid incomplete at N={n}");
        }
        // The ring's makespan grows faster than the grid's between the
        // two sizes.
        let ring_growth = get(36, "rmb(") as f64 / get(16, "rmb(") as f64;
        let grid_growth = get(36, "rmb-lattice") as f64 / get(16, "rmb-lattice") as f64;
        assert!(
            grid_growth < ring_growth,
            "grid {grid_growth:.2}x vs ring {ring_growth:.2}x"
        );
        assert_eq!(scaling_table(&rows).len(), 6);
    }
}
