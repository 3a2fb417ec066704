//! Hierarchy throughput: wall-clock speed of the composition engine on
//! a `shape × locality` grid.
//!
//! Every cell offers four messages per compute node, injected over two
//! ticks per message, to a fault-free hierarchy, and records how fast the
//! engine simulated the run. Rows carry `host_threads` (what the OS
//! offers) so numbers collected on a starved CI box are legible as such.
//! `scripts/bench-smoke.sh` gates the 64-ring, locality-0.9 cell against
//! the serial row recorded in `BENCH_PR9.json`.

use rmb_analysis::Table;
use rmb_hier::HierNetwork;
use rmb_sim::SimRng;
use rmb_types::HierConfig;
use rmb_workloads::LocalityTraffic;

/// One `(shape, locality)` cell of the throughput grid.
#[derive(Debug, Clone)]
pub struct HierThroughputRow {
    /// Local rings.
    pub rings: u32,
    /// Nodes per local ring, bridge included.
    pub n: u32,
    /// Buses per hop.
    pub k: u16,
    /// Fraction of traffic staying on its source ring.
    pub locality: f64,
    /// Messages offered (all delivered; the run checks).
    pub messages: usize,
    /// Ticks simulated.
    pub ticks: u64,
    /// Wall-clock milliseconds of this cell's run.
    pub wall_ms: f64,
    /// Simulated ticks per wall second.
    pub sim_ticks_per_sec: f64,
    /// Worker threads the host offers
    /// (`std::thread::available_parallelism`).
    pub host_threads: u32,
}

/// Runs the throughput grid, one cell per shape and locality.
///
/// Cells run **sequentially** on purpose: this experiment measures wall
/// time, and overlapping cells (the `RMB_THREADS` sweep parallelism used
/// elsewhere) would contend for the same cores.
pub fn hier_throughput_experiment(
    shapes: &[(u32, u32, u16)],
    localities: &[f64],
    seed: u64,
) -> Vec<HierThroughputRow> {
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get()) as u32;
    let mut rows = Vec::new();
    for &(rings, n, k) in shapes {
        let cfg = HierConfig::builder(rings, n, k)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .expect("valid shape");
        for &locality in localities {
            let count = 4 * cfg.compute_nodes() as usize;
            // The label predates the experiment's name; keeping it keeps
            // every cell's traffic, and so BENCH_PR9.json's rows, valid.
            let mut rng =
                SimRng::seed(seed).fork(&format!("hier-shard/{rings}x{n}x{k}/{locality}"));
            let msgs = LocalityTraffic {
                rings,
                nodes: n,
                bridge: cfg.bridge(),
                locality,
                flits: 8,
            }
            .generate(count, 2 * count as u64, &mut rng);
            let mut net = HierNetwork::new(cfg);
            net.submit_all(msgs).expect("valid workload");
            let report = net.run_to_quiescence(64_000_000);
            assert!(!report.stalled, "cell stalled: {report:?}");
            let perf = report.perf.expect("timed run");
            rows.push(HierThroughputRow {
                rings,
                n,
                k,
                locality,
                messages: report.submitted,
                ticks: report.ticks,
                wall_ms: perf.wall_ms,
                sim_ticks_per_sec: perf.sim_ticks_per_sec,
                host_threads,
            });
        }
    }
    rows
}

/// Renders throughput rows.
pub fn hier_throughput_table(rows: &[HierThroughputRow]) -> Table {
    let mut t = Table::new(vec![
        "rings", "N/ring", "k", "locality", "ticks", "wall ms", "Mticks/s",
    ]);
    for r in rows {
        t.row(vec![
            r.rings.to_string(),
            r.n.to_string(),
            r.k.to_string(),
            format!("{:.2}", r.locality),
            r.ticks.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.3}", r.sim_ticks_per_sec / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_cell_in_order() {
        let rows = hier_throughput_experiment(&[(2, 8, 2)], &[0.5, 0.9], 11);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.wall_ms >= 0.0);
            assert!(r.ticks > 0);
            assert_eq!(r.messages, 4 * 2 * 7); // 4 per compute node
        }
        assert_eq!(rows[0].locality, 0.5);
        assert_eq!(rows[1].locality, 0.9);
        assert_eq!(hier_throughput_table(&rows).len(), 2);
    }
}
