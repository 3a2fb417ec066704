//! Route the classic permutation workloads over the RMB and the paper's
//! comparator networks (hypercube, fat tree, mesh), printing the measured
//! makespans side by side — the living version of the paper's §3
//! comparison.
//!
//! ```text
//! cargo run --release --example permutation_routing
//! ```

use rmb::analysis::{DualRmbRing, RmbRing, Table};
use rmb::baselines::{FatTree, Hypercube, Mesh2D, Network};
use rmb::types::RmbConfig;
use rmb::workloads::{PermutationKind, SizeDistribution, WorkloadConfig, WorkloadSuite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16u32; // square power of two: valid for every topology
    let k = 4u16;
    let flits = 16u32;

    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, 1996).with_sizes(SizeDistribution::Fixed(flits)));
    let rmb_cfg = RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()?;

    let kinds = [
        PermutationKind::Rotation(1),
        PermutationKind::Random,
        PermutationKind::Opposite,
        PermutationKind::Reversal,
        PermutationKind::BitReversal,
        PermutationKind::Transpose,
    ];

    let mut table = Table::new(vec!["permutation", "network", "makespan", "mean latency"]);
    for kind in kinds {
        let msgs = suite.permutation(kind);
        let mut nets: Vec<Box<dyn Network>> = vec![
            Box::new(RmbRing::new(rmb_cfg)),
            Box::new(DualRmbRing::new(rmb_cfg)),
            Box::new(Hypercube::new(n)),
            Box::new(FatTree::new(n, k)),
            Box::new(Mesh2D::square(n)),
        ];
        for net in &mut nets {
            let out = net.route_messages(&msgs, 4_000_000);
            table.row(vec![
                kind.to_string(),
                net.label(),
                if out.delivered.len() == msgs.len() {
                    out.makespan().to_string()
                } else {
                    "stalled".into()
                },
                format!("{:.1}", out.mean_latency()),
            ]);
        }
    }
    println!(
        "Permutation routing, N = {n}, k = {k}, {flits}-flit bodies\n\
         (every network at one flit per channel per tick):\n"
    );
    println!("{table}");
    println!(
        "Reading guide: the ring RMB wins local traffic (rotation), loses\n\
         long-haul permutations to the log-diameter hypercube and fat tree,\n\
         and the dual-ring variant halves the worst-case distance — the\n\
         shape the paper's §3 analysis predicts."
    );
    Ok(())
}
