//! Ablations of the design choices the paper calls out: compaction
//! on/off, early (pre-Hack) compaction, top-bus-only insertion, and the
//! one-ring vs. two-ring organisation.

use rmb_analysis::{DualRmbRing, RmbRing, Table};
use rmb_baselines::Network;
use rmb_types::{InsertionPolicy, RmbConfig, RmbConfigBuilder};
use rmb_workloads::{PermutationKind, SizeDistribution, WorkloadConfig, WorkloadSuite};

/// One ablation variant's measurement on the shared workload.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Variant name.
    pub variant: String,
    /// Makespan (0 = stalled / incomplete).
    pub makespan: u64,
    /// Mean message latency.
    pub mean_latency: f64,
    /// Total `Nack` refusals.
    pub refusals: u64,
    /// Whether the run stalled.
    pub stalled: bool,
}

fn base(n: u32, k: u16) -> RmbConfigBuilder {
    RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
}

/// Runs all ablation variants on a shared random-permutation + rotation
/// workload.
pub fn ablation_suite(n: u32, k: u16, flits: u32, seed: u64) -> Vec<AblationResult> {
    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, seed).with_sizes(SizeDistribution::Fixed(flits)));
    let mut msgs = suite.permutation(PermutationKind::Random);
    // A second wave landing mid-flight stresses the insertion rule.
    msgs.extend(
        suite
            .permutation(PermutationKind::Rotation(n / 3))
            .into_iter()
            .map(|m| m.at(u64::from(flits))),
    );

    let variants: Vec<(String, RmbConfig)> = vec![
        (
            "paper (all features)".into(),
            base(n, k).build().expect("valid"),
        ),
        (
            "no compaction".into(),
            base(n, k).compaction(false).build().expect("valid"),
        ),
        (
            "compaction only after Hack".into(),
            base(n, k).early_compaction(false).build().expect("valid"),
        ),
        (
            "insertion at any free bus".into(),
            base(n, k)
                .insertion(InsertionPolicy::AnyFreeBus)
                .build()
                .expect("valid"),
        ),
    ];

    let mut out = Vec::new();
    for (name, cfg) in variants {
        let mut net = RmbRing::new(cfg);
        let o = net.route_messages(&msgs, 8_000_000);
        let complete = o.delivered.len() == msgs.len();
        out.push(AblationResult {
            variant: name,
            makespan: if complete { o.makespan() } else { 0 },
            mean_latency: o.mean_latency(),
            refusals: o.delivered.iter().map(|d| u64::from(d.refusals)).sum(),
            stalled: o.stalled || !complete,
        });
    }
    // One ring vs two opposite rings (2x the wiring, shorter paths).
    let mut dual = DualRmbRing::new(base(n, k).build().expect("valid"));
    let o = dual.route_messages(&msgs, 8_000_000);
    let complete = o.delivered.len() == msgs.len();
    out.push(AblationResult {
        variant: "two opposite rings (2x wiring)".into(),
        makespan: if complete { o.makespan() } else { 0 },
        mean_latency: o.mean_latency(),
        refusals: o.delivered.iter().map(|d| u64::from(d.refusals)).sum(),
        stalled: o.stalled || !complete,
    });
    out
}

/// Renders ablation results as a table.
pub fn ablation_table(rows: &[AblationResult]) -> Table {
    let mut t = Table::new(vec!["variant", "makespan", "mean latency", "refusals"]);
    for r in rows {
        t.row(vec![
            r.variant.clone(),
            if r.stalled {
                "stalled".into()
            } else {
                r.makespan.to_string()
            },
            format!("{:.1}", r.mean_latency),
            r.refusals.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_is_the_load_bearing_feature() {
        let rows = ablation_suite(16, 4, 16, 5);
        assert_eq!(rows.len(), 5);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(name))
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        let paper = get("paper");
        let no_compaction = get("no compaction");
        assert!(!paper.stalled);
        assert!(!no_compaction.stalled);
        // The paper's core claim: compaction buys large makespan savings.
        assert!(
            paper.makespan * 2 < no_compaction.makespan,
            "paper {} vs no-compaction {}",
            paper.makespan,
            no_compaction.makespan
        );
        // Late compaction sits between the two.
        let late = get("compaction only after Hack");
        assert!(!late.stalled);
        assert!(paper.makespan <= late.makespan);
        // Dual ring beats single ring.
        let dual = get("two opposite rings");
        assert!(!dual.stalled);
        assert!(dual.makespan < paper.makespan);
        let t = ablation_table(&rows);
        assert_eq!(t.len(), 5);
    }
}
