//! Integration tests asserting that every paper artifact (table, figure,
//! lemma, theorem, comparison) regenerates through the public harness API
//! with the content the paper describes.

use rmb_bench::experiments::{
    ablation_suite, comparison_table, competitiveness, cross_check_table, deadlock_study,
    lemma1_experiment, load_sweep, permutation_comparison, theorem1_experiment, Metric,
};
use rmb_bench::figures::figure;
use rmb_bench::tables::{table1, table2};

#[test]
fn t1_table1_regenerates_with_paper_rows() {
    let s = table1().to_string();
    for row in [
        "Bus is unused",
        "Port receives from below",
        "Port receives straight",
        "Port receives from below and straight",
        "Port receives from above",
        "Port receives from above and straight",
    ] {
        assert!(s.contains(row), "missing row: {row}");
    }
    assert_eq!(s.matches("Not allowed").count(), 2);
}

#[test]
fn t2_table2_regenerates_with_paper_mnemonics() {
    let s = table2().to_string();
    assert!(s.contains("Own Datapaths have switched"));
    assert!(s.contains("Own Cycle has changed"));
    assert!(s.contains("Internal signal to INC"));
}

#[test]
fn f1_to_f11_figures_regenerate() {
    for n in 1..=11u32 {
        let s = figure(n);
        assert!(s.contains("Figure"), "figure {n}");
    }
    // Spot content checks tying figures to the implementation.
    assert!(figure(1).contains("b3 |"), "fig 1 shows a 4-bus array");
    assert!(figure(4).contains("make"), "fig 4 shows MBB stages");
    assert!(
        figure(7).contains("100 -> 110 -> 010"),
        "fig 7 register codes"
    );
    assert!(figure(8).contains("E O"), "fig 8 parity pattern");
    assert!(figure(11).contains("capacity"), "fig 11 capacities");
}

#[test]
fn a1_a3_cost_tables_regenerate() {
    for metric in [Metric::Links, Metric::Crosspoints, Metric::Area] {
        let t = comparison_table(metric, &[64, 1024], &[8]);
        assert_eq!(t.len(), 2 * 6);
    }
    let s = cross_check_table(64, 8).to_string();
    assert!(s.contains("RMB"));
    assert!(s.contains("fat-tree"));
}

#[test]
fn l1_lemma1_holds() {
    let r = lemma1_experiment(8, 1);
    assert!(r.bound_held);
}

#[test]
fn th1_theorem1_full_admission() {
    let r = theorem1_experiment(10, 3, 25, 2);
    assert!(r.feasible_trials > 5);
    assert_eq!(r.admission_rate(), 1.0);
}

#[test]
fn e1_competitiveness_is_measurable() {
    let rows = competitiveness(16, 4, 8, 13);
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.online > 0));
    assert!(rows.iter().all(|r| r.offline >= r.lower_bound));
}

#[test]
fn e2_permutation_comparison_has_paper_shape() {
    let rows = permutation_comparison(16, 4, 8, 17);
    let get = |perm: &str, net: &str| {
        rows.iter()
            .find(|r| r.permutation == perm && r.network.starts_with(net))
            .unwrap()
            .makespan
    };
    // Who wins where, per §3's qualitative claims.
    assert!(get("rotation(1)", "rmb") <= get("rotation(1)", "fat-tree"));
    assert!(get("opposite", "hypercube") < get("opposite", "rmb"));
    assert!(get("reversal", "dual-rmb") < get("reversal", "rmb"));
}

#[test]
fn ablations_rank_as_designed() {
    let rows = ablation_suite(16, 4, 8, 19);
    let get = |name: &str| rows.iter().find(|r| r.variant.starts_with(name)).unwrap();
    assert!(get("paper").makespan < get("no compaction").makespan);
    assert!(!get("paper").stalled);
}

#[test]
fn load_sweep_saturates() {
    let pts = load_sweep(16, 2, &[0.001, 0.05], 2_000, 8, 23);
    assert!(pts[1].utilization > pts[0].utilization);
    assert!(pts[1].mean_latency > pts[0].mean_latency);
}

#[test]
fn deadlock_finding_reproduces() {
    let r = deadlock_study(12, 3, 6, 0);
    assert!(
        r.verbatim_stalled,
        "saturated simultaneous injection gridlocks"
    );
    assert!(r.timeout_completed, "head timeout restores progress");
}
