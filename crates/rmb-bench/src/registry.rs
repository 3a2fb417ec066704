//! Registry of runnable experiments.
//!
//! The `experiments` binary used to be a hand-rolled `if`-chain: every
//! new experiment meant editing the argument parser, the usage string and
//! the dispatch logic in three places. The registry replaces that with a
//! list of [`Experiment`] trait objects — one entry per experiment,
//! carrying its name, a one-line description and its run logic (including
//! the size clamps each study needs). The binary just iterates; `--list`
//! and the usage string fall out of the same table.

use crate::experiments::{
    ablation_suite, ablation_table, competitiveness, competitiveness_table, deadlock_study,
    fault_tolerance_experiment, fault_tolerance_table, grid_experiment, grid_table,
    hier_scaling_experiment, hier_scaling_table, hier_throughput_experiment, hier_throughput_table,
    hotspot_experiment, hotspot_table, lemma1_experiment, load_sweep, load_table,
    multi_send_experiment, multi_send_table, multicast_experiment, multicast_table,
    open_loop_experiment, open_loop_soak, open_loop_table, permutation_comparison,
    permutation_table, scaling_experiment, scaling_table, soak_table, theorem1_experiment,
    wire_delay_experiment, wire_delay_table,
};
use crate::rows::JsonReport;

/// Knobs shared by every experiment, parsed once by the binary.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Node count (experiments clamp as their study requires).
    pub n: u32,
    /// Buses per ring.
    pub k: u16,
    /// Data flits per message.
    pub flits: u32,
    /// Deterministic seed.
    pub seed: u64,
    /// `true` when running the whole suite (`--exp all`); some
    /// experiments pick a smaller default size in that case.
    pub all: bool,
    /// Optional tick budget override (`--ticks`), used by the open-loop
    /// sweep and soak.
    pub ticks: Option<u64>,
    /// Optional single offered rate override (`--rate`) for rate sweeps.
    pub rate: Option<f64>,
    /// Scenario file for the `scenario` experiment (`--scenario`). The
    /// arm is a no-op when absent, so `--exp all` skips it.
    pub scenario: Option<String>,
}

/// One emitted result: a JSON row set plus its rendered text table.
#[derive(Debug, Clone)]
pub struct ExpOutput {
    /// Name used in the JSON envelope (usually the experiment name; the
    /// deadlock study emits three differently-named outputs).
    pub name: String,
    /// Text-mode heading printed before the table (empty = none).
    pub heading: String,
    /// JSON body for `{"experiment": name, "rows": ...}`.
    pub rows_json: String,
    /// Rendered text table.
    pub table: String,
    /// Text-mode footer printed after the table (empty = none).
    pub footer: String,
}

impl ExpOutput {
    fn new(
        name: &str,
        heading: String,
        rows: &impl JsonReport,
        table: impl std::fmt::Display,
    ) -> Self {
        ExpOutput {
            name: name.to_string(),
            heading,
            rows_json: rows.to_json(),
            table: table.to_string(),
            footer: String::new(),
        }
    }
}

/// A runnable, listable experiment.
pub trait Experiment {
    /// CLI name (`--exp <name>`).
    fn name(&self) -> &'static str;
    /// One-line description for `--list`.
    fn description(&self) -> &'static str;
    /// Runs the experiment and returns its outputs (usually one).
    fn run(&self, cx: &ExpContext) -> Vec<ExpOutput>;
}

macro_rules! experiment {
    ($ty:ident, $name:literal, $desc:literal, |$cx:ident| $body:expr) => {
        struct $ty;
        impl Experiment for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn description(&self) -> &'static str {
                $desc
            }
            fn run(&self, $cx: &ExpContext) -> Vec<ExpOutput> {
                $body
            }
        }
    };
}

experiment!(
    Lemma1,
    "lemma1",
    "cycle-transition skew bound (Lemma 1)",
    |cx| {
        let r = lemma1_experiment(cx.n.min(24), cx.seed);
        let mut out = ExpOutput::new(
            "lemma1",
            "Experiment L1 — Lemma 1 (cycle-transition skew bound):".into(),
            &r,
            r.table(),
        );
        out.footer = format!("bound held: {}", r.bound_held);
        vec![out]
    }
);

experiment!(
    Theorem1,
    "theorem1",
    "full utilisation / admission (Theorem 1)",
    |cx| {
        let r = theorem1_experiment(cx.n.min(32), cx.k, 60, cx.seed);
        vec![ExpOutput::new(
            "theorem1",
            "Experiment TH1 — Theorem 1 (full utilisation / admission):".into(),
            &r,
            r.table(),
        )]
    }
);

experiment!(
    Permutation,
    "permutation",
    "measured permutation routing across five networks",
    |cx| {
        let n = if cx.all { 16 } else { cx.n };
        let rows = permutation_comparison(n, cx.k.min(8), cx.flits, cx.seed);
        vec![ExpOutput::new(
            "permutation",
            format!(
                "Experiment E2 — measured permutation routing (N = {n}, k = {}):",
                cx.k.min(8)
            ),
            &rows,
            permutation_table(&rows),
        )]
    }
);

experiment!(
    Competitiveness,
    "competitiveness",
    "online schedule vs offline bound",
    |cx| {
        let rows = competitiveness(cx.n.min(32), cx.k, cx.flits, cx.seed);
        vec![ExpOutput::new(
            "competitiveness",
            format!(
                "Experiment E1 — competitiveness vs offline schedule (N = {}, k = {}):",
                cx.n.min(32),
                cx.k
            ),
            &rows,
            competitiveness_table(&rows),
        )]
    }
);

experiment!(Ablation, "ablation", "feature ablation suite", |cx| {
    let rows = ablation_suite(cx.n.min(32), cx.k.min(4), cx.flits, cx.seed);
    vec![ExpOutput::new(
        "ablation",
        format!("Ablations (N = {}, k = {}):", cx.n.min(32), cx.k.min(4)),
        &rows,
        ablation_table(&rows),
    )]
});

experiment!(
    Load,
    "load",
    "closed-loop load sweep (batch to quiescence)",
    |cx| {
        let rates = [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05];
        let points = load_sweep(cx.n.min(32), cx.k, &rates, 4_000, cx.flits, cx.seed);
        vec![ExpOutput::new(
            "load",
            format!("Load sweep (N = {}, k = {}):", cx.n.min(32), cx.k),
            &points,
            load_table(&points),
        )]
    }
);

experiment!(
    Multicast,
    "multicast",
    "multicast extension vs unicast series",
    |cx| {
        let rows = multicast_experiment(cx.n.min(32), cx.k.min(4), cx.flits);
        vec![ExpOutput::new(
            "multicast",
            format!(
                "Multicast extension (N = {}, k = {}):",
                cx.n.min(32),
                cx.k.min(4)
            ),
            &rows,
            multicast_table(&rows),
        )]
    }
);

experiment!(
    WireDelay,
    "wire-delay",
    "wire-length effects under layout-aware delays",
    |cx| {
        let n = if cx.n.is_power_of_two() {
            cx.n.min(64)
        } else {
            16
        };
        let rows = wire_delay_experiment(n, cx.k.min(8), cx.flits, cx.seed);
        vec![ExpOutput::new(
            "wire-delay",
            format!("Wire-length effects (N = {n}, k = {}):", cx.k.min(8)),
            &rows,
            wire_delay_table(&rows),
        )]
    }
);

experiment!(Grid, "grid", "2-D grid of rings vs one ring", |cx| {
    let rows = grid_experiment(6, cx.k.min(4), cx.flits);
    vec![ExpOutput::new(
        "grid",
        "2-D grid of rings vs one ring (36 nodes, equal wiring):".into(),
        &rows,
        grid_table(&rows),
    )]
});

experiment!(
    Scaling,
    "scaling",
    "scaling sweep: ring vs dual ring vs grid",
    |cx| {
        let rows = scaling_experiment(&[4, 6, 8], cx.k.min(2), cx.flits.min(8));
        vec![ExpOutput::new(
            "scaling",
            "Scaling sweep — ring vs dual ring vs grid of rings:".into(),
            &rows,
            scaling_table(&rows),
        )]
    }
);

experiment!(
    Hotspot,
    "hotspot",
    "hot-spot traffic vs receive slots",
    |cx| {
        let rows = hotspot_experiment(cx.n.min(24), cx.k.min(4), 0.004, 0.6, cx.seed);
        vec![ExpOutput::new(
            "hotspot",
            format!("Hot-spot traffic vs receive slots (N = {}):", cx.n.min(24)),
            &rows,
            hotspot_table(&rows),
        )]
    }
);

experiment!(
    MultiSend,
    "multi-send",
    "multiple sends per PE (hot source)",
    |cx| {
        let rows = multi_send_experiment(cx.n.min(16), cx.k.min(4), cx.flits);
        vec![ExpOutput::new(
            "multi-send",
            format!("Multiple sends per PE (hot source, N = {}):", cx.n.min(16)),
            &rows,
            multi_send_table(&rows),
        )]
    }
);

experiment!(
    FaultTolerance,
    "fault-tolerance",
    "throughput under failing bus segments",
    |cx| {
        let n = cx.n.min(32);
        let k = cx.k.min(8);
        let fractions = [0.0, 0.05, 0.1, 0.15, 0.2];
        let mut sizes = vec![(n, k.min(4))];
        if k > 4 {
            sizes.push((n, k));
        }
        let rows = fault_tolerance_experiment(&sizes, &fractions, cx.flits, cx.seed);
        vec![ExpOutput::new(
            "fault-tolerance",
            format!("Fault tolerance — throughput under failing segments (N = {n}, k = {k}):"),
            &rows,
            fault_tolerance_table(&rows),
        )]
    }
);

experiment!(
    HierScaling,
    "hier-scaling",
    "bridged rings vs flat ring across localities",
    |cx| {
        // Per-ring size from --n (capped), buses from --k; flat total is
        // rings * n.
        let n = cx.n.min(16);
        let k = cx.k.min(4);
        let shapes = [(2, n, k), (4, n, k)];
        let localities = [0.0, 0.5, 0.8, 0.95];
        let rows = hier_scaling_experiment(&shapes, &localities, cx.flits.min(8), cx.seed);
        vec![ExpOutput::new(
            "hier-scaling",
            format!("Hierarchical scaling — bridged rings vs flat ring (n/ring = {n}, k = {k}):"),
            &rows,
            hier_scaling_table(&rows),
        )]
    }
);

experiment!(
    HierThroughput,
    "hier-throughput",
    "hierarchy engine wall-clock throughput: rings x locality",
    |cx| {
        // Per-ring size from --n (capped), buses from --k. Shapes reach
        // 64 rings, the cell bench-smoke gates against BENCH_PR9.json.
        let n = cx.n.min(16);
        let k = cx.k.min(4);
        let shapes: &[(u32, u32, u16)] = if cx.all {
            &[(8, 8, 2)]
        } else {
            &[(16, n, k), (64, n, k)]
        };
        let rows = hier_throughput_experiment(shapes, &[0.5, 0.9], cx.seed);
        vec![ExpOutput::new(
            "hier-throughput",
            format!("Hierarchy engine — wall-clock throughput (n/ring = {n}, k = {k}):"),
            &rows,
            hier_throughput_table(&rows),
        )]
    }
);

experiment!(
    Deadlock,
    "deadlock",
    "deadlock study: saturated, symmetric, staggered",
    |_cx| {
        let saturated = deadlock_study(16, 4, 8, 0);
        let symmetric = deadlock_study(8, 8, 4, 0);
        let staggered = deadlock_study(8, 8, 4, 16);
        vec![
            ExpOutput::new(
                "deadlock-saturated",
                "Deadlock study — saturated simultaneous injection (N = 16, k = 4):".into(),
                &saturated,
                saturated.table(),
            ),
            ExpOutput::new(
                "deadlock-symmetric",
                "Below saturation, simultaneous symmetric injection (N = 8, k = 8):".into(),
                &symmetric,
                symmetric.table(),
            ),
            ExpOutput::new(
                "deadlock-staggered",
                "Same workload, injections staggered by 16 ticks:".into(),
                &staggered,
                staggered.table(),
            ),
        ]
    }
);

experiment!(
    OpenLoop,
    "open_loop",
    "open-loop serving sweep: latency percentiles vs offered load",
    |cx| {
        let n = cx.n.min(16);
        let k = cx.k.min(4);
        let duration = cx.ticks.unwrap_or(15_000);
        let default_rates = [0.002, 0.005, 0.01, 0.02, 0.04, 0.08];
        let rates: Vec<f64> = match cx.rate {
            Some(r) => vec![r],
            None => default_rates.to_vec(),
        };
        let rows = open_loop_experiment(n, k, cx.flits.min(8), &rates, duration, cx.seed);
        vec![ExpOutput::new(
            "open_loop",
            format!(
                "Open-loop serving — latency vs offered load (N = {n}, k = {k}, {} ticks/cell):",
                duration + 2_000
            ),
            &rows,
            open_loop_table(&rows),
        )]
    }
);

experiment!(
    OpenLoopSoak,
    "open-loop-soak",
    "bounded-memory serving soak under counters-only retention",
    |cx| {
        let n = cx.n.min(16);
        let k = cx.k.min(4);
        let ticks = cx.ticks.unwrap_or(200_000);
        let rate = cx.rate.unwrap_or(0.004);
        let row = open_loop_soak(n, k, rate, ticks, cx.seed);
        vec![ExpOutput::new(
            "open-loop-soak",
            format!("Open-loop soak — counters-only retention (N = {n}, k = {k}, {ticks} ticks):"),
            &row,
            soak_table(&row),
        )]
    }
);

experiment!(
    ScenarioExp,
    "scenario",
    "declarative scenario file (--scenario file.toml)",
    |cx| {
        match cx.scenario.as_deref() {
            Some(path) => run_scenario_file(path),
            None => vec![],
        }
    }
);

/// Loads, validates and runs one scenario file, writing any recorded
/// trace next to the scenario. Exits with status 2 on any error — the
/// scenario arm only runs from the CLI, and the whole point of the
/// schema layer is that the message already names the key and line.
fn run_scenario_file(path: &str) -> Vec<ExpOutput> {
    use std::path::Path;
    fn fail(path: &str, msg: impl std::fmt::Display) -> ! {
        eprintln!("scenario `{path}`: {msg}");
        std::process::exit(2);
    }
    let file = Path::new(path);
    let base = file.parent().filter(|p| !p.as_os_str().is_empty());
    let base = base.unwrap_or_else(|| Path::new("."));
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| fail(path, e));
    let scenario = rmb_scenario::parse_scenario(&text).unwrap_or_else(|e| fail(path, e));
    let out = rmb_scenario::run_scenario(&scenario, base).unwrap_or_else(|e| fail(path, e));
    if let Some(rec) = &out.recorded {
        let target = base.join(&rec.path);
        if let Some(dir) = target.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(path, format_args!("creating `{}`: {e}", dir.display())));
        }
        std::fs::write(&target, &rec.content)
            .unwrap_or_else(|e| fail(path, format_args!("writing `{}`: {e}", target.display())));
    }
    vec![ExpOutput {
        name: "scenario".to_string(),
        heading: format!(
            "Scenario `{}` — {} workload on {} ({} mode):",
            out.name, out.workload, out.topology, out.mode
        ),
        rows_json: format!("[{}]", out.row_json),
        table: out.table,
        footer: String::new(),
    }]
}

/// All registered experiments, in suite order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Lemma1),
        Box::new(Theorem1),
        Box::new(Permutation),
        Box::new(Competitiveness),
        Box::new(Ablation),
        Box::new(Load),
        Box::new(Multicast),
        Box::new(WireDelay),
        Box::new(Grid),
        Box::new(Scaling),
        Box::new(Hotspot),
        Box::new(MultiSend),
        Box::new(FaultTolerance),
        Box::new(HierScaling),
        Box::new(HierThroughput),
        Box::new(Deadlock),
        Box::new(OpenLoop),
        Box::new(OpenLoopSoak),
        Box::new(ScenarioExp),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_described() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|e| e.name()).collect();
        assert!(names.contains(&"open_loop"));
        assert!(names.contains(&"deadlock"));
        assert!(names.contains(&"scenario"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate experiment names");
        assert!(reg.iter().all(|e| !e.description().is_empty()));
    }

    #[test]
    fn small_experiment_runs_through_the_registry() {
        let cx = ExpContext {
            n: 8,
            k: 2,
            flits: 4,
            seed: 7,
            all: false,
            ticks: None,
            rate: None,
            scenario: None,
        };
        let reg = registry();
        let grid = reg.iter().find(|e| e.name() == "grid").unwrap();
        let out = grid.run(&cx);
        assert_eq!(out.len(), 1);
        assert!(out[0].rows_json.starts_with('['));
        assert!(!out[0].table.is_empty());
        let deadlock = reg.iter().find(|e| e.name() == "deadlock").unwrap();
        assert_eq!(deadlock.run(&cx).len(), 3, "deadlock emits three outputs");
    }

    #[test]
    fn scenario_arm_is_a_no_op_without_a_file() {
        let cx = ExpContext {
            n: 8,
            k: 2,
            flits: 4,
            seed: 7,
            all: true,
            ticks: None,
            rate: None,
            scenario: None,
        };
        let reg = registry();
        let arm = reg.iter().find(|e| e.name() == "scenario").unwrap();
        assert!(arm.run(&cx).is_empty(), "`--exp all` must skip the arm");
    }

    #[test]
    fn rate_and_ticks_overrides_reach_the_open_loop_sweep() {
        let cx = ExpContext {
            n: 8,
            k: 2,
            flits: 4,
            seed: 7,
            all: false,
            ticks: Some(1_500),
            rate: Some(0.003),
            scenario: None,
        };
        let reg = registry();
        let open = reg.iter().find(|e| e.name() == "open_loop").unwrap();
        let out = open.run(&cx);
        assert_eq!(out.len(), 1);
        // One rate x two processes x three topologies.
        let v = rmb_types::json::Value::parse(&out[0].rows_json).unwrap();
        match v {
            rmb_types::json::Value::Arr(items) => assert_eq!(items.len(), 6),
            _ => panic!("expected array"),
        }
    }
}
