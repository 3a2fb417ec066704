//! Mode-equivalence: one scenario, one seed, byte-identical rows no
//! matter which scheduler runs it. The engines promise semantic
//! equivalence across their modes; the scenario layer's canonical row
//! (wall-clock scrubbed) is where that promise becomes checkable as plain
//! byte equality.

use rmb_scenario::{parse_scenario, run_scenario, Scenario, Scheduler};
use std::path::Path;

const FLAT: &str = r#"
name = "det-flat"
seed = 20260808
[topology]
kind = "flat"
nodes = 12
buses = 3
[workload]
kind = "uniform"
messages = 80
spread = 200
flits = 6
"#;

const HIER: &str = r#"
name = "det-hier"
seed = 20260808
[topology]
kind = "hier"
rings = 4
nodes-per-ring = 6
buses = 2
[workload]
kind = "locality"
messages = 120
spread = 150
flits = 6
locality = 0.7
"#;

fn row(s: &Scenario) -> String {
    run_scenario(s, Path::new(".")).unwrap().row_json
}

#[test]
fn flat_rows_are_identical_across_scheduler_modes() {
    let event = parse_scenario(FLAT).unwrap();
    assert_eq!(event.engine.scheduler, Scheduler::Event);
    let mut dense = event.clone();
    dense.engine.scheduler = Scheduler::Dense;
    assert_eq!(row(&event), row(&dense));
}

#[test]
fn hier_rows_are_identical_across_scheduler_modes() {
    let event = parse_scenario(HIER).unwrap();
    let mut dense = event.clone();
    dense.engine.scheduler = Scheduler::Dense;
    assert_eq!(row(&event), row(&dense), "dense sweep diverged");
}

#[test]
fn repeated_runs_are_byte_identical() {
    let s = parse_scenario(FLAT).unwrap();
    assert_eq!(row(&s), row(&s));
}
