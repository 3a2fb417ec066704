//! Determinism: one scenario, one seed, byte-identical rows on every run.
//! The scenario layer's canonical row (wall-clock scrubbed) is where that
//! promise becomes checkable as plain byte equality.

use rmb_scenario::{parse_scenario, run_scenario, Scenario};
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

fn row(s: &Scenario) -> String {
    run_scenario(s, Path::new(".")).unwrap().row_json
}

#[test]
fn repeated_runs_are_byte_identical() {
    let s = parse_scenario(FLAT).unwrap();
    assert_eq!(row(&s), row(&s));
}
