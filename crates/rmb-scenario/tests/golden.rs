//! Golden pinning for the checked-in scenario zoo.
//!
//! Every `scenarios/*.toml` must reproduce `scenarios/golden/<stem>.json`
//! byte for byte — the same envelope `experiments --scenario F --json`
//! prints. The trace pair additionally proves record → replay delivers
//! the identical message set.

use rmb_scenario::{parse_scenario, run_scenario, Scenario, ScenarioOutcome};
use std::fs;
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(stem: &str) -> Scenario {
    let path = scenarios_dir().join(format!("{stem}.toml"));
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn run(s: &Scenario) -> ScenarioOutcome {
    run_scenario(s, &scenarios_dir()).unwrap_or_else(|e| panic!("scenario `{}`: {e}", s.name))
}

/// The envelope the `experiments` binary prints (trailing newline from
/// `println!` included).
fn envelope(out: &ScenarioOutcome) -> String {
    format!(
        "{{\"experiment\": \"scenario\", \"rows\": [{}]}}\n",
        out.row_json
    )
}

#[test]
fn every_scenario_matches_its_golden_byte_for_byte() {
    let dir = scenarios_dir();
    let mut stems: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "toml"))
                .then(|| p.file_stem().unwrap().to_str().unwrap().to_string())
        })
        .collect();
    stems.sort();
    assert!(
        stems.len() >= 6,
        "expected at least 6 checked-in scenarios, found {stems:?}"
    );
    for stem in &stems {
        let out = run(&load(stem));
        let golden_path = dir.join("golden").join(format!("{stem}.json"));
        let golden = fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
        assert_eq!(
            envelope(&out),
            golden,
            "golden drift for `{stem}` — if intentional, regenerate with \
             `experiments --scenario scenarios/{stem}.toml --json`"
        );
    }
}

#[test]
fn the_zoo_covers_the_required_modes() {
    // At least one golden each for flat batch, the hierarchy, open-loop
    // serve, a fault plan, a collective workload and trace record/replay.
    assert!(matches!(
        load("flat_batch").workload,
        rmb_scenario::Workload::Uniform { .. }
    ));
    assert!(matches!(
        load("hier_locality").topology,
        rmb_scenario::Topology::Hier { .. }
    ));
    assert!(load("serve_hotspot").serve.is_some());
    assert!(!load("fault_recovery").faults.is_empty());
    assert!(matches!(
        load("collective_alltoall").workload,
        rmb_scenario::Workload::AllToAll { .. }
    ));
    assert!(load("trace_record").record.is_some());
    assert!(matches!(
        load("trace_replay").workload,
        rmb_scenario::Workload::Trace { .. }
    ));
    // The lattice of rings runs on the composition engine shared with the
    // hierarchy; its golden pins that path.
    let lattice = load("lattice_batch");
    assert!(matches!(
        &lattice.topology,
        rmb_scenario::Topology::Lattice { dims, .. } if dims == &[4, 4]
    ));
    assert!(matches!(
        lattice.workload,
        rmb_scenario::Workload::Uniform { .. }
    ));
}

#[test]
fn recorded_trace_matches_the_checked_in_file() {
    let out = run(&load("trace_record"));
    let rec = out.recorded.expect("trace_record must record");
    assert_eq!(rec.path, "traces/smoke.trace.json");
    let on_disk = fs::read_to_string(scenarios_dir().join(&rec.path)).unwrap();
    assert_eq!(rec.content, on_disk, "checked-in trace drifted");
}

#[test]
fn replay_delivers_exactly_the_recorded_set() {
    let recorded = run(&load("trace_record"))
        .recorded
        .expect("trace_record must record")
        .content;

    // Re-record the replay run: its delivered log, canonically encoded,
    // must be byte-identical to the original recording — same multiset
    // of (source, destination, flits, inject_at), nothing lost, nothing
    // invented.
    let mut replay = load("trace_replay");
    replay.record = Some("unused-in-test".to_string());
    let replayed = run(&replay)
        .recorded
        .expect("re-recording the replay must produce a trace")
        .content;

    assert_eq!(recorded, replayed);
}
