//! Every workload at a shrunken shape, on the default seed and on a
//! second seed: every check passes, and every metric `BENCHMARK.json`
//! names is printed with its unit, as text and in the JSON result line.

use rmb_perfbench::{run, Options, Scale, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use rmb_types::json::Value;

const SEEDS: [u64; 2] = [DEFAULT_SEED, 7];

fn run_small(workload: Workload, seed: u64, trace: bool) -> String {
    let outcome = run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Small,
    });
    let text = outcome.render();
    assert!(
        outcome.correct,
        "{}: {:?}\n{text}",
        workload.name(),
        outcome.problems
    );
    assert_eq!(outcome.failed, 0, "{text}");
    assert!(outcome.attempted > 0, "{text}");
    text
}

/// Checks that `text` prints each of `expected` as a metric line and as
/// a field of the JSON result on its last line, with its unit, and that
/// the result holds nothing else.
fn assert_metrics(text: &str, expected: &[(&str, &str)]) {
    for (name, unit) in expected {
        let prefix = format!("metric {name} = ");
        let line = text
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("{name} not printed:\n{text}"));
        assert!(line.ends_with(&format!(" {unit}")), "{line}");
    }
    let last = text.lines().last().expect("output is not empty");
    let result = Value::parse(last).expect("last line is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for ((_, m), (name, unit)) in metrics.iter().zip(expected) {
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
    }
}

#[test]
fn untraced_runs_pass_their_checks_and_print_every_end_to_end_metric() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            let text = run_small(workload, seed, false);
            assert_metrics(&text, &END_TO_END);
            assert!(text.starts_with("method {"), "{text}");
            assert!(text.contains(&format!("\"seed\": {seed}")), "{text}");
        }
    }
}

#[test]
fn traced_runs_match_untraced_and_print_every_per_layer_metric() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            let text = run_small(workload, seed, true);
            assert_metrics(&text, &PER_LAYER);
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Value::parse(&text).expect("BENCHMARK.json is JSON");
    let entries = |key: &str| -> Vec<(String, Option<String>)> {
        let Some(Value::Arr(items)) = spec.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|item| {
                let name = item.get("name").and_then(Value::as_str).expect("name");
                let unit = item.get("unit").and_then(Value::as_str);
                (name.to_owned(), unit.map(str::to_owned))
            })
            .collect()
    };
    let listed = |metrics: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        metrics
            .iter()
            .map(|(n, u)| ((*n).to_owned(), Some((*u).to_owned())))
            .collect()
    };
    assert_eq!(entries("end_to_end"), listed(&END_TO_END));
    assert_eq!(entries("per_layer"), listed(&PER_LAYER));
    let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn workload_names_round_trip() {
    for workload in Workload::ALL {
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
    assert_eq!(Workload::parse("no-such-workload"), None);
}
