//! Command line of the RMB simulator benchmark.
//!
//! ```text
//! rmb-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the method, the output checks and every metric by name and
//! unit; the last line is the JSON result. Exits 1 when a check fails.

use rmb_perfbench::{run, Options, Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("{problem}");
    eprintln!(
        "usage: rmb-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::FlatServe,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("missing value after {}", pair[0]));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|s| opts.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| opts.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage(&format!("bad argument: {flag} {value}"));
        }
    }
    let Some(w) = workload else {
        return usage("--workload is required");
    };
    opts.workload = w;
    let outcome = run(&opts);
    print!("{}", outcome.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
