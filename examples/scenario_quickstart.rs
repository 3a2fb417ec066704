//! Quickstart: run a checked-in declarative scenario.
//!
//! ```text
//! cargo run --example scenario_quickstart
//! cargo run --example scenario_quickstart -- scenarios/serve_hotspot.toml
//! ```
//!
//! A scenario file is a complete experiment: topology, engine knobs,
//! workload, optional fault plan and serving options. This example loads
//! one (default: `scenarios/flat_batch.toml`), prints the parsed summary,
//! runs it, and shows both the human table and the canonical JSON row —
//! the same row `experiments --scenario FILE --json` emits and the same
//! bytes `scenarios/golden/` pins.

use rmb::scenario::{parse_scenario, run_scenario};
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "scenarios/flat_batch.toml".to_string());

    let text = std::fs::read_to_string(&path)?;
    let scenario = parse_scenario(&text)?;
    println!("scenario `{}` (seed {})", scenario.name, scenario.seed);
    println!("  topology: {}", scenario.topology.label());
    println!("  workload: {}", scenario.workload.label());

    let base = Path::new(&path).parent().unwrap_or_else(|| Path::new("."));
    let out = run_scenario(&scenario, base)?;

    println!("\n{}", out.table);
    println!("canonical row:\n{}", out.row_json);
    Ok(())
}
