//! Declarative scenario harness for the RMB reproduction.
//!
//! Every experiment so far has been configured in Rust: pick a topology,
//! pick knobs, wire a workload, emit a report. This crate turns that
//! recipe into *data* — a small TOML file any session can read, diff and
//! pin — so a whole experiment is one artifact:
//!
//! ```toml
//! name = "flat-uniform-smoke"
//! seed = 42
//!
//! [topology]
//! kind = "flat"
//! nodes = 16
//! buses = 4
//!
//! [workload]
//! kind = "uniform"
//! messages = 64
//! flits = 4
//! ```
//!
//! Three layers:
//!
//! * [`toml`] — a hand-rolled, line-tracking parser for the TOML subset
//!   scenarios need (the workspace is fully offline, so no external
//!   `toml` crate). Errors carry the offending line.
//! * [`schema`] — the typed [`Scenario`] model plus [`parse_scenario`]:
//!   every key is validated against the engines' real invariants, and a
//!   bad file fails with the key *and line* that broke it, not a panic
//!   three crates down.
//! * [`run`] — [`run_scenario`] executes a scenario on the engine its
//!   topology names (flat ring, bridged hierarchy, grid, lattice, or the
//!   wormhole-torus baseline; batch or open-loop serving) and returns a
//!   canonical, wall-clock-free JSON row suitable for byte-exact golden
//!   pinning.
//!
//! # Examples
//!
//! ```
//! use rmb_scenario::{parse_scenario, run_scenario};
//!
//! let scenario = parse_scenario(
//!     r#"
//!     name = "doc-smoke"
//!     seed = 7
//!     [topology]
//!     kind = "flat"
//!     nodes = 8
//!     buses = 2
//!     [workload]
//!     kind = "uniform"
//!     messages = 16
//!     flits = 4
//!     "#,
//! )
//! .unwrap();
//! let out = run_scenario(&scenario, std::path::Path::new(".")).unwrap();
//! assert_eq!(out.mode, "batch");
//! assert!(out.stats_json.contains("\"delivered\":16"));
//! // Same scenario, same seed: byte-identical row.
//! assert_eq!(out.row_json, run_scenario(&scenario, std::path::Path::new(".")).unwrap().row_json);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod run;
pub mod schema;
pub mod toml;

pub use run::{run_scenario, RecordedTrace, ScenarioOutcome};
pub use schema::{
    parse_scenario, Engine, FaultKindSpec, FaultSpec, Hotspot, RingSel, Scenario, ServeOptions,
    Topology, Workload,
};
pub use toml::ScenarioError;
