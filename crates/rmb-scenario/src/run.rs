//! Executes a validated [`Scenario`] against the workspace engines.
//!
//! One entry point: [`run_scenario`]. Batch scenarios run to quiescence
//! on the engine the topology names (flat ring, hierarchy, grid, lattice
//! or wormhole torus); streaming scenarios drive the open-loop serving
//! loop. Either way the result is a [`ScenarioOutcome`] whose JSON row is
//! *canonical* — fixed key order, no whitespace, and never a wall-clock
//! field — so the same scenario file and seed produce byte-identical rows
//! on every host, which is what lets `scenarios/golden/` pin outputs
//! exactly.

use crate::schema::{RingSel, Scenario, ServeOptions, Topology, Workload};
use crate::toml::ScenarioError;
use rmb_analysis::{RmbLattice, Table};
use rmb_baselines::{KAryNCube, Network};
use rmb_core::RmbNetwork;
use rmb_hier::HierNetwork;
use rmb_serve::{
    serve_with_policy, DestinationPolicy, FlatTarget, HierTarget, ServeConfig, ServeTarget,
    WormholeTarget,
};
use rmb_sim::SimRng;
use rmb_types::json::escape;
use rmb_types::{
    FaultPlan, HierConfig, LatencySummary, MessageSpec, NodeId, RmbConfig, StatsReport,
};
use rmb_workloads::{
    all_to_all, decode_trace, encode_trace, nearest_neighbour, BurstyStream, ExchangeStream,
    LocalityTraffic, PoissonStream,
};
use std::path::Path;

/// A trace produced by a `[record]` scenario. The runner never touches
/// the filesystem for output — the caller decides where (and whether) to
/// write `content`, resolving `path` against the scenario file's
/// directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    /// Path as written in the scenario (`[record] trace = ...`).
    pub path: String,
    /// Canonical trace text ([`encode_trace`] of the delivered set).
    pub content: String,
}

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Topology label.
    pub topology: String,
    /// Workload label.
    pub workload: String,
    /// `"batch"` or `"serve"`.
    pub mode: &'static str,
    /// The canonical cross-engine stats object
    /// ([`StatsReport::to_json_object`], wall-clock scrubbed).
    pub stats_json: String,
    /// The full canonical row:
    /// `{"name":...,"topology":...,"workload":...,"mode":...,"stats":{...}}`.
    pub row_json: String,
    /// Rendered text table (one row).
    pub table: String,
    /// Recorded trace, when the scenario asked for one.
    pub recorded: Option<RecordedTrace>,
}

fn external(what: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::external(what.to_string())
}

/// Wall-clock-free [`StatsReport`] view over a baseline
/// [`RoutingOutcome`](rmb_baselines::RoutingOutcome): the delivered log is
/// complete, so latency percentiles are exact.
struct OutcomeStats {
    ticks: u64,
    delivered: u64,
    refusals: u64,
    stalled: bool,
    latency: LatencySummary,
}

impl StatsReport for OutcomeStats {
    fn ticks(&self) -> u64 {
        self.ticks
    }
    fn delivered_count(&self) -> u64 {
        self.delivered
    }
    fn aborted_count(&self) -> u64 {
        0
    }
    fn refusal_count(&self) -> u64 {
        self.refusals
    }
    fn is_stalled(&self) -> bool {
        self.stalled
    }
    fn latency(&self) -> LatencySummary {
        self.latency
    }
}

/// Runs a scenario. `base` is the directory trace paths resolve against
/// (normally the scenario file's parent).
///
/// # Errors
///
/// [`ScenarioError`] (line 0) when an engine rejects the configuration,
/// a trace file cannot be read or parsed, or a workload is unroutable.
pub fn run_scenario(s: &Scenario, base: &Path) -> Result<ScenarioOutcome, ScenarioError> {
    let (mode, stats_json, recorded) = match &s.serve {
        Some(opts) => ("serve", run_serve(s, opts)?, None),
        None => {
            let (stats, recorded) = run_batch(s, base)?;
            ("batch", stats, recorded)
        }
    };

    let name = &s.name;
    let topology = s.topology.label();
    let workload = s.workload.label();
    let row_json = format!(
        "{{\"name\":{},\"topology\":{},\"workload\":{},\"mode\":{},\"stats\":{stats_json}}}",
        escape(name),
        escape(&topology),
        escape(&workload),
        escape(mode),
    );
    let table = render_table(name, &topology, &workload, mode, &stats_json)?;

    Ok(ScenarioOutcome {
        name: name.clone(),
        topology,
        workload,
        mode,
        stats_json,
        row_json,
        table,
        recorded,
    })
}

/// Renders the one-row text table from the already-canonical stats JSON
/// (parsing it back keeps a single source of truth for the numbers).
fn render_table(
    name: &str,
    topology: &str,
    workload: &str,
    mode: &str,
    stats_json: &str,
) -> Result<String, ScenarioError> {
    use rmb_types::json::Value;
    let v = Value::parse(stats_json).map_err(external)?;
    let int = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .map_or_else(|| "-".to_string(), |x| x.to_string())
    };
    let lat = v.get("latency");
    let mean = lat
        .and_then(|l| l.get("mean"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let p99 = lat
        .and_then(|l| l.get("p99"))
        .and_then(Value::as_u64)
        .map_or_else(|| "-".to_string(), |x| x.to_string());
    let stalled = v.get("stalled").and_then(Value::as_bool).unwrap_or(false);
    let mut t = Table::new(vec![
        "scenario",
        "topology",
        "workload",
        "mode",
        "ticks",
        "delivered",
        "aborted",
        "shed",
        "refusals",
        "stalled",
        "mean-lat",
        "p99",
    ]);
    t.row(vec![
        name.to_string(),
        topology.to_string(),
        workload.to_string(),
        mode.to_string(),
        int("ticks"),
        int("delivered"),
        int("aborted"),
        int("shed"),
        int("refusals"),
        stalled.to_string(),
        format!("{mean:.1}"),
        p99,
    ]);
    Ok(t.to_string())
}

// ---------------------------------------------------------------------------
// Engine construction
// ---------------------------------------------------------------------------

/// Flat-ring fault plan: every fault (validation guarantees `ring` is
/// absent on flat scenarios).
fn flat_fault_plan(s: &Scenario) -> FaultPlan {
    s.faults
        .iter()
        .fold(FaultPlan::new(), |plan, f| f.apply_to(plan))
}

fn build_flat(s: &Scenario) -> Result<RmbNetwork, ScenarioError> {
    let Topology::Flat {
        nodes,
        buses,
        head_timeout,
        retry_backoff,
    } = s.topology
    else {
        unreachable!("caller matched the topology");
    };
    let cfg = RmbConfig::builder(nodes, buses)
        .head_timeout(head_timeout.unwrap_or(16 * u64::from(nodes)))
        .retry_backoff(retry_backoff.unwrap_or(u64::from(nodes)))
        .build()
        .map_err(external)?;
    let mut b = RmbNetwork::builder(cfg)
        .log_retention(s.engine.retention)
        .checked(s.engine.checked);
    if let Some(r) = s.engine.max_retries {
        b = b.max_retries(r);
    }
    if !s.faults.is_empty() {
        b = b
            .fault_plan(flat_fault_plan(s))
            .fault_seed(s.seed ^ 0x5eed_fa17);
    }
    Ok(b.build())
}

fn build_hier(s: &Scenario) -> Result<HierNetwork, ScenarioError> {
    let Topology::Hier {
        rings,
        nodes_per_ring,
        buses,
        global_buses,
        bridge_queue_depth,
        head_timeout,
        retry_backoff,
    } = s.topology
    else {
        unreachable!("caller matched the topology");
    };
    let mut cb = HierConfig::builder(rings, nodes_per_ring, buses)
        .head_timeout(head_timeout.unwrap_or(16 * u64::from(nodes_per_ring)))
        .retry_backoff(retry_backoff.unwrap_or(u64::from(nodes_per_ring)));
    if let Some(g) = global_buses {
        cb = cb.global_buses(g);
    }
    if let Some(q) = bridge_queue_depth {
        cb = cb.bridge_queue_depth(q);
    }
    let cfg = cb.build().map_err(external)?;
    let mut b = HierNetwork::builder(cfg).checked(s.engine.checked);
    if let Some(r) = s.engine.max_retries {
        b = b.leg_max_retries(r);
    }
    if !s.faults.is_empty() {
        for f in &s.faults {
            let plan = f.apply_to(FaultPlan::new());
            match f.ring {
                Some(RingSel::Local(r)) => b = b.local_fault_plan(r, plan),
                Some(RingSel::Global) => b = b.global_fault_plan(plan),
                None => unreachable!("validation requires a ring selector on hier faults"),
            }
        }
        b = b.fault_seed(s.seed ^ 0x5eed_fa17);
    }
    Ok(b.build())
}

// ---------------------------------------------------------------------------
// Batch mode
// ---------------------------------------------------------------------------

/// Flat-indexed batch message set for a topology with `n` endpoints.
fn batch_messages(s: &Scenario, n: u32, base: &Path) -> Result<Vec<MessageSpec>, ScenarioError> {
    match &s.workload {
        Workload::Uniform {
            messages,
            spread,
            flits,
        } => {
            let mut rng = SimRng::seed(s.seed);
            Ok((0..*messages)
                .map(|_| {
                    let src = rng.index(n as usize).unwrap_or(0) as u32;
                    let dst = {
                        let r = rng.index((n - 1) as usize).expect("n >= 2") as u32;
                        if r >= src {
                            r + 1
                        } else {
                            r
                        }
                    };
                    let at = rng.index(*spread as usize).unwrap_or(0) as u64;
                    MessageSpec::new(NodeId::new(src), NodeId::new(dst), *flits).at(at)
                })
                .collect())
        }
        Workload::AllToAll { flits, stagger } => Ok(all_to_all(n, *flits, *stagger)),
        Workload::NearestNeighbour {
            flits,
            rounds,
            stagger,
        } => Ok(nearest_neighbour(n, *flits, *rounds, *stagger)),
        Workload::Trace { path } => {
            let full = base.join(path);
            let text = std::fs::read_to_string(&full)
                .map_err(|e| external(format!("trace `{}`: {e}", full.display())))?;
            let specs = decode_trace(&text)
                .map_err(|e| external(format!("trace `{}`: {e}", full.display())))?;
            if let Some(bad) = specs
                .iter()
                .find(|m| m.source.index() >= n || m.destination.index() >= n)
            {
                return Err(external(format!(
                    "trace `{}`: node {} is outside the {} endpoints",
                    full.display(),
                    bad.source.index().max(bad.destination.index()),
                    n
                )));
            }
            Ok(specs)
        }
        other => unreachable!(
            "validation bars `{}` from batch flat runs",
            other.kind_name()
        ),
    }
}

fn run_batch(s: &Scenario, base: &Path) -> Result<(String, Option<RecordedTrace>), ScenarioError> {
    match &s.topology {
        Topology::Flat { nodes, .. } => {
            let msgs = batch_messages(s, *nodes, base)?;
            let mut net = build_flat(s)?;
            net.submit_all(msgs.iter().copied()).map_err(external)?;
            let report = net.run_to_quiescence(s.max_ticks);
            let recorded = s.record.as_ref().map(|path| RecordedTrace {
                path: path.clone(),
                content: encode_trace(
                    &net.delivered_log()
                        .iter()
                        .map(|d| d.spec)
                        .collect::<Vec<_>>(),
                ),
            });
            Ok((report.to_json_object(), recorded))
        }
        Topology::Hier {
            rings,
            nodes_per_ring,
            ..
        } => {
            let Workload::Locality {
                messages,
                spread,
                flits,
                locality,
            } = &s.workload
            else {
                unreachable!("validation pairs hier batch with the locality workload");
            };
            let mut net = build_hier(s)?;
            let traffic = LocalityTraffic {
                rings: *rings,
                nodes: *nodes_per_ring,
                bridge: net.config().bridge(),
                locality: *locality,
                flits: *flits,
            };
            let msgs = traffic.generate(*messages as usize, *spread, &mut SimRng::seed(s.seed));
            net.submit_all(msgs).map_err(external)?;
            net.run_to_quiescence(s.max_ticks);
            // Emit the untimed report: same counters, no wall-clock, so
            // rows stay byte-stable across hosts and scheduler modes.
            Ok((net.report().to_json_object(), None))
        }
        Topology::Grid { rows, cols, buses } => {
            let ring_cfg = RmbConfig::new((*cols).max(*rows), *buses).map_err(external)?;
            let mut grid = RmbLattice::new(vec![*cols, *rows], ring_cfg);
            run_baseline_batch(s, &mut grid, base)
        }
        Topology::Lattice { dims, buses } => {
            let max_dim = dims.iter().copied().max().unwrap_or(2);
            let ring_cfg = RmbConfig::new(max_dim, *buses).map_err(external)?;
            let mut lattice = RmbLattice::new(dims.clone(), ring_cfg);
            run_baseline_batch(s, &mut lattice, base)
        }
        Topology::Torus { radix, dims } => {
            let mut torus = KAryNCube::new(*radix, *dims);
            run_baseline_batch(s, &mut torus, base)
        }
    }
}

fn run_baseline_batch(
    s: &Scenario,
    net: &mut dyn Network,
    base: &Path,
) -> Result<(String, Option<RecordedTrace>), ScenarioError> {
    let n = net.node_count();
    let msgs = batch_messages(s, n, base)?;
    let outcome = net.route_messages(&msgs, s.max_ticks);
    let latencies: Vec<u64> = outcome.delivered.iter().map(|d| d.latency()).collect();
    let stats = OutcomeStats {
        ticks: outcome.ticks,
        delivered: outcome.delivered.len() as u64,
        refusals: outcome
            .delivered
            .iter()
            .map(|d| u64::from(d.refusals))
            .sum(),
        stalled: outcome.stalled,
        latency: LatencySummary::exact_from(&latencies),
    };
    Ok((stats.to_json_object(), None))
}

// ---------------------------------------------------------------------------
// Serve mode
// ---------------------------------------------------------------------------

fn run_serve(s: &Scenario, opts: &ServeOptions) -> Result<String, ScenarioError> {
    let mut target: Box<dyn ServeTarget> = match &s.topology {
        Topology::Flat { .. } => Box::new(FlatTarget::new(build_flat(s)?)),
        Topology::Hier { .. } => Box::new(HierTarget::new(build_hier(s)?)),
        Topology::Torus { radix, dims } => Box::new(WormholeTarget::torus(*radix, *dims)),
        other => unreachable!("validation bars serving on `{}`", other.kind_name()),
    };

    let (rate, flits, hotspot) = match &s.workload {
        Workload::Poisson {
            rate,
            flits,
            hotspot,
        } => (*rate, *flits, *hotspot),
        Workload::Bursty {
            rate,
            flits,
            hotspot,
            ..
        } => (*rate, *flits, *hotspot),
        Workload::Exchange { period, flits } => (1.0 / *period as f64, *flits, None),
        other => unreachable!("`{}` is not a streaming workload", other.kind_name()),
    };

    let cfg = ServeConfig {
        rate,
        warmup: opts.warmup,
        duration: opts.duration,
        flits,
        admission: opts.admission,
        seed: s.seed,
    };
    let policy = match hotspot {
        Some(h) => DestinationPolicy::Hotspot {
            node: h.node,
            fraction: h.fraction,
        },
        None => DestinationPolicy::Uniform,
    };

    let mut report = match &s.workload {
        Workload::Poisson { .. } => {
            serve_with_policy(target.as_mut(), &mut PoissonStream::new(rate), &cfg, policy)
        }
        Workload::Bursty { burst, .. } => serve_with_policy(
            target.as_mut(),
            &mut BurstyStream::new(rate, *burst),
            &cfg,
            policy,
        ),
        Workload::Exchange { period, .. } => serve_with_policy(
            target.as_mut(),
            &mut ExchangeStream::new(*period),
            &cfg,
            policy,
        ),
        _ => unreachable!("streaming workloads matched above"),
    };
    // Scrub the wall-clock measurement: golden rows must be host- and
    // thread-count-independent.
    report.perf = None;
    Ok(report.to_json_object())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::parse_scenario;

    fn base() -> &'static Path {
        Path::new(".")
    }

    #[test]
    fn flat_batch_runs_and_is_deterministic() {
        let s = parse_scenario(
            r#"
name = "t"
seed = 9
[topology]
kind = "flat"
nodes = 8
buses = 2
[workload]
kind = "uniform"
messages = 24
flits = 4
"#,
        )
        .unwrap();
        let a = run_scenario(&s, base()).unwrap();
        let b = run_scenario(&s, base()).unwrap();
        assert_eq!(a.row_json, b.row_json);
        assert!(a.row_json.contains("\"mode\":\"batch\""));
        assert!(a.stats_json.contains("\"delivered\":24"));
        assert!(a.stats_json.contains("\"wall_ms\":null"));
        assert!(a.recorded.is_none());
    }

    #[test]
    fn collective_runs_on_the_torus() {
        let s = parse_scenario(
            r#"
name = "t"
seed = 1
[topology]
kind = "torus"
radix = 3
dims = 2
[workload]
kind = "all-to-all"
flits = 2
stagger = 4
"#,
        )
        .unwrap();
        let out = run_scenario(&s, base()).unwrap();
        assert!(
            out.stats_json.contains("\"delivered\":72"),
            "{}",
            out.stats_json
        );
    }

    #[test]
    fn serve_mode_scrubs_wall_clock() {
        let s = parse_scenario(
            r#"
name = "t"
seed = 4
[topology]
kind = "flat"
nodes = 8
buses = 2
[workload]
kind = "poisson"
rate = 0.002
flits = 4
[serve]
warmup = 500
duration = 2000
"#,
        )
        .unwrap();
        let a = run_scenario(&s, base()).unwrap();
        let b = run_scenario(&s, base()).unwrap();
        assert_eq!(a.row_json, b.row_json);
        assert!(a.row_json.contains("\"mode\":\"serve\""));
        assert!(a.stats_json.contains("\"wall_ms\":null"));
        assert!(a.stats_json.contains("\"threads\":null"));
    }

    /// Every tick interval at its cap runs without overflow on a flat and
    /// a hier ring. Every message cap parses exactly at its bound; those
    /// are not run, since each would allocate about 100 MB.
    #[test]
    fn capped_keys_run_at_their_caps() {
        let cap = 1u64 << 32;
        let head = "name = \"t\"\nseed = 1\nmax-ticks = 10000\n[topology]\n";
        let flat = format!(
            "{head}kind = \"flat\"\nnodes = 8\nbuses = 2\n\
             head-timeout = {cap}\nretry-backoff = {cap}\n[workload]\n"
        );
        let hier = format!(
            "{head}kind = \"hier\"\nrings = 2\nnodes-per-ring = 4\nbuses = 2\n\
             head-timeout = {cap}\nretry-backoff = {cap}\n[workload]\n"
        );
        let serve =
            "kind = \"poisson\"\nrate = 0.05\nflits = 4\n[serve]\nwarmup = 100\nduration = 1000\n";
        for text in [
            format!("{flat}kind = \"uniform\"\nmessages = 32\nflits = 4\n"),
            format!("{flat}kind = \"all-to-all\"\nflits = 4\nstagger = {cap}\n"),
            format!("{flat}kind = \"nearest-neighbour\"\nflits = 4\nrounds = 3\nstagger = {cap}\n"),
            format!("{flat}{serve}"),
            format!("{hier}kind = \"locality\"\nmessages = 32\nflits = 4\nlocality = 0.5\n"),
            format!("{hier}{serve}"),
        ] {
            let s = parse_scenario(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
            run_scenario(&s, base()).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        }
        for (nodes, workload) in [
            (8, "kind = \"uniform\"\nmessages = 4194304\nflits = 2\n"),
            (2048, "kind = \"all-to-all\"\nflits = 2\n"),
            (
                8,
                "kind = \"nearest-neighbour\"\nflits = 2\nrounds = 262144\n",
            ),
            (
                2,
                "kind = \"nearest-neighbour\"\nflits = 2\nrounds = 2097152\n",
            ),
        ] {
            let text = format!(
                "{head}kind = \"flat\"\nnodes = {nodes}\nbuses = 1\n[workload]\n{workload}"
            );
            assert!(parse_scenario(&text).is_ok(), "{text}");
        }
    }

    #[test]
    fn missing_trace_file_is_a_named_error() {
        let s = parse_scenario(
            r#"
name = "t"
seed = 1
[topology]
kind = "flat"
nodes = 4
buses = 2
[workload]
kind = "trace"
path = "does-not-exist.trace.json"
"#,
        )
        .unwrap();
        let err = run_scenario(&s, base()).unwrap_err();
        assert!(err.message.contains("does-not-exist.trace.json"), "{err}");
    }
}
