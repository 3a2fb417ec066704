//! Benchmark of the RMB simulator stack.
//!
//! One run measures one workload for a fixed host-time budget and prints
//! its metrics by name and unit, ending with a one-line JSON result.
//! Untraced runs give the end-to-end metrics ([`END_TO_END`]); a traced
//! run times the calls into each crate's public API from outside and gives
//! the per-layer metrics ([`PER_LAYER`]). Every pass of a run is checked:
//! the simulated outputs must pass the workload's checks and equal the
//! first pass's, traced or not.
//!
//! Host times are scaled to the reference host's speed. A fixed probe
//! loop, independent of the crates under test, is timed right before
//! every pass. The pass's slowdown is that probe time over
//! [`PROBE_REFERENCE_S`], and its host times are divided by the slowdown
//! squared. Every reported host time is the median of its scaled values
//! over the passes. On a shared host, other tenants slow the probe and
//! the simulator together, the simulator about twice as much in log
//! terms, so the scaled figures move less from run to run than the raw
//! ones. The raw medians are printed too, and the `method` line gives the
//! run's median slowdown and marks the run as contended above
//! [`CONTENDED_SLOWDOWN`].

mod flat;
mod hier;
mod lattice;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The seed used when none is given; the year of the paper, and the seed
/// of the `hier-shard` experiment whose 64x16 shape `hier-batch` uses.
pub const DEFAULT_SEED: u64 = 1996;

/// End-to-end metrics of an untraced run, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ticks_per_s", "1/s"),
    ("msgs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ticks", "ticks"),
    ("sim_latency_mean_ticks", "ticks"),
    ("sim_latency_p99_ticks", "ticks"),
];

/// Per-layer metrics of a traced run, as `(name, unit)`. A workload that
/// does not drive a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("core.tick_ns", "ns"),
    ("core.ns_per_active_circuit", "ns"),
    ("core.refusals", "count"),
    ("core.retries", "count"),
    ("core.compaction_moves", "count"),
    ("core.peak_virtual_buses", "count"),
    ("core.mean_utilization", "fraction"),
    ("serve.driver_self_ns_per_tick", "ns"),
    ("serve.submit_ns", "ns"),
    ("serve.poll_ns_per_tick", "ns"),
    ("serve.offered", "count"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("hier.tick_ns", "ns"),
    ("hier.due_scan_ns", "ns"),
    ("hier.busy_carrier_frac", "fraction"),
    ("hier.pending_mean", "count"),
    ("hier.bridge_refusals", "count"),
    ("hier.leg_refusals", "count"),
    ("hier.leg_retries", "count"),
    ("lattice.route_ns_per_tick", "ns"),
    ("lattice.final_leg_refusals", "count"),
    ("workloads.generate_s", "s"),
];

/// Host time that one pass's set-up sample covers at least: set-ups are
/// repeated back to back until they add up to this, and the sample is
/// their mean. The last set-up feeds the pass.
const SETUP_SAMPLE_S: f64 = 0.002;

/// Fewest set-ups in one pass's set-up sample.
const MIN_SETUPS_PER_PASS: usize = 3;

/// Iterations of one probe loop, about 5 ms on the reference host.
const PROBE_STEPS: u64 = 1 << 19;

/// Median seconds of one probe loop on the reference host, a 2-vCPU Xeon
/// VM at 2.1 GHz.
const PROBE_REFERENCE_S: f64 = 0.005;

/// Power of the probe's slowdown that host times are divided by. Over 33
/// twenty-second runs across host phases, the log of the median pass
/// time against the log of the median probe time had slopes of 1.1 to
/// 2.3 per workload. Dividing by the slowdown squared left the smallest
/// worst-case spread over seeds: 0.08, against 0.23 for the plain
/// slowdown and 0.41 unscaled.
const PROBE_EXPONENT: i32 = 2;

/// Host slowdown above which the `method` line marks a run as contended.
const CONTENDED_SLOWDOWN: f64 = 1.15;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson serving over one flat ring.
    FlatServe,
    /// Closed batch over 64 rings, mostly local traffic.
    HierBatch,
    /// Closed batch over 16 rings, mostly crossing traffic.
    HierCross,
    /// Closed batch through a 16 x 16 lattice of rings.
    LatticeBatch,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FlatServe,
        Workload::HierBatch,
        Workload::HierCross,
        Workload::LatticeBatch,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatServe => "flat-serve",
            Workload::HierBatch => "hier-batch",
            Workload::HierCross => "hier-cross",
            Workload::LatticeBatch => "lattice-batch",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size. `Full` is what the benchmark measures; `Small` shrinks
/// every workload so the benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The shapes `BENCHMARK.json` describes.
    Full,
    /// Shrunken shapes for tests.
    Small,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Host-time budget for measured passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Host time accumulated under one span name over many calls. Spans are
/// summed in memory and written out when the run ends.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    ns: u64,
    calls: u64,
}

impl Span {
    /// Adds one call that began at `start` and ends now.
    fn close(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// The engine's own report of a pass, compared exactly between passes.
#[derive(Debug, Clone, PartialEq)]
enum EngineReport {
    /// Serving report (equality ignores wall time) and the tick at which
    /// the post-run drain ended.
    Serve(rmb_serve::ServeReport, u64),
    /// Hierarchy report (equality ignores wall time).
    Hier(rmb_hier::HierReport),
    /// Lattice ticks and `(message, delivered_at)` of every delivery.
    Lattice(u64, Vec<(u64, u64)>),
}

/// What one pass simulated. All passes of one seed must be equal.
#[derive(Debug, Clone, PartialEq)]
struct Sim {
    /// Simulated makespan in ticks.
    ticks: u64,
    /// Messages offered to the engine.
    offered: u64,
    /// Messages delivered.
    delivered: u64,
    /// Messages shed, aborted or left undelivered.
    failed: u64,
    /// Mean simulated latency of delivered messages, in ticks.
    latency_mean: f64,
    /// 99th-percentile simulated latency, in ticks.
    latency_p99: u64,
    /// Failed output checks, empty when the pass is correct.
    problems: Vec<String>,
    report: EngineReport,
}

/// A workload's three phases. `setup` builds the engine from generated
/// inputs, `run` is the timed pass, and `run_traced` is the same pass with
/// spans around each call into the layers.
trait Bench {
    type Input;

    /// Generates inputs and builds the engine; also returns the seconds
    /// spent inside `rmb-workloads` generators.
    fn setup(&self, seed: u64) -> (Self::Input, f64);

    fn run(&self, input: &mut Self::Input) -> Sim;

    fn run_traced(&self, input: &mut Self::Input, layers: &mut Vec<Metric>) -> Sim;
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What was run.
    pub options: Options,
    /// `true` when every check passed on every pass.
    pub correct: bool,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Messages offered per pass.
    pub attempted: u64,
    /// Messages shed, aborted or undelivered per pass.
    pub failed: u64,
    /// The metrics of the result line: [`END_TO_END`] untraced, or
    /// [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Further measurements printed for readers only.
    pub notes: Vec<Metric>,
    /// Measured passes.
    pub passes: usize,
    /// The median probe time over [`PROBE_REFERENCE_S`]: how much slower
    /// than the reference host this run's host was.
    pub host_slowdown: f64,
}

/// Runs one workload as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        Workload::FlatServe => measure(&flat::FlatServe::new(opts.scale), opts),
        Workload::HierBatch => measure(&hier::HierBatch::batch(opts.scale), opts),
        Workload::HierCross => measure(&hier::HierBatch::cross(opts.scale), opts),
        Workload::LatticeBatch => measure(&lattice::LatticeBatch::new(opts.scale), opts),
    }
}

fn measure<B: Bench>(bench: &B, opts: &Options) -> Outcome {
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut slowdowns = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut raw_wall_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layer_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<Sim> = None;
    let mut problems = Vec::new();
    while first.is_none() || start.elapsed() < budget {
        let slowdown = probe() / PROBE_REFERENCE_S;
        let scale = slowdown.powi(PROBE_EXPONENT);
        let (mut input, setup) = time_setups(bench, opts.seed);
        let t = Instant::now();
        let sim = bench.run(&mut input);
        let pass = t.elapsed().as_secs_f64();
        drop(input);
        slowdowns.push(slowdown);
        raw_setup_s.push(setup);
        raw_wall_s.push(pass);
        setup_s.push(setup / scale);
        wall_s.push(pass / scale);
        let failed_checks = !sim.problems.is_empty();
        let reference = first.get_or_insert_with(|| sim.clone());
        if sim != *reference {
            problems.push(format!("pass {} differs from pass 1", wall_s.len()));
        }
        if failed_checks {
            break;
        }
        if opts.trace {
            let scale = (probe() / PROBE_REFERENCE_S).powi(PROBE_EXPONENT);
            let (mut input, gen_s) = bench.setup(opts.seed);
            let mut layers = vec![Metric::new("workloads.generate_s", "s", gen_s)];
            let t = Instant::now();
            let traced = bench.run_traced(&mut input, &mut layers);
            traced_s.push(t.elapsed().as_secs_f64() / scale);
            if traced != *reference {
                problems.push(format!(
                    "traced pass {} differs from untraced",
                    traced_s.len()
                ));
            }
            let mut pass_layers: BTreeMap<&'static str, f64> = BTreeMap::new();
            for m in layers {
                let value = if is_host_time(m.unit) {
                    m.value / scale
                } else {
                    m.value
                };
                *pass_layers.entry(m.name).or_default() += value;
            }
            for (name, value) in pass_layers {
                layer_samples.entry(name).or_default().push(value);
            }
        }
        if !problems.is_empty() {
            break;
        }
    }
    let sim = first.expect("at least one pass ran");
    problems.splice(0..0, sim.problems.iter().cloned());

    let wall = median(&wall_s);
    let failed_frac = sim.failed as f64 / sim.offered.max(1) as f64;
    let mut notes = vec![
        Metric::new("failed_frac", "fraction", failed_frac),
        Metric::new("raw_wall_s.min", "s", quantile(&raw_wall_s, 0.0)),
        Metric::new("raw_wall_s.median", "s", median(&raw_wall_s)),
        Metric::new("raw_wall_s.max", "s", quantile(&raw_wall_s, 1.0)),
        Metric::new("raw_setup_s.median", "s", median(&raw_setup_s)),
        Metric::new("passes", "count", wall_s.len() as f64),
        Metric::new(
            "ns_per_sim_tick",
            "ns",
            wall * 1e9 / sim.ticks.max(1) as f64,
        ),
    ];
    let metrics = if opts.trace {
        let traced = median(&traced_s);
        notes.push(Metric::new("traced_wall_s", "s", traced));
        notes.push(Metric::new("trace_overhead_s", "s", traced - wall));
        notes.push(Metric::new(
            "trace_overhead_frac",
            "fraction",
            traced / wall - 1.0,
        ));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layer_samples.get(name).map_or(0.0, |v| median(v));
                Metric::new(name, unit, value)
            })
            .collect()
    } else {
        let values = [
            wall,
            median(&setup_s),
            sim.ticks as f64 / wall,
            sim.delivered as f64 / wall,
            peak_rss_mb(),
            sim.ticks as f64,
            sim.latency_mean,
            sim.latency_p99 as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, unit, value))
            .collect()
    };
    Outcome {
        options: *opts,
        correct: problems.is_empty(),
        problems,
        attempted: sim.offered,
        failed: sim.failed,
        metrics,
        notes,
        passes: wall_s.len(),
        host_slowdown: median(&slowdowns),
    }
}

impl Outcome {
    /// The run's output: the method, the checks, every metric by name
    /// and unit, and last the one-line JSON result.
    pub fn render(&self) -> String {
        let o = &self.options;
        let mut out = String::new();
        let _ = writeln!(out, "method {}", method_json(o, self.host_slowdown));
        if self.problems.is_empty() {
            let _ = writeln!(
                out,
                "check {}: ok ({} passes)",
                o.workload.name(),
                self.passes
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "check {}: FAILED {p}", o.workload.name());
        }
        for m in self.metrics.iter().chain(&self.notes) {
            let _ = writeln!(out, "metric {} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// The method every output records: host, build, revision, inputs, and
/// the host's measured slowdown.
fn method_json(o: &Options, host_slowdown: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let profile = format!("{} (lto=thin, codegen-units=1)", env!("PERFBENCH_PROFILE"));
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": \"{:?}\", \"nproc\": {nproc}, \"profile\": {}, \"rustc\": {}, \"git\": {}, \"host_slowdown\": {host_slowdown:.3}, \"contended\": {}}}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.scale,
        rmb_types::json::escape(&profile),
        rmb_types::json::escape(env!("PERFBENCH_RUSTC")),
        rmb_types::json::escape(&git_revision()),
        host_slowdown > CONTENDED_SLOWDOWN,
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// platform does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times a fixed branchy integer loop, to gauge how fast the host runs
/// right now. It uses none of the crates under test, so a change to them
/// cannot move it. Like the simulator, it keeps the core's ALUs and branch
/// predictor busy, which is what other tenants on the same cores slow.
fn probe() -> f64 {
    let t = Instant::now();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0_u64);
    for i in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(x ^ i);
        } else if x & 4 == 0 {
            acc = acc.rotate_left(3);
        } else {
            acc ^= i;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Runs set-ups back to back until they cover [`SETUP_SAMPLE_S`] and
/// number at least [`MIN_SETUPS_PER_PASS`]. Returns the last set-up's
/// input and the mean seconds per set-up, each dropping the one before.
fn time_setups<B: Bench>(bench: &B, seed: u64) -> (B::Input, f64) {
    let t = Instant::now();
    let mut input = bench.setup(seed).0;
    let mut count = 1;
    while count < MIN_SETUPS_PER_PASS || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        input = bench.setup(seed).0;
        count += 1;
    }
    (input, t.elapsed().as_secs_f64() / count as f64)
}

/// `true` for the units of host time, which the probe scales.
fn is_host_time(unit: &str) -> bool {
    matches!(unit, "s" | "ns")
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, interpolating linearly between order
/// statistics; 0 for an empty slice.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (pos - lo as f64) * (s[hi] - s[lo])
}

/// Exact mean and 99th percentile (nearest rank) of `latencies`.
fn latency_stats(latencies: &[u64]) -> (f64, u64) {
    let s = rmb_types::LatencySummary::exact_from(latencies);
    (s.mean, s.p99.unwrap_or(0))
}
