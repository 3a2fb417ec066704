//! `flat-serve`: open-loop Poisson serving over one flat ring, through
//! `rmb_serve::serve` and `FlatTarget`.

use crate::{Bench, EngineReport, Metric, Scale, Sim, Span};
use rmb_core::{LogRetention, RmbNetwork};
use rmb_serve::{
    serve, AdmissionMode, Completion, FlatTarget, ServeConfig, ServeReport, ServeTarget,
    TargetTotals,
};
use rmb_sim::SimRng;
use rmb_types::RmbConfig;
use rmb_workloads::{ArrivalStream, PoissonStream};
use std::time::Instant;

/// Ticks allowed after the measured window for in-flight messages to
/// finish; far above the tail latency at this load.
const DRAIN_BUDGET: u64 = 1_000_000;

/// Outstanding messages allowed per source. A benchmark workload must not
/// fail any operation: at the sweep default of 4, about one seed in ten
/// shed a message at 0.0006 msgs/node/tick.
const ADMISSION_DEPTH: u32 = 8;

pub(crate) struct FlatServe {
    nodes: u32,
    buses: u16,
    rate: f64,
    duration: u64,
}

impl FlatServe {
    pub(crate) fn new(scale: Scale) -> Self {
        let (nodes, duration) = match scale {
            Scale::Full => (64, 100_000),
            Scale::Small => (16, 20_000),
        };
        FlatServe {
            nodes,
            buses: 8,
            // At 0.0006 one seed in about 230 never drained: 222 messages
            // were still in flight 1M ticks after the window. At 0.0004
            // every seed tried (over 500) drains.
            rate: 0.0004,
            duration,
        }
    }

    fn config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            admission: AdmissionMode::PerSource {
                depth: ADMISSION_DEPTH,
            },
            ..ServeConfig::sweep(self.rate, self.duration, seed)
        }
    }

    /// Runs the serving loop and then drains what is still in flight.
    fn serve_and_drain<T: ServeTarget>(
        &self,
        target: &mut T,
        arrivals: &mut dyn ArrivalStream,
        seed: u64,
    ) -> (ServeReport, u64) {
        let cfg = self.config(seed);
        let report = serve(target, arrivals, &cfg);
        let deadline = target.now() + DRAIN_BUDGET;
        while target.totals().in_flight() > 0 && target.now() < deadline {
            target.tick();
        }
        (report, target.now())
    }

    fn outcome(&self, report: ServeReport, drained_at: u64, totals: TargetTotals) -> Sim {
        let mut problems = Vec::new();
        if !report.loss_accounted() {
            problems.push(format!(
                "serve report does not account for every message: {report:?}"
            ));
        }
        if report.stalled {
            problems.push("serving run stalled".to_owned());
        }
        if totals.in_flight() > 0 {
            problems.push(format!(
                "{} messages still in flight after the drain",
                totals.in_flight()
            ));
        }
        if report.latency.p99.is_none() {
            problems.push("no latency was measured".to_owned());
        }
        let (latency_mean, latency_p99) = (report.latency.mean, report.latency.p99.unwrap_or(0));
        Sim {
            ticks: drained_at,
            offered: report.offered,
            delivered: totals.delivered,
            failed: report.shed + totals.aborted + totals.in_flight(),
            latency_mean,
            latency_p99,
            problems,
            report: EngineReport::Serve(report, drained_at),
        }
    }
}

pub(crate) struct Input {
    target: FlatTarget,
    seed: u64,
}

impl Bench for FlatServe {
    type Input = Input;

    fn setup(&self, seed: u64) -> (Input, f64) {
        let n = self.nodes;
        let cfg = RmbConfig::builder(n, self.buses)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .expect("valid flat ring");
        let net = RmbNetwork::builder(cfg)
            .log_retention(LogRetention::Window(4 * n as usize))
            .build();
        // Arrivals are drawn online inside `serve`, in the timed pass;
        // nothing is generated up front.
        (
            Input {
                target: FlatTarget::new(net),
                seed,
            },
            0.0,
        )
    }

    fn run(&self, input: &mut Input) -> Sim {
        let mut arrivals = PoissonStream::new(self.rate);
        let (report, drained_at) =
            self.serve_and_drain(&mut input.target, &mut arrivals, input.seed);
        self.outcome(report, drained_at, input.target.totals())
    }

    fn run_traced(&self, input: &mut Input, layers: &mut Vec<Metric>) -> Sim {
        let Input { target, seed } = input;
        let mut traced = Traced::new(target);
        let mut arrivals = TimedStream {
            inner: PoissonStream::new(self.rate),
            draws: Span::default(),
        };
        let start = Instant::now();
        let (report, drained_at) = self.serve_and_drain(&mut traced, &mut arrivals, *seed);
        let wall_ns = start.elapsed().as_nanos() as f64;
        let draws = arrivals.draws;
        let Traced {
            submit,
            tick,
            poll,
            active_circuits,
            ..
        } = traced;
        let totals = target.totals();
        let core = target.network().report();
        let inside = (submit.ns + tick.ns + poll.ns + draws.ns) as f64;
        layers.extend([
            Metric::new("core.tick_ns", "ns", tick.ns_per_call()),
            Metric::new(
                "core.ns_per_active_circuit",
                "ns",
                tick.ns as f64 / active_circuits.max(1) as f64,
            ),
            Metric::new("core.refusals", "count", core.refusals as f64),
            Metric::new("core.retries", "count", core.retries as f64),
            Metric::new(
                "core.compaction_moves",
                "count",
                core.compaction_moves as f64,
            ),
            Metric::new(
                "core.peak_virtual_buses",
                "count",
                core.peak_virtual_buses as f64,
            ),
            Metric::new("core.mean_utilization", "fraction", core.mean_utilization),
            Metric::new(
                "serve.driver_self_ns_per_tick",
                "ns",
                (wall_ns - inside) / drained_at as f64,
            ),
            Metric::new("serve.submit_ns", "ns", submit.ns_per_call()),
            Metric::new("serve.poll_ns_per_tick", "ns", poll.ns_per_call()),
            Metric::new("serve.offered", "count", report.offered as f64),
            Metric::new("serve.admitted", "count", report.admitted as f64),
            Metric::new("serve.shed", "count", report.shed as f64),
            Metric::new("workloads.generate_s", "s", draws.ns as f64 * 1e-9),
        ]);
        self.outcome(report, drained_at, totals)
    }
}

/// A `ServeTarget` decorator that times `submit`, `tick` and `poll`, and
/// samples the ring's live circuits after every tick.
struct Traced<'a> {
    inner: &'a mut FlatTarget,
    submit: Span,
    tick: Span,
    poll: Span,
    active_circuits: u64,
}

impl<'a> Traced<'a> {
    fn new(inner: &'a mut FlatTarget) -> Self {
        Traced {
            inner,
            submit: Span::default(),
            tick: Span::default(),
            poll: Span::default(),
            active_circuits: 0,
        }
    }
}

impl ServeTarget for Traced<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn submit(&mut self, source: u32, dest: u32, flits: u32) {
        let t = Instant::now();
        self.inner.submit(source, dest, flits);
        self.submit.close(t);
    }

    fn tick(&mut self) {
        let t = Instant::now();
        self.inner.tick();
        self.tick.close(t);
        self.active_circuits += self.inner.network().active_virtual_buses() as u64;
    }

    fn poll(&mut self, out: &mut Vec<Completion>) {
        let t = Instant::now();
        self.inner.poll(out);
        self.poll.close(t);
    }

    fn utilization(&self) -> f64 {
        self.inner.utilization()
    }

    fn totals(&self) -> TargetTotals {
        self.inner.totals()
    }

    fn refusals(&self) -> u64 {
        self.inner.refusals()
    }

    fn latency_quantile(&self, phi: f64) -> Option<u64> {
        self.inner.latency_quantile(phi)
    }

    fn is_stalled(&self) -> bool {
        self.inner.is_stalled()
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }
}

/// An `ArrivalStream` decorator that times every draw of an arrival gap.
struct TimedStream<S> {
    inner: S,
    draws: Span,
}

impl<S: ArrivalStream> ArrivalStream for TimedStream<S> {
    fn next_gap(&mut self, node: u32, rng: &mut SimRng) -> u64 {
        let t = Instant::now();
        let gap = self.inner.next_gap(node, rng);
        self.draws.close(t);
        gap
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}
