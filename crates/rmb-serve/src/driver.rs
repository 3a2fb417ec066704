//! The open-loop serving driver: streaming arrivals, admission control,
//! and online measurement.
//!
//! Closed-loop experiments (everything in `rmb-bench` before this crate)
//! submit a finite batch and run to quiescence — the network's own
//! backpressure throttles the sources, so latency at saturation looks
//! deceptively flat. An *open-loop* driver instead draws arrivals from an
//! external clock that does not care how backed up the network is; when
//! the offered rate crosses the service capacity, queues (and latency
//! percentiles) explode. That hockey stick is the measurement this module
//! exists to produce.
//!
//! Arrivals ride an [`EventQueue`]: one pending arrival per source node,
//! rescheduled by an [`ArrivalStream`] gap each time it fires, so memory
//! is O(nodes) regardless of run length. Admission control bounds each
//! source's outstanding work — an arrival past the bound is **shed** and
//! counted, never silently dropped: `offered == admitted + shed` and
//! `admitted == delivered + aborted + in_flight` hold exactly at the end
//! of every run ([`ServeReport::loss_accounted`]).

use crate::target::ServeTarget;
use rmb_sim::stats::OnlineStats;
use rmb_sim::{EventQueue, QuantileSketch, SimRng, Tick};
use rmb_types::{LatencySummary, PerfStats, StatsReport};
use rmb_workloads::ArrivalStream;

/// Admission policy applied to each arrival before submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Bound each source's outstanding messages at `depth`. Needs
    /// per-completion polling (the driver decrements the source's count
    /// when its message finishes), so the target must retain completion
    /// records at least one poll interval — use full or windowed log
    /// retention.
    PerSource {
        /// Maximum outstanding messages per source.
        depth: u32,
    },
    /// Bound the *aggregate* in-flight count at `depth × node_count`,
    /// tracked through [`crate::target::TargetTotals`] alone. Works with
    /// counters-only retention (no per-completion records), which is what
    /// lets multi-million-tick soaks run in bounded memory.
    Aggregate {
        /// Maximum in-flight messages per node (aggregate bound is this
        /// times the node count).
        depth: u32,
    },
}

/// How the driver picks a destination for each admitted arrival.
///
/// Destination choice lives in the driver (not the arrival stream)
/// because it is drawn per *admitted* message from the driver's RNG; a
/// policy only changes which node is drawn, never how many RNG values the
/// uniform path consumes — [`Uniform`](DestinationPolicy::Uniform) runs
/// produce bit-identical reports with or without this type in the loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DestinationPolicy {
    /// Uniformly random other node (the classic load-sweep choice, and
    /// what [`serve`] always uses).
    Uniform,
    /// Hot-spot bias: with probability `fraction` the destination is
    /// `node` (unless the source *is* the hot node); otherwise a
    /// uniformly random other node.
    Hotspot {
        /// Serving index of the hot node.
        node: u32,
        /// Probability an arrival is redirected to the hot node
        /// (clamped to `[0, 1]` at draw time).
        fraction: f64,
    },
}

/// Shape of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-node per-tick target arrival rate (passed to the stream; kept
    /// here for the report).
    pub rate: f64,
    /// Ticks to run before statistics start accumulating.
    pub warmup: u64,
    /// Measured ticks after warmup.
    pub duration: u64,
    /// Data flits per message.
    pub flits: u32,
    /// Admission policy.
    pub admission: AdmissionMode,
    /// Driver RNG seed (destination choice and arrival gaps).
    pub seed: u64,
}

impl ServeConfig {
    /// A reasonable sweep-point configuration: per-source admission of
    /// depth 4, 2k warmup, 8-flit messages.
    pub fn sweep(rate: f64, duration: u64, seed: u64) -> Self {
        ServeConfig {
            rate,
            warmup: 2_000,
            duration,
            flits: 8,
            admission: AdmissionMode::PerSource { depth: 4 },
            seed,
        }
    }
}

/// Everything measured over one open-loop run. Implements
/// [`StatsReport`], so experiment emitters treat it exactly like a
/// closed-loop `RunReport`.
///
/// Equality ignores [`perf`](Self::perf): wall-clock measurement is host
/// metadata, and two runs of the same seed must compare equal regardless
/// of how fast the host happened to be.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Target topology label.
    pub label: String,
    /// Arrival-process label (`"poisson"`, `"bursty"`).
    pub arrivals: String,
    /// Per-node per-tick offered rate.
    pub rate: f64,
    /// Total ticks simulated (warmup + measured duration).
    pub ticks: u64,
    /// Warmup ticks excluded from latency/utilization statistics.
    pub warmup: u64,
    /// Arrivals generated by the clock.
    pub offered: u64,
    /// Arrivals refused admission (bounded queue full).
    pub shed: u64,
    /// Arrivals submitted to the target.
    pub admitted: u64,
    /// Messages delivered by the end of the run.
    pub delivered: u64,
    /// Messages aborted by the engine.
    pub aborted: u64,
    /// Messages still in flight when the run ended.
    pub in_flight: u64,
    /// Engine-side connection refusals (Nacks / bridge refusals).
    pub refusals: u64,
    /// Mean busy fraction of transport resources over the measured
    /// window.
    pub mean_utilization: f64,
    /// `true` if the engine detected a stall.
    pub stalled: bool,
    /// Latency digest over measured completions (driver sketch, or the
    /// engine's own sketch under counters-only retention).
    pub latency: LatencySummary,
    /// Wall-clock measurement of the run. Excluded from equality.
    pub perf: Option<PerfStats>,
}

impl PartialEq for ServeReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `perf`, which is measurement metadata.
        self.label == other.label
            && self.arrivals == other.arrivals
            && self.rate == other.rate
            && self.ticks == other.ticks
            && self.warmup == other.warmup
            && self.offered == other.offered
            && self.shed == other.shed
            && self.admitted == other.admitted
            && self.delivered == other.delivered
            && self.aborted == other.aborted
            && self.in_flight == other.in_flight
            && self.refusals == other.refusals
            && self.mean_utilization == other.mean_utilization
            && self.stalled == other.stalled
            && self.latency == other.latency
    }
}

impl ServeReport {
    /// `true` when every offered arrival is accounted for: shed, still in
    /// flight, delivered or aborted. A failed check means records were
    /// lost silently — treat as a bug.
    pub fn loss_accounted(&self) -> bool {
        self.offered == self.shed + self.admitted
            && self.admitted == self.delivered + self.aborted + self.in_flight
    }

    /// Fraction of offered arrivals shed (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// Delivered messages per tick over the measured window.
    pub fn throughput(&self) -> f64 {
        let window = self.ticks.saturating_sub(self.warmup);
        if window == 0 {
            return 0.0;
        }
        self.delivered as f64 / window as f64
    }
}

impl StatsReport for ServeReport {
    fn ticks(&self) -> u64 {
        self.ticks
    }

    fn delivered_count(&self) -> u64 {
        self.delivered
    }

    fn aborted_count(&self) -> u64 {
        self.aborted
    }

    fn shed_count(&self) -> u64 {
        self.shed
    }

    fn refusal_count(&self) -> u64 {
        self.refusals
    }

    fn mean_utilization(&self) -> Option<f64> {
        Some(self.mean_utilization)
    }

    fn is_stalled(&self) -> bool {
        self.stalled
    }

    fn perf(&self) -> Option<PerfStats> {
        self.perf
    }

    fn latency(&self) -> LatencySummary {
        self.latency
    }
}

/// Runs one open-loop serving experiment against `target`.
///
/// Every node gets an independent arrival clock driven by `arrivals`;
/// each firing either submits a message to a uniformly random other node
/// or, if the admission bound is hit, sheds it. Statistics accumulate
/// after `cfg.warmup` ticks. The run is deterministic in `cfg.seed` —
/// the same seed, stream and target configuration produce a bit-identical
/// [`ServeReport`].
///
/// # Examples
///
/// ```
/// use rmb_core::RmbNetwork;
/// use rmb_serve::{serve, FlatTarget, ServeConfig};
/// use rmb_types::RmbConfig;
/// use rmb_workloads::PoissonStream;
///
/// let net = RmbNetwork::new(RmbConfig::new(8, 2).unwrap());
/// let cfg = ServeConfig::sweep(0.002, 4_000, 7);
/// let report = serve(
///     &mut FlatTarget::new(net),
///     &mut PoissonStream::new(cfg.rate),
///     &cfg,
/// );
/// assert!(report.loss_accounted());
/// assert!(report.delivered > 0);
/// ```
pub fn serve(
    target: &mut dyn ServeTarget,
    arrivals: &mut dyn ArrivalStream,
    cfg: &ServeConfig,
) -> ServeReport {
    serve_with_policy(target, arrivals, cfg, DestinationPolicy::Uniform)
}

/// [`serve`] with an explicit [`DestinationPolicy`]. With
/// [`DestinationPolicy::Uniform`] this is exactly `serve` — same RNG
/// draw sequence, bit-identical report.
pub fn serve_with_policy(
    target: &mut dyn ServeTarget,
    arrivals: &mut dyn ArrivalStream,
    cfg: &ServeConfig,
    policy: DestinationPolicy,
) -> ServeReport {
    let start = std::time::Instant::now();
    let n = target.node_count();
    assert!(n >= 2, "need at least two serving nodes");
    let mut rng = SimRng::seed(cfg.seed);
    let mut clock: EventQueue<u32> = EventQueue::new();
    for node in 0..n {
        let gap = arrivals.next_gap(node, &mut rng);
        clock.schedule(Tick::new(gap.saturating_sub(1)), node);
    }

    let per_source = matches!(cfg.admission, AdmissionMode::PerSource { .. });
    let mut outstanding = vec![0u32; if per_source { n as usize } else { 0 }];
    let total_ticks = cfg.warmup + cfg.duration;
    let mut offered = 0u64;
    let mut shed = 0u64;
    let mut sketch = QuantileSketch::latency_defaults();
    let mut util = OnlineStats::default();
    let mut completions = Vec::new();

    for t in 0..total_ticks {
        debug_assert_eq!(target.now(), t);
        while let Some((_, node)) = clock.pop_due(Tick::new(t)) {
            offered += 1;
            let admit = match cfg.admission {
                AdmissionMode::PerSource { depth } => outstanding[node as usize] < depth,
                AdmissionMode::Aggregate { depth } => {
                    target.totals().in_flight() < u64::from(depth) * u64::from(n)
                }
            };
            if admit {
                let uniform_other = |rng: &mut SimRng| {
                    let r = rng.index((n - 1) as usize).expect("n >= 2") as u32;
                    if r >= node {
                        r + 1
                    } else {
                        r
                    }
                };
                let dest = match policy {
                    DestinationPolicy::Uniform => uniform_other(&mut rng),
                    DestinationPolicy::Hotspot {
                        node: hot,
                        fraction,
                    } => {
                        if node != hot && rng.chance(fraction.clamp(0.0, 1.0)) {
                            hot
                        } else {
                            uniform_other(&mut rng)
                        }
                    }
                };
                target.submit(node, dest, cfg.flits);
                if per_source {
                    outstanding[node as usize] += 1;
                }
            } else {
                shed += 1;
            }
            let gap = arrivals.next_gap(node, &mut rng);
            clock.schedule(Tick::new(t + gap), node);
        }

        target.tick();

        completions.clear();
        target.poll(&mut completions);
        for c in &completions {
            if per_source {
                outstanding[c.source as usize] -= 1;
            }
            if t >= cfg.warmup && !c.aborted {
                sketch.record(c.latency);
            }
        }
        if t >= cfg.warmup {
            util.record(target.utilization());
        }
        if target.is_stalled() {
            break;
        }
    }

    let totals = target.totals();
    let latency = if sketch.count() > 0 {
        LatencySummary {
            count: sketch.count(),
            mean: sketch.mean(),
            p50: sketch.quantile(0.5),
            p99: sketch.quantile(0.99),
            p999: sketch.quantile(0.999),
            max: sketch.max(),
        }
    } else {
        // Counters-only targets surface no completions to the driver;
        // fall back to the engine's own sketch when it keeps one.
        LatencySummary {
            count: totals.delivered,
            mean: 0.0,
            p50: target.latency_quantile(0.5),
            p99: target.latency_quantile(0.99),
            p999: target.latency_quantile(0.999),
            max: None,
        }
    };

    ServeReport {
        label: target.label(),
        arrivals: arrivals.label().to_string(),
        rate: cfg.rate,
        ticks: target.now(),
        warmup: cfg.warmup,
        offered,
        shed,
        admitted: offered - shed,
        delivered: totals.delivered,
        aborted: totals.aborted,
        in_flight: totals.in_flight(),
        refusals: target.refusals(),
        mean_utilization: util.mean(),
        stalled: target.is_stalled(),
        latency,
        perf: Some(PerfStats::measure(
            target.now(),
            start.elapsed(),
            target.threads(),
        )),
    }
}
