//! `lattice-batch`: a closed batch of uniform traffic through a 2-D
//! lattice of rings (`RmbLattice::route_messages`).

use crate::{latency_stats, Bench, EngineReport, Metric, Scale, Sim};
use rmb_analysis::RmbLattice;
use rmb_baselines::{Network, RoutingOutcome};
use rmb_types::{MessageSpec, RmbConfig};
use rmb_workloads::{SizeDistribution, WorkloadConfig, WorkloadSuite};
use std::time::Instant;

/// Tick budget of one batch; far above the makespan.
const MAX_TICKS: u64 = 10_000_000;

pub(crate) struct LatticeBatch {
    side: u32,
    /// Ticks over which messages are injected.
    window: u64,
    /// Messages offered on average over the window.
    messages: f64,
}

pub(crate) struct Input {
    lattice: RmbLattice,
    msgs: Vec<MessageSpec>,
}

impl LatticeBatch {
    pub(crate) fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => LatticeBatch {
                side: 16,
                window: 64_000,
                messages: 16_000.0,
            },
            Scale::Small => LatticeBatch {
                side: 4,
                window: 4_000,
                messages: 200.0,
            },
        }
    }

    fn outcome(&self, out: RoutingOutcome, msgs: &[MessageSpec]) -> Sim {
        let mut problems = Vec::new();
        if out.stalled || out.delivered.len() != msgs.len() {
            problems.push(format!(
                "delivered {} of {} messages (stalled: {})",
                out.delivered.len(),
                msgs.len(),
                out.stalled
            ));
        }
        let latencies: Vec<u64> = out.delivered.iter().map(|d| d.latency()).collect();
        let (latency_mean, latency_p99) = latency_stats(&latencies);
        let delivered = out
            .delivered
            .iter()
            .map(|d| (d.request.get(), d.delivered_at))
            .collect();
        Sim {
            ticks: out.ticks,
            offered: msgs.len() as u64,
            delivered: out.delivered.len() as u64,
            failed: (msgs.len() - out.delivered.len().min(msgs.len())) as u64,
            latency_mean,
            latency_p99,
            problems,
            report: EngineReport::Lattice(out.ticks, delivered),
        }
    }
}

impl Bench for LatticeBatch {
    type Input = Input;

    fn setup(&self, seed: u64) -> (Input, f64) {
        let side = self.side;
        let ring = RmbConfig::builder(side, 4)
            .head_timeout(256)
            .retry_backoff(16)
            .build()
            .expect("valid lattice ring");
        let t = Instant::now();
        let nodes = side * side;
        let rate = self.messages / (f64::from(nodes) * self.window as f64);
        let suite = WorkloadSuite::new(
            WorkloadConfig::new(nodes, seed).with_sizes(SizeDistribution::Fixed(8)),
        );
        let msgs = suite.bernoulli(rate, self.window);
        let generate_s = t.elapsed().as_secs_f64();
        let lattice = RmbLattice::new(vec![side, side], ring);
        (Input { lattice, msgs }, generate_s)
    }

    fn run(&self, input: &mut Input) -> Sim {
        let out = input.lattice.route_messages(&input.msgs, MAX_TICKS);
        self.outcome(out, &input.msgs)
    }

    fn run_traced(&self, input: &mut Input, layers: &mut Vec<Metric>) -> Sim {
        let t = Instant::now();
        let out = input.lattice.route_messages(&input.msgs, MAX_TICKS);
        let route_ns = t.elapsed().as_nanos() as f64;
        let refusals: u64 = out.delivered.iter().map(|d| u64::from(d.refusals)).sum();
        layers.extend([
            Metric::new(
                "lattice.route_ns_per_tick",
                "ns",
                route_ns / out.ticks.max(1) as f64,
            ),
            Metric::new("lattice.final_leg_refusals", "count", refusals as f64),
        ]);
        self.outcome(out, &input.msgs)
    }
}
