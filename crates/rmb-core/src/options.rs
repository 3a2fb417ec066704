//! Simulation options and the network builder.
//!
//! The simulator is configured through a typed builder consumed at
//! construction; options are immutable once the network is running (the
//! pre-0.2.0 post-construction setters are gone):
//!
//! ```
//! use rmb_core::RmbNetwork;
//! use rmb_types::RmbConfig;
//!
//! let cfg = RmbConfig::new(8, 2)?;
//! let net = RmbNetwork::builder(cfg).checked(true).recording(true).build();
//! assert!(net.is_quiescent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`SimOptions`] is the one internal options struct everything delegates
//! to: the builder fills it and the network reads it.

use crate::network::{CompactionMode, RmbNetwork};
use rmb_types::{FaultPlan, RmbConfig};

/// Which per-tick execution engine drives the network (test builds only:
/// the `oracle` feature).
///
/// Both engines implement the same protocol and produce byte-identical
/// results — same delivered log, same traces, same [`RunReport`] — so
/// [`DenseSweep`](SchedulerMode::DenseSweep) serves as the cross-check
/// oracle for the event-driven engine, the one production path (see the
/// scheduler equivalence suite).
///
/// [`RunReport`]: crate::RunReport
#[cfg(feature = "oracle")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Event-driven active set: per-tick cost scales with the circuits
    /// that actually have due work (flit/ack motion, compaction moves,
    /// due injections or faults), not with N×k. The default.
    #[default]
    EventDriven,
    /// The classic dense sweep: every tick scans all N INCs and every
    /// live bus. Kept as the reference oracle and for perf comparison.
    DenseSweep,
}

/// How long the per-message delivered/aborted logs are retained.
///
/// Closed-loop experiments read every record after the run, so they keep
/// [`Full`](LogRetention::Full) logs (the default, and the pre-0.3
/// behaviour). Open-loop serving runs for millions-to-billions of ticks
/// and must hold memory flat: a polling driver keeps a bounded
/// [`Window`](LogRetention::Window), and a pure counter soak keeps
/// [`CountersOnly`](LogRetention::CountersOnly).
///
/// Dropping a record never loses its *statistics* — every aggregate in
/// [`RunReport`] (delivered/aborted counts, latency sums, makespan) is
/// maintained at recording time — and it never loses it *silently*:
/// cursors passed to [`RmbNetwork::delivered_since`] /
/// [`RmbNetwork::aborted_since`] are absolute sequence numbers, and a
/// cursor pointing below the retention window panics instead of
/// returning a truncated slice.
///
/// [`RunReport`]: crate::RunReport
/// [`RmbNetwork::delivered_since`]: crate::RmbNetwork::delivered_since
/// [`RmbNetwork::aborted_since`]: crate::RmbNetwork::aborted_since
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogRetention {
    /// Keep every record for the lifetime of the network. The default.
    #[default]
    Full,
    /// Keep at least the most recent `n` records per log (the
    /// implementation trims in batches, so up to `2n` may be resident).
    /// Pollers that drain at least every `n` records see everything.
    Window(usize),
    /// Keep no records at all; only the aggregate counters advance.
    /// `delivered_log()` / `aborted_log()` stay empty and any
    /// `*_since` cursor below the current total panics. With no records
    /// to read percentiles off, the ring keeps an online CKMS latency
    /// sketch instead, readable through
    /// [`RmbNetwork::latency_quantile`](crate::RmbNetwork::latency_quantile).
    CountersOnly,
}

/// Runtime options of a simulation, distinct from the physical
/// configuration in [`RmbConfig`]: everything here changes how the run is
/// *driven* (compaction engine, fault schedule, instrumentation), not what
/// the machine *is*.
///
/// Set through [`RmbNetwork::builder`], the one way to configure a ring,
/// and read back through [`RmbNetwork::options`]. The struct is
/// `#[non_exhaustive]`, so options can grow without breaking downstream
/// code.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimOptions {
    /// Which compaction engine drives the odd/even cycles.
    pub compaction_mode: CompactionMode,
    /// Skip ahead over stretches of ticks with no due work (synchronous
    /// mode only). On by default; off is a test-only oracle.
    #[cfg(feature = "oracle")]
    pub fast_forward: bool,
    /// Panic on the first invariant violation after every tick (for tests
    /// and small fidelity runs).
    pub checked: bool,
    /// Record protocol trace events from the first tick.
    pub recording: bool,
    /// Deterministic schedule of segment / link / INC failures. Empty by
    /// default (the happy path).
    pub fault_plan: FaultPlan,
    /// Seed of the stream that jitters fault-retry backoff. Only drawn
    /// when a circuit is actually fault-killed, so fault-free runs are
    /// unaffected by it.
    pub fault_seed: u64,
    /// Abort a request after this many refusals (`None` = retry forever,
    /// the classic protocol behaviour).
    pub max_retries: Option<u32>,
    /// Which per-tick execution engine to use. Event-driven by default;
    /// the dense sweep is the equivalence oracle.
    #[cfg(feature = "oracle")]
    pub scheduler: SchedulerMode,
    /// How long the delivered/aborted logs are retained. Full by
    /// default; windowed or counters-only for bounded-memory serving.
    pub log_retention: LogRetention,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            compaction_mode: CompactionMode::Synchronous,
            #[cfg(feature = "oracle")]
            fast_forward: true,
            checked: false,
            recording: false,
            fault_plan: FaultPlan::new(),
            fault_seed: 0,
            max_retries: None,
            #[cfg(feature = "oracle")]
            scheduler: SchedulerMode::EventDriven,
            log_retention: LogRetention::Full,
        }
    }
}

/// Builds an [`RmbNetwork`] from a configuration plus [`SimOptions`].
///
/// Obtained from [`RmbNetwork::builder`]; every method takes and returns
/// `self` so options chain fluently.
#[derive(Debug, Clone)]
pub struct RmbNetworkBuilder {
    cfg: RmbConfig,
    opts: SimOptions,
}

impl RmbNetworkBuilder {
    pub(crate) fn new(cfg: RmbConfig) -> Self {
        RmbNetworkBuilder {
            cfg,
            opts: SimOptions::default(),
        }
    }

    /// Selects the compaction engine (synchronous lockstep or per-INC
    /// handshake controllers).
    #[must_use]
    pub fn compaction_mode(mut self, mode: CompactionMode) -> Self {
        self.opts.compaction_mode = mode;
        self
    }

    /// Enables or disables the idle-tick fast-forward (on by default).
    #[cfg(feature = "oracle")]
    #[must_use]
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.opts.fast_forward = on;
        self
    }

    /// Enables per-tick invariant checking (panics on violation).
    #[must_use]
    pub fn checked(mut self, on: bool) -> Self {
        self.opts.checked = on;
        self
    }

    /// Starts recording protocol trace events from the first tick.
    #[must_use]
    pub fn recording(mut self, on: bool) -> Self {
        self.opts.recording = on;
        self
    }

    /// Installs a deterministic fault schedule.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.opts.fault_plan = plan;
        self
    }

    /// Seeds the fault-retry jitter stream.
    #[must_use]
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.opts.fault_seed = seed;
        self
    }

    /// Bounds retries: a request refused more than `limit` times is
    /// aborted (and counted in [`RunReport::aborted`]).
    ///
    /// [`RunReport::aborted`]: crate::RunReport::aborted
    #[must_use]
    pub fn max_retries(mut self, limit: u32) -> Self {
        self.opts.max_retries = Some(limit);
        self
    }

    /// Selects the per-tick execution engine (event-driven active set or
    /// the dense-sweep oracle).
    #[cfg(feature = "oracle")]
    #[must_use]
    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.opts.scheduler = mode;
        self
    }

    /// Selects how long the delivered/aborted logs are retained (full,
    /// windowed, or counters-only). See [`LogRetention`].
    #[must_use]
    pub fn log_retention(mut self, policy: LogRetention) -> Self {
        self.opts.log_retention = policy;
        self
    }

    /// Constructs the network.
    ///
    /// # Panics
    ///
    /// Panics if a handshake mode's `periods` length differs from `N` or
    /// contains a zero, or if the fault plan names nodes or buses outside
    /// the ring (see [`FaultPlan::validate`]).
    #[must_use]
    pub fn build(self) -> RmbNetwork {
        RmbNetwork::with_options(self.cfg, self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::{BusIndex, NodeId};

    #[test]
    fn defaults_match_the_classic_network() {
        let opts = SimOptions::default();
        assert_eq!(opts.compaction_mode, CompactionMode::Synchronous);
        assert!(opts.fast_forward);
        assert!(!opts.checked);
        assert!(!opts.recording);
        assert!(opts.fault_plan.is_empty());
        assert_eq!(opts.max_retries, None);
        assert_eq!(opts.scheduler, SchedulerMode::EventDriven);
        assert_eq!(opts.log_retention, LogRetention::Full);
    }

    #[test]
    fn builder_chains_into_options() {
        let cfg = RmbConfig::new(8, 2).unwrap();
        let plan = FaultPlan::new().segment_stuck(5, NodeId::new(1), BusIndex::new(0), None);
        let net = RmbNetworkBuilder::new(cfg)
            .fast_forward(false)
            .checked(true)
            .recording(true)
            .fault_plan(plan.clone())
            .fault_seed(7)
            .max_retries(3)
            .scheduler(SchedulerMode::DenseSweep)
            .log_retention(LogRetention::Window(64))
            .build();
        let o = net.options();
        assert_eq!(o.scheduler, SchedulerMode::DenseSweep);
        assert_eq!(o.log_retention, LogRetention::Window(64));
        assert!(!o.fast_forward);
        assert!(o.checked);
        assert!(o.recording);
        assert_eq!(o.fault_plan, plan);
        assert_eq!(o.fault_seed, 7);
        assert_eq!(o.max_retries, Some(3));
        assert!(net.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "one activation period per INC")]
    fn build_rejects_wrong_period_count() {
        let cfg = RmbConfig::new(8, 2).unwrap();
        let _ = RmbNetworkBuilder::new(cfg)
            .compaction_mode(CompactionMode::Handshake {
                periods: vec![1; 3],
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "periods must be positive")]
    fn build_rejects_zero_periods() {
        let cfg = RmbConfig::new(4, 2).unwrap();
        let _ = RmbNetworkBuilder::new(cfg)
            .compaction_mode(CompactionMode::Handshake {
                periods: vec![1, 0, 1, 1],
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn build_rejects_out_of_range_fault_plan() {
        let cfg = RmbConfig::new(4, 2).unwrap();
        let plan = FaultPlan::new().inc_dead(0, NodeId::new(9), None);
        let _ = RmbNetworkBuilder::new(cfg).fault_plan(plan).build();
    }
}
