//! Run reports and the delivered/aborted logs: retention, the absolute
//! log cursors, and the aggregates a report reads.

use super::RmbNetwork;
use crate::options::LogRetention;
use rmb_types::{AbortedMessage, DeliveredMessage};

/// Summary of a completed (or aborted) simulation run.
///
/// This is a set of counters and pre-aggregated statistics — building one
/// does not copy the delivered-message log. Per-message detail lives in
/// [`RmbNetwork::delivered_log`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Messages delivered in full.
    pub delivered: usize,
    /// Total `Nack` refusals issued.
    pub refusals: u64,
    /// Total compaction moves performed.
    pub compaction_moves: u64,
    /// Mean fraction of busy physical segments over the run.
    pub mean_utilization: f64,
    /// Peak number of simultaneously live virtual buses.
    pub peak_virtual_buses: usize,
    /// Requests submitted but not delivered when the run ended.
    pub undelivered: usize,
    /// `true` if the run ended because no progress was being made while
    /// work remained (a routing stall / deadlock).
    pub stalled: bool,
    /// Total requeue events: every time a refused or fault-killed request
    /// went back to its source queue for another attempt.
    pub retries: u64,
    /// Messages dropped after exhausting the retry budget (counted per
    /// destination, like `delivered`). A subset of `undelivered`.
    pub aborted: usize,
    /// Live circuits torn down because a fault struck a resource they
    /// occupied or depended on.
    pub fault_kills: u64,
    /// Tick of the last delivery (0 when nothing was delivered).
    makespan: u64,
    /// Sum of end-to-end latencies over all deliveries.
    latency_sum: u64,
    /// Sum of circuit set-up latencies over all deliveries.
    setup_sum: u64,
    /// Requests that were fault-killed at least once and later delivered.
    recovered: usize,
    /// Sum over recovered requests of (delivery tick - first kill tick).
    recovery_sum: u64,
    /// Worst time-to-recover over recovered requests.
    max_recovery: u64,
    /// `(p50, p99, p999, max)` latency estimates from the online sketch,
    /// present only under
    /// [`LogRetention::CountersOnly`](crate::LogRetention::CountersOnly).
    latency_quantiles: Option<(u64, u64, u64, u64)>,
}

impl RunReport {
    /// Tick of the last delivery, or 0 when nothing was delivered.
    pub const fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Mean end-to-end message latency.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.delivered as f64
    }

    /// Mean circuit set-up latency.
    pub fn mean_setup_latency(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.setup_sum as f64 / self.delivered as f64
    }

    /// Requests that were fault-killed at least once and later delivered.
    pub const fn recovered(&self) -> usize {
        self.recovered
    }

    /// Mean ticks from a request's first fault kill to its delivery, over
    /// the requests that recovered (0 when none did).
    pub fn mean_time_to_recover(&self) -> f64 {
        if self.recovered == 0 {
            return 0.0;
        }
        self.recovery_sum as f64 / self.recovered as f64
    }

    /// Worst ticks from first fault kill to delivery over recovered
    /// requests (0 when none recovered).
    pub const fn max_time_to_recover(&self) -> u64 {
        self.max_recovery
    }
}

impl rmb_types::StatsReport for RunReport {
    fn ticks(&self) -> u64 {
        self.ticks
    }

    fn delivered_count(&self) -> u64 {
        self.delivered as u64
    }

    fn aborted_count(&self) -> u64 {
        self.aborted as u64
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

    fn latency(&self) -> rmb_types::LatencySummary {
        let (p50, p99, p999, max) = match self.latency_quantiles {
            Some((a, b, c, d)) => (Some(a), Some(b), Some(c), Some(d)),
            None => (None, None, None, None),
        };
        rmb_types::LatencySummary {
            count: self.delivered as u64,
            mean: self.mean_latency(),
            p50,
            p99,
            p999,
            max,
        }
    }
}

impl RmbNetwork {
    /// Builds a report of everything observed so far.
    pub fn report(&self) -> RunReport {
        self.report_with(false)
    }

    /// The *retained* delivered messages, in completion order, without
    /// cloning. Under the default [`LogRetention::Full`] policy this is
    /// every delivery; under `Window`/`CountersOnly` it is the retained
    /// suffix (possibly empty). [`delivered_total`](Self::delivered_total)
    /// always counts every delivery regardless of retention.
    ///
    /// [`LogRetention::Full`]: crate::LogRetention::Full
    pub fn delivered_log(&self) -> &[DeliveredMessage] {
        &self.delivered
    }

    /// The *retained* aborted messages (retry budget exhausted, or
    /// refused at a fault-blocked source past the budget), in abort
    /// order; the failure-path mirror of
    /// [`delivered_log`](Self::delivered_log) under the same retention.
    ///
    /// One record is kept per request — a multicast abort still counts
    /// each covered destination in [`RunReport::aborted`], but appears
    /// here once under its final destination.
    pub fn aborted_log(&self) -> &[AbortedMessage] {
        &self.aborted_log
    }

    /// Total messages delivered over the lifetime of the network,
    /// independent of log retention. Also the cursor value that makes
    /// [`delivered_since`](Self::delivered_since) return only future
    /// deliveries.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_base + self.delivered.len() as u64
    }

    /// Total abort *records* over the lifetime of the network (one per
    /// aborted request), independent of log retention; the cursor
    /// counterpart of [`delivered_total`](Self::delivered_total) for
    /// [`aborted_since`](Self::aborted_since). Note that
    /// [`RunReport::aborted`] counts per covered destination and can be
    /// larger under multicast.
    pub fn aborted_records(&self) -> u64 {
        self.aborted_base + self.aborted_log.len() as u64
    }

    /// Delivery hook for compositions driving this ring externally (the
    /// `rmb-hier` bridges, the open-loop serving driver): the deliveries
    /// recorded since a cursor previously obtained from
    /// [`delivered_total`](Self::delivered_total). Cursors are absolute
    /// sequence numbers, so they stay valid across retention trims as
    /// long as the poller keeps up; cursors beyond the total yield an
    /// empty slice.
    ///
    /// # Panics
    ///
    /// Panics when the cursor points below the retention window — the
    /// poller fell behind and records it never saw have been dropped.
    /// Polling at least once per `n` deliveries under
    /// `LogRetention::Window(n)` guarantees this cannot happen; under
    /// `CountersOnly` any cursor below the current total panics.
    pub fn delivered_since(&self, cursor: usize) -> &[DeliveredMessage] {
        let base = self.delivered_base as usize;
        assert!(
            cursor >= base,
            "delivered_since cursor {cursor} points below the retention window \
             (first retained record is #{base}): records were dropped unread"
        );
        &self.delivered[(cursor - base).min(self.delivered.len())..]
    }

    /// Abort-side counterpart of [`delivered_since`](Self::delivered_since),
    /// with cursors from [`aborted_records`](Self::aborted_records).
    ///
    /// # Panics
    ///
    /// Panics when the cursor points below the retention window, like
    /// [`delivered_since`](Self::delivered_since).
    pub fn aborted_since(&self, cursor: usize) -> &[AbortedMessage] {
        let base = self.aborted_base as usize;
        assert!(
            cursor >= base,
            "aborted_since cursor {cursor} points below the retention window \
             (first retained record is #{base}): records were dropped unread"
        );
        &self.aborted_log[(cursor - base).min(self.aborted_log.len())..]
    }

    /// Histogram of end-to-end latencies of the *retained* delivered
    /// messages, with the given bin width (64 bins plus overflow). Under
    /// non-full retention prefer the online sketch
    /// ([`latency_quantile`](Self::latency_quantile)), which sees every
    /// delivery.
    pub fn latency_histogram(&self, bin_width: u64) -> rmb_sim::stats::Histogram {
        let mut h = rmb_sim::stats::Histogram::new(bin_width.max(1), 64);
        for d in &self.delivered {
            h.record(d.latency());
        }
        h
    }

    /// Online latency percentile from the delivery-time CKMS sketch, or
    /// `None` when nothing was delivered or the ring keeps records to read
    /// percentiles off: the sketch runs only under
    /// [`LogRetention::CountersOnly`].
    pub fn latency_quantile(&self, phi: f64) -> Option<u64> {
        self.latency_sketch.as_ref().and_then(|s| s.quantile(phi))
    }

    pub(super) fn report_with(&self, stalled: bool) -> RunReport {
        RunReport {
            ticks: self.now.get(),
            delivered: self.delivered_total() as usize,
            refusals: self.refusals,
            compaction_moves: self.compaction_moves,
            // Busy over all segment-ticks so far, both exact integers,
            // divided once (0 before the first tick).
            mean_utilization: self.busy_sum as f64
                / (u128::from(self.now.get()) * self.segments.len() as u128).max(1) as f64,
            peak_virtual_buses: self.peak_virtual_buses,
            undelivered: (self.submitted - self.delivered_total()) as usize,
            stalled,
            retries: self.retries,
            aborted: self.aborted,
            fault_kills: self.fault_kills,
            makespan: self.last_delivery_at,
            latency_sum: self.latency_sum,
            setup_sum: self.setup_sum,
            recovered: self.recovered,
            recovery_sum: self.recovery_sum,
            max_recovery: self.max_recovery,
            latency_quantiles: self.latency_sketch.as_ref().and_then(|s| {
                Some((
                    s.quantile(0.5)?,
                    s.quantile(0.99)?,
                    s.quantile(0.999)?,
                    s.max()?,
                ))
            }),
        }
    }

    /// Appends to the delivered log under the configured retention
    /// policy, maintaining the report aggregates (which see every
    /// delivery even when the record itself is not kept).
    pub(super) fn record_delivery(&mut self, d: DeliveredMessage) {
        self.latency_sum += d.latency();
        self.setup_sum += d.setup_latency();
        self.last_delivery_at = self.last_delivery_at.max(d.delivered_at);
        if let Some(sketch) = &mut self.latency_sketch {
            sketch.record(d.latency());
        }
        match self.opts.log_retention {
            LogRetention::CountersOnly => self.delivered_base += 1,
            LogRetention::Full => self.delivered.push(d),
            LogRetention::Window(w) => {
                self.delivered.push(d);
                Self::trim_window(&mut self.delivered, &mut self.delivered_base, w);
            }
        }
    }

    /// Appends to the aborted log under the configured retention policy
    /// (the caller maintains the `aborted` destination counter).
    pub(super) fn record_abort(&mut self, a: AbortedMessage) {
        match self.opts.log_retention {
            LogRetention::CountersOnly => self.aborted_base += 1,
            LogRetention::Full => self.aborted_log.push(a),
            LogRetention::Window(w) => {
                self.aborted_log.push(a);
                Self::trim_window(&mut self.aborted_log, &mut self.aborted_base, w);
            }
        }
    }

    /// Batch-trims a windowed log to its retention bound: amortised O(1)
    /// per record by letting the log grow to `2w` before draining back
    /// to `w`, so borrowed `*_since` slices stay cheap and memory stays
    /// bounded.
    fn trim_window<T>(log: &mut Vec<T>, base: &mut u64, w: usize) {
        let w = w.max(1);
        if log.len() > 2 * w {
            let drop = log.len() - w;
            log.drain(..drop);
            *base += drop as u64;
        }
    }
}
