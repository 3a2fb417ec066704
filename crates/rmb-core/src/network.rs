//! The RMB ring network simulator.
//!
//! Ties the pieces together: N nodes on a ring, k physical bus segments
//! per hop, the routing protocol of §2.2–2.3 (header flit insertion at the
//! top bus, extension one hop per tick, Hack/Dack/Fack/Nack, data flits
//! only after the Hack, tail-first teardown), and the compaction protocol
//! of §2.4–2.5 in two flavours:
//!
//! * **synchronous** — an idealised global odd/even alternation, one phase
//!   per tick (used by the large experiments), and
//! * **handshake** — every INC runs the paper's five-rule cycle controller
//!   off its own (possibly skewed) activation clock, exactly as §2.5
//!   prescribes (used by the fidelity and Lemma 1 experiments).
//!
//! One tick is the time a flit or acknowledgement needs to cross one bus
//! segment. Within a tick the simulator performs, in order: due faults
//! (`faults`), stream and teardown progression (`stream`), destination
//! decisions and head extensions (`establish`), injections (`inject`),
//! one compaction activation (`compact`), statistics.
//!
//! # Hot-path storage
//!
//! Live virtual buses sit in a slab ([`BusSlab`]): a slot vector with a
//! free list, an id→slot index, and a dense list of live ids kept in
//! ascending id order. Ids are allocated monotonically and buses die only
//! in the sweep phase, which compacts the id list in place, so iteration
//! order is identical to the `BTreeMap` this replaced while lookups,
//! insertions and removals are O(1) with no per-tick allocation. Lifecycle
//! state is a struct-of-arrays lane on the slab ([`BusState`] is `Copy`):
//! the stream/teardown kernel reads a circuit's state out of the lane and
//! writes it back only when it changes (a stream's sends and landings
//! follow from when its circuit came up, so its state changes only at
//! the delivery), touching the cold [`VirtualBus`] struct only on
//! transitions. Segment occupancy is one
//! flat array (`hop * k + bus`), mirrored into packed ring-wide lanes per
//! bus level (`occupancy::Occupancy`) kept in lockstep at every
//! transition, so [`segment_owner`](RmbNetwork::segment_owner) is an array
//! read, [`path_feasible`](RmbNetwork::path_feasible) ANDs the bus layers'
//! blocked bits 64 hops at a time, and compaction decides a level's moves
//! for 64 ring positions per word without asking which circuit owns a
//! hop.
//!
//! # Scheduling
//!
//! The *event-driven* engine keeps a list of the establishing buses and a
//! ready set plus an event queue for injection queues, and skips
//! compaction once the ring has settled, so a tick costs O(live circuits)
//! rather than O(N·k). The stream and teardown phase visits every live bus
//! and keeps no wake state, so no event has to wake a bus. Test builds
//! (the `oracle` feature) keep the classic *dense sweep*, which touches
//! every live bus and every INC each tick and decides compaction hop by
//! hop, as its cross-check oracle: the two share the stream phase and are
//! byte-identical by construction and by test (see
//! `tests/scheduler_equivalence.rs`). Without the feature the dense arms
//! compile out.

use crate::cycle::CycleRing;
use crate::invariants::{check_network, CheckState, InvariantViolation};
use crate::occupancy::Occupancy;
use crate::options::{LogRetention, RmbNetworkBuilder, SimOptions};
use crate::virtual_bus::{BusState, VirtualBus};
use rmb_sim::trace::{TraceEvent, TraceKind, VecSink};
use rmb_sim::{QuantileSketch, SimRng, Tick};
use rmb_types::{
    AbortedMessage, BusIndex, DeliveredMessage, FaultKind, MessageSpec, NodeId, ProtocolError,
    RequestId, RingSize, RmbConfig, VirtualBusId,
};
use std::collections::{HashMap, VecDeque};

mod compact;
mod establish;
mod faults;
mod inject;
mod logs;
mod lone;
mod sched;
mod slab;
mod stream;

pub use logs::RunReport;
pub use lone::{LoneLife, LoneMemo};
use sched::SchedState;
pub(crate) use slab::BusSlab;

/// Which compaction engine drives the odd/even cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionMode {
    /// Global lockstep: tick `t` runs the `Phase::of_tick(t)` cycle at
    /// every INC simultaneously.
    Synchronous,
    /// Per-INC five-rule cycle controllers (§2.5). INC `i` is activated on
    /// ticks where `tick % periods[i] == 0`, modelling independent clocks.
    Handshake {
        /// Activation period per INC (1 = every tick).
        periods: Vec<u64>,
    },
}

/// A request waiting at its source node for injection.
#[derive(Debug, Clone)]
struct PendingRequest {
    request: RequestId,
    spec: MessageSpec,
    taps: Vec<NodeId>,
    requested_at: u64,
    refusals: u32,
    not_before: u64,
}

/// Per-node state: the PE-side send/receive slots and the HF buffer.
#[derive(Debug, Clone, Default)]
struct NodeState {
    pending: VecDeque<PendingRequest>,
    sends_active: u32,
    receives_active: u32,
}

/// The RMB network simulator.
///
/// # Examples
///
/// ```
/// use rmb_core::RmbNetwork;
/// use rmb_types::{MessageSpec, NodeId, RmbConfig};
///
/// let cfg = RmbConfig::new(8, 2)?;
/// let mut net = RmbNetwork::new(cfg);
/// net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(4), 8))?;
/// let report = net.run_to_quiescence(10_000);
/// assert_eq!(report.delivered, 1);
/// assert!(!report.stalled);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RmbNetwork {
    cfg: RmbConfig,
    now: Tick,
    /// Flat segment-occupancy table: the segment between node `hop` and
    /// node `hop + 1` at height `bus` is `segments[hop * k + bus]`.
    segments: Vec<Option<VirtualBusId>>,
    /// Packed occupancy, fault and compaction lanes, kept in lockstep with
    /// `segments`, `fault_count` and the live buses (invariants #6 and
    /// #7). Answers the hot availability and path-feasibility queries and
    /// decides compaction.
    occ: Occupancy,
    buses: BusSlab,
    nodes: Vec<NodeState>,
    /// Runtime options (compaction engine, fault schedule, tracing,
    /// checking), fixed at build time by [`RmbNetworkBuilder`].
    opts: SimOptions,
    cycles: Option<CycleRing>,
    next_request: u64,
    next_bus: u64,
    busy_segments: usize,
    /// Total requests sitting in node queues (cached so quiescence checks
    /// don't scan all N nodes).
    pending_total: usize,
    /// Event-driven scheduler state (unused by the dense sweep).
    sched: SchedState,
    // Fault machinery.
    /// The plan flattened to `(tick, is_repair, kind)`, sorted by tick.
    fault_timeline: Vec<(u64, bool, FaultKind)>,
    /// Cursor into `fault_timeline`: first entry not yet applied.
    next_fault: usize,
    /// Active fault count per segment (flat `hop * k + bus`); a segment is
    /// faulty while any covering fault is active.
    fault_count: Vec<u8>,
    /// Active `IncDead` count per node.
    dead_inc: Vec<u8>,
    /// Jitter stream for fault-retry backoff; only drawn after a fault
    /// kill, so fault-free runs never touch it.
    fault_rng: SimRng,
    /// First fault-kill tick per request still awaiting recovery.
    first_kill: HashMap<u64, u64>,
    // Counters and stats.
    delivered: Vec<DeliveredMessage>,
    /// Terminal failures, in abort order (mirrors `delivered` for the
    /// failure path; read through [`RmbNetwork::aborted_log`]).
    aborted_log: Vec<AbortedMessage>,
    /// Records dropped from the front of `delivered` under windowed /
    /// counters-only retention: absolute sequence number of
    /// `delivered[0]`. Zero under full retention.
    delivered_base: u64,
    /// Abort-side counterpart of `delivered_base`.
    aborted_base: u64,
    /// Online latency percentiles, kept under counters-only retention:
    /// the one retention whose records cannot give them.
    latency_sketch: Option<QuantileSketch>,
    refusals: u64,
    compaction_moves: u64,
    retries: u64,
    aborted: usize,
    fault_kills: u64,
    recovered: usize,
    recovery_sum: u64,
    max_recovery: u64,
    /// Busy segments summed over every tick ended so far. The clock
    /// counts those ticks, so the mean utilisation is this sum over
    /// `now · N·k`, exact whether a tick was ticked, skipped or replayed.
    busy_sum: u128,
    peak_virtual_buses: usize,
    submitted: u64,
    last_progress: u64,
    latency_sum: u64,
    setup_sum: u64,
    last_delivery_at: u64,
    // Tracing.
    recorder: Option<VecSink>,
    /// Live-bus state the tick reaches through one pointer.
    aside: Box<Aside>,
}

/// State held behind one box rather than inline in [`RmbNetwork`]: an
/// inline field shifts the layout of the tick-hot fields around it. An
/// 8-byte lone-circuit pointer slowed `flat-serve`, which never replays a
/// lone circuit, by about 5 %.
#[derive(Debug)]
struct Aside {
    /// The lone circuit `run_window` records or defers (see the `lone`
    /// module).
    lone: Option<lone::Lone>,
    /// Checked mode only: the invariant checker's tables, and the heights
    /// at the last checked tick against which it checks downward-only
    /// motion.
    checks: CheckState,
}

impl RmbNetwork {
    /// Creates an idle network from a configuration with default options
    /// (synchronous compactor, fast-forward on, no faults).
    pub fn new(cfg: RmbConfig) -> Self {
        Self::with_options(cfg, SimOptions::default())
    }

    /// Starts a builder over this configuration; see
    /// [`RmbNetworkBuilder`].
    pub fn builder(cfg: RmbConfig) -> RmbNetworkBuilder {
        RmbNetworkBuilder::new(cfg)
    }

    /// Creates an idle network from a configuration plus explicit
    /// [`SimOptions`] (what [`RmbNetworkBuilder::build`] calls).
    ///
    /// # Panics
    ///
    /// Panics if a handshake mode's `periods` length differs from `N` or
    /// contains a zero, or if the fault plan names nodes or buses outside
    /// the ring.
    pub(crate) fn with_options(cfg: RmbConfig, opts: SimOptions) -> Self {
        if let Err(e) = opts.fault_plan.validate(cfg.nodes().get(), cfg.buses()) {
            panic!("invalid fault plan: {e}");
        }
        // Flatten the plan into one sorted timeline of activations and
        // repairs; the stable sort keeps same-tick events in plan order.
        let mut fault_timeline = Vec::with_capacity(opts.fault_plan.events().len() * 2);
        for event in opts.fault_plan.events() {
            fault_timeline.push((event.at, false, event.kind));
            if let Some(repair) = event.repair_at {
                fault_timeline.push((repair, true, event.kind));
            }
        }
        fault_timeline.sort_by_key(|&(at, _, _)| at);
        let n = cfg.nodes().as_usize();
        let k = cfg.buses() as usize;
        // Handshake compaction runs one cycle controller per INC (§2.5).
        let cycles = match &opts.compaction_mode {
            CompactionMode::Handshake { periods } => {
                assert_eq!(periods.len(), n, "one activation period per INC");
                assert!(periods.iter().all(|&p| p > 0), "periods must be positive");
                Some(CycleRing::new(n))
            }
            CompactionMode::Synchronous => None,
        };
        let fault_seed = opts.fault_seed;
        let recording = opts.recording;
        let sketch = (opts.log_retention == LogRetention::CountersOnly)
            .then(QuantileSketch::latency_defaults);
        RmbNetwork {
            cfg,
            now: Tick::ZERO,
            segments: vec![None; n * k],
            occ: Occupancy::new(n, k),
            buses: BusSlab::default(),
            nodes: vec![NodeState::default(); n],
            opts,
            cycles,
            next_request: 0,
            next_bus: 0,
            busy_segments: 0,
            pending_total: 0,
            sched: SchedState {
                ready_mask: vec![false; n],
                ..SchedState::default()
            },
            fault_timeline,
            next_fault: 0,
            fault_count: vec![0; n * k],
            dead_inc: vec![0; n],
            fault_rng: SimRng::seed(fault_seed),
            first_kill: HashMap::new(),
            delivered: Vec::new(),
            aborted_log: Vec::new(),
            delivered_base: 0,
            aborted_base: 0,
            latency_sketch: sketch,
            refusals: 0,
            compaction_moves: 0,
            retries: 0,
            aborted: 0,
            fault_kills: 0,
            recovered: 0,
            recovery_sum: 0,
            max_recovery: 0,
            busy_sum: 0,
            peak_virtual_buses: 0,
            submitted: 0,
            last_progress: 0,
            latency_sum: 0,
            setup_sum: 0,
            last_delivery_at: 0,
            recorder: recording.then(VecSink::new),
            aside: Box::new(Aside {
                lone: None,
                checks: CheckState::default(),
            }),
        }
    }

    /// The options this network runs under.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Takes the recorded events (and keeps recording into a fresh sink).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match self.recorder.take() {
            Some(sink) => {
                self.recorder = Some(VecSink::new());
                sink.into_events()
            }
            None => Vec::new(),
        }
    }

    /// The static configuration.
    pub const fn config(&self) -> &RmbConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub const fn now(&self) -> Tick {
        self.now
    }

    /// The ring size.
    pub fn ring(&self) -> RingSize {
        self.cfg.nodes()
    }

    /// Number of live virtual buses.
    pub fn active_virtual_buses(&self) -> usize {
        self.buses.len()
    }

    /// Iterates over the live virtual buses in id order.
    pub fn virtual_buses(&self) -> impl Iterator<Item = &VirtualBus> {
        self.buses.values()
    }

    /// Protocol state of a live virtual bus. Hot circuit state lives in a
    /// struct-of-arrays lane beside the bus records, so it is read here
    /// rather than off [`VirtualBus`] itself.
    pub fn bus_state(&self, id: VirtualBusId) -> Option<BusState> {
        self.buses.state(id)
    }

    /// Rebuilds the occupancy bitmaps from the authoritative owner /
    /// fault tables and reports the first out-of-lockstep bit
    /// (invariant #6).
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub(crate) fn verify_occupancy(&self) -> Result<(), String> {
        self.occ.verify(&self.segments, &self.fault_count)
    }

    /// Compares the link and immobile lanes with `expected`, rebuilt from
    /// the heights and states (invariant #7).
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub(crate) fn verify_lanes(&self, expected: &Occupancy) -> Result<(), String> {
        self.occ.verify_lanes(expected)
    }

    /// The last tick on which the ring made progress: a fault event, an
    /// injection, a header step, refusal or time-out, a flit streamed, a
    /// teardown step or a compaction move. Idle ticks are not progress.
    pub fn last_progress(&self) -> u64 {
        self.last_progress
    }

    /// Requests not yet injected (buffered HFs plus backoff waiters).
    pub fn pending_requests(&self) -> usize {
        debug_assert_eq!(
            self.pending_total,
            self.nodes.iter().map(|n| n.pending.len()).sum::<usize>()
        );
        self.pending_total
    }

    /// Count of currently busy physical segments.
    pub const fn busy_segments(&self) -> usize {
        self.busy_segments
    }

    /// Instantaneous utilisation: busy segments / (N·k).
    pub fn utilization(&self) -> f64 {
        let total = self.segments.len();
        self.busy_segments as f64 / total as f64
    }

    /// `true` while any active fault covers the segment between `hop` and
    /// `hop + 1` at height `bus`.
    pub fn is_segment_faulted(&self, hop: NodeId, bus: BusIndex) -> bool {
        let k = self.cfg.buses() as usize;
        hop.as_usize() < self.nodes.len()
            && bus.as_usize() < k
            && self.faulted(hop.as_usize(), bus.as_usize())
    }

    /// Number of segments currently covered by at least one active fault.
    pub fn faulted_segments(&self) -> usize {
        self.fault_count.iter().filter(|&&c| c > 0).count()
    }

    #[inline]
    fn seg(&self, hop: usize, bus: usize) -> Option<VirtualBusId> {
        self.segments[hop * self.cfg.buses() as usize + bus]
    }

    #[inline]
    fn faulted(&self, hop: usize, bus: usize) -> bool {
        self.fault_count[hop * self.cfg.buses() as usize + bus] > 0
    }

    /// The occupant of the segment between `hop` and `hop + 1` at height
    /// `bus`, if any.
    pub fn segment_owner(&self, hop: NodeId, bus: BusIndex) -> Option<VirtualBusId> {
        let k = self.cfg.buses() as usize;
        if hop.as_usize() >= self.nodes.len() || bus.as_usize() >= k {
            return None;
        }
        self.seg(hop.as_usize(), bus.as_usize())
    }

    /// `true` when every hop of the clockwise path `src → dst` has at
    /// least one free segment — Theorem 1's availability oracle: the AND
    /// of the `k` layers' blocked bitmaps over each 64-hop stretch of the
    /// path (see the feasibility oracle suite and invariant #6).
    pub fn path_feasible(&self, src: NodeId, dst: NodeId) -> bool {
        let span = self.ring().clockwise_distance(src, dst);
        self.occ.span_feasible(src.as_usize(), span as usize)
    }

    /// `true` when nothing is in flight and nothing is waiting.
    pub fn is_quiescent(&self) -> bool {
        self.buses.is_empty() && self.pending_total == 0
    }

    /// `true` when some circuit is live, some pending request is already
    /// due for injection (as opposed to scheduled for a future tick), or a
    /// scheduled fault event is due to apply.
    ///
    /// The event-driven engine answers from its ready set and event queue.
    pub fn has_due_work(&self) -> bool {
        if !self.buses.is_empty()
            || self
                .next_fault_tick()
                .is_some_and(|at| at <= self.now.get())
        {
            return true;
        }
        if self.event_driven() {
            !self.sched.ready.is_empty()
                || self
                    .sched
                    .waiting
                    .peek()
                    .is_some_and(|t| t.get() <= self.now.get())
        } else {
            self.nodes.iter().any(|n| {
                n.pending
                    .front()
                    .is_some_and(|p| p.not_before <= self.now.get())
            })
        }
    }

    /// The earliest tick at which a pending request or a scheduled fault
    /// event becomes due, if any. Only queue fronts matter: injection is
    /// head-of-line per node.
    fn next_due_tick(&self) -> Option<u64> {
        let pending = if self.event_driven() {
            // Only consulted when nothing is due now, so the ready set is
            // empty and every waiting front has a queue entry.
            debug_assert!(self.sched.ready.is_empty() || self.has_due_work());
            self.sched.waiting.peek().map(Tick::get)
        } else {
            self.nodes
                .iter()
                .filter_map(|n| n.pending.front().map(|p| p.not_before))
                .min()
        };
        match (pending, self.next_fault_tick()) {
            (Some(p), Some(f)) => Some(p.min(f)),
            (p, f) => p.or(f),
        }
    }

    /// Tick of the next unapplied fault-timeline entry, if any.
    fn next_fault_tick(&self) -> Option<u64> {
        self.fault_timeline
            .get(self.next_fault)
            .map(|&(at, _, _)| at)
    }

    /// Submits a message for delivery.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownNode`] if an endpoint is outside
    /// the ring and [`ProtocolError::SelfMessage`] if source equals
    /// destination.
    pub fn submit(&mut self, spec: MessageSpec) -> Result<RequestId, ProtocolError> {
        let ring = self.ring();
        if !ring.contains(spec.source) {
            return Err(ProtocolError::unknown_node(spec.source));
        }
        if !ring.contains(spec.destination) {
            return Err(ProtocolError::unknown_node(spec.destination));
        }
        if spec.source == spec.destination {
            return Err(ProtocolError::self_message(spec.source));
        }
        let request = RequestId::new(self.next_request);
        self.next_request += 1;
        self.submitted += 1;
        self.enqueue(PendingRequest {
            request,
            spec,
            taps: Vec::new(),
            requested_at: spec.inject_at,
            refusals: 0,
            not_before: spec.inject_at,
        });
        Ok(request)
    }

    /// Submits a multicast: one circuit from `source` that delivers the
    /// same `data_flits`-flit body to every node in `destinations`.
    ///
    /// This implements the extension the paper names but leaves out of
    /// scope (§1: "the RMB concept can also be extended to support
    /// broadcasting and multicasting"). The header flit arms a *tap* at
    /// each intermediate destination as it passes — taking that node's
    /// receive port — and the circuit runs to the farthest destination;
    /// every tap then receives the stream as it flows by. If any
    /// destination's receive port is busy, the whole circuit is refused
    /// with a `Nack` and retried later, keeping the paper's
    /// no-intermediate-buffering property.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownNode`] for endpoints outside the
    /// ring and [`ProtocolError::SelfMessage`] if `destinations` is empty,
    /// contains the source, or contains duplicates.
    pub fn submit_multicast(
        &mut self,
        source: NodeId,
        destinations: &[NodeId],
        data_flits: u32,
        inject_at: u64,
    ) -> Result<RequestId, ProtocolError> {
        let ring = self.ring();
        if !ring.contains(source) {
            return Err(ProtocolError::unknown_node(source));
        }
        if destinations.is_empty() {
            return Err(ProtocolError::self_message(source));
        }
        let mut sorted = destinations.to_vec();
        for d in &sorted {
            if !ring.contains(*d) {
                return Err(ProtocolError::unknown_node(*d));
            }
            if *d == source {
                return Err(ProtocolError::self_message(source));
            }
        }
        sorted.sort_by_key(|d| ring.clockwise_distance(source, *d));
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(ProtocolError::self_message(source));
        }
        let final_dest = *sorted.last().expect("non-empty");
        let taps = sorted[..sorted.len() - 1].to_vec();
        let request = RequestId::new(self.next_request);
        self.next_request += 1;
        self.submitted += sorted.len() as u64;
        self.enqueue(PendingRequest {
            request,
            spec: MessageSpec::new(source, final_dest, data_flits).at(inject_at),
            taps,
            requested_at: inject_at,
            refusals: 0,
            not_before: inject_at,
        });
        Ok(request)
    }

    /// Submits a batch of messages; returns their request ids.
    ///
    /// # Errors
    ///
    /// Fails on the first invalid specification, leaving earlier ones
    /// submitted.
    pub fn submit_all<I>(&mut self, specs: I) -> Result<Vec<RequestId>, ProtocolError>
    where
        I: IntoIterator<Item = MessageSpec>,
    {
        specs.into_iter().map(|s| self.submit(s)).collect()
    }

    /// Appends a request to its source's queue, arming the node when the
    /// request is the new queue front.
    fn enqueue(&mut self, p: PendingRequest) {
        let s = p.spec.source.as_usize();
        let was_empty = self.nodes[s].pending.is_empty();
        self.nodes[s].pending.push_back(p);
        self.pending_total += 1;
        if self.event_driven() && was_empty {
            self.arm_node(s);
        }
    }

    /// Advances the simulation by one tick.
    pub fn tick(&mut self) {
        self.apply_due_faults();
        self.progress_streams_and_teardowns();
        // The establishment phases only ever visit `Establishing` buses;
        // when the event engine's establishing list is empty they are
        // no-ops, so the calls (and their list-swap bookkeeping) can be
        // skipped outright. The dense sweep re-checks per bus instead.
        if !self.event_driven() || !self.sched.establishing.is_empty() {
            self.decide_at_destinations();
            self.extend_heads();
        }
        self.inject_pending();
        self.run_compaction();
        self.finish_tick();
    }

    /// Advances the simulation by `n` ticks.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Advances the simulation until its clock reaches `until` (a no-op if
    /// the clock is already there or past).
    ///
    /// This is the hook a composition of rings drives: each ring is handed
    /// one window at a time and advances itself to the window boundary
    /// independently of every other ring. Idle stretches inside the window
    /// are skipped exactly as [`run_to_quiescence`](Self::run_to_quiescence)
    /// skips them, under the same guard; otherwise the loop ticks like
    /// [`run`](Self::run). A windowed run of any partitioning reaches the
    /// same state as one tick-by-tick `run`, bit for bit, its
    /// [`report`](Self::report)'s mean utilisation included.
    ///
    /// Under the same guard, a circuit ticked into an otherwise empty ring
    /// runs a life fixed by its configuration, span, body and Fig. 8
    /// class, as long as nothing is queued, no fault is active or due
    /// before its teardown, it has no multicast taps, and the ring is
    /// neither checked nor recording a trace. The `memo` keeps the first
    /// such life per key, exactly as `tick()` produced it; a fresh memo
    /// replays nothing it did not record itself. When the memo already
    /// holds the key, the ring defers the circuit:
    /// [`next_wake`](Self::next_wake) names its delivery tick, and a later
    /// window jumps each of its two segments (injection to delivery,
    /// delivery to teardown) that ends inside the window, replaying the
    /// delivery and adding the segment's busy segment-ticks to the
    /// utilisation sum. A window that ends inside a segment ticks it
    /// instead, as does a ring submitted to or ticked outside
    /// `run_window` meanwhile. The clock always reaches `until`, and the
    /// state is always the true state at the clock.
    pub fn run_window(&mut self, until: u64, memo: &mut LoneMemo) {
        let can_fast_forward = self.can_fast_forward();
        self.replay_lone(until, memo);
        while self.now.get() < until {
            if can_fast_forward && !self.has_due_work() {
                let target = self.next_due_tick().map_or(until, |due| due.min(until));
                if target > self.now.get() {
                    self.skip_idle_to(target);
                    continue;
                }
            }
            let injected = self.next_bus;
            self.tick();
            if can_fast_forward
                && (self.next_bus != injected || self.lone_recording())
                && self.watch_lone(memo)
            {
                self.replay_lone(until, memo);
            }
        }
    }

    /// The next tick at which this ring does something a caller can
    /// observe: the current tick when
    /// [`has_due_work`](Self::has_due_work), else the next due injection
    /// or fault event, and `None` when nothing is scheduled. A deferred
    /// lone circuit (see [`run_window`](Self::run_window)) is observable
    /// only at its delivery. Every tick before the wake leaves the ring
    /// unchanged apart from its clock and a deferred circuit's life, so a
    /// caller may defer advancing the ring until then (or until it submits
    /// work) and catch it up with [`run_window`](Self::run_window).
    pub fn next_wake(&self) -> Option<u64> {
        if let Some(wake) = self.deferred_wake() {
            wake
        } else if self.has_due_work() {
            Some(self.now.get())
        } else {
            self.next_due_tick()
        }
    }

    /// Runs until quiescence, stall, or `max_ticks`, and reports.
    ///
    /// Under the synchronous compactor, stretches of ticks with no live
    /// circuit, no due injection and no pending fault event are skipped
    /// arithmetically instead of being simulated one by one; the
    /// event-driven scheduler finds the jump target in O(1) from its
    /// event queue.
    pub fn run_to_quiescence(&mut self, max_ticks: u64) -> RunReport {
        // A parked header only makes progress again after `head_timeout`
        // ticks (its refusal is the progress event), so the stall window
        // must comfortably exceed it.
        let stall_window = 4 * self.cfg.nodes().get() as u64
            + 8 * self.cfg.node.retry_backoff
            + 3 * self.cfg.head_timeout.unwrap_or(0)
            + self
                .buses
                .values()
                .map(|b| b.spec.data_flits as u64)
                .max()
                .unwrap_or(0)
            + 64;
        let can_fast_forward = self.can_fast_forward();
        let mut stalled = false;
        while self.now.get() < max_ticks {
            if self.is_quiescent() {
                break;
            }
            if can_fast_forward && !self.has_due_work() {
                let due = self.next_due_tick().expect("pending work exists");
                let target = due.min(max_ticks);
                let from = self.now.get();
                if target > from {
                    let skipped = target - from;
                    self.skip_idle_to(target);
                    // The naive loop updates `last_progress` after every
                    // idle tick except the one on which work comes due.
                    if skipped >= 2 {
                        self.last_progress = target - 1;
                    }
                    if self.now.get().saturating_sub(self.last_progress) > stall_window {
                        stalled = true;
                        break;
                    }
                    continue;
                }
            }
            self.tick();
            if !self.has_due_work() {
                // Only future-scheduled injections / backoffs remain; the
                // clock itself is the progress.
                self.last_progress = self.now.get();
            }
            if self.now.get().saturating_sub(self.last_progress) > stall_window {
                stalled = true;
                break;
            }
        }
        self.report_with(stalled)
    }

    /// Whether idle stretches may be skipped: the compactor is
    /// synchronous, so an idle tick changes nothing but the clock. Test
    /// builds may also switch the skip off.
    fn can_fast_forward(&self) -> bool {
        #[cfg(feature = "oracle")]
        if !self.opts.fast_forward {
            return false;
        }
        matches!(self.opts.compaction_mode, CompactionMode::Synchronous)
    }

    /// Whether the event-driven engine runs: always, unless a test build
    /// selected the dense-sweep oracle.
    #[inline(always)]
    fn event_driven(&self) -> bool {
        #[cfg(feature = "oracle")]
        if self.opts.scheduler == crate::SchedulerMode::DenseSweep {
            return false;
        }
        true
    }

    /// Event horizon: nothing is live (so every phase of a tick is a
    /// no-op) and nothing comes due before `target`. Jumps the clock
    /// there; the skipped ticks add no busy segment, so ticking would
    /// reach the same state one no-op tick at a time.
    fn skip_idle_to(&mut self, target: u64) {
        debug_assert_eq!(self.busy_segments, 0);
        self.now = Tick::new(target);
    }

    /// Validates the structural invariants the paper's correctness
    /// argument rests on (§2.4–2.5, Lemma 1, Theorem 1), checked directly
    /// against the simulator state:
    ///
    /// 1. **Consistency** — the segment occupancy array and the virtual
    ///    buses' height vectors describe the same configuration.
    /// 2. **Continuity** — every live virtual bus occupies one segment per
    ///    hop with adjacent heights differing by at most one (the INC
    ///    switching range), i.e. the circuit is electrically continuous.
    /// 3. **Head pinning** — while a header flit is parked short of its
    ///    destination, the hop feeding it stays within switching reach of
    ///    the top bus, on which the HF will be re-driven (INCs monitor only
    ///    the top segment for header flits).
    /// 4. **Legal port codes** — every output port's status register, as
    ///    the hops feeding it set it, is one of Table 1's allowed codes.
    ///    Once #1 and #2 hold, each port has one feeding hop within
    ///    switching range, so this check backs the other two up.
    /// 5. **Fault isolation** — no *live* circuit (establishing, awaiting
    ///    the Hack, or streaming data flits) occupies a faulted segment. A
    ///    faulted segment owned by no bus is legal (it simply sits out of
    ///    the availability pool), and so is one still owned by a circuit
    ///    that is tearing down — the Nack/Fack frees it tail-first over the
    ///    following ticks — but a data flit crossing a faulted segment is
    ///    not.
    /// 6. **Bitmap lockstep** — the packed occupancy bitmaps the hot path
    ///    queries (per-bus occupied and faulted bits) agree bit-for-bit
    ///    with the authoritative segment owner and fault tables.
    /// 7. **Lane lockstep** — the link and immobile lanes compaction decides
    ///    from agree bit-for-bit with lanes rebuilt from every live bus's
    ///    `heights` and state, and no decided move is left unapplied.
    ///
    /// One walk over the live buses checks #1–#5 bus by bus and rebuilds
    /// #7's lanes; a count of the occupied segments then finishes #1, #6
    /// reads the tables once, and #7 compares the lanes word by word. A further property, *downward-only motion* (§2.2: "The motion
    /// of virtual-buses for the purpose of compaction is only downwards"),
    /// needs history: checked mode's tick end runs the same walk against
    /// the heights of the tick before. The paper's "this feature provides
    /// an order on the virtual buses" remark is *not* a global no-crossing
    /// property: two circuits may legally hold crossing height profiles
    /// when one's trail sank behind a blocked header while the other
    /// extended along the top bus (both INC connections stay within the ±1
    /// switching range).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        check_network(self, &mut CheckState::default(), true)
    }

    fn finish_tick(&mut self) {
        self.busy_sum += self.busy_segments as u128;
        self.peak_virtual_buses = self.peak_virtual_buses.max(self.buses.len());
        self.now = self.now.next();
        if self.opts.checked {
            let mut checks = std::mem::take(&mut self.aside.checks);
            let verdict = check_network(self, &mut checks, true);
            self.aside.checks = checks;
            if let Err(v) = verdict {
                panic!("invariant violated at {}: {v}", self.now);
            }
        }
    }

    fn occupy(&mut self, hop: usize, bus: BusIndex, id: VirtualBusId) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        debug_assert_eq!(self.fault_count[idx], 0, "occupying a faulted segment");
        let slot = &mut self.segments[idx];
        debug_assert!(slot.is_none(), "segment double-booked");
        *slot = Some(id);
        self.busy_segments += 1;
        self.occ.occupy(hop, bus.as_usize());
    }

    fn release(&mut self, hop: usize, bus: BusIndex) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        let slot = &mut self.segments[idx];
        debug_assert!(slot.is_some(), "releasing a free segment");
        *slot = None;
        self.busy_segments -= 1;
        self.occ.release(hop, bus.as_usize());
    }

    fn trace(
        &mut self,
        kind: TraceKind,
        id: VirtualBusId,
        node: NodeId,
        height: Option<BusIndex>,
        detail: &str,
    ) {
        if let Some(rec) = &mut self.recorder {
            rec.record(TraceEvent {
                at: self.now,
                kind,
                id: Some(id.get()),
                node: Some(node.index()),
                bus: height.map(|b| b.index()),
                detail: detail.to_owned(),
            });
        }
    }

    /// Internal accessor for the invariant checker and renderers: the
    /// segment owner table and the active fault count per segment, both
    /// indexed `hop * k + bus`.
    pub(crate) fn segment_tables(&self) -> (&[Option<VirtualBusId>], &[u8]) {
        (&self.segments, &self.fault_count)
    }

    /// Internal accessor for the invariant checker and renderers.
    pub(crate) fn buses_raw(&self) -> &BusSlab {
        &self.buses
    }

    /// Transition counts of the handshake cycle controllers, if running in
    /// handshake mode (for Lemma 1 measurements).
    pub fn cycle_transitions(&self) -> Option<Vec<u64>> {
        self.cycles.as_ref().map(|ring| {
            (0..ring.len())
                .map(|i| ring.controller(i).transitions())
                .collect()
        })
    }

    /// Largest difference in completed cycle transitions between
    /// neighbouring INCs (Lemma 1 bound), if in handshake mode.
    pub fn max_cycle_skew(&self) -> Option<u64> {
        self.cycles.as_ref().map(|r| r.max_neighbour_skew())
    }
}

#[cfg(test)]
mod slab_tests {
    use super::*;
    use crate::virtual_bus::BusState;

    fn dummy_bus(id: u64) -> VirtualBus {
        VirtualBus {
            id: VirtualBusId::new(id),
            request: RequestId::new(id),
            spec: MessageSpec::new(NodeId::new(0), NodeId::new(1), 4),
            requested_at: 0,
            injected_at: 0,
            refusals: 0,
            heights: vec![BusIndex::new(0)],
            parked_since: 0,
            taps: Vec::new(),
            armed_taps: 0,
            fault_killed: false,
        }
    }

    #[test]
    fn insert_get_take_discard_cycle() {
        let mut slab = BusSlab::default();
        for id in 0..5 {
            slab.insert(dummy_bus(id), BusState::Establishing);
        }
        assert_eq!(
            slab.state(VirtualBusId::new(3)),
            Some(BusState::Establishing)
        );
        slab.set_state(VirtualBusId::new(3), BusState::TearingDown { freed: 0 });
        assert_eq!(
            slab.state(VirtualBusId::new(3)),
            Some(BusState::TearingDown { freed: 0 })
        );
        assert_eq!(slab.len(), 5);
        assert_eq!(slab.get(VirtualBusId::new(3)).unwrap().id.get(), 3);
        // Iteration is id-ascending.
        let order: Vec<u64> = slab.iter().map(|(id, _)| id.get()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        // Remove 1 and 3 the way the sweep does: walk the active list,
        // take and discard the dead, and compact the survivors in place.
        let mut kept = 0;
        for i in 0..slab.len() {
            let (id, slot) = slab.active_entry(i);
            if id.get() == 1 || id.get() == 3 {
                assert_eq!(slab.take(id).unwrap().id, id);
                slab.discard(id);
            } else {
                slab.set_active(kept, id, slot);
                kept += 1;
            }
        }
        slab.truncate_active(kept);
        assert_eq!(slab.len(), 3);
        assert!(slab.get(VirtualBusId::new(1)).is_none());
        let order: Vec<u64> = slab.iter().map(|(id, _)| id.get()).collect();
        assert_eq!(order, vec![0, 2, 4]);
        // New ids recycle freed slots but keep ascending order (and the
        // recycled slot's state lane is overwritten, not inherited).
        slab.insert(dummy_bus(5), BusState::Establishing);
        assert_eq!(
            slab.state(VirtualBusId::new(5)),
            Some(BusState::Establishing)
        );
        let order: Vec<u64> = slab.iter().map(|(id, _)| id.get()).collect();
        assert_eq!(order, vec![0, 2, 4, 5]);
    }
}

/// One test per structural invariant (#1–#7, see
/// [`RmbNetwork::check_invariants`]): each corrupts a live network the way
/// a faulty phase would and checks that the checker names that invariant.
/// Two more corrupt a checked network's heights and expect the tick end's
/// downward-only check to panic.
#[cfg(test)]
mod invariant_tests {
    use super::*;
    use crate::invariants::{check_network, CheckState};

    /// An 8-node, k=4 ring carrying one 64-flit circuit from node 0 to
    /// node 6, ticked `ticks` times; returns it with the circuit's slot.
    fn live(ticks: u64) -> (RmbNetwork, usize) {
        let mut net = RmbNetwork::new(RmbConfig::new(8, 4).unwrap());
        net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(6), 64))
            .unwrap();
        net.run(ticks);
        assert_eq!(net.check_invariants(), Ok(()));
        assert_eq!(net.buses.len(), 1);
        let (_, slot) = net.buses.active_entry(0);
        (net, slot)
    }

    /// Moves hop `j` of the bus in `slot` to `height` in its heights and
    /// in the owner table, leaving the lanes behind.
    fn relocate(net: &mut RmbNetwork, slot: usize, j: usize, height: u16) {
        let k = net.cfg.buses() as usize;
        let bus = net.buses.at_mut(slot);
        let hop = bus.hop_upstream_node(net.cfg.nodes(), j).as_usize();
        let old = std::mem::replace(&mut bus.heights[j], BusIndex::new(height));
        net.segments[hop * k + old.as_usize()] = None;
        net.segments[hop * k + usize::from(height)] = Some(bus.id);
    }

    fn violated(net: &RmbNetwork) -> &'static str {
        net.check_invariants()
            .expect_err("the corruption went unnoticed")
            .invariant
    }

    /// A checked 8-node, k=4 ring carrying one 64-flit circuit from node
    /// 0 to node 6, ticked `ticks` times; returns it with the circuit's
    /// slot.
    fn checked_live(ticks: u64) -> (RmbNetwork, usize) {
        let mut net = RmbNetwork::builder(RmbConfig::new(8, 4).unwrap())
            .checked(true)
            .build();
        net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(6), 64))
            .unwrap();
        net.run(ticks);
        let (_, slot) = net.buses.active_entry(0);
        (net, slot)
    }

    /// Re-records hop `j` of the bus in `slot` at `height` (or drops it,
    /// for `None`) everywhere the network keeps it: heights, owner table
    /// and lanes. Invariants #1–#7 keep holding as long as the new shape is
    /// continuous and its segments free.
    fn rewrite_hop(net: &mut RmbNetwork, slot: usize, j: usize, height: Option<u16>) {
        let k = net.cfg.buses() as usize;
        let bus = net.buses.at_mut(slot);
        let hop = bus.hop_upstream_node(net.cfg.nodes(), j).as_usize();
        let old = bus.heights[j];
        match height {
            Some(h) => bus.heights[j] = BusIndex::new(h),
            None => assert_eq!(bus.heights.pop(), Some(old), "only the head hop drops"),
        }
        let id = bus.id;
        net.segments[hop * k + old.as_usize()] = None;
        net.occ.release(hop, old.as_usize());
        if let Some(h) = height {
            net.segments[hop * k + usize::from(h)] = Some(id);
            net.occ.occupy(hop, usize::from(h));
        }
        net.link_hops(slot);
        assert_eq!(net.check_invariants(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "bus v0 hop 2 moved up: 0 -> 1")]
    fn downward_only_catches_a_hop_that_rises() {
        let (mut net, slot) = checked_live(40);
        assert!(net.buses.at(slot).heights.iter().all(|h| h.index() == 0));
        rewrite_hop(&mut net, slot, 2, Some(1));
        net.finish_tick();
    }

    #[test]
    #[should_panic(expected = "hops never detach from the front")]
    fn downward_only_catches_a_head_hop_that_detaches() {
        let (mut net, slot) = checked_live(3);
        assert_eq!(net.buses.state_at(slot), BusState::Establishing);
        let hops = net.buses.at(slot).heights.len();
        assert!(hops >= 2);
        rewrite_hop(&mut net, slot, hops - 1, None);
        net.finish_tick();
    }

    #[test]
    fn consistency_catches_an_owner_no_bus_claims() {
        let (mut net, slot) = live(4);
        // Hop 7 lies outside the circuit's path.
        net.segments[7 * 4] = Some(net.buses.at(slot).id);
        assert_eq!(violated(&net), "consistency");
    }

    #[test]
    fn continuity_catches_a_two_level_jump() {
        let (mut net, slot) = live(4);
        let heights = &net.buses.at(slot).heights;
        assert!(heights.len() >= 2);
        let to = if heights[0].index() < 2 { 3 } else { 0 };
        relocate(&mut net, slot, 1, to);
        assert_eq!(violated(&net), "continuity");
    }

    #[test]
    fn head_pinning_catches_a_header_hop_out_of_reach_of_the_top_bus() {
        let (mut net, slot) = live(2);
        assert_eq!(net.buses.state_at(slot), BusState::Establishing);
        // The whole circuit sinks to the bottom bus, which keeps it
        // continuous but leaves the parked header unreachable.
        for j in 0..net.buses.at(slot).heights.len() {
            relocate(&mut net, slot, j, 0);
        }
        assert_eq!(violated(&net), "head-pinning");
    }

    #[test]
    fn port_codes_catch_an_output_fed_from_above_and_below() {
        let mut net = RmbNetwork::new(RmbConfig::new(8, 4).unwrap());
        net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(2), 64))
            .unwrap();
        net.submit(MessageSpec::new(NodeId::new(7), NodeId::new(5), 64))
            .unwrap();
        net.run(2);
        assert_eq!(net.check_invariants(), Ok(()));
        assert_eq!(net.buses.len(), 2);
        // Both circuits leave node 1 on output 1: the one from node 0
        // arrives on input 2 (above), the one from node 7 on input 0
        // (below), which is Table 1's forbidden code 101.
        let b = BusIndex::new;
        let (_, first) = net.buses.active_entry(0);
        let (_, second) = net.buses.active_entry(1);
        net.buses.at_mut(first).heights = vec![b(2), b(1)];
        net.buses.at_mut(second).heights = vec![b(0), b(0), b(1)];
        // Without the comparisons with mirrored tables, #4 fires on its
        // own.
        let unmirrored = check_network(&net, &mut CheckState::default(), false);
        assert_eq!(unmirrored.unwrap_err().invariant, "port-codes");
        // Two hops on one output port also break consistency, which the
        // checker tests first.
        assert_eq!(violated(&net), "consistency");
    }

    #[test]
    fn fault_isolation_catches_a_live_hop_on_a_faulted_segment() {
        let (mut net, slot) = live(4);
        let hop1 = net.buses.at(slot).heights[1].as_usize();
        net.fault_count[4 + hop1] = 1;
        assert_eq!(violated(&net), "fault-isolation");
    }

    #[test]
    fn bitmap_lockstep_catches_a_stale_occupied_bit() {
        let (mut net, _) = live(4);
        net.occ.occupy(7, 0);
        assert_eq!(violated(&net), "bitmap-lockstep");
    }

    #[test]
    fn lane_lockstep_catches_a_link_past_the_last_hop() {
        let (mut net, slot) = live(4);
        let bus = net.buses.at(slot);
        let last = bus.heights.len() - 1;
        let hop = bus.hop_upstream_node(net.cfg.nodes(), last).as_usize();
        let height = bus.heights[last].as_usize();
        net.occ.link(hop, height, height);
        assert_eq!(violated(&net), "lane-lockstep");
    }
}
