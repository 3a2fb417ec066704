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
//! segment. Within a tick the simulator performs, in order: stream and
//! teardown progression, destination decisions, head extensions,
//! injections, one compaction activation, statistics.
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
//! the stream/teardown kernel reads a circuit's state out of the lane,
//! advances it in registers and writes it back, touching the cold
//! [`VirtualBus`] struct only on transitions. Segment occupancy is one
//! flat array (`hop * k + bus`) with a per-hop free count, mirrored into
//! packed per-bus bitmaps (`occupancy::Occupancy`) kept in lockstep at
//! every occupy/release/fault/repair, so
//! [`segment_owner`](RmbNetwork::segment_owner) is an array read and
//! [`path_feasible`](RmbNetwork::path_feasible) one wrap-aware masked
//! range test (`FeasibilityMode::Bitmap`, the default) or O(1) per hop
//! over the free counts (`FeasibilityMode::SlabWalk`, the retained
//! oracle).
//!
//! # Scheduling
//!
//! Two per-tick execution engines share this state
//! ([`SchedulerMode`](crate::SchedulerMode), selected through
//! [`SimOptions`]): the classic *dense sweep* touches every live bus and
//! every INC each tick, while the default *event-driven* engine keeps a
//! per-bus `next_due` tick, a ready set plus hierarchical timing wheel for
//! injection queues, and a dirty set for compaction, so a tick costs
//! O(circuits with due work) rather than O(N·k). The two are byte-identical
//! by construction and by test (see `tests/scheduler_equivalence.rs`); the
//! sweep survives purely as the cross-check oracle.

use crate::compaction::{assessed_in_phase, EndpointHeight, HopContext, Phase};
use crate::cycle::CycleRing;
use crate::invariants::{check_network, InvariantViolation};
use crate::occupancy::Occupancy;
use crate::options::{
    FeasibilityMode, LogRetention, RmbNetworkBuilder, SchedulerMode, SimOptions,
};
use crate::planes::HeightPlanes;
use crate::virtual_bus::{BusState, StreamState, VirtualBus};
use rmb_sim::stats::OnlineStats;
use rmb_sim::trace::{TraceEvent, TraceKind, TraceSink, VecSink};
use rmb_sim::{QuantileSketch, SimRng, Tick, TimingWheel};
use rmb_types::{
    AbortedMessage, AckMode, BusIndex, DeliveredMessage, FaultKind, InsertionPolicy, MessageSpec,
    NodeId, ProtocolError, RequestId, RingSize, RmbConfig, VirtualBusId,
};
use std::collections::{HashMap, VecDeque};

mod lone;

pub use lone::{LoneLife, LoneMemo};

/// Cap on the bounded exponential fault-retry backoff, in ticks.
const MAX_FAULT_BACKOFF: u64 = 4096;

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

/// A compaction move: (bus, hop index, from height, to height, hop node).
type MoveCmd = (VirtualBusId, usize, BusIndex, BusIndex, usize);

/// What [`RmbNetwork::try_inject_at`] did for one node's queue front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectOutcome {
    /// The node is at its concurrent-send cap; the front stays queued.
    CapBlocked,
    /// The queue is empty.
    NoFront,
    /// The front's `not_before` is in the future.
    NotDue,
    /// Faults block injection; the front was refused (and backed off or
    /// aborted), changing the queue front.
    RefusedAtSource,
    /// No usable segment; the HF stays buffered at the node (§2.3).
    Buffered,
    /// The front was injected as a new virtual bus.
    Injected,
}

/// State of the event-driven scheduler ([`SchedulerMode::EventDriven`]).
///
/// Per-bus entries are indexed by the bus's *slot* in the [`BusSlab`]
/// (reset on slot reuse by [`RmbNetwork::sched_init_bus`]); per-node
/// injection state lives in a ready set plus a timing wheel. The dense
/// sweep ignores all of this. See DESIGN.md for the wake discipline.
#[derive(Debug, Default)]
struct SchedState {
    /// Per-slot earliest tick at which the bus next has stream/teardown
    /// work (`u64::MAX` for parked `Establishing` buses).
    next_due: Vec<u64>,
    /// Per-slot membership flag for `compact_dirty`.
    dirty: Vec<bool>,
    /// Per-slot count of consecutive compaction activations that found no
    /// move for this bus; at 2 (one odd + one even phase) it goes clean.
    clean_streak: Vec<u8>,
    /// Live `Establishing` buses in ascending id order, compacted lazily
    /// as buses leave the state (drives the decide/extend phases).
    establishing: Vec<VirtualBusId>,
    /// Buses that may have an eligible compaction move, ascending id
    /// order (may contain dead ids until they are iterated over).
    compact_dirty: Vec<VirtualBusId>,
    /// Nodes whose queue front is due for injection, ascending.
    ready: Vec<u32>,
    /// Per-node membership flag for `ready`.
    ready_mask: Vec<bool>,
    /// One entry per node whose queue front becomes due at a future tick.
    wheel: TimingWheel<u32>,
    /// Buses to re-mark compaction-dirty at the next activation; buffered
    /// because segment releases can fire while the bus slab is detached.
    pending_wakes: Vec<VirtualBusId>,
    /// Reusable snapshot of `ready` for the injection scan.
    scratch_ready: Vec<u32>,
}

/// Slab storage for live virtual buses (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct BusSlab {
    /// Slot storage; dead slots are `None` and recycled via `free`.
    slots: Vec<Option<VirtualBus>>,
    /// Struct-of-arrays lifecycle lane, indexed by slot like `slots`: the
    /// single authority on each live bus's [`BusState`]. Kept separate so
    /// the per-tick kernel streams over small `Copy` states without
    /// touching the cold bus structs.
    states: Vec<BusState>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Slot of each id ever allocated (`DEAD` when not live). Bounded by
    /// the total id count, at four bytes per id.
    slot_of: Vec<u32>,
    /// Live ids in ascending order.
    /// Live `(id, slot)` pairs in ascending id order. Carrying the slot
    /// alongside the id spares the tick kernel one dependent load
    /// (`slot_of`) per live bus per tick; a bus's slot is fixed from
    /// `insert` to `discard`, so the pair never goes stale.
    active: Vec<(VirtualBusId, u32)>,
}

const DEAD: u32 = u32::MAX;

impl BusSlab {
    fn len(&self) -> usize {
        self.active.len()
    }

    fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Live ids in ascending order.
    #[cfg(test)]
    fn active_ids(&self) -> Vec<VirtualBusId> {
        self.active.iter().map(|&(id, _)| id).collect()
    }

    /// The live id at position `i` of the active list.
    fn active_id(&self, i: usize) -> VirtualBusId {
        self.active[i].0
    }

    /// The live `(id, slot)` pair at position `i` of the active list.
    #[inline]
    fn active_entry(&self, i: usize) -> (VirtualBusId, usize) {
        let (id, slot) = self.active[i];
        (id, slot as usize)
    }

    fn slot(&self, id: VirtualBusId) -> Option<usize> {
        match self.slot_of.get(id.get() as usize) {
            Some(&s) if s != DEAD => Some(s as usize),
            _ => None,
        }
    }

    fn get(&self, id: VirtualBusId) -> Option<&VirtualBus> {
        self.slot(id).and_then(|s| self.slots[s].as_ref())
    }

    /// The bus in slot `slot` (the caller owns slot liveness).
    #[inline]
    fn at(&self, slot: usize) -> &VirtualBus {
        self.slots[slot].as_ref().expect("live slot")
    }

    /// Mutable access to the bus in slot `slot`.
    #[inline]
    fn at_mut(&mut self, slot: usize) -> &mut VirtualBus {
        self.slots[slot].as_mut().expect("live slot")
    }

    fn get_mut(&mut self, id: VirtualBusId) -> Option<&mut VirtualBus> {
        self.slot(id).and_then(|s| self.slots[s].as_mut())
    }

    /// Inserts a freshly allocated bus with its initial lifecycle state.
    /// Ids are monotonic, so appending keeps `active` sorted.
    fn insert(&mut self, bus: VirtualBus, state: BusState) {
        let id = bus.id;
        debug_assert!(
            self.active.last().is_none_or(|&(last, _)| last < id),
            "bus ids must ascend"
        );
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(bus);
                self.states[s as usize] = state;
                s
            }
            None => {
                self.slots.push(Some(bus));
                self.states.push(state);
                (self.slots.len() - 1) as u32
            }
        };
        let idx = id.get() as usize;
        if self.slot_of.len() <= idx {
            self.slot_of.resize(idx + 1, DEAD);
        }
        self.slot_of[idx] = slot;
        self.active.push((id, slot));
    }

    /// The lifecycle state of a live bus.
    fn state(&self, id: VirtualBusId) -> Option<BusState> {
        self.slot(id).map(|s| self.states[s])
    }

    /// The lifecycle state in slot `slot` (the caller owns slot liveness).
    #[inline]
    fn state_at(&self, slot: usize) -> BusState {
        self.states[slot]
    }

    /// Mutable access to the state in slot `slot`, for in-place counter
    /// updates on the tick kernel's fast path.
    #[inline]
    fn state_at_mut(&mut self, slot: usize) -> &mut BusState {
        &mut self.states[slot]
    }

    /// Writes the lifecycle state of slot `slot`.
    #[inline]
    fn set_state_at(&mut self, slot: usize, state: BusState) {
        self.states[slot] = state;
    }

    /// Writes the lifecycle state of a live bus.
    fn set_state(&mut self, id: VirtualBusId, state: BusState) {
        let slot = self.slot(id).expect("setting state of a live bus");
        self.states[slot] = state;
    }

    /// Takes a live bus out of its slot for mutation; pair with
    /// [`put_back`](Self::put_back) or [`discard`](Self::discard).
    fn take(&mut self, id: VirtualBusId) -> Option<VirtualBus> {
        self.slot(id).and_then(|s| self.slots[s].take())
    }

    #[cfg(test)]
    fn put_back(&mut self, id: VirtualBusId, bus: VirtualBus) {
        let slot = self.slot(id).expect("putting back a known bus");
        debug_assert!(self.slots[slot].is_none());
        self.slots[slot] = Some(bus);
    }

    /// Frees the slot of a bus already removed with [`take`](Self::take).
    /// The caller owns compacting `active` (see the sweep phase).
    fn discard(&mut self, id: VirtualBusId) {
        let slot = self.slot(id).expect("discarding a known bus");
        debug_assert!(self.slots[slot].is_none(), "discard follows take");
        self.slot_of[id.get() as usize] = DEAD;
        self.free.push(slot as u32);
    }

    /// Overwrites position `i` of the active list (sweep compaction).
    fn set_active(&mut self, i: usize, id: VirtualBusId, slot: usize) {
        self.active[i] = (id, slot as u32);
    }

    /// Shortens the active list to `len` entries (sweep compaction).
    fn truncate_active(&mut self, len: usize) {
        self.active.truncate(len);
    }

    /// Live buses in ascending id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &VirtualBus> {
        self.active.iter().map(move |&(_, slot)| {
            self.slots[slot as usize]
                .as_ref()
                .expect("active slots are live")
        })
    }

    /// `(id, bus)` pairs in ascending id order.
    fn iter(&self) -> impl Iterator<Item = (VirtualBusId, &VirtualBus)> {
        self.active.iter().map(move |&(id, slot)| {
            (
                id,
                self.slots[slot as usize]
                    .as_ref()
                    .expect("active slots are live"),
            )
        })
    }

    /// `(bus, state)` pairs in ascending id order — for consumers that
    /// need both the cold struct and the state lane (invariants, INC
    /// projection, renderers).
    pub(crate) fn values_with_state(&self) -> impl Iterator<Item = (&VirtualBus, BusState)> {
        self.active.iter().map(move |&(_, slot)| {
            let slot = slot as usize;
            (
                self.slots[slot].as_ref().expect("active slots are live"),
                self.states[slot],
            )
        })
    }
}

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
    /// present only when the run was built with
    /// [`latency_sketch(true)`](crate::RmbNetworkBuilder::latency_sketch).
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
    /// Number of free segments per hop (for the O(1) feasibility oracle).
    free_per_hop: Vec<u16>,
    /// Packed occupancy/fault bitmaps, kept in lockstep with `segments`,
    /// `fault_count` and `free_per_hop` (invariant #6). Answers the hot
    /// availability and path-feasibility queries in `Bitmap` mode.
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
    /// Cached `opts.scheduler == EventDriven` (immutable after build).
    event_driven: bool,
    /// Cached `opts.feasibility == Bitmap` (immutable after build); the
    /// dispatch branch is run-constant and predicted perfectly.
    feas_bitmap: bool,
    /// `true` while the event engine also tracks the compaction dirty set
    /// (event-driven + synchronous compaction + compaction enabled).
    track_dirty: bool,
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
    /// Online latency percentiles, when `opts.latency_sketch` is on.
    latency_sketch: Option<QuantileSketch>,
    refusals: u64,
    compaction_moves: u64,
    retries: u64,
    aborted: usize,
    fault_kills: u64,
    recovered: usize,
    recovery_sum: u64,
    max_recovery: u64,
    utilization: OnlineStats,
    /// Memoized `(busy_segments, busy / total)` of the last utilisation
    /// sample: the quotient only needs recomputing when occupancy moved,
    /// which keeps an fdiv off the steady-state tick path. Same inputs
    /// give the same bits, so recorded stats are unaffected.
    util_sample: (usize, f64),
    peak_virtual_buses: usize,
    submitted: u64,
    last_progress: u64,
    latency_sum: u64,
    setup_sum: u64,
    last_delivery_at: u64,
    // Reusable per-tick scratch (kept to avoid per-tick allocation).
    scratch_moves: Vec<MoveCmd>,
    // Tracing.
    recorder: Option<VecSink>,
    /// Previous heights per live bus, kept only in checked mode to verify
    /// downward-only motion.
    height_history: HashMap<u64, Vec<u16>>,
    /// Live-bus state the tick reaches through one pointer.
    aside: Box<Aside>,
}

/// Live-bus state held behind one box rather than inline in
/// [`RmbNetwork`]: an inline field shifts the layout of the tick-hot
/// fields around it. The 64-byte planes slowed the streaming-only tick
/// (`tick_kernel/per_circuit`, which never compacts) by a few per cent,
/// and an 8-byte lone-circuit pointer slowed `flat-serve`, which never
/// replays a lone circuit, by about 5 %.
#[derive(Debug)]
struct Aside {
    /// Per-slot height planes of the live buses, kept in lockstep with
    /// every bus's `heights` (invariant #7); compaction reads them 64
    /// hops at a time.
    planes: HeightPlanes,
    /// The lone circuit `run_window` records or defers (see the `lone`
    /// module).
    lone: Option<lone::Lone>,
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
    pub fn with_options(cfg: RmbConfig, opts: SimOptions) -> Self {
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
        let mode = opts.compaction_mode.clone();
        let fault_seed = opts.fault_seed;
        let recording = opts.recording;
        let event_driven = opts.scheduler == SchedulerMode::EventDriven;
        let feas_bitmap = opts.feasibility == FeasibilityMode::Bitmap;
        let sketch = opts.latency_sketch.then(QuantileSketch::latency_defaults);
        let mut net = RmbNetwork {
            cfg,
            now: Tick::ZERO,
            segments: vec![None; n * k],
            free_per_hop: vec![k as u16; n],
            occ: Occupancy::new(n, k),
            buses: BusSlab::default(),
            nodes: vec![NodeState::default(); n],
            opts,
            cycles: None,
            next_request: 0,
            next_bus: 0,
            busy_segments: 0,
            pending_total: 0,
            event_driven,
            feas_bitmap,
            track_dirty: false,
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
            utilization: OnlineStats::default(),
            util_sample: (0, 0.0),
            peak_virtual_buses: 0,
            submitted: 0,
            last_progress: 0,
            latency_sum: 0,
            setup_sum: 0,
            last_delivery_at: 0,
            scratch_moves: Vec::new(),
            recorder: recording.then(VecSink::new),
            height_history: HashMap::new(),
            aside: Box::new(Aside {
                planes: HeightPlanes::new(n, k),
                lone: None,
            }),
        };
        net.apply_compaction_mode(mode);
        net
    }

    /// The options this network runs under.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Validates `mode` and installs it, wiring the handshake
    /// controllers. Only ever runs at build time, before any virtual bus
    /// exists — options are immutable once the network is running.
    fn apply_compaction_mode(&mut self, mode: CompactionMode) {
        debug_assert_eq!(self.buses.len(), 0, "options are fixed before first use");
        if let CompactionMode::Handshake { periods } = &mode {
            assert_eq!(
                periods.len(),
                self.cfg.nodes().as_usize(),
                "one activation period per INC"
            );
            assert!(periods.iter().all(|&p| p > 0), "periods must be positive");
            self.cycles = Some(CycleRing::new(self.cfg.nodes().as_usize()));
        } else {
            self.cycles = None;
        }
        self.opts.compaction_mode = mode;
        self.track_dirty = self.event_driven
            && self.cfg.compaction
            && matches!(self.opts.compaction_mode, CompactionMode::Synchronous);
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

    /// Looks up a live virtual bus.
    pub fn virtual_bus(&self, id: VirtualBusId) -> Option<&VirtualBus> {
        self.buses.get(id)
    }

    /// Protocol state of a live virtual bus. Hot circuit state lives in a
    /// struct-of-arrays lane beside the bus records, so it is read here
    /// rather than off [`VirtualBus`] itself.
    pub fn bus_state(&self, id: VirtualBusId) -> Option<BusState> {
        self.buses.state(id)
    }

    /// Iterates over the live virtual buses in id order, paired with
    /// their protocol state.
    pub(crate) fn virtual_buses_with_state(
        &self,
    ) -> impl Iterator<Item = (&VirtualBus, BusState)> {
        self.buses.values_with_state()
    }

    /// Rebuilds the occupancy bitmaps from the authoritative owner /
    /// fault tables and reports the first out-of-lockstep bit
    /// (invariant #6).
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub(crate) fn verify_occupancy(&self) -> Result<(), String> {
        self.occ.verify(
            &self.segments,
            &self.fault_count,
            &self.free_per_hop,
            self.cfg.buses() as usize,
        )
    }

    /// Rebuilds every live bus's height planes from its `heights` and
    /// reports the first out-of-lockstep bit (invariant #7).
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub(crate) fn verify_planes(&self) -> Result<(), String> {
        for i in 0..self.buses.len() {
            let (id, slot) = self.buses.active_entry(i);
            self.aside
                .planes
                .verify(slot, &self.buses.at(slot).heights)
                .map_err(|e| format!("bus {id}: {e}"))?;
        }
        Ok(())
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

    /// `true` while any active `IncDead` fault covers `node`.
    pub fn is_inc_dead(&self, node: NodeId) -> bool {
        node.as_usize() < self.nodes.len() && self.dead_inc[node.as_usize()] > 0
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
    /// least one free segment — Theorem 1's availability oracle. In
    /// `Bitmap` mode (default) this is one wrap-aware masked-range test on
    /// the full-hops bitmap; in `SlabWalk` mode it walks the per-hop
    /// free-segment counts, O(1) per hop. Both kernels always agree (see
    /// the feasibility oracle suite and invariant #6).
    pub fn path_feasible(&self, src: NodeId, dst: NodeId) -> bool {
        let ring = self.ring();
        let span = ring.clockwise_distance(src, dst);
        if self.feas_bitmap {
            self.occ.span_feasible(src.as_usize(), span as usize)
        } else {
            (0..span).all(|j| self.free_per_hop[ring.advance(src, j).as_usize()] > 0)
        }
    }

    /// `true` when nothing is in flight and nothing is waiting.
    pub fn is_quiescent(&self) -> bool {
        self.buses.is_empty() && self.pending_total == 0
    }

    /// `true` when some circuit is live, some pending request is already
    /// due for injection (as opposed to scheduled for a future tick), or a
    /// scheduled fault event is due to apply.
    ///
    /// The event-driven engine answers from its ready set and timing
    /// wheel; outside the injection phase the wheel's hint is exact, so
    /// both engines agree on every call site.
    pub fn has_due_work(&self) -> bool {
        if !self.buses.is_empty()
            || self
                .next_fault_tick()
                .is_some_and(|at| at <= self.now.get())
        {
            return true;
        }
        if self.event_driven {
            !self.sched.ready.is_empty()
                || self
                    .sched
                    .wheel
                    .peek_hint()
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
        let pending = if self.event_driven {
            // Only consulted when nothing is due now, so the ready set is
            // empty and every waiting front has a wheel entry; the hint
            // is exact outside the injection phase.
            debug_assert!(self.sched.ready.is_empty() || self.has_due_work());
            self.sched.wheel.peek_hint().map(Tick::get)
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
        self.fault_timeline.get(self.next_fault).map(|&(at, _, _)| at)
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
        let s = spec.source.as_usize();
        let was_empty = self.nodes[s].pending.is_empty();
        self.nodes[s].pending.push_back(PendingRequest {
            request,
            spec,
            taps: Vec::new(),
            requested_at: spec.inject_at,
            refusals: 0,
            not_before: spec.inject_at,
        });
        self.pending_total += 1;
        if self.event_driven && was_empty {
            self.arm_node(s);
        }
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
        let s = source.as_usize();
        let was_empty = self.nodes[s].pending.is_empty();
        self.nodes[s].pending.push_back(PendingRequest {
            request,
            spec: MessageSpec::new(source, final_dest, data_flits).at(inject_at),
            taps,
            requested_at: inject_at,
            refusals: 0,
            not_before: inject_at,
        });
        self.pending_total += 1;
        if self.event_driven && was_empty {
            self.arm_node(s);
        }
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

    /// Advances the simulation by one tick.
    pub fn tick(&mut self) {
        self.apply_due_faults();
        self.progress_streams_and_teardowns();
        // The establishment phases only ever visit `Establishing` buses;
        // when the event engine's establishing list is empty they are
        // no-ops, so the calls (and their list-swap bookkeeping) can be
        // skipped outright. The dense sweep re-checks per bus instead.
        if !self.event_driven || !self.sched.establishing.is_empty() {
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
    /// same state as one tick-by-tick `run`, up to the floating-point
    /// rounding of the utilisation mean over a multi-tick skip.
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
    /// delivery and one utilisation sample per skipped tick. A window that
    /// ends inside a segment ticks it instead, as does a ring submitted to
    /// or ticked outside `run_window` meanwhile. The clock always reaches
    /// `until`, and the state is always the true state at the clock.
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
    /// unchanged apart from its clock, its all-idle utilisation samples
    /// and a deferred circuit's life, so a caller may defer advancing the
    /// ring until then (or until it submits work) and catch it up with
    /// [`run_window`](Self::run_window).
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
    /// With [`SimOptions::fast_forward`](crate::SimOptions) enabled (the
    /// default, via [`RmbNetwork::builder`]) and the synchronous
    /// compactor, stretches of ticks with no live circuit, no due
    /// injection and no pending fault event are skipped arithmetically
    /// instead of being simulated one by one; the event-driven scheduler
    /// finds the jump target in O(1) from its timing wheel, the dense
    /// sweep by scanning the queue fronts.
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

    /// Whether idle stretches may be skipped: the option is on and the
    /// compactor is synchronous, so an idle tick changes nothing but the
    /// clock and the utilisation samples.
    fn can_fast_forward(&self) -> bool {
        self.opts.fast_forward && matches!(self.opts.compaction_mode, CompactionMode::Synchronous)
    }

    /// Event horizon: nothing is live (so every phase of a tick is a
    /// no-op) and nothing comes due before `target`. Jumps the clock
    /// there, accounting for the skipped all-idle utilisation samples in
    /// one step; ticking would reach the same state one no-op tick at a
    /// time.
    fn skip_idle_to(&mut self, target: u64) {
        let skipped = target - self.now.get();
        debug_assert_eq!(self.busy_segments, 0);
        self.utilization.record_repeated(0.0, skipped);
        self.now = Tick::new(target);
    }

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
    /// `None` when the sketch is disabled (see
    /// [`RmbNetworkBuilder::latency_sketch`]) or nothing was delivered.
    /// The sketch observes every delivery regardless of log retention.
    ///
    /// [`RmbNetworkBuilder::latency_sketch`]: crate::RmbNetworkBuilder::latency_sketch
    pub fn latency_quantile(&self, phi: f64) -> Option<u64> {
        self.latency_sketch.as_ref().and_then(|s| s.quantile(phi))
    }

    fn report_with(&self, stalled: bool) -> RunReport {
        RunReport {
            ticks: self.now.get(),
            delivered: self.delivered_total() as usize,
            refusals: self.refusals,
            compaction_moves: self.compaction_moves,
            mean_utilization: self.utilization.mean(),
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

    /// Validates all structural invariants; see [`crate::invariants`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        check_network(self)
    }

    /// Appends to the delivered log under the configured retention
    /// policy, maintaining the report aggregates (which see every
    /// delivery even when the record itself is not kept).
    fn record_delivery(&mut self, d: DeliveredMessage) {
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
    fn record_abort(&mut self, a: AbortedMessage) {
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

    // ------------------------------------------------------------------
    // Internal: fault machinery.
    // ------------------------------------------------------------------

    /// Applies every fault-timeline entry due at or before the current
    /// tick (runs first in each tick, so a fresh fault is visible to all
    /// of the tick's phases).
    fn apply_due_faults(&mut self) {
        let now = self.now.get();
        while let Some(&(at, is_repair, kind)) = self.fault_timeline.get(self.next_fault) {
            if at > now {
                break;
            }
            self.next_fault += 1;
            if is_repair {
                self.apply_repair(kind);
            } else {
                self.apply_fault(kind);
            }
            if self.recorder.is_some() {
                let (node, bus) = match kind {
                    FaultKind::SegmentStuck { hop, bus } => (hop, Some(bus)),
                    FaultKind::LinkCut { hop } => (hop, None),
                    FaultKind::IncDead { node } => (node, None),
                };
                let trace_kind = if is_repair {
                    TraceKind::FaultRepair
                } else {
                    TraceKind::FaultInject
                };
                if let Some(rec) = &mut self.recorder {
                    rec.record(TraceEvent {
                        at: self.now,
                        kind: trace_kind,
                        id: None,
                        node: Some(node.index()),
                        bus: bus.map(|b| b.index()),
                        detail: kind.to_string(),
                    });
                }
            }
            self.last_progress = now;
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::SegmentStuck { hop, bus } => self.fault_segment(hop.as_usize(), bus),
            FaultKind::LinkCut { hop } => {
                for b in 0..self.cfg.buses() {
                    self.fault_segment(hop.as_usize(), BusIndex::new(b));
                }
            }
            FaultKind::IncDead { node } => {
                self.dead_inc[node.as_usize()] += 1;
                // The dead INC drives every segment at its own hop.
                for b in 0..self.cfg.buses() {
                    self.fault_segment(node.as_usize(), BusIndex::new(b));
                }
                // Circuits terminating (or tapping) at the dead INC lose
                // their endpoint; the occupancy path above only catches
                // circuits that pass *through* it.
                let victims: Vec<VirtualBusId> = self
                    .buses
                    .iter()
                    .filter(|(_, b)| b.spec.destination == node || b.taps.contains(&node))
                    .map(|(id, _)| id)
                    .collect();
                for id in victims {
                    self.fault_kill(id, "endpoint INC died");
                }
            }
        }
    }

    fn apply_repair(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::SegmentStuck { hop, bus } => self.repair_segment(hop.as_usize(), bus),
            FaultKind::LinkCut { hop } => {
                for b in 0..self.cfg.buses() {
                    self.repair_segment(hop.as_usize(), BusIndex::new(b));
                }
            }
            FaultKind::IncDead { node } => {
                self.dead_inc[node.as_usize()] -= 1;
                for b in 0..self.cfg.buses() {
                    self.repair_segment(node.as_usize(), BusIndex::new(b));
                }
            }
        }
    }

    fn fault_segment(&mut self, hop: usize, bus: BusIndex) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        self.fault_count[idx] += 1;
        if self.fault_count[idx] == 1 {
            self.occ.assign_faulted(hop, bus.as_usize(), true);
            match self.segments[idx] {
                // An idle segment just leaves the availability pool.
                None => {
                    self.free_per_hop[hop] -= 1;
                    if self.free_per_hop[hop] == 0 {
                        self.occ.assign_full(hop, true);
                    }
                }
                // An occupied one takes its circuit down with it; the
                // teardown keeps owning the segment until the Nack passes.
                Some(owner) => self.fault_kill(owner, "segment faulted under the circuit"),
            }
        }
    }

    fn repair_segment(&mut self, hop: usize, bus: BusIndex) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        debug_assert!(self.fault_count[idx] > 0, "repairing a healthy segment");
        self.fault_count[idx] -= 1;
        if self.fault_count[idx] == 0 {
            self.occ.assign_faulted(hop, bus.as_usize(), false);
            if self.segments[idx].is_none() {
                self.free_per_hop[hop] += 1;
                self.occ.assign_full(hop, false);
                // The segment is available again: the circuit directly
                // above (if any) may now have a downward move.
                self.wake_above(hop, bus);
            }
        }
    }

    /// Queues a compaction re-mark for the circuit occupying the segment
    /// directly above `(hop, bus)` — called when `(hop, bus)` becomes
    /// available, which can enable that circuit's downward move. Buffered
    /// in `pending_wakes` because releases also fire while the bus slab
    /// is detached (stream-phase teardowns).
    fn wake_above(&mut self, hop: usize, bus: BusIndex) {
        if !self.track_dirty {
            return;
        }
        if bus.index() + 1 >= self.cfg.buses() {
            return;
        }
        if let Some(owner) = self.seg(hop, bus.upper().as_usize()) {
            self.sched.pending_wakes.push(owner);
        }
    }

    /// Tears a live circuit down because of a fault: Nack back to the
    /// source (tail-first, reusing the ordinary teardown machinery) and
    /// mark it for the bounded-exponential retry path. No-op for circuits
    /// already tearing down.
    fn fault_kill(&mut self, id: VirtualBusId, why: &str) {
        let Some(state) = self.buses.state(id) else { return };
        let receiving = match state {
            BusState::TearingDown { .. } | BusState::Nacked { .. } => return,
            BusState::AwaitingHack { .. } | BusState::Streaming(_) => true,
            BusState::Establishing => false,
        };
        let (dst, source) = {
            let bus = self.buses.get(id).expect("bus is live");
            (bus.spec.destination, bus.spec.source)
        };
        if receiving {
            // Past acceptance the destination holds a receive port that
            // the ordinary Nack path never has to give back; the fault
            // abort must.
            self.nodes[dst.as_usize()].receives_active -= 1;
        }
        let now = self.now.get();
        self.buses.set_state(id, BusState::Nacked { freed: 0 });
        let bus = self.buses.get_mut(id).expect("bus is live");
        bus.fault_killed = true;
        let request = bus.request.get();
        self.fault_kills += 1;
        self.first_kill.entry(request).or_insert(now);
        self.last_progress = now;
        self.trace(TraceKind::FaultKill, id, source, None, why);
        // The Nacked teardown starts freeing hops in the next stream
        // phase; make sure the event engine looks at the bus then.
        self.wake_bus(id);
    }

    /// Bounded exponential backoff with jitter for fault-hit retries:
    /// `base · 2^min(refusals, 12)` capped at [`MAX_FAULT_BACKOFF`], plus
    /// a uniform jitter of up to half that, drawn from the seeded fault
    /// stream.
    fn fault_backoff(&mut self, refusals: u32) -> u64 {
        let base = self.cfg.node.retry_backoff.max(1);
        let bounded = base
            .saturating_mul(1u64 << refusals.min(12))
            .min(MAX_FAULT_BACKOFF.max(base));
        bounded + self.fault_rng.index(bounded as usize / 2 + 1).unwrap_or(0) as u64
    }

    /// Refuses the due request at the head of node `s`'s queue because
    /// faults block injection (source INC dead, or the header lane
    /// faulted): counts a refusal, backs off exponentially, and aborts
    /// once past the retry budget.
    fn refuse_at_source(&mut self, s: usize) {
        let now = self.now.get();
        let mut p = self.nodes[s].pending.pop_front().expect("front exists");
        self.pending_total -= 1;
        p.refusals += 1;
        self.refusals += 1;
        self.last_progress = now;
        if self.opts.max_retries.is_some_and(|limit| p.refusals > limit) {
            self.aborted += 1 + p.taps.len();
            self.record_abort(AbortedMessage {
                request: p.request,
                spec: p.spec,
                aborted_at: now,
                refusals: p.refusals,
            });
            self.first_kill.remove(&p.request.get());
            if let Some(rec) = &mut self.recorder {
                rec.record(TraceEvent {
                    at: self.now,
                    kind: TraceKind::Abort,
                    id: Some(p.request.get()),
                    node: Some(s as u32),
                    bus: None,
                    detail: format!("dropped at source after {} refusals", p.refusals),
                });
            }
        } else {
            self.retries += 1;
            p.not_before = now + self.fault_backoff(p.refusals);
            self.nodes[s].pending.push_back(p);
            self.pending_total += 1;
        }
    }

    // ------------------------------------------------------------------
    // Internal: event-driven scheduler bookkeeping.
    // ------------------------------------------------------------------

    /// (Re-)arms injection tracking for node `s` after its queue front
    /// changed: due fronts join the ready set, future ones get a wheel
    /// entry. A node with an unchanged front is never re-armed, so the
    /// wheel holds at most one live entry per waiting node.
    fn arm_node(&mut self, s: usize) {
        let Some(front) = self.nodes[s].pending.front() else {
            return;
        };
        let not_before = front.not_before;
        if not_before <= self.now.get() {
            self.ready_insert(s);
        } else {
            self.sched.wheel.schedule(Tick::new(not_before), s as u32);
        }
    }

    /// Adds node `s` to the sorted ready set (no-op if present).
    fn ready_insert(&mut self, s: usize) {
        if self.sched.ready_mask[s] {
            return;
        }
        self.sched.ready_mask[s] = true;
        let v = s as u32;
        match self.sched.ready.last() {
            Some(&last) if last >= v => {
                let pos = self.sched.ready.partition_point(|&x| x < v);
                self.sched.ready.insert(pos, v);
            }
            _ => self.sched.ready.push(v),
        }
    }

    /// Removes node `s` from the ready set (no-op if absent).
    fn ready_remove(&mut self, s: usize) {
        if !self.sched.ready_mask[s] {
            return;
        }
        self.sched.ready_mask[s] = false;
        let v = s as u32;
        let pos = self.sched.ready.partition_point(|&x| x < v);
        debug_assert_eq!(self.sched.ready.get(pos), Some(&v));
        self.sched.ready.remove(pos);
    }

    /// Ensures the event engine processes bus `id` in the next stream
    /// phase (no-op for the dense sweep or an unknown id).
    fn wake_bus(&mut self, id: VirtualBusId) {
        if !self.event_driven {
            return;
        }
        if let Some(slot) = self.buses.slot(id) {
            let due = &mut self.sched.next_due[slot];
            *due = (*due).min(self.now.get());
        }
    }

    /// Initialises per-slot scheduler state for a freshly injected bus
    /// (slot indices are recycled, so every field is reset) and registers
    /// it with the establishing list and the compaction dirty set.
    fn sched_init_bus(&mut self, id: VirtualBusId) {
        let slot = self.buses.slot(id).expect("freshly inserted bus");
        let sd = &mut self.sched;
        if sd.next_due.len() <= slot {
            sd.next_due.resize(slot + 1, u64::MAX);
            sd.dirty.resize(slot + 1, false);
            sd.clean_streak.resize(slot + 1, 0);
        }
        // Establishing buses are stream-phase no-ops until a decision or
        // fault wakes them.
        sd.next_due[slot] = u64::MAX;
        sd.dirty[slot] = false;
        sd.clean_streak[slot] = 0;
        sd.establishing.push(id);
        self.mark_dirty(id);
    }

    /// Marks `id` as possibly having an eligible compaction move. No-op
    /// unless the dirty set is tracked (event-driven + synchronous
    /// compactor) or the id is dead. Conservative marks are harmless: a
    /// clean assessment just drops the bus again.
    fn mark_dirty(&mut self, id: VirtualBusId) {
        if !self.track_dirty {
            return;
        }
        let Some(slot) = self.buses.slot(id) else {
            return;
        };
        self.mark_dirty_slot(id, slot);
    }

    /// [`mark_dirty`](Self::mark_dirty) with the slot already in hand
    /// (used while the bus slab is detached during the stream phase).
    fn mark_dirty_slot(&mut self, id: VirtualBusId, slot: usize) {
        let sd = &mut self.sched;
        sd.clean_streak[slot] = 0;
        if !sd.dirty[slot] {
            sd.dirty[slot] = true;
            match sd.compact_dirty.last() {
                Some(&last) if last >= id => {
                    let pos = sd.compact_dirty.partition_point(|&x| x < id);
                    sd.compact_dirty.insert(pos, id);
                }
                _ => sd.compact_dirty.push(id),
            }
        }
    }

    /// Applies the buffered segment-release wake-ups (buses whose
    /// below-segment freed while the slab was detached) to the dirty set.
    fn flush_compaction_wakes(&mut self) {
        if self.sched.pending_wakes.is_empty() {
            return;
        }
        let mut wakes = std::mem::take(&mut self.sched.pending_wakes);
        for id in wakes.drain(..) {
            self.mark_dirty(id);
        }
        self.sched.pending_wakes = wakes;
    }

    // ------------------------------------------------------------------
    // Internal: tick phases.
    // ------------------------------------------------------------------

    fn progress_streams_and_teardowns(&mut self) {
        let ring = self.ring();
        let now = self.now.get();
        let event = self.event_driven;
        let window = match self.cfg.ack_mode {
            AckMode::PerFlit => 1,
            AckMode::Windowed { window } => window.max(1),
            AckMode::Unlimited => u32::MAX,
        };
        // This is the only phase that removes buses: detach the slab so
        // its state lane can be advanced while the rest of the network is
        // borrowed freely, compacting the active list behind the cursor.
        //
        // The steady-state streaming arm is the tick kernel's inner loop:
        // it reads the `Copy` state out of the slab's state lane, advances
        // three counters against closed-form send ticks (no queues, no
        // allocation), and writes the state back — the cold `VirtualBus`
        // struct is dereferenced only on transitions (stream start,
        // completion, teardown, removal).
        if self.buses.is_empty() {
            return;
        }
        let mut buses = std::mem::take(&mut self.buses);
        let mut kept = 0usize;
        for i in 0..buses.len() {
            let (id, slot) = buses.active_entry(i);
            if event && self.sched.next_due[slot] > now {
                // Nothing due: parked `Establishing` buses are stream
                // no-ops, and a draining stream's next delivery or final
                // flit is still in flight. The dense sweep would walk the
                // same no-op arms and observe nothing.
                buses.set_active(kept, id, slot);
                kept += 1;
                continue;
            }
            // Steady-state fast path: a mid-flight stream under a window
            // at least the round trip (W >= 2L, the default) can only
            // advance its three counters — no transition is reachable —
            // so it is updated in place, skipping the copy-out/copy-back
            // protocol and the transition checks below. The closed forms
            // land exactly where the catch-up loops in the general arm
            // stop (see `StreamState::send_tick`).
            let fast = {
                if let BusState::Streaming(s) = buses.state_at_mut(slot) {
                    let span = u64::from(s.span);
                    if s.ff_sent_at.is_none()
                        && s.next_seq < s.data_flits
                        && 2 * span <= u64::from(s.window)
                        && s.unacked() < s.window
                    {
                        let nd = u64::from(s.delivered)
                            .max(now.saturating_sub(s.circuit_at + span));
                        s.delivered = u64::from(s.next_seq).min(nd) as u32;
                        let na = u64::from(s.acked)
                            .max(now.saturating_sub(s.circuit_at + 2 * span));
                        s.acked = u64::from(s.next_seq).min(na) as u32;
                        debug_assert_eq!(now, s.send_tick(s.next_seq), "send recurrence");
                        s.next_seq += 1;
                        true
                    } else {
                        false
                    }
                } else {
                    false
                }
            };
            if fast {
                // The send is progress; the stream stays due next tick.
                self.last_progress = now;
                if event {
                    self.sched.next_due[slot] = now + 1;
                }
                buses.set_active(kept, id, slot);
                kept += 1;
                continue;
            }
            let mut state = buses.state_at(slot);
            let mut remove = false;
            let mut progressed = false;
            let mut start_streaming = false;
            let mut completed = None;
            match state {
                BusState::Establishing
                | BusState::TearingDown { .. }
                | BusState::Nacked { .. } => {}
                BusState::AwaitingHack { hops_left } => {
                    let hops_left = hops_left - 1;
                    start_streaming = hops_left == 0;
                    state = BusState::AwaitingHack { hops_left };
                }
                BusState::Streaming(mut s) => {
                    // Deliveries (L ticks after send) and Dacks (2L ticks):
                    // the flit about to land / be acked is `delivered` /
                    // `acked`, and its send tick is closed-form.
                    let span = u64::from(s.span);
                    if 2 * span <= u64::from(s.window) {
                        // Cruise: the window never gates the source
                        // (W >= 2L), so `send_tick(i) = circuit_at + 1 + i`
                        // and both counters catch up in closed form — the
                        // min/max pair lands exactly where the loops below
                        // stop, compiled to cmovs instead of branches.
                        let nd = u64::from(s.delivered)
                            .max(now.saturating_sub(s.circuit_at + span));
                        let nd = u64::from(s.next_seq).min(nd) as u32;
                        let na = u64::from(s.acked)
                            .max(now.saturating_sub(s.circuit_at + 2 * span));
                        s.acked = u64::from(s.next_seq).min(na) as u32;
                        progressed |= nd != s.delivered;
                        s.delivered = nd;
                    } else {
                        while s.delivered < s.next_seq
                            && now >= s.send_tick(s.delivered) + span
                        {
                            s.delivered += 1;
                            progressed = true;
                        }
                        while s.acked < s.next_seq && now >= s.send_tick(s.acked) + 2 * span {
                            s.acked += 1;
                        }
                    }
                    if let Some(ff_at) = s.ff_sent_at {
                        if now >= ff_at + span {
                            // Final flit arrived: the message is delivered.
                            completed = Some(s);
                        }
                    } else if s.next_seq < s.data_flits {
                        if s.unacked() < s.window {
                            debug_assert_eq!(now, s.send_tick(s.next_seq), "send recurrence");
                            s.next_seq += 1;
                            progressed = true;
                        }
                    } else {
                        s.ff_sent_at = Some(now);
                        progressed = true;
                    }
                    state = BusState::Streaming(s);
                }
            }
            if start_streaming {
                let bus = buses.get(id).expect("active ids are live");
                state = BusState::Streaming(StreamState::new(
                    now,
                    bus.heights.len() as u32,
                    bus.spec.data_flits,
                    window,
                ));
                progressed = true;
            }
            if let Some(s) = completed {
                let bus = buses.get(id).expect("active ids are live");
                self.deliver(bus, s.circuit_at, u64::from(s.span), now);
                state = BusState::TearingDown { freed: 0 };
                progressed = true;
            }
            let teardown_freed = match state {
                BusState::TearingDown { freed } | BusState::Nacked { freed } => Some(freed),
                _ => None,
            };
            if let Some(freed) = teardown_freed {
                if completed.is_none() {
                    // The Fack / Nack crosses one INC per tick, freeing the
                    // tail hop as it passes. (A bus that completed this very
                    // tick starts freeing next tick.)
                    let bus = buses.get(id).expect("active ids are live");
                    let idx = bus.heights.len() - 1 - freed;
                    let hop = bus.hop_upstream_node(ring, idx).as_usize();
                    let height = bus.heights[idx];
                    let hops = bus.heights.len();
                    self.release(hop, height);
                    let new_freed = freed + 1;
                    state = match state {
                        BusState::TearingDown { .. } => {
                            BusState::TearingDown { freed: new_freed }
                        }
                        BusState::Nacked { .. } => BusState::Nacked { freed: new_freed },
                        _ => unreachable!("teardown state checked above"),
                    };
                    progressed = true;
                    remove = new_freed == hops;
                }
            }
            if progressed {
                self.last_progress = now;
            }
            if event && !remove {
                // When is this bus next due? `Establishing` parks until a
                // decision or fault wakes it; teardown-ish states act
                // every tick; a stream that has sent its final flit
                // sleeps until the next in-flight flit lands. The wake
                // ticks coincide with the dense sweep's delivery pops, so
                // `last_progress` (and with it stall detection and report
                // tick counts) stays byte-identical.
                self.sched.next_due[slot] = match state {
                    BusState::Establishing => u64::MAX,
                    BusState::AwaitingHack { .. }
                    | BusState::TearingDown { .. }
                    | BusState::Nacked { .. } => now + 1,
                    BusState::Streaming(s) => match s.ff_sent_at {
                        None => now + 1,
                        Some(ff) => {
                            let span = u64::from(s.span);
                            let next_delivery = if s.delivered < s.next_seq {
                                s.send_tick(s.delivered) + span
                            } else {
                                u64::MAX
                            };
                            (ff + span).min(next_delivery)
                        }
                    },
                };
            }
            if start_streaming && self.track_dirty {
                // Newly streaming hops become assessable (§2.4); with
                // early compaction off this is the bus's first chance.
                self.mark_dirty_slot(id, slot);
            }
            if remove {
                let bus = buses.take(id).expect("active ids are live");
                buses.discard(id);
                let nacked = matches!(state, BusState::Nacked { .. });
                self.nodes[bus.spec.source.as_usize()].sends_active -= 1;
                if nacked {
                    // Release any multicast taps that were already armed.
                    for tap in &bus.taps[..bus.armed_taps] {
                        self.nodes[tap.as_usize()].receives_active -= 1;
                    }
                    let refusals = bus.refusals + 1;
                    if self.opts.max_retries.is_some_and(|limit| refusals > limit) {
                        // Retry budget exhausted: drop the request for
                        // good, counting every destination it covered.
                        self.aborted += 1 + bus.taps.len();
                        self.record_abort(AbortedMessage {
                            request: bus.request,
                            spec: bus.spec,
                            aborted_at: now,
                            refusals,
                        });
                        self.first_kill.remove(&bus.request.get());
                        self.trace(
                            TraceKind::Abort,
                            bus.id,
                            bus.spec.source,
                            None,
                            "retry budget exhausted",
                        );
                    } else {
                        // Re-queue the refused request: linear backoff for
                        // ordinary contention Nacks, bounded exponential
                        // with jitter after a fault kill.
                        self.retries += 1;
                        let backoff = if bus.fault_killed {
                            self.fault_backoff(refusals)
                        } else {
                            self.cfg.node.retry_backoff * refusals as u64
                        };
                        let src = bus.spec.source.as_usize();
                        let was_empty = self.nodes[src].pending.is_empty();
                        self.nodes[src].pending.push_back(PendingRequest {
                            request: bus.request,
                            spec: bus.spec,
                            taps: bus.taps,
                            requested_at: bus.requested_at,
                            refusals,
                            not_before: now + backoff,
                        });
                        self.pending_total += 1;
                        if event && was_empty {
                            self.arm_node(src);
                        }
                    }
                } else {
                    self.trace(
                        TraceKind::Teardown,
                        bus.id,
                        bus.spec.source,
                        None,
                        "virtual bus removed",
                    );
                }
            } else {
                buses.set_state_at(slot, state);
                buses.set_active(kept, id, slot);
                kept += 1;
            }
        }
        buses.truncate_active(kept);
        self.buses = buses;
    }

    /// Delivers the message `bus` carries, whose final flit arrived at
    /// `now` over a circuit of `span` hops that came up at `circuit_at`:
    /// logs it (and every multicast tap), frees the receive ports and
    /// closes a fault recovery. The caller starts the teardown.
    fn deliver(&mut self, bus: &VirtualBus, circuit_at: u64, span: u64, now: u64) {
        let ring = self.ring();
        self.record_delivery(DeliveredMessage {
            request: bus.request,
            spec: bus.spec,
            requested_at: bus.requested_at,
            circuit_at,
            delivered_at: now,
            refusals: bus.refusals,
        });
        self.nodes[bus.spec.destination.as_usize()].receives_active -= 1;
        // Multicast taps saw the final flit as it flowed past,
        // span - dist hops before it reached the far end.
        for tap in &bus.taps {
            let dist = u64::from(ring.clockwise_distance(bus.spec.source, *tap));
            self.record_delivery(DeliveredMessage {
                request: bus.request,
                spec: MessageSpec::new(bus.spec.source, *tap, bus.spec.data_flits)
                    .at(bus.spec.inject_at),
                requested_at: bus.requested_at,
                circuit_at,
                delivered_at: now - (span - dist),
                refusals: bus.refusals,
            });
            self.nodes[tap.as_usize()].receives_active -= 1;
        }
        if let Some(kill_at) = self.first_kill.remove(&bus.request.get()) {
            let dt = now.saturating_sub(kill_at);
            self.recovered += 1;
            self.recovery_sum += dt;
            self.max_recovery = self.max_recovery.max(dt);
        }
        self.trace(
            TraceKind::Deliver,
            bus.id,
            bus.spec.destination,
            None,
            "final flit arrived",
        );
    }

    /// Runs one establishment phase (`decide_bus` / `extend_bus`) over
    /// exactly the live `Establishing` buses, in ascending id order.
    ///
    /// Event mode walks the scheduler's `establishing` list, dropping
    /// entries that died or left the state *before* the call (the dense
    /// sweep would skip them too) and keeping entries whose state changes
    /// *during* the call (they fall out on the next pass). Dense mode
    /// walks the whole active list; the per-bus methods re-check the
    /// state themselves.
    fn for_each_establishing(&mut self, mut phase: impl FnMut(&mut Self, VirtualBusId)) {
        if self.event_driven {
            let mut list = std::mem::take(&mut self.sched.establishing);
            let mut kept = 0usize;
            for i in 0..list.len() {
                let id = list[i];
                let still = matches!(self.buses.state(id), Some(BusState::Establishing));
                if !still {
                    continue;
                }
                phase(self, id);
                list[kept] = id;
                kept += 1;
            }
            list.truncate(kept);
            self.sched.establishing = list;
        } else {
            // No bus is created or removed in this phase, so the active
            // list is stable and can be walked by position.
            for i in 0..self.buses.len() {
                let id = self.buses.active_id(i);
                phase(self, id);
            }
        }
    }

    fn decide_at_destinations(&mut self) {
        self.for_each_establishing(Self::decide_bus);
    }

    fn decide_bus(&mut self, id: VirtualBusId) {
        let ring = self.ring();
        let now = self.now.get();
        {
            let (dst, span, head);
            {
                if !matches!(self.buses.state(id), Some(BusState::Establishing)) {
                    return;
                }
                let bus = self.buses.get(id).expect("bus is live");
                dst = bus.spec.destination;
                span = bus.heights.len() as u32;
                head = bus.head_node(ring);
            }
            // Multicast: the header is parked at the next unarmed tap —
            // take that node's receive port (arming the tap) or refuse the
            // whole circuit.
            let next_tap = {
                let bus = self.buses.get(id).expect("bus is live");
                bus.taps.get(bus.armed_taps).copied()
            };
            if Some(head) == next_tap {
                if self.dead_inc[head.as_usize()] > 0 {
                    self.fault_kill(id, "tap INC is dead");
                    return;
                }
                if self.nodes[head.as_usize()].receives_active
                    < self.cfg.node.max_concurrent_receives
                {
                    self.nodes[head.as_usize()].receives_active += 1;
                    let bus = self.buses.get_mut(id).expect("bus is live");
                    bus.armed_taps += 1;
                    bus.parked_since = now;
                    self.trace(TraceKind::Accept, id, head, None, "multicast tap armed");
                } else {
                    self.buses.set_state(id, BusState::Nacked { freed: 0 });
                    self.refusals += 1;
                    self.wake_bus(id);
                    self.trace(TraceKind::Refuse, id, head, None, "multicast tap busy");
                }
                self.last_progress = now;
                return;
            }
            if head != dst {
                if let Some(limit) = self.cfg.head_timeout {
                    let parked_since = self.buses.get(id).expect("bus is live").parked_since;
                    let parked = now.saturating_sub(parked_since);
                    if parked > limit {
                        self.buses.set_state(id, BusState::Nacked { freed: 0 });
                        self.refusals += 1;
                        self.wake_bus(id);
                        self.trace(
                            TraceKind::Refuse,
                            id,
                            head,
                            None,
                            "header timed out at intermediate INC",
                        );
                        self.last_progress = now;
                    }
                }
                return;
            }
            if self.dead_inc[dst.as_usize()] > 0 {
                self.fault_kill(id, "destination INC is dead");
                return;
            }
            let accept = self.nodes[dst.as_usize()].receives_active
                < self.cfg.node.max_concurrent_receives;
            if accept {
                self.buses
                    .set_state(id, BusState::AwaitingHack { hops_left: span });
                self.nodes[dst.as_usize()].receives_active += 1;
                self.wake_bus(id);
                // With early compaction the circuit is assessable from
                // the Hack onwards (§2.4).
                self.mark_dirty(id);
                self.trace(TraceKind::Accept, id, dst, None, "destination accepted");
            } else {
                self.buses.set_state(id, BusState::Nacked { freed: 0 });
                self.refusals += 1;
                self.wake_bus(id);
                self.trace(TraceKind::Refuse, id, dst, None, "destination busy");
            }
            self.last_progress = now;
        }
    }

    fn extend_heads(&mut self) {
        self.for_each_establishing(Self::extend_bus);
    }

    fn extend_bus(&mut self, id: VirtualBusId) {
        let ring = self.ring();
        let now = self.now.get();
        let top = self.cfg.top_bus();
        {
            let (head, last_height, injected_at);
            {
                if !matches!(self.buses.state(id), Some(BusState::Establishing)) {
                    return;
                }
                let bus = self.buses.get(id).expect("bus is live");
                head = bus.head_node(ring);
                if head == bus.spec.destination {
                    return;
                }
                // A multicast header dwells at each tap until the tap has
                // taken its receive port (the decision phase arms it).
                if bus.taps.get(bus.armed_taps) == Some(&head) {
                    return;
                }
                last_height = *bus.heights.last().expect("established hops");
                injected_at = bus.injected_at;
            }
            if injected_at == now {
                // Injected this very tick; the HF advances from next tick.
                return;
            }
            let hop = head.as_usize();
            let chosen = match self.cfg.insertion {
                InsertionPolicy::TopBusOnly => {
                    if self.faulted(hop, top.as_usize()) {
                        // The header lane ahead is dead and a parked HF
                        // cannot sidestep it: Nack back to the source
                        // rather than wait for a repair that may never
                        // come.
                        self.fault_kill(id, "header lane ahead is faulted");
                        return;
                    }
                    // Header flits travel on the top lane only (§2.3).
                    (self.seg(hop, top.as_usize()).is_none()).then_some(top)
                }
                InsertionPolicy::AnyFreeBus => {
                    if self.reach_all_faulted(hop, last_height) {
                        self.fault_kill(id, "every reachable segment ahead is faulted");
                        return;
                    }
                    self.free_within_reach(hop, last_height)
                }
            };
            if let Some(height) = chosen {
                debug_assert!(
                    last_height.is_adjacent_or_equal(height),
                    "extension out of the INC switching range"
                );
                self.occupy(hop, height, id);
                let slot = self.buses.slot(id).expect("bus is live");
                let bus = self.buses.get_mut(id).expect("bus is live");
                self.aside.planes.push(slot, bus.heights.len(), height);
                bus.heights.push(height);
                bus.parked_since = now;
                self.mark_dirty(id);
                self.trace(
                    TraceKind::Extend,
                    id,
                    head,
                    Some(height),
                    "header advanced one hop",
                );
                self.last_progress = now;
            }
        }
    }

    /// `true` when the segment is neither occupied nor faulted. Answered
    /// from the packed bitmaps in `Bitmap` mode (two bit probes), from
    /// the owner and fault tables in `SlabWalk` mode.
    #[inline]
    fn available(&self, hop: usize, bus: usize) -> bool {
        if self.feas_bitmap {
            !self.occ.blocked(hop, bus)
        } else {
            self.seg(hop, bus).is_none() && !self.faulted(hop, bus)
        }
    }

    /// For the `AnyFreeBus` ablation: the first available segment on
    /// `hop` within switching reach of `from`, preferring straight, then
    /// down, then up.
    fn free_within_reach(&self, hop: usize, from: BusIndex) -> Option<BusIndex> {
        if self.available(hop, from.as_usize()) {
            return Some(from);
        }
        if let Some(lower) = from.lower() {
            if self.available(hop, lower.as_usize()) {
                return Some(lower);
            }
        }
        if from.index() + 1 < self.cfg.buses() {
            let upper = from.upper();
            if self.available(hop, upper.as_usize()) {
                return Some(upper);
            }
        }
        None
    }

    /// `true` when every segment within switching reach of `from` at
    /// `hop` is faulted — the header can never advance until a repair, so
    /// waiting is pointless.
    fn reach_all_faulted(&self, hop: usize, from: BusIndex) -> bool {
        let mut all = self.faulted(hop, from.as_usize());
        if let Some(lower) = from.lower() {
            all = all && self.faulted(hop, lower.as_usize());
        }
        if from.index() + 1 < self.cfg.buses() {
            all = all && self.faulted(hop, from.upper().as_usize());
        }
        all
    }

    fn inject_pending(&mut self) {
        let now = self.now.get();
        let n = self.cfg.nodes().as_usize();
        // Rotate the scan start so low-numbered nodes get no static edge.
        let start = (now % n as u64) as usize;
        if self.event_driven {
            // Promote nodes whose queue front has just come due from the
            // timing wheel into the ready set, then attempt injection only
            // at ready nodes — in the same rotated order the dense sweep
            // would visit them. Draining the wheel to `None` leaves its
            // peek hint exact, which `has_due_work` relies on.
            while let Some((_, s)) = self.sched.wheel.pop_due(Tick::new(now)) {
                self.arm_node(s as usize);
            }
            if self.sched.ready.is_empty() {
                // No node has a due queue front; the rotated scan below
                // would visit nothing.
                return;
            }
            let mut ready = std::mem::take(&mut self.sched.scratch_ready);
            ready.clear();
            ready.extend_from_slice(&self.sched.ready);
            let pivot = ready.partition_point(|&s| (s as usize) < start);
            for idx in (pivot..ready.len()).chain(0..pivot) {
                let s = ready[idx] as usize;
                match self.try_inject_at(s) {
                    // Still blocked on a send cap or a busy segment: the
                    // front stays due, so the node stays ready.
                    InjectOutcome::CapBlocked | InjectOutcome::Buffered => {}
                    InjectOutcome::NoFront => self.ready_remove(s),
                    InjectOutcome::NotDue => {
                        // A ready node's front is immutable until visited,
                        // so its `not_before` cannot move into the future.
                        debug_assert!(false, "ready node's front is not due");
                        self.ready_remove(s);
                        self.arm_node(s);
                    }
                    // The front changed (consumed or re-queued with a
                    // backoff): re-arm for the new front, if any.
                    InjectOutcome::RefusedAtSource | InjectOutcome::Injected => {
                        self.ready_remove(s);
                        self.arm_node(s);
                    }
                }
            }
            self.sched.scratch_ready = ready;
        } else {
            for off in 0..n {
                let s = (start + off) % n;
                self.try_inject_at(s);
            }
        }
    }

    /// Attempts to inject the front pending request at node `s`: the
    /// per-node body of the injection phase, shared verbatim by the dense
    /// sweep (which ignores the outcome) and the event engine (which uses
    /// it to maintain the ready set).
    fn try_inject_at(&mut self, s: usize) -> InjectOutcome {
        let now = self.now.get();
        let top = self.cfg.top_bus();
        {
            let node = &self.nodes[s];
            if node.sends_active >= self.cfg.node.max_concurrent_sends {
                return InjectOutcome::CapBlocked;
            }
            let Some(front) = node.pending.front() else {
                return InjectOutcome::NoFront;
            };
            if front.not_before > now {
                return InjectOutcome::NotDue;
            }
            // Faults that park the request forever — a dead source INC,
            // or a header lane that is faulted rather than merely busy —
            // refuse it on the spot so it backs off (and eventually
            // aborts) instead of deadlocking the queue.
            let fault_blocked = self.dead_inc[s] > 0
                || match self.cfg.insertion {
                    InsertionPolicy::TopBusOnly => self.faulted(s, top.as_usize()),
                    InsertionPolicy::AnyFreeBus => {
                        (0..self.cfg.buses() as usize).all(|b| self.faulted(s, b))
                    }
                };
            if fault_blocked {
                self.refuse_at_source(s);
                return InjectOutcome::RefusedAtSource;
            }
            let height = match self.cfg.insertion {
                InsertionPolicy::TopBusOnly => {
                    // A request may only be initiated when the top segment
                    // at this INC is not serving another request (§2.2).
                    (self.seg(s, top.as_usize()).is_none()).then_some(top)
                }
                InsertionPolicy::AnyFreeBus => {
                    // Highest available segment on the source hop.
                    (0..self.cfg.buses())
                        .rev()
                        .map(BusIndex::new)
                        .find(|b| self.available(s, b.as_usize()))
                }
            };
            let Some(height) = height else {
                return InjectOutcome::Buffered; // HF stays buffered at the node (§2.3).
            };
            let pending = self.nodes[s].pending.pop_front().expect("front exists");
            self.pending_total -= 1;
            let id = VirtualBusId::new(self.next_bus);
            self.next_bus += 1;
            self.occupy(s, height, id);
            self.nodes[s].sends_active += 1;
            let bus = VirtualBus {
                id,
                request: pending.request,
                spec: pending.spec,
                requested_at: pending.requested_at,
                injected_at: now,
                refusals: pending.refusals,
                heights: vec![height],
                parked_since: now,
                taps: pending.taps,
                armed_taps: 0,
                fault_killed: false,
            };
            self.trace(
                TraceKind::Inject,
                id,
                pending.spec.source,
                Some(height),
                "HF inserted",
            );
            self.buses.insert(bus, BusState::Establishing);
            let slot = self.buses.slot(id).expect("freshly inserted bus");
            self.aside.planes.reset(slot, height);
            if self.event_driven {
                self.sched_init_bus(id);
            }
            self.last_progress = now;
            InjectOutcome::Injected
        }
    }

    fn run_compaction(&mut self) {
        if !self.cfg.compaction {
            return;
        }
        match &self.opts.compaction_mode {
            CompactionMode::Synchronous => {
                if self.track_dirty
                    && self.sched.compact_dirty.is_empty()
                    && self.sched.pending_wakes.is_empty()
                {
                    // Every live bus has assessed clean in both cycle
                    // phases and nothing woke one since: the dense scan
                    // would decide no move.
                    return;
                }
                let phase = Phase::of_tick(self.now.get());
                // Decide against the phase-start snapshot, then apply: the
                // odd/even assessment rule guarantees the decided moves are
                // mutually compatible (see compaction::tests).
                let mut moves = std::mem::take(&mut self.scratch_moves);
                if self.track_dirty {
                    self.collect_dirty_moves(phase, &mut moves);
                } else {
                    self.collect_moves_into(phase, None, &mut moves);
                }
                for (id, j, from, to, hop) in moves.drain(..) {
                    self.apply_move(id, j, from, to, hop);
                }
                self.scratch_moves = moves;
            }
            CompactionMode::Handshake { periods } => {
                let periods = periods.clone();
                let now = self.now.get();
                let n = self.cfg.nodes().as_usize();
                // `i` is simultaneously a period index, a ring position
                // and a controller index; a plain range reads best here.
                #[allow(clippy::needless_range_loop)]
                for i in 0..n {
                    if !now.is_multiple_of(periods[i]) {
                        continue;
                    }
                    let cycles = self.cycles.as_mut().expect("handshake ring exists");
                    let may_switch = cycles.controller(i).may_switch_datapath();
                    let done = cycles.controller(i).internal_done();
                    let phase = cycles.controller(i).phase();
                    if may_switch && !done {
                        // Perform this INC's datapath switches for its
                        // local phase, then raise ID.
                        let mut moves = std::mem::take(&mut self.scratch_moves);
                        self.collect_moves_into(phase, Some(NodeId::new(i as u32)), &mut moves);
                        for (id, j, from, to, hop) in moves.drain(..) {
                            self.apply_move(id, j, from, to, hop);
                        }
                        self.scratch_moves = moves;
                        let cycles = self.cycles.as_mut().expect("handshake ring exists");
                        cycles.set_internal_done(i, true);
                    }
                    let cycles = self.cycles.as_mut().expect("handshake ring exists");
                    let step = cycles.activate(i);
                    if step == crate::cycle::CycleStep::CycleSwitched {
                        if let Some(rec) = &mut self.recorder {
                            rec.record(TraceEvent {
                                at: self.now,
                                kind: TraceKind::CycleSwitch,
                                id: None,
                                node: Some(i as u32),
                                bus: None,
                                detail: format!(
                                    "phase now {}",
                                    self.cycles.as_ref().unwrap().controller(i).phase()
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Collects the eligible moves for `phase` into `out` (cleared
    /// first), optionally restricted to hops whose upstream INC is
    /// `only_node` — the dense full scan, in ascending id order.
    fn collect_moves_into(
        &self,
        phase: Phase,
        only_node: Option<NodeId>,
        out: &mut Vec<MoveCmd>,
    ) {
        out.clear();
        for i in 0..self.buses.len() {
            let (id, slot) = self.buses.active_entry(i);
            let state = self.buses.state_at(slot);
            if !state.compactable() {
                continue;
            }
            if state.pre_hack() && !self.cfg.early_compaction {
                continue;
            }
            self.collect_bus_moves(id, slot, state, phase, only_node, out);
        }
    }

    /// Appends the eligible moves of one bus to `out`, hops in ascending
    /// order: the per-bus body shared by the dense scan, the dirty set and
    /// the handshake compactor's per-INC scan (restricted to the hop
    /// `only_node` drives). The caller has already filtered on
    /// compactability. Checked runs compare every result against the
    /// per-hop rule it replaced ([`hop_walk_moves`](Self::hop_walk_moves)).
    fn collect_bus_moves(
        &self,
        id: VirtualBusId,
        slot: usize,
        state: BusState,
        phase: Phase,
        only_node: Option<NodeId>,
        out: &mut Vec<MoveCmd>,
    ) {
        let before = out.len();
        self.word_moves(id, slot, state, phase, only_node, out);
        if self.opts.checked {
            let oracle = self.hop_walk_moves(id, slot, state, phase, only_node);
            assert_eq!(
                out[before..],
                oracle[..],
                "word-parallel compaction of bus {id} disagrees with the per-hop rule at {}",
                self.now
            );
        }
    }

    /// Fig. 7 under Fig. 8, decided 64 hops per word. For each level
    /// `ℓ ≥ 1` the bus occupies, hop `j` (bit `j` of height plane `ℓ`)
    /// sinks to `ℓ - 1` when
    ///
    /// * its upstream INC assesses level `ℓ` in this phase (Fig. 8: node,
    ///   level and phase parities sum to even; node parities alternate
    ///   along the bus's arc, and on odd rings the pattern flips once past
    ///   the cut),
    /// * the segment below is neither owned nor faulted (the occupancy
    ///   lanes of bus `ℓ - 1`, read along the same arc), and
    /// * neither neighbouring hop sits at `ℓ + 1` (plane `ℓ + 1` shifted
    ///   one hop either way).
    ///
    /// By continuity (invariant #2) a neighbour sits at `ℓ - 1`, `ℓ` or
    /// `ℓ + 1`, so the last condition is exactly Fig. 7's four
    /// straight/down cases; a PE end has no neighbour bit and always
    /// permits. The hop feeding a parked head keeps its extra rule: it
    /// may sink only from the top (`EndpointHeight::ParkedHead`). Set
    /// bits are emitted in ascending hop order, the order of the per-hop
    /// walk.
    fn word_moves(
        &self,
        id: VirtualBusId,
        slot: usize,
        state: BusState,
        phase: Phase,
        only_node: Option<NodeId>,
        out: &mut Vec<MoveCmd>,
    ) {
        let ring = self.ring();
        let bus = self.buses.at(slot);
        let src = bus.spec.source;
        let len = bus.heights.len();
        let (lo, hi) = self.aside.planes.levels(slot);
        let words = len.div_ceil(64);
        // The per-INC scan assesses one hop: one word, one level, one bit.
        let (word_range, level_range, only_bit) = match only_node {
            None => (0..words, lo.max(1)..=hi, !0u64),
            Some(node) => {
                let j = ring.clockwise_distance(src, node) as usize;
                if j >= len {
                    return;
                }
                let level = bus.heights[j].as_usize();
                (j / 64..j / 64 + 1, level.max(1)..=level, 1u64 << (j % 64))
            }
        };
        let last = len - 1;
        let pinned_head = matches!(state, BusState::Establishing)
            && bus.head_node(ring) != bus.spec.destination
            && bus.heights[last] != self.cfg.top_bus();
        let phase_bit = phase.as_bit() as usize;
        let n = ring.as_usize();
        for w in word_range {
            let start = ring.advance(src, 64 * w as u32).as_usize();
            // Bit i is set when node (start + i) mod n is odd. A bus spans
            // fewer than n hops, so its bits wrap at most once: past the
            // cut an odd ring flips the pattern, and bits past the bus end
            // are masked by the planes.
            let odd = if start.is_multiple_of(2) {
                0xAAAA_AAAA_AAAA_AAAA
            } else {
                0x5555_5555_5555_5555
            };
            let odd = if !n.is_multiple_of(2) && n - start < 64 {
                odd ^ (!0u64 << (n - start))
            } else {
                odd
            };
            let mut moves = 0u64;
            for level in level_range.clone() {
                let assessed = if (level + phase_bit) % 2 == 1 {
                    odd
                } else {
                    !odd
                };
                let mut candidates = self.aside.planes.word(slot, level, w) & assessed;
                if candidates == 0 {
                    continue;
                }
                if level < hi {
                    let up = self.aside.planes.word(slot, level + 1, w);
                    let from_prev = if w > 0 {
                        self.aside.planes.word(slot, level + 1, w - 1) >> 63
                    } else {
                        0
                    };
                    let from_next = if w + 1 < words {
                        self.aside.planes.word(slot, level + 1, w + 1) << 63
                    } else {
                        0
                    };
                    // Bit j: hop j - 1 or hop j + 1 sits at level + 1.
                    candidates &= !((up << 1 | from_prev) | (up >> 1 | from_next));
                    if candidates == 0 {
                        continue;
                    }
                }
                moves |= candidates & !self.occ.blocked_word(level - 1, start);
            }
            moves &= only_bit;
            if pinned_head && w == last / 64 {
                moves &= !(1u64 << (last % 64));
            }
            while moves != 0 {
                let j = 64 * w + moves.trailing_zeros() as usize;
                moves &= moves - 1;
                let from = bus.heights[j];
                let to = from.lower().expect("level 0 never moves");
                out.push((id, j, from, to, ring.advance(src, j as u32).as_usize()));
            }
        }
    }

    /// The per-hop reference for [`word_moves`](Self::word_moves): walks
    /// the bus hop by hop through [`assessed_in_phase`] and
    /// [`HopContext::switchable_down`]. Checked runs compare the two on
    /// every bus compaction assesses.
    fn hop_walk_moves(
        &self,
        id: VirtualBusId,
        slot: usize,
        state: BusState,
        phase: Phase,
        only_node: Option<NodeId>,
    ) -> Vec<MoveCmd> {
        let ring = self.ring();
        let bus = self.buses.at(slot);
        let mut out = Vec::new();
        for j in 0..bus.heights.len() {
            let node = bus.hop_upstream_node(ring, j);
            if only_node.is_some_and(|only| node != only) {
                continue;
            }
            let height = bus.heights[j];
            if !assessed_in_phase(node, height, phase) {
                continue;
            }
            if self.hop_context(bus, state, j).switchable_down().is_some() {
                let to = height.lower().expect("switchable implies not bottom");
                out.push((id, j, height, to, node.as_usize()));
            }
        }
        out
    }

    /// Collects eligible moves for `phase` by walking only the dirty set
    /// (buses a wake-up event touched since they last assessed clean).
    ///
    /// Equivalence with the dense scan: the dirty list is kept in
    /// ascending id order and per-bus hops ascend, so the collected moves
    /// come out in exactly the dense order; and a clean bus cannot have
    /// an eligible move, because every event that can *enable* a move —
    /// segment release or repair below a hop, a state change into a
    /// compactable state, an extension, one of the bus's own hops moving
    /// — re-marks the bus, and a bus only goes clean after assessing
    /// empty in both the odd and even phase. See DESIGN.md.
    fn collect_dirty_moves(&mut self, phase: Phase, out: &mut Vec<MoveCmd>) {
        self.flush_compaction_wakes();
        out.clear();
        let mut dirty = std::mem::take(&mut self.sched.compact_dirty);
        let mut kept = 0usize;
        for i in 0..dirty.len() {
            let id = dirty[i];
            let Some(slot) = self.buses.slot(id) else {
                // The bus died; its slot (and flags) may already belong
                // to a successor, so just drop the entry.
                continue;
            };
            let before = out.len();
            let eligible = {
                let state = self.buses.state_at(slot);
                let ok = state.compactable()
                    && (self.cfg.early_compaction || !state.pre_hack());
                if ok {
                    self.collect_bus_moves(id, slot, state, phase, None, out);
                }
                ok
            };
            if !eligible {
                // Not assessable yet (or a torn-down straggler): the
                // state change that makes it assessable re-marks it.
                self.sched.dirty[slot] = false;
                continue;
            }
            if out.len() > before {
                self.sched.clean_streak[slot] = 0;
                dirty[kept] = id;
                kept += 1;
            } else {
                let streak = &mut self.sched.clean_streak[slot];
                *streak += 1;
                if *streak >= 2 {
                    // No move in either cycle phase: nothing to do until
                    // an enabling event re-marks this bus.
                    self.sched.dirty[slot] = false;
                } else {
                    dirty[kept] = id;
                    kept += 1;
                }
            }
        }
        dirty.truncate(kept);
        self.sched.compact_dirty = dirty;
    }

    /// The compaction context of hop `j` of `bus` (in `state`), for the
    /// per-hop oracle.
    fn hop_context(&self, bus: &VirtualBus, state: BusState, j: usize) -> HopContext {
        let ring = self.ring();
        let height = bus.heights[j];
        let upstream = if j == 0 {
            EndpointHeight::Pe
        } else {
            EndpointHeight::At(bus.heights[j - 1])
        };
        let last = bus.heights.len() - 1;
        let downstream = if j == last {
            match state {
                // INCs monitor only the top segment for header flits, so
                // the hop feeding a parked head must stay at the top.
                BusState::Establishing if bus.head_node(ring) != bus.spec.destination => {
                    EndpointHeight::ParkedHead
                }
                // Head parked at the destination awaiting the decision, or
                // already accepted: the PE interface reads any port.
                _ => EndpointHeight::Pe,
            }
        } else {
            EndpointHeight::At(bus.heights[j + 1])
        };
        let hop = bus.hop_upstream_node(ring, j).as_usize();
        // A faulted segment reads as permanently occupied, so compaction
        // migrates live buses around it (Fig. 7 conditions unchanged).
        let below_free = height
            .lower()
            .map(|lo| self.available(hop, lo.as_usize()))
            .unwrap_or(false);
        HopContext {
            height,
            top: self.cfg.top_bus(),
            upstream,
            downstream,
            below_free,
        }
    }

    fn apply_move(&mut self, id: VirtualBusId, j: usize, from: BusIndex, to: BusIndex, hop: usize) {
        debug_assert_eq!(self.seg(hop, from.as_usize()), Some(id));
        debug_assert!(self.seg(hop, to.as_usize()).is_none());
        let k = self.cfg.buses() as usize;
        let from_idx = hop * k + from.as_usize();
        let to_idx = hop * k + to.as_usize();
        debug_assert_eq!(self.fault_count[to_idx], 0, "moving onto a faulted segment");
        self.segments[from_idx] = None;
        self.segments[to_idx] = Some(id);
        self.occ.move_occupied(hop, from.as_usize(), to.as_usize());
        if self.fault_count[from_idx] == 0 {
            // A same-hop move swaps which layer owns the segment but
            // leaves `busy_segments`, `free_per_hop`, and the full-hops
            // lane exactly as they were — only the wake is needed.
            self.wake_above(hop, from);
        } else {
            // The vacated segment faulted under its occupant: it stays
            // out of the availability pool, so the hop net-loses the
            // free segment the move consumed.
            self.free_per_hop[hop] -= 1;
            if self.free_per_hop[hop] == 0 {
                self.occ.assign_full(hop, true);
            }
        }
        let slot = self.buses.slot(id).expect("moving a live bus");
        self.aside.planes.lower(slot, j, from, to);
        self.buses.at_mut(slot).heights[j] = to;
        self.compaction_moves += 1;
        self.last_progress = self.now.get();
        if self.recorder.is_some() {
            let detail = format!("hop {j} moved {from} -> {to}");
            self.trace(
                TraceKind::CompactMove,
                id,
                NodeId::new(hop as u32),
                Some(to),
                &detail,
            );
        }
    }

    fn finish_tick(&mut self) {
        if self.busy_segments != self.util_sample.0 {
            self.util_sample = (self.busy_segments, self.utilization());
        }
        self.utilization.record(self.util_sample.1);
        self.peak_virtual_buses = self.peak_virtual_buses.max(self.buses.len());
        self.now = self.now.next();
        if self.opts.checked {
            if let Err(v) = self.check_invariants() {
                panic!("invariant violated at {}: {v}", self.now);
            }
            // Downward-only motion (§2.2): a hop's height never increases
            // while its virtual bus lives; extension only appends.
            let mut next = HashMap::with_capacity(self.buses.len());
            for bus in self.buses.values() {
                let heights: Vec<u16> = bus.heights.iter().map(|h| h.index()).collect();
                if let Some(prev) = self.height_history.get(&bus.id.get()) {
                    assert!(prev.len() <= heights.len(), "hops never detach from the front");
                    for (j, (&p, &c)) in prev.iter().zip(&heights).enumerate() {
                        assert!(
                            c <= p,
                            "bus {} hop {j} moved up: {p} -> {c} at {}",
                            bus.id,
                            self.now
                        );
                    }
                }
                next.insert(bus.id.get(), heights);
            }
            self.height_history = next;
        }
    }

    fn occupy(&mut self, hop: usize, bus: BusIndex, id: VirtualBusId) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        debug_assert_eq!(self.fault_count[idx], 0, "occupying a faulted segment");
        let slot = &mut self.segments[idx];
        debug_assert!(slot.is_none(), "segment double-booked");
        *slot = Some(id);
        self.busy_segments += 1;
        self.free_per_hop[hop] -= 1;
        self.occ.assign_occupied(hop, bus.as_usize(), true);
        if self.free_per_hop[hop] == 0 {
            self.occ.assign_full(hop, true);
        }
    }

    fn release(&mut self, hop: usize, bus: BusIndex) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        let slot = &mut self.segments[idx];
        debug_assert!(slot.is_some(), "releasing a free segment");
        *slot = None;
        self.busy_segments -= 1;
        self.occ.assign_occupied(hop, bus.as_usize(), false);
        // A segment that faulted under its occupant stays out of the
        // availability pool; the free count comes back on repair.
        if self.fault_count[idx] == 0 {
            self.free_per_hop[hop] += 1;
            if self.free_per_hop[hop] == 1 {
                // Only a 0 → 1 transition can have the full bit set.
                self.occ.assign_full(hop, false);
            }
            self.wake_above(hop, bus);
        }
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
    /// occupant of `(hop, bus)` by raw index.
    pub(crate) fn segment_slot(&self, hop: usize, bus: usize) -> Option<VirtualBusId> {
        self.seg(hop, bus)
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
        // Take and put back keeps the bus live.
        let b = slab.take(VirtualBusId::new(2)).unwrap();
        slab.put_back(VirtualBusId::new(2), b);
        assert!(slab.get(VirtualBusId::new(2)).is_some());
        // Remove 1 and 3 the way the sweep does: take + discard + compact.
        let ids: Vec<VirtualBusId> = slab.active_ids().to_vec();
        let mut kept = 0;
        for id in ids {
            let bus = slab.take(id).unwrap();
            if id.get() == 1 || id.get() == 3 {
                slab.discard(id);
            } else {
                slab.put_back(id, bus);
                let slot = slab.slot(id).expect("live bus");
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
