//! The hierarchical network: local rings, a global ring, and the bridge
//! state machine that chains circuit legs across them.
//!
//! # Bridge state machine
//!
//! Every message owned by the hierarchy is in exactly one of these
//! states:
//!
//! ```text
//! AtSource ──(leg 1: source → bridge)──► AtBridge(up, source ring)
//!    │                                        │
//!    │ intra-ring                             │ (leg 2: global ring)
//!    ▼                                        ▼
//! InFlight ──► Done                      AtBridge(down, dest ring)
//!                                             │
//!                                             │ (leg 3: bridge → dest)
//!                                             ▼
//!                                        Done | Failed
//! ```
//!
//! Transitions out of `AtSource` and `AtBridge` only happen when a slot
//! at the *receiving* bridge queue is reserved first; a full queue means
//! refusal and linear backoff, with the message staying where it is. A
//! leg that exhausts its ring's retry budget moves the message to
//! `Failed`, releasing every slot it held, and the failure is reported as
//! a [`ProtocolError::LegAborted`] naming the leg.
//!
//! # Coordination
//!
//! The hierarchy is one router on the crate's composition engine
//! (`engine.rs`), which schedules, advances and harvests the carriers;
//! this module owns the bridge state machine above.

use crate::engine::{Core, Engine, Router};
use crate::model;
use rmb_core::{LoneMemo, RmbNetwork, RunReport};
use rmb_sim::trace::{TraceEvent, TraceKind};
use rmb_types::{
    AbortedMessage, DeliveredMessage, FaultPlan, HierConfig, HierLeg, HierMessageSpec, NodeId,
    PerfStats, ProtocolError, RequestId,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Completion record for a hierarchical message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierDelivered {
    /// The end-to-end hierarchical request.
    pub request: RequestId,
    /// The original specification.
    pub spec: HierMessageSpec,
    /// Tick at which the final leg's last flit arrived.
    pub delivered_at: u64,
    /// Bridge-queue refusals suffered along the way (per-leg circuit
    /// refusals are accounted inside each ring).
    pub bridge_refusals: u32,
}

impl HierDelivered {
    /// End-to-end latency in ticks, from injection to last flit.
    pub const fn latency(&self) -> u64 {
        self.delivered_at.saturating_sub(self.spec.inject_at)
    }
}

/// Terminal failure record for a hierarchical message: one of its legs
/// exhausted that ring's retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierAborted {
    /// The end-to-end hierarchical request.
    pub request: RequestId,
    /// The original specification.
    pub spec: HierMessageSpec,
    /// Why it failed: always [`ProtocolError::LegAborted`], naming the
    /// leg and the ring it ran on.
    pub error: ProtocolError,
    /// Tick at which the failing ring recorded the abort.
    pub aborted_at: u64,
}

/// Summary of a hierarchical run.
///
/// Equality ignores [`perf`](Self::perf): wall-clock measurement is host
/// metadata, and two runs of the same workload must compare equal even
/// though their clocks differ.
#[derive(Debug, Clone, Copy)]
pub struct HierReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Messages submitted.
    pub submitted: usize,
    /// Messages delivered end to end.
    pub delivered: usize,
    /// Messages that failed permanently on some leg.
    pub aborted: usize,
    /// Messages neither delivered nor aborted when the run ended.
    pub undelivered: usize,
    /// `true` when the run ended on the tick budget or a stall, not
    /// quiescence.
    pub stalled: bool,
    /// Bridge-queue refusals (full up/down queue at launch time).
    pub bridge_refusals: u64,
    /// Circuit refusals summed over every ring (Nacks inside legs).
    pub leg_refusals: u64,
    /// Leg retries summed over every ring.
    pub leg_retries: u64,
    /// Fault kills summed over every ring.
    pub fault_kills: u64,
    /// Tick of the last end-to-end delivery (0 when none).
    pub makespan: u64,
    /// Sum of end-to-end latencies of delivered messages.
    pub latency_sum: u64,
    /// Wall-clock measurement of the run (`None` for reports built by
    /// [`HierNetwork::report`], which does not time anything). Excluded
    /// from equality.
    pub perf: Option<PerfStats>,
}

impl PartialEq for HierReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `perf`, which is measurement metadata.
        (
            self.ticks,
            self.submitted,
            self.delivered,
            self.aborted,
            self.undelivered,
            self.stalled,
            self.bridge_refusals,
            self.leg_refusals,
            self.leg_retries,
            self.fault_kills,
            self.makespan,
            self.latency_sum,
        ) == (
            other.ticks,
            other.submitted,
            other.delivered,
            other.aborted,
            other.undelivered,
            other.stalled,
            other.bridge_refusals,
            other.leg_refusals,
            other.leg_retries,
            other.fault_kills,
            other.makespan,
            other.latency_sum,
        )
    }
}

impl HierReport {
    /// Mean end-to-end latency of delivered messages (0 when none).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.delivered as f64
    }
}

impl rmb_types::StatsReport for HierReport {
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
        self.bridge_refusals + self.leg_refusals
    }

    fn is_stalled(&self) -> bool {
        self.stalled
    }

    fn perf(&self) -> Option<PerfStats> {
        self.perf
    }

    fn latency(&self) -> rmb_types::LatencySummary {
        rmb_types::LatencySummary::mean_only(self.delivered as u64, self.mean_latency())
    }
}

/// Where a message currently is; see the module docs for the transition
/// diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Waiting at its source PE (initial state, or backed off after a
    /// bridge-queue refusal).
    AtSource { not_before: u64 },
    /// A leg is in flight inside one ring. `from` is the bridge whose
    /// queue slot the message still occupies (the leg streams out of
    /// that bridge's buffer); `to` is the bridge holding a reservation
    /// for its arrival.
    InFlight {
        leg: HierLeg,
        from: Option<u32>,
        to: Option<u32>,
    },
    /// Parked in a bridge queue, allowed to launch its next leg at
    /// `not_before`.
    AtBridge { not_before: u64 },
    /// Delivered end to end.
    Done,
    /// Aborted on some leg.
    Failed,
}

#[derive(Debug, Clone, Copy)]
struct HierMsg {
    spec: HierMessageSpec,
    /// Bridge-queue refusals so far (drives the linear backoff).
    refusals: u32,
    stage: Stage,
}

/// One bridge INC: a bounded *up* queue toward the global ring and a
/// bounded *down* queue toward the local ring. Slot accounting covers
/// parked messages, inbound reservations and outbound legs still
/// streaming out of this bridge's buffer, so total buffering per
/// direction never exceeds the configured depth. Down slots drain
/// without further reservations, which makes the slot-dependency graph
/// acyclic (up → down → nothing): bridge queues cannot deadlock.
#[derive(Debug, Clone, Default)]
struct Bridge {
    up: VecDeque<u64>,
    down: VecDeque<u64>,
    up_reserved: u32,
    up_in_transit: u32,
    down_reserved: u32,
    down_in_transit: u32,
}

impl Bridge {
    fn up_occupancy(&self) -> u32 {
        self.up.len() as u32 + self.up_reserved + self.up_in_transit
    }

    fn down_occupancy(&self) -> u32 {
        self.down.len() as u32 + self.down_reserved + self.down_in_transit
    }
}

/// A hierarchical multi-ring RMB: `rings` local [`RmbNetwork`]s and one
/// global [`RmbNetwork`] on a common clock, joined by bridge INCs.
///
/// See the crate docs for the routing scheme and an example; see
/// [`HierNetwork::builder`] for fault injection and instrumentation.
#[derive(Debug)]
pub struct HierNetwork {
    /// The composition engine over the carrier rings: carrier `r < rings`
    /// is local ring `r`; carrier `rings` is the global ring.
    engine: Engine<Hier>,
}

/// The hierarchy's router: the bridge state machine.
#[derive(Debug)]
struct Hier {
    cfg: HierConfig,
    bridges: Vec<Bridge>,
    /// Messages parked in some bridge queue; the bridge phase is skipped
    /// while this is zero.
    parked: usize,
    msgs: Vec<HierMsg>,
    delivered: Vec<HierDelivered>,
    aborted: Vec<HierAborted>,
    bridge_refusals: u64,
    latency_sum: u64,
    last_delivery_at: u64,
}

impl HierNetwork {
    /// Creates an idle hierarchy with default options (no faults, legs
    /// retry forever).
    pub fn new(cfg: HierConfig) -> Self {
        Self::builder(cfg).build()
    }

    /// Starts a builder over this configuration; see
    /// [`HierNetworkBuilder`].
    pub fn builder(cfg: HierConfig) -> HierNetworkBuilder {
        HierNetworkBuilder {
            local_plans: vec![FaultPlan::new(); cfg.rings() as usize],
            global_plan: FaultPlan::new(),
            cfg,
            fault_seed: 0,
            leg_max_retries: None,
            checked: false,
            recording: false,
        }
    }

    /// The static configuration.
    pub const fn config(&self) -> &HierConfig {
        &self.engine.router.cfg
    }

    /// Current simulation time.
    pub const fn now(&self) -> u64 {
        self.engine.core.now
    }

    /// Read access to local ring `r` (its report, logs and traces).
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn local(&self, r: u32) -> &RmbNetwork {
        &self.engine.core.carriers[..self.config().rings() as usize][r as usize]
    }

    /// Read access to the global ring.
    pub fn global_ring(&self) -> &RmbNetwork {
        &self.engine.core.carriers[self.config().rings() as usize]
    }

    /// Messages delivered end to end so far, in completion order.
    pub fn delivered_log(&self) -> &[HierDelivered] {
        &self.engine.router.delivered
    }

    /// Messages that failed permanently so far, in abort order. Every
    /// entry's `error` is a [`ProtocolError::LegAborted`] naming the leg.
    pub fn aborted_log(&self) -> &[HierAborted] {
        &self.engine.router.aborted
    }

    /// Messages submitted but not yet delivered or aborted.
    pub fn pending_messages(&self) -> usize {
        self.engine.core.live
    }

    /// `true` once every submitted message reached a terminal state.
    pub fn is_quiescent(&self) -> bool {
        self.engine.core.live == 0
    }

    /// Current occupancy of bridge `r`'s queues as `(up, down)`,
    /// including reservations and legs streaming out of its buffers.
    /// Never exceeds the configured depth per direction.
    pub fn bridge_load(&self, r: u32) -> (u32, u32) {
        let b = &self.engine.router.bridges[r as usize];
        (b.up_occupancy(), b.down_occupancy())
    }

    /// Takes the hierarchy-level trace (bridge ingress/egress, queue
    /// refusals, end-to-end deliveries and aborts) and keeps recording
    /// into a fresh sink. Per-ring protocol traces are not recorded —
    /// tick the rings through their own recording option if needed.
    ///
    /// # Ordering contract
    ///
    /// Events are returned globally ordered by `(tick, ring, seq)`: first
    /// by the tick they occurred at, then by the ring (`node` field) they
    /// name, then by the order the coordinator emitted them within that
    /// tick and ring. Earlier versions returned raw emission order, which
    /// interleaved rings according to internal phase structure; the sorted
    /// order is what consumers can rely on, and the stable sort keeps
    /// per-ring causality intact.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.engine.core.take_events()
    }

    /// Submits a message for delivery.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownAddress`] when an endpoint is outside the
    /// hierarchy or names a bridge position, [`ProtocolError::SelfMessage`]
    /// when source and destination coincide.
    pub fn submit(&mut self, spec: HierMessageSpec) -> Result<RequestId, ProtocolError> {
        let cfg = self.config();
        for addr in [spec.source, spec.destination] {
            if !cfg.contains(addr) || cfg.is_bridge(addr) {
                return Err(ProtocolError::unknown_address(addr));
            }
        }
        if spec.source == spec.destination {
            return Err(ProtocolError::self_message(spec.source.node));
        }
        let msgs = &mut self.engine.router.msgs;
        let id = msgs.len() as u64;
        msgs.push(HierMsg {
            spec,
            refusals: 0,
            stage: Stage::AtSource {
                not_before: spec.inject_at,
            },
        });
        self.engine.core.admit(id, spec.inject_at);
        Ok(RequestId::new(id))
    }

    /// Submits a batch, stopping at the first invalid spec.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit); earlier messages stay submitted.
    pub fn submit_all<I>(&mut self, specs: I) -> Result<Vec<RequestId>, ProtocolError>
    where
        I: IntoIterator<Item = HierMessageSpec>,
    {
        specs.into_iter().map(|s| self.submit(s)).collect()
    }

    /// Advances the hierarchy by one tick: launches due legs, advances and
    /// harvests the carriers with due work, then catches every other
    /// carrier up to the new clock. Callers that drive the hierarchy tick
    /// by tick therefore read the same per-carrier state as if every ring
    /// had ticked.
    pub fn tick(&mut self) {
        self.engine.tick();
    }

    /// `true` when some ring has due work, including a lone leg it replays
    /// instead of ticking, or a message is due to launch a leg this tick.
    pub fn has_due_work(&self) -> bool {
        self.engine.has_due_work() || self.engine.deferred_until() >= self.now()
    }

    /// The lives of lone legs this hierarchy's carriers recorded and
    /// replayed instead of ticking (see [`RmbNetwork::run_window`]), with
    /// the hit, miss and jumped-tick counts.
    pub fn lone_memo(&self) -> &LoneMemo {
        &self.engine.core.memo
    }

    /// Runs until every message is terminal, the tick budget is spent, or
    /// no progress is observed for a conservative stall window.
    ///
    /// Stretches in which nothing is due are skipped: the clock jumps to
    /// the next carrier wake, source launch or bridge launch. Every
    /// carrier is caught up to the final clock before the report is built.
    ///
    /// The returned report carries a [`PerfStats`] timing this call
    /// (wall-clock metadata only — excluded from report equality).
    pub fn run_to_quiescence(&mut self, max_ticks: u64) -> HierReport {
        let start = Instant::now();
        let from = self.now();
        let stalled = self.engine.run(max_ticks);
        let mut report = self.report_with(stalled);
        report.perf = Some(PerfStats::measure(self.now() - from, start.elapsed(), 1));
        report
    }

    /// Builds a report of everything observed so far.
    pub fn report(&self) -> HierReport {
        self.report_with(false)
    }

    fn report_with(&self, stalled: bool) -> HierReport {
        let mut leg_refusals = 0;
        let mut leg_retries = 0;
        let mut fault_kills = 0;
        for net in &self.engine.core.carriers {
            let r: RunReport = net.report();
            leg_refusals += r.refusals;
            leg_retries += r.retries;
            fault_kills += r.fault_kills;
        }
        let hier = &self.engine.router;
        HierReport {
            ticks: self.now(),
            submitted: hier.msgs.len(),
            delivered: hier.delivered.len(),
            aborted: hier.aborted.len(),
            undelivered: self.pending_messages(),
            stalled,
            bridge_refusals: hier.bridge_refusals,
            leg_refusals,
            leg_retries,
            fault_kills,
            makespan: hier.last_delivery_at,
            latency_sum: hier.latency_sum,
            perf: None,
        }
    }
}

impl Router for Hier {
    /// Launches a due message out of its source PE: intra-ring traffic
    /// goes straight into its local ring; inter-ring traffic needs an up
    /// slot at its ring's bridge first. A full up queue refuses it: it
    /// backs off and waits at its source again.
    fn launch(&mut self, core: &mut Core, id: u64) {
        let now = core.now;
        let spec = self.msgs[id as usize].spec;
        debug_assert!(matches!(
            self.msgs[id as usize].stage,
            Stage::AtSource { not_before } if not_before <= now
        ));
        if spec.is_intra_ring() {
            let r = spec.source.ring;
            let stage = Stage::InFlight {
                leg: HierLeg::SourceLocal,
                from: None,
                to: None,
            };
            self.send(core, id, r, spec.source.node, spec.destination.node, stage);
            return;
        }
        let b = spec.source.ring;
        if self.bridges[b as usize].up_occupancy() >= self.cfg.bridge_queue_depth() {
            self.refuse(core, id, b, "up");
            let m = &mut self.msgs[id as usize];
            let not_before = now + self.cfg.bridge_backoff() * m.refusals as u64;
            m.stage = Stage::AtSource { not_before };
            core.schedule(id, not_before);
            return;
        }
        self.bridges[b as usize].up_reserved += 1;
        let stage = Stage::InFlight {
            leg: HierLeg::SourceLocal,
            from: None,
            to: Some(b),
        };
        self.send(core, id, b, spec.source.node, self.cfg.bridge(), stage);
    }

    /// Launches due messages out of bridge queues: the down direction
    /// first (it never waits on another queue), then the up direction,
    /// which must reserve a down slot at the destination bridge. One
    /// launch per direction per bridge per tick — a bridge's egress is a
    /// single INC port.
    fn launch_held(&mut self, core: &mut Core) {
        if self.parked == 0 {
            return;
        }
        let now = core.now;
        let depth = self.cfg.bridge_queue_depth();
        for r in 0..self.cfg.rings() {
            if let Some(&id) = self.bridges[r as usize].down.front() {
                if self.due_at_bridge(id, now) {
                    self.bridges[r as usize].down.pop_front();
                    self.bridges[r as usize].down_in_transit += 1;
                    self.parked -= 1;
                    let dest = self.msgs[id as usize].spec.destination.node;
                    let stage = Stage::InFlight {
                        leg: HierLeg::DestLocal,
                        from: Some(r),
                        to: None,
                    };
                    self.send(core, id, r, self.cfg.bridge(), dest, stage);
                    core.trace(id, TraceKind::BridgeEgress, r, "dest-local leg launched");
                }
            }
            if let Some(&id) = self.bridges[r as usize].up.front() {
                if self.due_at_bridge(id, now) {
                    let dest = self.msgs[id as usize].spec.destination.ring;
                    if self.bridges[dest as usize].down_occupancy() >= depth {
                        self.refuse(core, id, dest, "down");
                        let m = &mut self.msgs[id as usize];
                        m.stage = Stage::AtBridge {
                            not_before: now + self.cfg.bridge_backoff() * m.refusals as u64,
                        };
                    } else {
                        self.bridges[r as usize].up.pop_front();
                        self.bridges[r as usize].up_in_transit += 1;
                        self.parked -= 1;
                        self.bridges[dest as usize].down_reserved += 1;
                        let g = self.cfg.rings();
                        let stage = Stage::InFlight {
                            leg: HierLeg::Global,
                            from: Some(r),
                            to: Some(dest),
                        };
                        self.send(core, id, g, NodeId::new(r), NodeId::new(dest), stage);
                        core.trace(id, TraceKind::BridgeEgress, r, "global leg launched");
                    }
                }
            }
        }
    }

    /// `not_before` of the message at the head of every non-empty bridge
    /// queue.
    fn held(&self) -> impl Iterator<Item = u64> + '_ {
        let bridges = if self.parked > 0 {
            &self.bridges[..]
        } else {
            &[]
        };
        bridges
            .iter()
            .flat_map(|b| [b.up.front(), b.down.front()])
            .flatten()
            .map(|&id| match self.msgs[id as usize].stage {
                Stage::AtBridge { not_before } => not_before,
                _ => unreachable!("a queued message is AtBridge"),
            })
    }

    fn delivered(&mut self, core: &mut Core, id: u64, _c: u32, d: &DeliveredMessage) {
        let Stage::InFlight { leg, from, to } = self.msgs[id as usize].stage else {
            unreachable!("a delivered leg implies an in-flight message");
        };
        match (leg, to) {
            // Leg 1 of an inter-ring route: into the up queue. The dwell
            // clock starts at the tick the leg's last flit landed.
            (HierLeg::SourceLocal, Some(b)) => {
                self.bridges[b as usize].up_reserved -= 1;
                self.bridges[b as usize].up.push_back(id);
                self.parked += 1;
                self.msgs[id as usize].stage = Stage::AtBridge {
                    not_before: d.delivered_at + model::BRIDGE_DWELL_TICKS,
                };
                core.trace(id, TraceKind::BridgeIngress, b, "entered up queue");
            }
            // Leg 2: across the global ring, into the down queue.
            (HierLeg::Global, _) => {
                let (a, b) = (
                    from.expect("global legs leave a bridge"),
                    to.expect("global legs enter a bridge"),
                );
                self.bridges[a as usize].up_in_transit -= 1;
                self.bridges[b as usize].down_reserved -= 1;
                self.bridges[b as usize].down.push_back(id);
                self.parked += 1;
                self.msgs[id as usize].stage = Stage::AtBridge {
                    not_before: d.delivered_at + model::BRIDGE_DWELL_TICKS,
                };
                core.trace(id, TraceKind::BridgeIngress, b, "entered down queue");
            }
            // Final leg (or the only leg of intra-ring traffic).
            (HierLeg::DestLocal, _) | (HierLeg::SourceLocal, None) => {
                if let Some(b) = from {
                    self.bridges[b as usize].down_in_transit -= 1;
                }
                let m = &mut self.msgs[id as usize];
                m.stage = Stage::Done;
                let rec = HierDelivered {
                    request: RequestId::new(id),
                    spec: m.spec,
                    delivered_at: d.delivered_at,
                    bridge_refusals: m.refusals,
                };
                self.latency_sum += rec.latency();
                self.last_delivery_at = self.last_delivery_at.max(d.delivered_at);
                self.delivered.push(rec);
                core.live -= 1;
                let ring = rec.spec.destination.ring;
                core.trace(id, TraceKind::Deliver, ring, "delivered end to end");
            }
        }
    }

    fn aborted(&mut self, core: &mut Core, id: u64, c: u32, a: &AbortedMessage) {
        let Stage::InFlight { leg, from, to } = self.msgs[id as usize].stage else {
            unreachable!("an aborted leg implies an in-flight message");
        };
        // Release every slot the dead message held or reserved.
        if let Some(b) = from {
            match leg {
                HierLeg::Global => self.bridges[b as usize].up_in_transit -= 1,
                HierLeg::DestLocal => self.bridges[b as usize].down_in_transit -= 1,
                HierLeg::SourceLocal => unreachable!("leg 1 launches from a PE, not a bridge"),
            }
        }
        if let Some(b) = to {
            match leg {
                HierLeg::SourceLocal => self.bridges[b as usize].up_reserved -= 1,
                HierLeg::Global => self.bridges[b as usize].down_reserved -= 1,
                HierLeg::DestLocal => unreachable!("the final leg reserves nothing"),
            }
        }
        let ring = if c < self.cfg.rings() { Some(c) } else { None };
        let m = &mut self.msgs[id as usize];
        m.stage = Stage::Failed;
        let rec = HierAborted {
            request: RequestId::new(id),
            spec: m.spec,
            error: ProtocolError::leg_aborted(leg, ring, RequestId::new(id)),
            aborted_at: a.aborted_at,
        };
        self.aborted.push(rec);
        core.live -= 1;
        let at = ring.unwrap_or(self.cfg.rings());
        core.trace(id, TraceKind::Abort, at, "leg aborted, message dropped");
    }

    /// Window for the no-progress stall detector: generous multiples of
    /// the span, backoff and timeout scales involved, and never shorter
    /// than the longest message's lone leg, which counts no progress
    /// between its launch and its landing.
    fn stall_window(&self) -> u64 {
        let backoff = self
            .cfg
            .bridge_backoff()
            .max(self.cfg.local().node.retry_backoff)
            .max(self.cfg.global().node.retry_backoff);
        let base = 4 * self.cfg.total_nodes() as u64
            + 16 * backoff
            + 3 * self.cfg.local().head_timeout.unwrap_or(0)
            + 3 * self.cfg.global().head_timeout.unwrap_or(0)
            + 1024;
        let flits = self
            .msgs
            .iter()
            .map(|m| m.spec.data_flits)
            .max()
            .unwrap_or(0);
        let leg = model::lone_leg_ticks(self.cfg.local(), flits)
            .max(model::lone_leg_ticks(self.cfg.global(), flits));
        base.max(leg + 64)
    }

    /// Panics when slot accounting drifted: occupancy above depth, or
    /// counters inconsistent with the message stages.
    fn check(&self, core: &Core) {
        let depth = self.cfg.bridge_queue_depth();
        let queued: usize = self.bridges.iter().map(|b| b.up.len() + b.down.len()).sum();
        assert_eq!(queued, self.parked, "parked count drifted");
        for (r, b) in self.bridges.iter().enumerate() {
            assert!(
                b.up_occupancy() <= depth && b.down_occupancy() <= depth,
                "bridge {r} over depth: up {} down {} (depth {depth})",
                b.up_occupancy(),
                b.down_occupancy(),
            );
            for &id in b.up.iter().chain(b.down.iter()) {
                assert!(
                    matches!(self.msgs[id as usize].stage, Stage::AtBridge { .. }),
                    "queued message {id} not AtBridge"
                );
            }
        }
        let terminal = self
            .msgs
            .iter()
            .filter(|m| matches!(m.stage, Stage::Done | Stage::Failed))
            .count();
        assert_eq!(self.msgs.len() - terminal, core.live, "live count drifted");
    }
}

impl Hier {
    /// Submits leg `from → to` of message `id` into carrier `c` and moves
    /// the message to `stage`.
    fn send(&mut self, core: &mut Core, id: u64, c: u32, from: NodeId, to: NodeId, stage: Stage) {
        let flits = self.msgs[id as usize].spec.data_flits;
        core.launch(id, c, from, to, flits);
        self.msgs[id as usize].stage = stage;
    }

    /// Counts a bridge-queue refusal against message `id` (the caller
    /// rewrites its stage with the backed-off `not_before`).
    fn refuse(&mut self, core: &mut Core, id: u64, bridge: u32, dir: &str) {
        self.msgs[id as usize].refusals += 1;
        self.bridge_refusals += 1;
        core.progress();
        if core.recording() {
            let detail = format!("{dir} queue of bridge {bridge} full");
            core.record(id, TraceKind::Refuse, bridge, detail);
        }
    }

    fn due_at_bridge(&self, id: u64, now: u64) -> bool {
        matches!(
            self.msgs[id as usize].stage,
            Stage::AtBridge { not_before } if not_before <= now
        )
    }
}

/// Builds a [`HierNetwork`]: per-ring fault plans, retry budget and
/// instrumentation.
#[derive(Debug, Clone)]
pub struct HierNetworkBuilder {
    cfg: HierConfig,
    local_plans: Vec<FaultPlan>,
    global_plan: FaultPlan,
    fault_seed: u64,
    leg_max_retries: Option<u32>,
    checked: bool,
    recording: bool,
}

impl HierNetworkBuilder {
    /// Installs a deterministic fault schedule on local ring `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    #[must_use]
    pub fn local_fault_plan(mut self, r: u32, plan: FaultPlan) -> Self {
        self.local_plans[r as usize] = plan;
        self
    }

    /// Installs a deterministic fault schedule on the global ring.
    #[must_use]
    pub fn global_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.global_plan = plan;
        self
    }

    /// Seeds the fault-retry jitter streams (each ring gets a distinct
    /// derived seed).
    #[must_use]
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Bounds retries per leg: a leg refused more than `limit` times
    /// aborts its whole message (reported as
    /// [`ProtocolError::LegAborted`]). Without it legs retry forever,
    /// the classic protocol behaviour.
    #[must_use]
    pub fn leg_max_retries(mut self, limit: u32) -> Self {
        self.leg_max_retries = Some(limit);
        self
    }

    /// Enables invariant checking: protocol invariants inside every ring
    /// after each tick it simulates (skipped idle ticks change nothing
    /// to check), plus bridge slot accounting at the hierarchy level.
    #[must_use]
    pub fn checked(mut self, on: bool) -> Self {
        self.checked = on;
        self
    }

    /// Records the hierarchy-level trace (bridge ingress/egress, queue
    /// refusals, end-to-end completions).
    #[must_use]
    pub fn recording(mut self, on: bool) -> Self {
        self.recording = on;
        self
    }

    /// Constructs the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics when a fault plan names nodes or buses outside its ring.
    #[must_use]
    pub fn build(self) -> HierNetwork {
        let rings = self.cfg.rings();
        let mut carriers = Vec::with_capacity(rings as usize + 1);
        for (r, plan) in self.local_plans.into_iter().enumerate() {
            let mut b = RmbNetwork::builder(*self.cfg.local())
                .fault_plan(plan)
                .fault_seed(self.fault_seed.wrapping_add(r as u64 + 1))
                .checked(self.checked);
            if let Some(limit) = self.leg_max_retries {
                b = b.max_retries(limit);
            }
            carriers.push(b.build());
        }
        let mut g = RmbNetwork::builder(*self.cfg.global())
            .fault_plan(self.global_plan)
            .fault_seed(self.fault_seed)
            .checked(self.checked);
        if let Some(limit) = self.leg_max_retries {
            g = g.max_retries(limit);
        }
        carriers.push(g.build());
        let hier = Hier {
            bridges: vec![Bridge::default(); rings as usize],
            parked: 0,
            cfg: self.cfg,
            msgs: Vec::new(),
            delivered: Vec::new(),
            aborted: Vec::new(),
            bridge_refusals: 0,
            latency_sum: 0,
            last_delivery_at: 0,
        };
        HierNetwork {
            engine: Engine {
                core: Core::new(carriers, self.checked, self.recording),
                router: hier,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::NodeAddr;

    fn addr(ring: u32, node: u32) -> NodeAddr {
        NodeAddr::new(ring, NodeId::new(node))
    }

    fn small() -> HierConfig {
        HierConfig::builder(2, 8, 2).build().unwrap()
    }

    #[test]
    fn submit_validates_addresses() {
        let mut net = HierNetwork::new(small());
        let ok = HierMessageSpec::new(addr(0, 1), addr(1, 2), 4);
        assert!(net.submit(ok).is_ok());
        let bridge = HierMessageSpec::new(addr(0, 1), addr(1, 0), 4);
        assert!(matches!(
            net.submit(bridge),
            Err(ProtocolError::UnknownAddress { .. })
        ));
        let far = HierMessageSpec::new(addr(2, 1), addr(1, 2), 4);
        assert!(matches!(
            net.submit(far),
            Err(ProtocolError::UnknownAddress { .. })
        ));
        let selfmsg = HierMessageSpec::new(addr(1, 3), addr(1, 3), 4);
        assert!(matches!(
            net.submit(selfmsg),
            Err(ProtocolError::SelfMessage { .. })
        ));
    }

    #[test]
    fn unloaded_runs_match_the_analytical_model() {
        for spec in [
            HierMessageSpec::new(addr(0, 2), addr(0, 6), 8), // intra
            HierMessageSpec::new(addr(0, 3), addr(1, 5), 8), // inter
            HierMessageSpec::new(addr(1, 7), addr(0, 1), 16), // inter, wrap
        ] {
            let cfg = small();
            let mut net = HierNetwork::builder(cfg).checked(true).build();
            net.submit(spec).unwrap();
            let report = net.run_to_quiescence(10_000);
            assert_eq!(report.delivered, 1, "{spec}");
            assert_eq!(
                net.delivered_log()[0].latency(),
                model::unloaded_latency(&cfg, &spec),
                "{spec}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut net = HierNetwork::builder(small()).recording(true).build();
            for i in 0..20u32 {
                let src = addr(i % 2, 1 + i % 7);
                let dst = addr((i + 1) % 2, 1 + (i + 3) % 7);
                net.submit(HierMessageSpec::new(src, dst, 4).at(u64::from(i) * 3))
                    .unwrap();
            }
            let report = net.run_to_quiescence(100_000);
            (report, net.delivered_log().to_vec(), net.take_events())
        };
        let (r1, d1, e1) = run();
        let (r2, d2, e2) = run();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
        assert_eq!(e1, e2);
        assert_eq!(r1.delivered, 20);
    }

    #[test]
    fn bounded_queue_refuses_and_recovers() {
        // Depth 1 with a burst of inter-ring messages: refusals must
        // occur, yet everything is delivered and the bound holds (the
        // checked build panics on any overflow).
        let cfg = HierConfig::builder(2, 8, 2)
            .bridge_queue_depth(1)
            .bridge_backoff(4)
            .build()
            .unwrap();
        let mut net = HierNetwork::builder(cfg).checked(true).build();
        for i in 0..10u32 {
            net.submit(HierMessageSpec::new(
                addr(0, 1 + i % 7),
                addr(1, 1 + (i + 2) % 7),
                8,
            ))
            .unwrap();
        }
        let report = net.run_to_quiescence(1_000_000);
        assert_eq!(report.delivered, 10);
        assert!(report.bridge_refusals > 0, "depth 1 must refuse a burst");
        assert_eq!(net.bridge_load(0), (0, 0));
        assert_eq!(net.bridge_load(1), (0, 0));
    }

    #[test]
    fn traces_name_bridge_crossings() {
        let mut net = HierNetwork::builder(small()).recording(true).build();
        net.submit(HierMessageSpec::new(addr(0, 3), addr(1, 5), 4))
            .unwrap();
        net.run_to_quiescence(10_000);
        let events = net.take_events();
        let count = |k: TraceKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(TraceKind::BridgeIngress), 2, "up then down queue");
        assert_eq!(count(TraceKind::BridgeEgress), 2, "global then dest-local");
        assert_eq!(count(TraceKind::Deliver), 1);
    }

    #[test]
    fn intra_ring_traffic_never_touches_bridges() {
        let mut net = HierNetwork::builder(small())
            .recording(true)
            .checked(true)
            .build();
        for i in 0..6u32 {
            net.submit(HierMessageSpec::new(
                addr(1, 1 + i),
                addr(1, 1 + (i + 2) % 7),
                4,
            ))
            .unwrap();
        }
        let report = net.run_to_quiescence(10_000);
        assert_eq!(report.delivered, 6);
        assert_eq!(report.bridge_refusals, 0);
        let events = net.take_events();
        assert!(events
            .iter()
            .all(|e| !matches!(e.kind, TraceKind::BridgeIngress | TraceKind::BridgeEgress)));
        // The global ring never saw a request.
        assert_eq!(net.global_ring().report().delivered, 0);
    }
}
