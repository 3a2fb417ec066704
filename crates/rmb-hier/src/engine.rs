//! The ring-composition engine: one event-driven coordinator that runs
//! independent carrier rings on a common clock and carries messages
//! across them as chains of circuit legs.
//!
//! A [`Router`] decides how a message travels: which carrier ring takes
//! each leg `(carrier, from, to)`, and what happens when a leg lands. The
//! engine owns everything else, for every router alike:
//!
//! - the due-time launch heap: a message waiting for its next leg is keyed
//!   by the tick it may launch, and due messages launch in id order;
//! - per-carrier wakes: a carrier advances only on ticks it has work
//!   ([`RmbNetwork::next_wake`]); its skipped ticks change nothing but its
//!   clock, so it is caught up with [`RmbNetwork::run_window`] when it is
//!   next touched;
//! - the lone-circuit memo every carrier shares ([`LoneMemo`]): a leg
//!   ticked into an otherwise empty carrier whose life the memo holds
//!   wakes its carrier only at its delivery, and the carrier replays the
//!   life instead of ticking it;
//! - the cursor harvest of each advanced carrier's new deliveries and
//!   aborts;
//! - the idle-stretch jump and the no-progress stall detector of
//!   [`Engine::run`], whose window the router supplies;
//! - the trace recorder and checked mode.

use rmb_core::{LoneMemo, RmbNetwork};
use rmb_sim::trace::{TraceEvent, TraceKind, TraceSink, VecSink};
use rmb_sim::Tick;
use rmb_types::{AbortedMessage, DeliveredMessage, MessageSpec, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// How messages cross a composition of carrier rings. The engine calls
/// these hooks; a router never ticks a ring, scans a log or judges a
/// stall itself.
pub(crate) trait Router {
    /// Message `id` is due: launch its next leg with [`Core::launch`], or
    /// [`Core::schedule`] it for a later tick.
    fn launch(&mut self, core: &mut Core, id: u64);

    /// Launches messages the router holds itself (the hierarchy's bridge
    /// queues); runs after the due messages on every tick.
    fn launch_held(&mut self, _core: &mut Core) {}

    /// The tick at which each message the router holds may launch.
    fn held(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::empty()
    }

    /// Message `id`'s leg on carrier `c` delivered `d`.
    fn delivered(&mut self, core: &mut Core, id: u64, c: u32, d: &DeliveredMessage);

    /// Message `id`'s leg on carrier `c` aborted.
    fn aborted(&mut self, core: &mut Core, id: u64, c: u32, a: &AbortedMessage);

    /// Ticks without progress after which [`Engine::run`] gives up.
    /// [`Engine::run`] skips the ticks of deferred lone legs, so the window
    /// must outlast the longest stretch a lone leg goes without the
    /// progress the router counts: its `Hack` return (span plus one tick)
    /// under [`Self::CARRIER_PROGRESS`], else its whole life.
    fn stall_window(&self) -> u64;

    /// Whether progress inside a carrier (a flit streamed, a header
    /// refused, a compaction move) holds off a stall, as it does for a
    /// lone ring's own run. Otherwise only launches, landings and the
    /// router's refusals count.
    const CARRIER_PROGRESS: bool = false;

    /// Checked mode: panics when the router's own accounting drifted.
    fn check(&self, _core: &Core) {}
}

/// The coordinator state every router shares.
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) carriers: Vec<RmbNetwork>,
    /// Per carrier, the first tick at or after `now` on which it has work
    /// (`u64::MAX` when nothing is scheduled). A carrier is advanced only
    /// once its wake has come, so its own clock may lag `now`.
    wake: Vec<u64>,
    /// Messages waiting to launch a leg, keyed `(due tick, id)`.
    waiting: BinaryHeap<Reverse<(u64, u64)>>,
    /// Reused buffer for the ids due this tick.
    due: Vec<u64>,
    /// `(carrier, ring-local request id) → message id` for every leg in
    /// flight.
    in_flight: HashMap<(u32, u64), u64>,
    /// The lives of lone circuits, shared by every carrier; created
    /// with the engine and dropped with it.
    pub(crate) memo: LoneMemo,
    /// Per-carrier cursors into `delivered_log` / `aborted_log`.
    dcur: Vec<usize>,
    acur: Vec<usize>,
    pub(crate) now: u64,
    /// Messages submitted but neither delivered nor aborted.
    pub(crate) live: usize,
    last_progress: u64,
    checked: bool,
    recorder: Option<VecSink>,
}

impl Core {
    pub(crate) fn new(carriers: Vec<RmbNetwork>, checked: bool, recording: bool) -> Self {
        // Fault plans are the only work a fresh carrier has scheduled.
        let wake = carriers
            .iter()
            .map(|net| net.next_wake().unwrap_or(u64::MAX))
            .collect();
        Core {
            memo: LoneMemo::new(),
            dcur: vec![0; carriers.len()],
            acur: vec![0; carriers.len()],
            carriers,
            wake,
            waiting: BinaryHeap::new(),
            due: Vec::new(),
            in_flight: HashMap::new(),
            now: 0,
            live: 0,
            last_progress: 0,
            checked,
            recorder: recording.then(VecSink::new),
        }
    }

    /// Admits a new message `id`, due to launch its first leg at `at`.
    pub(crate) fn admit(&mut self, id: u64, at: u64) {
        self.live += 1;
        self.schedule(id, at);
    }

    /// Queues message `id` to launch its next leg at tick `at`.
    pub(crate) fn schedule(&mut self, id: u64, at: u64) {
        self.waiting.push(Reverse((at, id)));
    }

    /// Submits leg `from → to` of message `id` into carrier `c`, injected
    /// now. A carrier that sat idle lags the clock; it is caught up first,
    /// and it is advanced this tick.
    pub(crate) fn launch(&mut self, id: u64, c: u32, from: NodeId, to: NodeId, flits: u32) {
        let net = &mut self.carriers[c as usize];
        net.run_window(self.now, &mut self.memo);
        let leg = MessageSpec::new(from, to, flits).at(self.now);
        let rid = net.submit(leg).expect("leg spec is valid by construction");
        // The submission ends any deferral: the carrier ticks from now.
        self.wake[c as usize] = self.now;
        self.in_flight.insert((c, rid.get()), id);
        self.last_progress = self.now;
    }

    /// Retires the in-flight entry of the leg carrier `c` just finished as
    /// request `rid`, and returns its message.
    fn landed(&mut self, c: u32, rid: u64) -> u64 {
        self.last_progress = self.now;
        self.in_flight
            .remove(&(c, rid))
            .expect("every carrier request belongs to a tracked leg")
    }

    /// Counts the current tick as progress for the stall detector.
    pub(crate) fn progress(&mut self) {
        self.last_progress = self.now;
    }

    /// Refreshes carrier `c`'s wake after it moved.
    fn rewake(&mut self, c: usize) {
        self.wake[c] = self.carriers[c].next_wake().unwrap_or(u64::MAX);
    }

    pub(crate) fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records a trace event about message `id` at ring `ring`.
    pub(crate) fn trace(&mut self, id: u64, kind: TraceKind, ring: u32, detail: &str) {
        if self.recording() {
            self.record(id, kind, ring, detail.to_owned());
        }
    }

    pub(crate) fn record(&mut self, id: u64, kind: TraceKind, ring: u32, detail: String) {
        if let Some(rec) = &mut self.recorder {
            rec.record(TraceEvent {
                at: Tick::new(self.now),
                kind,
                id: Some(id),
                node: Some(ring),
                bus: None,
                detail,
            });
        }
    }

    /// Takes the recorded events, ordered by `(tick, ring)` and then by
    /// emission, and keeps recording into a fresh sink.
    pub(crate) fn take_events(&mut self) -> Vec<TraceEvent> {
        match self.recorder.take() {
            Some(sink) => {
                self.recorder = Some(VecSink::new());
                let mut events = sink.into_events();
                events.sort_by_key(|e| (e.at, e.node));
                events
            }
            None => Vec::new(),
        }
    }
}

/// A [`Core`] driven by one router.
#[derive(Debug)]
pub(crate) struct Engine<R> {
    pub(crate) core: Core,
    pub(crate) router: R,
}

impl<R: Router> Engine<R> {
    /// Advances one tick, then catches every carrier up to the new clock,
    /// so a tick-driven caller reads the same per-carrier state as if
    /// every ring had ticked.
    pub(crate) fn tick(&mut self) {
        self.step();
        self.sync_carriers();
    }

    /// One coordinator tick: launch due legs, then advance and harvest
    /// the carriers whose wake has come. Idle carriers fall behind.
    fn step(&mut self) {
        self.launch_due();
        self.router.launch_held(&mut self.core);
        self.advance(self.core.now + 1);
        self.core.now += 1;
        if self.core.checked {
            self.router.check(&self.core);
        }
    }

    /// Launches the messages due now, in id order (submission order):
    /// earlier messages win contended resources.
    fn launch_due(&mut self) {
        let core = &mut self.core;
        let mut due = std::mem::take(&mut core.due);
        while let Some(&Reverse((at, id))) = core.waiting.peek() {
            if at > core.now {
                break;
            }
            core.waiting.pop();
            due.push(id);
        }
        due.sort_unstable();
        for &id in &due {
            self.router.launch(&mut self.core, id);
        }
        due.clear();
        self.core.due = due;
    }

    /// Advances every carrier whose wake has come to `until`, in
    /// ascending carrier order, then hands their new deliveries and
    /// aborts to the router and refreshes their wakes.
    fn advance(&mut self, until: u64) {
        let core = &mut self.core;
        let now = core.now;
        for (net, &wake) in core.carriers.iter_mut().zip(&core.wake) {
            if wake <= now {
                net.run_window(until, &mut core.memo);
            }
        }
        for c in 0..self.core.carriers.len() {
            if self.core.wake[c] <= now {
                self.harvest(c as u32);
                self.core.rewake(c);
            }
        }
    }

    /// Hands carrier `c`'s new deliveries and aborts to the router. Only
    /// a carrier advanced this tick can have any. Cursors are absolute
    /// sequence numbers (`delivered_total` / `aborted_records`), so they
    /// stay valid under windowed log retention inside the rings;
    /// `*_since` panics rather than skip if this per-tick harvest ever
    /// falls behind a window.
    fn harvest(&mut self, c: u32) {
        let ci = c as usize;
        let core = &mut self.core;
        while core.dcur[ci] < core.carriers[ci].delivered_total() as usize {
            let d = core.carriers[ci].delivered_since(core.dcur[ci])[0];
            core.dcur[ci] += 1;
            let id = core.landed(c, d.request.get());
            self.router.delivered(core, id, c, &d);
        }
        while core.acur[ci] < core.carriers[ci].aborted_records() as usize {
            let a = core.carriers[ci].aborted_since(core.acur[ci])[0];
            core.acur[ci] += 1;
            let id = core.landed(c, a.request.get());
            self.router.aborted(core, id, c, &a);
        }
    }

    /// Catches every lagging carrier up to the clock. Their skipped ticks
    /// were idle or a deferred lone circuit's life, so nothing a
    /// harvest reads moves.
    pub(crate) fn sync_carriers(&mut self) {
        let core = &mut self.core;
        for c in 0..core.carriers.len() {
            core.carriers[c].run_window(core.now, &mut core.memo);
            core.rewake(c);
        }
    }

    /// `true` when some carrier has due work, or a message is due to
    /// launch a leg this tick.
    pub(crate) fn has_due_work(&self) -> bool {
        let now = self.core.now;
        self.core.wake.iter().any(|&wake| wake <= now)
            || self
                .core
                .waiting
                .peek()
                .is_some_and(|&Reverse((at, _))| at <= now)
            || self.router.held().any(|at| at <= now)
    }

    /// The first tick at which something is due: a carrier wake or a
    /// launch (`u64::MAX` when nothing is scheduled).
    fn next_event(&self) -> u64 {
        let waiting = self
            .core
            .waiting
            .peek()
            .map_or(u64::MAX, |&Reverse((t, _))| t);
        let held = self.router.held().min().unwrap_or(u64::MAX);
        self.core
            .wake
            .iter()
            .fold(waiting.min(held), |t, &w| t.min(w))
    }

    /// The last tick on which a deferred lone circuit still has work (0
    /// when no carrier defers one): up to it, the tick-by-tick loop finds
    /// work on every tick.
    pub(crate) fn deferred_until(&self) -> u64 {
        self.core
            .carriers
            .iter()
            .filter_map(RmbNetwork::deferred_until)
            .max()
            .unwrap_or(0)
    }

    /// Runs until every message is terminal, the tick budget is spent, or
    /// no progress is observed for the router's stall window; returns
    /// `true` unless the run ended quiescent.
    ///
    /// Stretches in which nothing is due are skipped: the clock jumps to
    /// the next carrier wake or launch. Every carrier is caught up to the
    /// final clock before returning.
    ///
    /// A carrier that defers a lone circuit has work on every tick of its
    /// life, but needs advancing only at the delivery. Those ticks are
    /// skipped too, and the stall detector counts them as the deferred
    /// carrier's progress (see [`Self::last_progress`]).
    pub(crate) fn run(&mut self, max_ticks: u64) -> bool {
        let stall_window = self.router.stall_window();
        let mut stalled = false;
        // `(next event, last deferred tick)` while nothing is due; nothing
        // moves while the loop skips ticks, so it stays valid until a step.
        let mut idle = (!self.has_due_work()).then(|| (self.next_event(), self.deferred_until()));
        while self.core.live > 0 {
            if self.core.now >= max_ticks {
                stalled = true;
                break;
            }
            match idle {
                Some((due, busy)) if busy >= self.core.now => {
                    // Only deferred lives run. The tick-by-tick loop steps
                    // through them without progress of its own, and marks
                    // the clock as progress once the last life has ended
                    // with nothing else due.
                    debug_assert!(
                        R::CARRIER_PROGRESS || busy <= self.core.last_progress + stall_window,
                        "the stall window outlasts a lone leg"
                    );
                    let end = due.min(busy + 1).min(max_ticks);
                    self.core.now = end;
                    if end == busy + 1 && end < due {
                        self.core.progress();
                    }
                    if end == due {
                        idle = None;
                    }
                }
                Some((due, _)) => {
                    // Ticking up to the next event would change nothing
                    // but the clock. The tick-by-tick loop sets
                    // `last_progress` after each such tick, but not after
                    // the one on which work comes due.
                    let target = due.min(max_ticks);
                    debug_assert!(target > self.core.now, "an idle engine has a future event");
                    let skipped = target - self.core.now;
                    self.core.now = target;
                    if target < due {
                        self.core.last_progress = target;
                    } else {
                        if skipped >= 2 {
                            self.core.last_progress = target - 1;
                        }
                        idle = None;
                    }
                }
                None => {
                    self.step();
                    idle =
                        (!self.has_due_work()).then(|| (self.next_event(), self.deferred_until()));
                    if idle.is_some_and(|(_, busy)| busy < self.core.now) {
                        // Only future launches and backoffs remain; the
                        // clock itself is the progress.
                        self.core.progress();
                    }
                }
            }
            if self
                .core
                .now
                .saturating_sub(self.last_progress(self.core.now))
                > stall_window
            {
                stalled = true;
                break;
            }
        }
        self.sync_carriers();
        stalled
    }

    /// The last tick before `now` the stall detector counts as progress.
    /// A carrier deferring a lone circuit counts every tick of its life:
    /// the ticked life pauses at most its span plus one tick, well inside
    /// every router's window, and a router that counts only its own
    /// progress has a window longer than a whole lone leg.
    fn last_progress(&self, now: u64) -> u64 {
        let core = &self.core;
        if R::CARRIER_PROGRESS {
            core.carriers
                .iter()
                .map(|net| net.last_progress_before(now))
                .fold(core.last_progress, u64::max)
        } else {
            core.last_progress
        }
    }
}
