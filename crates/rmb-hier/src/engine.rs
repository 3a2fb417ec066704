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
//!   next touched. A wake index finds the due carriers, so a step costs
//!   what is due, not what exists;
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
use rmb_sim::trace::{TraceEvent, TraceKind, VecSink};
use rmb_sim::Tick;
use rmb_types::{AbortedMessage, DeliveredMessage, MessageSpec, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
    /// The wake index: every finite wake has an entry here. `next` holds
    /// the carriers due on the coming step (busy carriers, and carriers a
    /// leg was just launched into), ascending and each once, so a busy
    /// carrier never touches the heap; `later` holds the other wakes,
    /// keyed `(tick, carrier)`. An entry that no longer matches its
    /// carrier's wake is stale and is dropped when reached; the carrier's
    /// current wake has its own entry.
    next: Vec<u32>,
    later: BinaryHeap<Reverse<(u64, u32)>>,
    /// Reused buffer for the carriers one step advances.
    stepping: Vec<u32>,
    /// Per carrier, [`RmbNetwork::deferred_until`] as of the engine's
    /// last touch (0 when nothing is deferred). Only a touch (a launch, an
    /// advance or a catch-up) starts or ends a deferral, so the record is
    /// exact.
    deferred: Vec<u64>,
    /// The carriers whose record may name a teardown still to come, each
    /// once (`listed`); dropped when the idle query finds it passed.
    deferring: Vec<u32>,
    listed: Vec<bool>,
    /// Messages waiting to launch a leg, keyed `(due tick, id)`.
    waiting: BinaryHeap<Reverse<(u64, u64)>>,
    /// Reused buffer for the ids due this tick.
    due: Vec<u64>,
    /// Per carrier, the message of every leg in flight.
    legs: Vec<Legs>,
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

/// Inserts `c` into the ascending list `list` unless it is there. Appends
/// in ascending order, the common case, cost one comparison.
fn insert_sorted(list: &mut Vec<u32>, c: u32) {
    match list.last() {
        Some(&last) if last >= c => {
            if let Err(i) = list.binary_search(&c) {
                list.insert(i, c);
            }
        }
        _ => list.push(c),
    }
}

/// One carrier's legs from its oldest leg in flight on, by ring-local
/// request id. The ids are dense, so a leg is found by offset. A landed
/// leg leaves a hole until every older one has landed too, so the window
/// holds at most the legs launched during its oldest leg's life.
#[derive(Debug, Default)]
struct Legs {
    /// Request id of `ids[0]`.
    base: u64,
    /// Message ids; [`Legs::LANDED`] marks a hole.
    ids: VecDeque<u64>,
}

impl Legs {
    const LANDED: u64 = u64::MAX;

    fn launch(&mut self, rid: u64, id: u64) {
        assert_eq!(
            rid,
            self.base + self.ids.len() as u64,
            "every carrier request is a leg the engine launched"
        );
        self.ids.push_back(id);
    }

    /// Retires the leg of request `rid`, and returns its message.
    fn land(&mut self, rid: u64) -> u64 {
        let slot = rid
            .checked_sub(self.base)
            .and_then(|i| self.ids.get_mut(i as usize))
            .filter(|id| **id != Self::LANDED)
            .expect("every carrier request belongs to a tracked leg");
        let id = std::mem::replace(slot, Self::LANDED);
        while self.ids.front() == Some(&Self::LANDED) {
            self.ids.pop_front();
            self.base += 1;
        }
        id
    }
}

impl Core {
    pub(crate) fn new(carriers: Vec<RmbNetwork>, checked: bool, recording: bool) -> Self {
        let n = carriers.len();
        let mut core = Core {
            memo: LoneMemo::new(),
            dcur: vec![0; n],
            acur: vec![0; n],
            carriers,
            wake: vec![u64::MAX; n],
            next: Vec::new(),
            later: BinaryHeap::new(),
            stepping: Vec::new(),
            deferred: vec![0; n],
            deferring: Vec::new(),
            listed: vec![false; n],
            waiting: BinaryHeap::new(),
            due: Vec::new(),
            legs: (0..n).map(|_| Legs::default()).collect(),
            now: 0,
            live: 0,
            last_progress: 0,
            checked,
            recorder: recording.then(VecSink::new),
        };
        // Fault plans are the only work a fresh carrier has scheduled.
        for c in 0..n {
            core.rewake(c, 0);
        }
        core
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
        insert_sorted(&mut self.next, c);
        self.deferred[c as usize] = 0;
        self.legs[c as usize].launch(rid.get(), id);
        self.last_progress = self.now;
    }

    /// Retires the leg carrier `c` just finished as request `rid`, and
    /// returns its message.
    fn landed(&mut self, c: u32, rid: u64) -> u64 {
        self.last_progress = self.now;
        self.legs[c as usize].land(rid)
    }

    /// Counts the current tick as progress for the stall detector.
    pub(crate) fn progress(&mut self) {
        self.last_progress = self.now;
    }

    /// Refreshes carrier `c`'s wake and deferral record after the engine
    /// moved it to `soon`, the tick of the coming step, and files a changed
    /// wake in the index. An advance always changes it: the old wake had
    /// come, the new one has not. A catch-up that leaves it keeps its entry.
    fn rewake(&mut self, c: usize, soon: u64) {
        let wake = self.carriers[c].next_wake().unwrap_or(u64::MAX);
        // A deferral this touch started wakes the carrier after `soon`:
        // at its delivery, or at a fault event past its teardown. One it
        // found is on record.
        if wake > soon || self.deferred[c] != 0 {
            self.note_deferral(c);
        }
        if wake != self.wake[c] {
            self.wake[c] = wake;
            match wake {
                u64::MAX => {}
                wake if wake <= soon => insert_sorted(&mut self.next, c as u32),
                wake => self.later.push(Reverse((wake, c as u32))),
            }
        }
    }

    /// Takes the carriers whose wake has come, in ascending order (the
    /// memo is shared, so the order carriers advance in is observable),
    /// and leaves `next` empty for the wakes this step files.
    fn take_due(&mut self) -> Vec<u32> {
        let fresh = std::mem::take(&mut self.stepping);
        let mut due = std::mem::replace(&mut self.next, fresh);
        while let Some(&Reverse((at, c))) = self.later.peek() {
            if at > self.now {
                break;
            }
            self.later.pop();
            if self.wake[c as usize] <= self.now {
                insert_sorted(&mut due, c);
            }
        }
        if self.checked {
            let scan: Vec<u32> = (0..self.wake.len() as u32)
                .filter(|&c| self.wake[c as usize] <= self.now)
                .collect();
            assert_eq!(
                due, scan,
                "the wake index disagrees with a scan at tick {}",
                self.now
            );
        }
        due
    }

    /// The earliest carrier wake, or any that has come (`u64::MAX` when
    /// none); drops the stale heap entries in front of it.
    fn first_wake(&mut self) -> u64 {
        let first = self
            .next
            .iter()
            .map(|&c| self.wake[c as usize])
            .min()
            .unwrap_or(u64::MAX);
        if first <= self.now {
            return first;
        }
        while let Some(&Reverse((at, c))) = self.later.peek() {
            if self.wake[c as usize] == at {
                return first.min(at);
            }
            self.later.pop();
        }
        first
    }

    /// Records carrier `c`'s deferral after a touch.
    fn note_deferral(&mut self, c: usize) {
        let until = self.carriers[c].deferred_until().unwrap_or(0);
        self.deferred[c] = until;
        if until != 0 && !self.listed[c] {
            self.listed[c] = true;
            self.deferring.push(c as u32);
        }
    }

    /// The last tick on which a deferred lone circuit still has work, when
    /// that is `now` or later; else 0. Earlier ticks tell the run loop
    /// nothing a 0 does not, so their carriers leave the list.
    fn deferred_max(&mut self) -> u64 {
        let (now, deferred, listed) = (self.now, &self.deferred, &mut self.listed);
        let mut max = 0;
        self.deferring.retain(|&c| {
            let until = deferred[c as usize];
            let ahead = until >= now;
            listed[c as usize] = ahead;
            if ahead {
                max = max.max(until);
            }
            ahead
        });
        max
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
        let mut due = self.core.take_due();
        let core = &mut self.core;
        for &c in &due {
            core.carriers[c as usize].run_window(until, &mut core.memo);
        }
        for &c in &due {
            self.harvest(c);
            self.core.rewake(c as usize, until);
        }
        due.clear();
        self.core.stepping = due;
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
            core.rewake(c, core.now);
        }
    }

    /// `true` when some carrier has due work, or a message is due to
    /// launch a leg this tick. A scan, for callers outside the run loop.
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

    /// The first tick at which something is due: a carrier wake, a launch
    /// or a held launch (`u64::MAX` when nothing is scheduled). `now` or
    /// earlier means something is due now.
    fn next_event(&mut self) -> u64 {
        let core = &mut self.core;
        let waiting = core.waiting.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        let first = core.first_wake().min(waiting);
        if first <= core.now {
            return first;
        }
        first.min(self.router.held().min().unwrap_or(u64::MAX))
    }

    /// The last tick on which a deferred lone circuit still has work (0
    /// when no carrier defers one): up to it, the tick-by-tick loop finds
    /// work on every tick. A scan; the run loop reads the engine's record.
    pub(crate) fn deferred_until(&self) -> u64 {
        self.core
            .carriers
            .iter()
            .filter_map(RmbNetwork::deferred_until)
            .max()
            .unwrap_or(0)
    }

    /// `(next event, last deferred tick)` when nothing is due now. The
    /// deferred tick reads 0 once it has passed, which the run loop treats
    /// the same.
    fn idle(&mut self) -> Option<(u64, u64)> {
        let next = self.next_event();
        if next <= self.core.now {
            return None;
        }
        let busy = self.core.deferred_max();
        if self.core.checked {
            let scan = self.deferred_until();
            let scan = if scan >= self.core.now { scan } else { 0 };
            assert_eq!(
                busy, scan,
                "the deferral record drifted at tick {}",
                self.core.now
            );
        }
        Some((next, busy))
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
        let mut idle = self.idle();
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
                    idle = self.idle();
                    if idle.is_some_and(|(_, busy)| busy < self.core.now) {
                        // Only future launches and backoffs remain; the
                        // clock itself is the progress.
                        self.core.progress();
                    }
                }
            }
            if self.stalled_for(stall_window) {
                stalled = true;
                break;
            }
        }
        self.sync_carriers();
        stalled
    }

    /// `true` once no progress has been seen for more than `window` ticks.
    /// [`Self::last_progress`] never reads below `core.last_progress`, so
    /// it is folded only when that cheaper test already fails.
    fn stalled_for(&self, window: u64) -> bool {
        let now = self.core.now;
        now.saturating_sub(self.core.last_progress) > window
            && now.saturating_sub(self.last_progress(now)) > window
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

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_sim::SimRng;
    use rmb_types::{FaultPlan, RmbConfig};

    /// Messages as chains of legs `(carrier, from, to)`; each further leg
    /// launches on the tick after the previous one lands.
    struct Chains {
        legs: Vec<Vec<(u32, u32, u32)>>,
        next: Vec<usize>,
        /// `(message, delivery tick)` of each final leg, in landing order.
        done: Vec<(u64, u64)>,
    }

    impl Router for Chains {
        fn launch(&mut self, core: &mut Core, id: u64) {
            let i = id as usize;
            let (c, from, to) = self.legs[i][self.next[i]];
            self.next[i] += 1;
            core.launch(id, c, NodeId::new(from), NodeId::new(to), 6);
        }

        fn delivered(&mut self, core: &mut Core, id: u64, _c: u32, d: &DeliveredMessage) {
            if self.next[id as usize] < self.legs[id as usize].len() {
                core.schedule(id, d.delivered_at + 1);
            } else {
                core.live -= 1;
                self.done.push((id, d.delivered_at));
            }
        }

        fn aborted(&mut self, core: &mut Core, _id: u64, _c: u32, _a: &AbortedMessage) {
            core.live -= 1;
        }

        fn stall_window(&self) -> u64 {
            10_000
        }

        const CARRIER_PROGRESS: bool = true;
    }

    type Msg = (u64, Vec<(u32, u32, u32)>);

    /// A checked engine over one 8-node ring per fault plan. With `replay`
    /// the carriers are unchecked, so they defer and replay lone legs.
    fn engine(plans: &[FaultPlan], replay: bool, msgs: &[Msg]) -> Engine<Chains> {
        let cfg = RmbConfig::builder(8, 2)
            .head_timeout(64)
            .retry_backoff(4)
            .build()
            .unwrap();
        let carriers = plans
            .iter()
            .map(|plan| {
                RmbNetwork::builder(cfg)
                    .fault_plan(plan.clone())
                    .checked(!replay)
                    .build()
            })
            .collect();
        let mut engine = Engine {
            core: Core::new(carriers, true, false),
            router: Chains {
                legs: msgs.iter().map(|m| m.1.clone()).collect(),
                next: vec![0; msgs.len()],
                done: Vec::new(),
            },
        };
        for (id, (at, _)) in (0u64..).zip(msgs) {
            engine.core.admit(id, *at);
        }
        engine
    }

    /// Runs `fast` to the end and checks it against the same messages
    /// ticked on checked carriers; returns the lone legs it replayed.
    fn agrees_with_ticking(mut fast: Engine<Chains>, plans: &[FaultPlan], msgs: &[Msg]) -> u64 {
        let mut slow = engine(plans, false, msgs);
        assert!(!fast.run(1_000_000));
        assert!(!slow.run(1_000_000));
        assert_eq!(fast.router.done, slow.router.done);
        assert_eq!(fast.core.now, slow.core.now);
        for (f, s) in fast.core.carriers.iter().zip(&slow.core.carriers) {
            let (fr, sr) = (f.report(), s.report());
            assert_eq!(fr.mean_utilization.to_bits(), sr.mean_utilization.to_bits());
            assert_eq!(format!("{fr:?}"), format!("{sr:?}"));
            assert_eq!(f.delivered_log(), s.delivered_log());
        }
        assert_eq!(slow.core.memo.hits(), 0);
        fast.core.memo.hits()
    }

    #[test]
    fn a_launch_and_a_rewake_of_one_carrier_share_a_step() {
        let plans = vec![FaultPlan::new(); 2];
        let msgs = [(0, vec![(0, 0, 5)]), (3, vec![(0, 1, 2)])];
        let mut e = engine(&plans, true, &msgs);
        while e.core.now < 3 {
            e.step();
        }
        // Carrier 0 streams the first leg: it is filed for the coming
        // step without touching the heap.
        assert_eq!(e.core.next, [0]);
        assert!(e.core.later.is_empty());
        // The second leg's launch files carrier 0 again, where it already
        // is. The step advances it once (checked mode asserts the due set
        // against a scan) and files it once.
        e.step();
        assert_eq!(e.core.next, [0]);
        assert_eq!(e.core.carriers[0].now().get(), 4);
        agrees_with_ticking(e, &plans, &msgs);
    }

    #[test]
    fn a_wake_moved_earlier_leaves_a_stale_entry() {
        let cut = FaultPlan::new().link_cut(40, NodeId::new(6), Some(60));
        let plans = vec![FaultPlan::new(), cut, FaultPlan::new()];
        let msgs = [(5, vec![(1, 0, 2)])];
        let mut e = engine(&plans, true, &msgs);
        assert_eq!(e.core.later.peek(), Some(&Reverse((40, 1))));
        while e.core.now <= 5 {
            e.step();
        }
        // The launch pulled carrier 1's wake from the fault event to the
        // leg; the entry for tick 40 no longer matches it.
        assert!(e.core.wake[1] < 40);
        assert!(e.core.later.iter().any(|&Reverse(entry)| entry == (40, 1)));
        // An idle carrier's stale entry is dropped where it comes due.
        e.core.later.push(Reverse((10, 2)));
        while e.core.now <= 10 {
            e.step();
        }
        assert!(e.core.later.iter().all(|&Reverse((at, _))| at > 10));
        assert_eq!(
            e.core.carriers[2].now().get(),
            0,
            "a stale entry advanced its carrier"
        );
        agrees_with_ticking(e, &plans, &msgs);
    }

    #[test]
    fn an_idle_jump_lands_on_a_pending_wake() {
        // The second leg replays the first's life; carrier 1's fault event
        // comes due in the middle of it.
        let cut = FaultPlan::new().link_cut(205, NodeId::new(6), Some(260));
        let plans = vec![FaultPlan::new(), cut, FaultPlan::new()];
        let msgs = [(0, vec![(0, 0, 3)]), (200, vec![(0, 0, 3)])];
        let mut e = engine(&plans, true, &msgs);
        while e.core.now <= 200 {
            e.step();
        }
        let teardown = e.core.carriers[0]
            .deferred_until()
            .expect("the second leg replays the first one's life");
        assert!(teardown > 205 && e.core.wake[0] > 205);
        // A stale entry ahead of the pending wake does not stop the jump.
        e.core.later.push(Reverse((203, 2)));
        assert_eq!(e.idle(), Some((205, teardown)));
        assert_eq!(agrees_with_ticking(e, &plans, &msgs), 1);
    }

    /// Sparse multi-leg traffic over faulty carriers, replayed by
    /// unchecked carriers under a checked engine: every step cross-checks
    /// the wake index, every idle stretch the deferral record.
    #[test]
    fn checked_mode_cross_checks_the_index_while_legs_replay() {
        let mut rng = SimRng::seed(0x1dec);
        let plans: Vec<FaultPlan> = (0..6u32)
            .map(|c| {
                let at = 500 + 700 * u64::from(c);
                FaultPlan::new().link_cut(at, NodeId::new(c), Some(at + 90))
            })
            .collect();
        let msgs: Vec<Msg> = (0..120u64)
            .map(|i| {
                let legs = (0..1 + rng.index(3).unwrap())
                    .map(|_| {
                        let from = rng.index(8).unwrap() as u32;
                        let to = (from + 1 + rng.index(7).unwrap() as u32) % 8;
                        (rng.index(6).unwrap() as u32, from, to)
                    })
                    .collect();
                (40 * i + rng.index(60).unwrap() as u64, legs)
            })
            .collect();
        let fast = engine(&plans, true, &msgs);
        assert!(agrees_with_ticking(fast, &plans, &msgs) > 10);
    }
}
