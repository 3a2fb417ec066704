//! Exact macro-steps for lone circuits.
//!
//! A circuit injected into an otherwise empty ring lives a fixed life
//! when nothing can touch the ring before its teardown (nothing queued,
//! no fault active or due, no multicast taps): header out on the top bus,
//! `Hack` back, data streamed, `Fack` teardown (§2.2–2.4), with a
//! compaction path fixed by Fig. 7/8. Every tick of that life follows
//! from the ring's configuration, the circuit's span and body, and its
//! Fig. 8 class ([`Key`]), so a composition that drives its rings through
//! [`RmbNetwork::run_window`] can replay the life instead of ticking it.
//!
//! [`LoneMemo`] holds the lives ([`LoneLife`]), and only `tick()` makes
//! them: `run_window` watches the ticks it makes, and the first time a key
//! runs alone from injection to teardown it keeps what those ticks did.
//! When a later circuit with a memoised key is ticked into an otherwise
//! empty ring, the ring *defers* it. Its state stays that of the
//! injection tick, [`RmbNetwork::next_wake`] names the delivery tick, and
//! a `run_window` that reaches past the end of a segment jumps it:
//!
//! - injection → delivery: the hops take their completion heights, the
//!   delivery goes through the ordinary bookkeeping at its own tick, and
//!   the skipped ticks' busy segments join the utilisation sum, one
//!   product per recorded run;
//! - delivery → teardown: the hops are released.
//!
//! Both segments are needed because the delivery is observed mid-life: a
//! composition harvests it and may launch the next leg before the circuit
//! has torn down. A window that ends inside a segment, a submission, or a
//! tick made outside `run_window` drops the deferral. The ring then ticks
//! on from its own clock, which is exact: a deferred ring's state is
//! always the true state at its clock.

use super::RmbNetwork;
use crate::virtual_bus::BusState;
use rmb_sim::Tick;
use rmb_types::{BusIndex, RmbConfig, VirtualBusId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What fixes a lone circuit's life. Equality compares the whole
/// configuration; the hash reads only the fields that vary between the
/// circuits of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    cfg: RmbConfig,
    span: u32,
    flits: u32,
    /// Fig. 8 class. A hop is assessed by the parity of its upstream
    /// node, its level and the tick. On even rings node parity alternates
    /// along any arc, so `(source + injection tick) mod 2` fixes every
    /// assessment; on odd rings the pattern flips at the cut, so the class
    /// is the source node and the tick parity.
    class: u32,
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.cfg.nodes().get(), self.span, self.flits, self.class).hash(state);
    }
}

/// One key's life, as `tick()` produced it the first time the key ran
/// alone from injection to teardown. Offsets count ticks after the
/// injection tick.
#[derive(Debug)]
pub struct LoneLife {
    span: u32,
    data_flits: u32,
    /// The `Hack` reached the source and streaming began.
    circuit: u64,
    /// The header's last advance.
    parked: u64,
    /// The final flit arrived.
    delivery: u64,
    /// The last hop was released.
    teardown: u64,
    /// Compaction moves up to the delivery; a circuit tearing down never
    /// moves.
    moves: u64,
    /// Hop heights at the delivery, which the teardown releases.
    heights: Vec<BusIndex>,
    /// Busy segments after each tick from offset 1 to `teardown`, as
    /// `(busy, ticks)` runs; runs `..split` cover offsets up to the
    /// delivery, the rest the teardown.
    busy: Vec<(u32, u32)>,
    split: usize,
}

impl LoneLife {
    /// Hops of the circuit.
    pub fn span(&self) -> u32 {
        self.span
    }

    /// Data flits it carried.
    pub fn data_flits(&self) -> u32 {
        self.data_flits
    }

    /// Ticks from the injection tick to the delivery tick.
    pub fn delivery_ticks(&self) -> u64 {
        self.delivery
    }

    /// Ticks from the injection tick to the tick its last hop was freed.
    pub fn teardown_ticks(&self) -> u64 {
        self.teardown
    }
}

/// Lone-circuit lives recorded by [`RmbNetwork::run_window`] and
/// replayed by later windows; see [`RmbNetwork::run_window`].
///
/// A memo belongs to one driver run: share it between the rings that
/// driver advances, and drop it with them.
#[derive(Debug, Default)]
pub struct LoneMemo {
    lives: HashMap<Key, Arc<LoneLife>>,
    hits: u64,
    misses: u64,
    jumped: u64,
}

impl LoneMemo {
    /// An empty memo; allocates nothing until a life is recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lone circuits deferred on a memoised life.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lone circuits whose key had no life yet; each was ticked, and its
    /// life kept if it ran alone to its teardown.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Ring ticks replayed instead of ticked.
    pub fn jumped_ticks(&self) -> u64 {
        self.jumped
    }

    /// The recorded lives, in no particular order.
    pub fn lives(&self) -> impl Iterator<Item = &LoneLife> {
        self.lives.values().map(|life| &**life)
    }
}

/// A ring's lone circuit while it is recorded or deferred.
#[derive(Debug)]
pub(super) struct Lone {
    /// The ring clock and request count when the state was last brought
    /// up to date; a tick or submission outside `run_window` changes one
    /// of them and voids the state.
    clock: u64,
    requests: u64,
    id: VirtualBusId,
    /// The injection tick.
    t0: u64,
    watch: Watch,
}

#[derive(Debug)]
enum Watch {
    Off,
    /// Ticking a key's first lone life and keeping what the ticks did.
    Recording(Box<Recording>),
    /// Replaying a memoised life; `delivered` once the first segment is
    /// jumped.
    Deferred {
        life: Arc<LoneLife>,
        delivered: bool,
    },
}

/// A life being recorded.
#[derive(Debug)]
struct Recording {
    key: Key,
    /// Counters at the end of the injection tick. A lone life changes
    /// no counter but the moves and deliveries, and applies no fault.
    moves: u64,
    delivered: u64,
    aborted: u64,
    refusals: u64,
    faults: usize,
    circuit: Option<u64>,
    /// At the delivery: its offset, the header's last advance, and the
    /// moves so far.
    delivery: Option<(u64, u64, u64)>,
    heights: Vec<BusIndex>,
    busy: Vec<(u32, u32)>,
    split: usize,
}

impl RmbNetwork {
    /// `true` while `run_window` must look at every tick it makes.
    pub(super) fn lone_recording(&self) -> bool {
        self.aside
            .lone
            .as_ref()
            .is_some_and(|lone| matches!(lone.watch, Watch::Recording(_)))
    }

    /// The deferred life and its state, unless there is none or it was
    /// voided.
    fn deferral(&self) -> Option<(&Lone, &LoneLife, bool)> {
        let lone = self.aside.lone.as_ref()?;
        match &lone.watch {
            Watch::Deferred { life, delivered }
                if lone.clock == self.now.get() && lone.requests == self.next_request =>
            {
                Some((lone, life, *delivered))
            }
            _ => None,
        }
    }

    /// The next tick a deferred circuit is observable at: its delivery,
    /// or after it the next fault event. `None` when nothing is deferred.
    pub(super) fn deferred_wake(&self) -> Option<Option<u64>> {
        let (lone, life, delivered) = self.deferral()?;
        Some(if delivered {
            self.next_fault_tick()
        } else {
            Some(lone.t0 + life.delivery)
        })
    }

    /// The tick a deferred lone circuit releases its last hop, if the
    /// ring defers one. The ring has work on every tick up to then, though
    /// it only needs advancing at [`next_wake`](Self::next_wake).
    pub fn deferred_until(&self) -> Option<u64> {
        self.deferral()
            .map(|(lone, life, _)| lone.t0 + life.teardown)
    }

    /// The last tick before `now` on which the ring made progress
    /// ([`last_progress`](Self::last_progress)), counting every tick of a
    /// deferred lone circuit's life as progress. The ticked life pauses
    /// for at most its span plus one tick (the `Hack` return), so under a
    /// stall window at least that long both reach the same decisions.
    pub fn last_progress_before(&self, now: u64) -> u64 {
        match self.deferral() {
            Some((lone, life, _)) => self
                .last_progress
                .max(now.saturating_sub(1).min(lone.t0 + life.teardown)),
            None => self.last_progress,
        }
    }

    /// After a tick `run_window` made: follows a recording, and takes up a
    /// circuit the tick injected into an otherwise empty ring. Returns
    /// `true` when that circuit is deferred.
    pub(super) fn watch_lone(&mut self, memo: &mut LoneMemo) -> bool {
        if let Some(mut lone) = self.aside.lone.take() {
            self.record_tick(&mut lone, memo);
            self.aside.lone = Some(lone);
        }
        self.take_up_lone(memo)
    }

    /// Defers the circuit the last tick injected when it runs alone and
    /// the memo holds its life, or starts recording the life.
    fn take_up_lone(&mut self, memo: &mut LoneMemo) -> bool {
        if self.buses.len() != 1
            || self.pending_total != 0
            || self.recorder.is_some()
            || self.opts.checked
        {
            return false;
        }
        let now = self.now.get();
        let t0 = now - 1;
        let (id, slot) = self.buses.active_entry(0);
        let bus = self.buses.at(slot);
        if bus.injected_at != t0 || !bus.taps.is_empty() || self.faults_active() {
            return false;
        }
        let ring = self.ring();
        let src = bus.spec.source.index();
        let class = if ring.get().is_multiple_of(2) {
            (src + (t0 % 2) as u32) % 2
        } else {
            2 * src + (t0 % 2) as u32
        };
        let key = Key {
            cfg: self.cfg,
            span: ring.clockwise_distance(bus.spec.source, bus.spec.destination),
            flits: bus.spec.data_flits,
            class,
        };
        let watch = match memo.lives.get(&key) {
            Some(life) => {
                if self
                    .next_fault_tick()
                    .is_some_and(|at| at <= t0 + life.teardown)
                {
                    return false;
                }
                memo.hits += 1;
                Watch::Deferred {
                    life: Arc::clone(life),
                    delivered: false,
                }
            }
            None => {
                memo.misses += 1;
                Watch::Recording(Box::new(Recording {
                    key,
                    moves: self.compaction_moves,
                    delivered: self.delivered_total(),
                    aborted: self.aborted_records(),
                    refusals: self.refusals,
                    faults: self.next_fault,
                    circuit: None,
                    delivery: None,
                    heights: Vec::new(),
                    busy: Vec::new(),
                    split: 0,
                }))
            }
        };
        let deferred = matches!(watch, Watch::Deferred { .. });
        let state = Lone {
            clock: now,
            requests: self.next_request,
            id,
            t0,
            watch,
        };
        self.aside.lone = Some(state);
        deferred
    }

    /// `true` while some fault event applied so far is still unrepaired.
    fn faults_active(&self) -> bool {
        let applied = &self.fault_timeline[..self.next_fault];
        let repairs = applied.iter().filter(|&&(_, repair, _)| repair).count();
        applied.len() != 2 * repairs
    }

    /// Adds the tick just made to a recording: drops it when the ring did
    /// anything a lone life does not, and files the life in the memo
    /// once the circuit is gone.
    fn record_tick(&mut self, lone: &mut Lone, memo: &mut LoneMemo) {
        let Watch::Recording(rec) = &mut lone.watch else {
            return;
        };
        let now = self.now.get();
        let i = now - 1 - lone.t0;
        let live = self.buses.len() == 1 && self.buses.active_id(0) == lone.id;
        let delivered = self.delivered_total() - rec.delivered;
        // One delivery, made while the circuit is live; it leaves later.
        let on_course = match delivered {
            0 => live && rec.delivery.is_none(),
            1 => live || rec.delivery.is_some(),
            _ => false,
        };
        let steady = lone.clock + 1 == now
            && lone.requests == self.next_request
            && rec.faults == self.next_fault
            && self.pending_total == 0
            && rec.aborted == self.aborted_records()
            && rec.refusals == self.refusals
            && (live || self.buses.is_empty());
        if !(steady && on_course) {
            lone.watch = Watch::Off;
            return;
        }
        if live {
            let slot = self
                .buses
                .slot(lone.id)
                .expect("the recorded circuit is live");
            if let BusState::Streaming(s) = self.buses.state_at(slot) {
                rec.circuit.get_or_insert(s.circuit_at - lone.t0);
            }
            if delivered == 1 && rec.delivery.is_none() {
                let bus = self.buses.at(slot);
                rec.heights.clone_from(&bus.heights);
                let moves = self.compaction_moves - rec.moves;
                rec.delivery = Some((i, bus.parked_since - lone.t0, moves));
            }
        }
        // Busy segments, in runs that never straddle the delivery.
        let busy = self.busy_segments as u32;
        let fresh = rec.busy.len() == rec.split;
        match rec.busy.last_mut() {
            Some((b, ticks)) if *b == busy && !fresh => *ticks += 1,
            _ => rec.busy.push((busy, 1)),
        }
        if rec.delivery.is_some_and(|(at, _, _)| at == i) {
            rec.split = rec.busy.len();
        }
        lone.clock = now;
        if live {
            return;
        }
        let (Some(circuit), Some((delivery, parked, moves))) = (rec.circuit, rec.delivery) else {
            lone.watch = Watch::Off;
            return;
        };
        if self.compaction_moves - rec.moves == moves {
            let life = LoneLife {
                span: rec.key.span,
                data_flits: rec.key.flits,
                circuit,
                parked,
                delivery,
                teardown: i,
                moves,
                heights: std::mem::take(&mut rec.heights),
                busy: std::mem::take(&mut rec.busy),
                split: rec.split,
            };
            memo.lives.entry(rec.key).or_insert_with(|| Arc::new(life));
        }
        lone.watch = Watch::Off;
    }

    /// Jumps every segment of a deferred circuit that ends before `until`.
    /// When the next segment does not and the window still needs ticks,
    /// drops the deferral; the ring then ticks on from its own clock.
    pub(super) fn replay_lone(&mut self, until: u64, memo: &mut LoneMemo) {
        // Anything but a deferral stays where it is.
        let Some(mut lone) = self
            .aside
            .lone
            .take_if(|lone| matches!(lone.watch, Watch::Deferred { .. }))
        else {
            return;
        };
        while matches!(lone.watch, Watch::Deferred { .. }) {
            let Watch::Deferred { life, delivered } =
                std::mem::replace(&mut lone.watch, Watch::Off)
            else {
                unreachable!("matched above");
            };
            if lone.clock != self.now.get() || lone.requests != self.next_request {
                break;
            }
            let end = lone.t0
                + if delivered {
                    life.teardown
                } else {
                    life.delivery
                };
            if end >= until {
                if self.now.get() >= until {
                    lone.watch = Watch::Deferred { life, delivered };
                }
                break;
            }
            if delivered {
                self.jump_to_teardown(&lone, &life);
                memo.jumped += life.teardown - life.delivery;
            } else {
                self.jump_to_delivery(&lone, &life);
                memo.jumped += life.delivery;
                lone.watch = Watch::Deferred {
                    life,
                    delivered: true,
                };
            }
            lone.clock = self.now.get();
        }
        self.aside.lone = Some(lone);
    }

    /// The state `tick()` reaches at the end of the delivery tick: the
    /// hops at their completion heights, the delivery logged, the
    /// teardown about to start.
    fn jump_to_delivery(&mut self, lone: &Lone, life: &LoneLife) {
        let delivered_at = lone.t0 + life.delivery;
        let slot = self
            .buses
            .slot(lone.id)
            .expect("a deferred circuit is live");
        self.busy_sum += busy_ticks(&life.busy[..life.split]);
        let ring = self.ring();
        let (src, dst, injected) = {
            let bus = self.buses.at(slot);
            (bus.spec.source, bus.spec.destination, bus.heights[0])
        };
        self.release(src.as_usize(), injected);
        for (j, &height) in (0u32..).zip(&life.heights) {
            self.occupy(ring.advance(src, j).as_usize(), height, lone.id);
        }
        let bus = self.buses.at_mut(slot);
        bus.heights.clone_from(&life.heights);
        bus.parked_since = lone.t0 + life.parked;
        self.compaction_moves += life.moves;
        // The receive port the skipped accept took.
        self.nodes[dst.as_usize()].receives_active += 1;
        self.buses
            .set_state_at(slot, BusState::TearingDown { freed: 0 });
        // A bus tearing down never sinks.
        self.link_hops(slot);
        // It was the one establishing bus.
        self.sched.establishing.clear();
        self.now = Tick::new(delivered_at);
        let buses = std::mem::take(&mut self.buses);
        self.deliver(
            buses.at(slot),
            lone.t0 + life.circuit,
            u64::from(life.span),
            delivered_at,
        );
        self.buses = buses;
        self.last_progress = delivered_at;
        self.now = Tick::new(delivered_at + 1);
    }

    /// The state `tick()` reaches at the end of the teardown tick: every
    /// hop released and the circuit gone.
    fn jump_to_teardown(&mut self, lone: &Lone, life: &LoneLife) {
        let torn_down = lone.t0 + life.teardown;
        self.busy_sum += busy_ticks(&life.busy[life.split..]);
        let ring = self.ring();
        let bus = self
            .buses
            .take(lone.id)
            .expect("a deferred circuit is live");
        for (j, &height) in (0u32..).zip(&bus.heights) {
            self.release(ring.advance(bus.spec.source, j).as_usize(), height);
        }
        self.buses.discard(lone.id);
        self.buses.truncate_active(0);
        self.nodes[bus.spec.source.as_usize()].sends_active -= 1;
        self.last_progress = torn_down;
        self.now = Tick::new(torn_down + 1);
    }
}

/// Busy segments summed over the ticks of `(busy, ticks)` runs: what
/// `finish_tick` adds to the utilisation sum over the same ticks.
fn busy_ticks(runs: &[(u32, u32)]) -> u128 {
    runs.iter()
        .map(|&(busy, ticks)| u128::from(busy) * u128::from(ticks))
        .sum()
}
