//! Bookkeeping of the event-driven scheduler: per-slot wake ticks, the
//! compaction dirty set, and the ready set plus event queue of the
//! injection queues. DESIGN.md §8a states the wake discipline.

use super::RmbNetwork;
use rmb_sim::{EventQueue, Tick};
use rmb_types::{BusIndex, VirtualBusId};

/// State of the event-driven scheduler.
///
/// Per-bus entries are indexed by the bus's *slot* in the [`BusSlab`]
/// (reset on slot reuse by [`RmbNetwork::sched_init_bus`]); per-node
/// injection state lives in a ready set plus an event queue. The dense
/// sweep ignores all of this. See DESIGN.md for the wake discipline.
#[derive(Debug, Default)]
pub(super) struct SchedState {
    /// Per-slot earliest tick at which the bus next has stream/teardown
    /// work (`u64::MAX` for parked `Establishing` buses).
    pub(super) next_due: Vec<u64>,
    /// Per-slot membership flag for `compact_dirty`.
    pub(super) dirty: Vec<bool>,
    /// Per-slot count of consecutive compaction activations that found no
    /// move for this bus; at 2 (one odd + one even phase) it goes clean.
    pub(super) clean_streak: Vec<u8>,
    /// Live `Establishing` buses in ascending id order, compacted lazily
    /// as buses leave the state (drives the decide/extend phases).
    pub(super) establishing: Vec<VirtualBusId>,
    /// Buses that may have an eligible compaction move, ascending id
    /// order (may contain dead ids until they are iterated over).
    pub(super) compact_dirty: Vec<VirtualBusId>,
    /// Nodes whose queue front is due for injection, ascending.
    pub(super) ready: Vec<u32>,
    /// Per-node membership flag for `ready`.
    pub(super) ready_mask: Vec<bool>,
    /// One entry per node whose queue front becomes due at a future tick.
    pub(super) waiting: EventQueue<u32>,
    /// Buses to re-mark compaction-dirty at the next activation; buffered
    /// because segment releases can fire while the bus slab is detached.
    pub(super) pending_wakes: Vec<VirtualBusId>,
    /// Reusable snapshot of `ready` for the injection scan.
    pub(super) scratch_ready: Vec<u32>,
}

impl RmbNetwork {
    /// Queues a compaction re-mark for the circuit occupying the segment
    /// directly above `(hop, bus)` — called when `(hop, bus)` becomes
    /// available, which can enable that circuit's downward move. Buffered
    /// in `pending_wakes` because releases also fire while the bus slab
    /// is detached (stream-phase teardowns).
    pub(super) fn wake_above(&mut self, hop: usize, bus: BusIndex) {
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

    /// (Re-)arms injection tracking for node `s` after its queue front
    /// changed: due fronts join the ready set, future ones get a queue
    /// entry. A node with an unchanged front is never re-armed, so the
    /// queue holds at most one live entry per waiting node.
    pub(super) fn arm_node(&mut self, s: usize) {
        let Some(front) = self.nodes[s].pending.front() else {
            return;
        };
        let not_before = front.not_before;
        if not_before <= self.now.get() {
            self.ready_insert(s);
        } else {
            self.sched.waiting.schedule(Tick::new(not_before), s as u32);
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
    pub(super) fn ready_remove(&mut self, s: usize) {
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
    pub(super) fn wake_bus(&mut self, id: VirtualBusId) {
        if !self.event_driven() {
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
    pub(super) fn sched_init_bus(&mut self, id: VirtualBusId) {
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
    pub(super) fn mark_dirty(&mut self, id: VirtualBusId) {
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
    pub(super) fn mark_dirty_slot(&mut self, id: VirtualBusId, slot: usize) {
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
    pub(super) fn flush_compaction_wakes(&mut self) {
        if self.sched.pending_wakes.is_empty() {
            return;
        }
        let mut wakes = std::mem::take(&mut self.sched.pending_wakes);
        for id in wakes.drain(..) {
            self.mark_dirty(id);
        }
        self.sched.pending_wakes = wakes;
    }
}
