//! Slab storage for live virtual buses: slots with a free list, an
//! id→slot index, a struct-of-arrays lifecycle lane and the live ids in
//! ascending order (see the `network` module docs).

use crate::virtual_bus::{BusState, VirtualBus};
use rmb_types::VirtualBusId;

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
    /// Live `(id, slot)` pairs in ascending id order. Carrying the slot
    /// alongside the id spares the tick kernel one dependent load
    /// (`slot_of`) per live bus per tick; a bus's slot is fixed from
    /// `insert` to `discard`, so the pair never goes stale.
    active: Vec<(VirtualBusId, u32)>,
}

const DEAD: u32 = u32::MAX;

impl BusSlab {
    pub(super) fn len(&self) -> usize {
        self.active.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// The live id at position `i` of the active list.
    pub(super) fn active_id(&self, i: usize) -> VirtualBusId {
        self.active[i].0
    }

    /// The live `(id, slot)` pair at position `i` of the active list.
    #[inline]
    pub(super) fn active_entry(&self, i: usize) -> (VirtualBusId, usize) {
        let (id, slot) = self.active[i];
        (id, slot as usize)
    }

    pub(super) fn slot(&self, id: VirtualBusId) -> Option<usize> {
        match self.slot_of.get(id.get() as usize) {
            Some(&s) if s != DEAD => Some(s as usize),
            _ => None,
        }
    }

    pub(super) fn get(&self, id: VirtualBusId) -> Option<&VirtualBus> {
        self.slot(id).and_then(|s| self.slots[s].as_ref())
    }

    /// The bus in slot `slot` (the caller owns slot liveness).
    #[inline]
    pub(super) fn at(&self, slot: usize) -> &VirtualBus {
        self.slots[slot].as_ref().expect("live slot")
    }

    /// Mutable access to the bus in slot `slot`.
    #[inline]
    pub(super) fn at_mut(&mut self, slot: usize) -> &mut VirtualBus {
        self.slots[slot].as_mut().expect("live slot")
    }

    pub(super) fn get_mut(&mut self, id: VirtualBusId) -> Option<&mut VirtualBus> {
        self.slot(id).and_then(|s| self.slots[s].as_mut())
    }

    /// Inserts a freshly allocated bus with its initial lifecycle state.
    /// Ids are monotonic, so appending keeps `active` sorted.
    pub(super) fn insert(&mut self, bus: VirtualBus, state: BusState) {
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
    pub(super) fn state(&self, id: VirtualBusId) -> Option<BusState> {
        self.slot(id).map(|s| self.states[s])
    }

    /// The lifecycle state in slot `slot` (the caller owns slot liveness).
    #[inline]
    pub(super) fn state_at(&self, slot: usize) -> BusState {
        self.states[slot]
    }

    /// Writes the lifecycle state of slot `slot`.
    #[inline]
    pub(super) fn set_state_at(&mut self, slot: usize, state: BusState) {
        self.states[slot] = state;
    }

    /// Writes the lifecycle state of a live bus.
    pub(super) fn set_state(&mut self, id: VirtualBusId, state: BusState) {
        let slot = self.slot(id).expect("setting state of a live bus");
        self.states[slot] = state;
    }

    /// Takes a live bus out of its slot; pair with
    /// [`discard`](Self::discard).
    pub(super) fn take(&mut self, id: VirtualBusId) -> Option<VirtualBus> {
        self.slot(id).and_then(|s| self.slots[s].take())
    }

    /// Frees the slot of a bus already removed with [`take`](Self::take).
    /// The caller owns compacting `active` (see the sweep phase).
    pub(super) fn discard(&mut self, id: VirtualBusId) {
        let slot = self.slot(id).expect("discarding a known bus");
        debug_assert!(self.slots[slot].is_none(), "discard follows take");
        self.slot_of[id.get() as usize] = DEAD;
        self.free.push(slot as u32);
    }

    /// Overwrites position `i` of the active list (sweep compaction).
    pub(super) fn set_active(&mut self, i: usize, id: VirtualBusId, slot: usize) {
        self.active[i] = (id, slot as u32);
    }

    /// Shortens the active list to `len` entries (sweep compaction).
    pub(super) fn truncate_active(&mut self, len: usize) {
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
    pub(super) fn iter(&self) -> impl Iterator<Item = (VirtualBusId, &VirtualBus)> {
        self.active.iter().map(move |&(id, slot)| {
            (
                id,
                self.slots[slot as usize]
                    .as_ref()
                    .expect("active slots are live"),
            )
        })
    }

    /// `(slot, bus, state)` triples in ascending id order — for consumers
    /// that need both the cold struct and the state lane (invariants, INC
    /// projection, renderers).
    pub(crate) fn values_with_state(&self) -> impl Iterator<Item = (usize, &VirtualBus, BusState)> {
        self.active.iter().map(move |&(_, slot)| {
            let slot = slot as usize;
            (
                slot,
                self.slots[slot].as_ref().expect("active slots are live"),
                self.states[slot],
            )
        })
    }
}
