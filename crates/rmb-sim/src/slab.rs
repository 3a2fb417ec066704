//! A slab keyed by small monotonically-allocated integer ids.
//!
//! [`IdSlab`] backs hot simulation loops that previously used a
//! `BTreeMap<id, T>`: values live in a flat `Vec` with a free list, a
//! direct-indexed table maps id → slot in O(1), and a sorted id list
//! gives deterministic ascending-id iteration without per-phase
//! allocation. Removal is lazy with respect to the id list — dead ids
//! linger (lookups on them return `None`) until
//! [`compact_active`](IdSlab::compact_active) prunes them in one
//! order-preserving pass, which lets callers remove entries while
//! iterating by index.
//!
//! Ids are used as direct indexes into the id → slot table, so this type
//! is only appropriate for ids drawn from a small dense range (e.g. a
//! simulation's monotone id counter), not arbitrary `u64`s.
//!
//! # Examples
//!
//! ```
//! use rmb_sim::IdSlab;
//! let mut slab = IdSlab::new();
//! slab.insert(0, "a");
//! slab.insert(2, "c");
//! slab.remove(0);
//! slab.compact_active();
//! assert_eq!(slab.active(), &[2]);
//! assert_eq!(slab.get(2), Some(&"c"));
//! ```

/// Sentinel marking an id with no live slot.
const DEAD: u32 = u32::MAX;

/// A flat id-keyed slab with sorted, allocation-free id iteration.
///
/// Values live in a flat `Vec` with a free list, an id → slot table
/// gives O(1) lookups, and removal is lazy with respect to the sorted id
/// list until [`compact_active`](IdSlab::compact_active) prunes it.
#[derive(Debug, Clone, Default)]
pub struct IdSlab<T> {
    /// Value storage; `None` marks a freed slot awaiting reuse.
    slots: Vec<Option<T>>,
    /// Freed slot indexes available for reuse.
    free: Vec<u32>,
    /// id → slot index, `DEAD` when the id is not live.
    slot_of: Vec<u32>,
    /// Live ids in ascending order, possibly interleaved with ids removed
    /// since the last [`compact_active`](IdSlab::compact_active).
    active: Vec<u64>,
    /// Number of live values (always `<= active.len()`).
    len: usize,
}

impl<T> IdSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        IdSlab {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            active: Vec::new(),
            len: 0,
        }
    }

    /// Inserts `value` under `id`.
    ///
    /// Appending in ascending id order is O(1); out-of-order ids pay a
    /// sorted insertion. Panics if `id` is already live.
    pub fn insert(&mut self, id: u64, value: T) {
        let idx = usize::try_from(id).expect("id fits in memory");
        if self.slot_of.len() <= idx {
            self.slot_of.resize(idx + 1, DEAD);
        }
        assert_eq!(self.slot_of[idx], DEAD, "id {id} already live");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(value);
                s
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        };
        self.slot_of[idx] = slot;
        match self.active.last() {
            Some(&last) if last >= id => {
                let pos = self.active.partition_point(|&a| a < id);
                // A stale duplicate of `id` may remain from a previous
                // life; drop it rather than double-listing the id.
                if self.active.get(pos) != Some(&id) {
                    self.active.insert(pos, id);
                }
            }
            _ => self.active.push(id),
        }
        self.len += 1;
    }

    /// The live value under `id`, or `None`.
    pub fn get(&self, id: u64) -> Option<&T> {
        let slot = *self.slot_of.get(usize::try_from(id).ok()?)?;
        if slot == DEAD {
            return None;
        }
        self.slots[slot as usize].as_ref()
    }

    /// The live value under `id`, mutably, or `None`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = *self.slot_of.get(usize::try_from(id).ok()?)?;
        if slot == DEAD {
            return None;
        }
        self.slots[slot as usize].as_mut()
    }

    /// `true` when `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Removes and returns the value under `id`, freeing its slot.
    ///
    /// The id stays in [`active`](IdSlab::active) until the next
    /// [`compact_active`](IdSlab::compact_active), so removal during an
    /// index-based iteration over `active` is safe.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = usize::try_from(id).ok()?;
        let slot = *self.slot_of.get(idx)?;
        if slot == DEAD {
            return None;
        }
        self.slot_of[idx] = DEAD;
        self.free.push(slot);
        self.len -= 1;
        self.slots[slot as usize].take()
    }

    /// Live ids in ascending order, possibly interleaved with stale ids
    /// removed since the last compaction (lookups on those return
    /// `None`).
    pub fn active(&self) -> &[u64] {
        &self.active
    }

    /// Prunes stale ids from [`active`](IdSlab::active), preserving
    /// ascending order. O(active).
    pub fn compact_active(&mut self) {
        if self.active.len() == self.len {
            return;
        }
        let slot_of = &self.slot_of;
        self.active
            .retain(|&id| slot_of.get(id as usize).is_some_and(|&s| s != DEAD));
        debug_assert_eq!(self.active.len(), self.len);
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(id, &value)` over live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.active.iter().filter_map(move |&id| {
            let slot = *self.slot_of.get(id as usize)?;
            if slot == DEAD {
                return None;
            }
            Some((id, self.slots[slot as usize].as_ref()?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = IdSlab::new();
        slab.insert(0, "zero");
        slab.insert(1, "one");
        slab.insert(5, "five");
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.get(1), Some(&"one"));
        assert_eq!(slab.get(4), None);
        *slab.get_mut(5).expect("live") = "FIVE";
        assert_eq!(slab.remove(1), Some("one"));
        assert_eq!(slab.remove(1), None);
        assert!(!slab.contains(1));
        assert_eq!(slab.get(5), Some(&"FIVE"));
        assert_eq!(slab.len(), 2);
    }

    #[test]
    fn active_is_sorted_and_lazily_compacted() {
        let mut slab = IdSlab::new();
        for id in [3u64, 1, 2, 0] {
            slab.insert(id, id * 10);
        }
        assert_eq!(slab.active(), &[0, 1, 2, 3]);
        slab.remove(2);
        // Stale id lingers until compaction; lookups already miss.
        assert_eq!(slab.active(), &[0, 1, 2, 3]);
        assert_eq!(slab.get(2), None);
        slab.compact_active();
        assert_eq!(slab.active(), &[0, 1, 3]);
        let collected: Vec<_> = slab.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(collected, vec![(0, 0), (1, 10), (3, 30)]);
    }

    #[test]
    fn slots_are_reused_and_reinsert_after_remove_works() {
        let mut slab = IdSlab::new();
        slab.insert(0, 'a');
        slab.insert(1, 'b');
        slab.remove(0);
        // Reinsert the same id before compaction: no duplicate in active.
        slab.insert(0, 'c');
        assert_eq!(slab.active(), &[0, 1]);
        assert_eq!(slab.get(0), Some(&'c'));
        slab.remove(1);
        slab.insert(7, 'd'); // takes the freed slot
        slab.compact_active();
        assert_eq!(slab.active(), &[0, 7]);
        assert_eq!(slab.len(), 2);
    }

    #[test]
    fn removal_during_index_iteration() {
        let mut slab = IdSlab::new();
        for id in 0..6u64 {
            slab.insert(id, id);
        }
        for i in 0..slab.active().len() {
            let id = slab.active()[i];
            if id % 2 == 0 {
                slab.remove(id);
            }
        }
        slab.compact_active();
        assert_eq!(slab.active(), &[1, 3, 5]);
    }
}
