//! A hierarchical timing wheel.
//!
//! [`TimingWheel`] stores pending events bucketed by due tick across four
//! levels of 64 slots each, giving O(1) `schedule` and O(1) amortised pops
//! for events within the ~16.7M-tick horizon. Events beyond the horizon go
//! to an overflow list and are promoted into the wheel as the cursor
//! advances; events scheduled in the past (before the last pop) go to an
//! overdue list so the structure never loses work.
//!
//! Unlike the textbook design there is **no per-tick cascading**: entries
//! are placed once, at the level whose span covers their distance from the
//! cursor, and pops locate the minimum directly. This works because the
//! cursor never exceeds the earliest pending due tick, so every pending
//! entry at level `L` has a due tick in `[cursor, cursor + 64^(L+1))` —
//! exactly one revolution — and the first occupied slot in ring order from
//! the cursor's slot identifies the level's minimum (with one wrap-around
//! case at the cursor's own slot, handled explicitly).
//!
//! Events pop by due tick, FIFO among events scheduled for the same tick,
//! regardless of which internal bucket each entry landed in, so a
//! simulation's outcome is a pure function of its inputs and seed.
//!
//! # Examples
//!
//! ```
//! use rmb_sim::{Tick, TimingWheel};
//! let mut w = TimingWheel::new();
//! w.schedule(Tick::new(3), "late");
//! w.schedule(Tick::new(1), "early");
//! assert_eq!(w.pop_due(Tick::new(2)), Some((Tick::new(1), "early")));
//! assert_eq!(w.pop_due(Tick::new(2)), None);
//! assert_eq!(w.peek_hint(), Some(Tick::new(3)));
//! ```

use crate::clock::Tick;

const BITS: u32 = 6;
const SLOTS: usize = 1 << BITS; // 64
const LEVELS: usize = 4;
/// Scheduling horizon: events further than this from the cursor overflow.
const HORIZON: u64 = 1 << (BITS * LEVELS as u32); // 64^4 = 16_777_216

#[derive(Debug, Clone)]
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Where `locate_min` found the earliest entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MinLoc {
    Overdue(usize),
    Overflow(usize),
    Slot(usize, usize), // (flat slot index, index within the slot's Vec)
}

/// A hierarchical timing wheel: an event queue with O(1) `schedule` and
/// O(1) amortised `pop_due` for events within a ~16.7M-tick horizon.
///
/// Events pop by due tick, then FIFO among equal ticks. An O(1) [`peek_hint`](TimingWheel::peek_hint) lower bound on the
/// earliest pending tick — the primitive that lets a simulation loop ask
/// "anything due now?" every tick without paying a scan.
#[derive(Debug, Clone)]
pub struct TimingWheel<E> {
    /// `LEVELS * SLOTS` buckets, flattened level-major.
    slots: Vec<Vec<Entry<E>>>,
    /// Bitmask of non-empty slots, one word per level.
    occupancy: [u64; LEVELS],
    /// Entries scheduled further than `HORIZON` from the cursor.
    overflow: Vec<Entry<E>>,
    /// Cached minimum due tick in `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
    /// Entries scheduled before the cursor (in the past).
    overdue: Vec<Entry<E>>,
    /// Due tick of the last popped entry; never exceeds the earliest
    /// pending wheel entry, which is what makes no-cascade placement sound.
    cursor: u64,
    /// Lower bound on the earliest pending due tick (`u64::MAX` if empty).
    hint: u64,
    /// When `true`, `hint` equals the earliest pending due tick exactly.
    hint_exact: bool,
    len: usize,
    seq: u64,
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            overdue: Vec::new(),
            cursor: 0,
            hint: u64::MAX,
            hint_exact: true,
            len: 0,
            seq: 0,
        }
    }

    /// Schedules `event` to fire at tick `at`. O(1).
    pub fn schedule(&mut self, at: Tick, event: E) {
        let at = at.get();
        let seq = self.seq;
        self.seq += 1;
        self.place(Entry { at, seq, event });
        self.len += 1;
        // A new entry at or below the hint pins the minimum exactly at
        // `at`; above the hint it cannot disturb the lower bound.
        if at <= self.hint {
            self.hint = at;
            self.hint_exact = true;
        }
    }

    /// Removes and returns the earliest event (by tick, then FIFO), or
    /// `None` when empty.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        self.promote_overflow();
        let (at, _, loc) = self.locate_min()?;
        Some((Tick::new(at), self.remove(at, loc)))
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `now`.
    ///
    /// Whenever this returns `None`, the hint is left *exact*: a
    /// subsequent [`peek_hint`](TimingWheel::peek_hint) reports the true
    /// earliest pending tick (or `None` when empty) at O(1) cost.
    pub fn pop_due(&mut self, now: Tick) -> Option<(Tick, E)> {
        if self.len == 0 {
            return None;
        }
        if self.hint_exact && self.hint > now.get() {
            return None;
        }
        self.promote_overflow();
        let (at, _, loc) = self.locate_min().expect("len > 0");
        self.hint = at;
        self.hint_exact = true;
        if at > now.get() {
            return None;
        }
        Some((Tick::new(at), self.remove(at, loc)))
    }

    /// The earliest pending due tick, computed exactly (refreshing the
    /// hint), or `None` when empty.
    pub fn next_due(&mut self) -> Option<Tick> {
        if self.len == 0 {
            return None;
        }
        if !self.hint_exact {
            self.promote_overflow();
            let (at, _, _) = self.locate_min().expect("len > 0");
            self.hint = at;
            self.hint_exact = true;
        }
        Some(Tick::new(self.hint))
    }

    /// O(1) lower bound on the earliest pending due tick; `None` when
    /// empty. Exact immediately after [`pop_due`](TimingWheel::pop_due)
    /// returned `None` or after [`next_due`](TimingWheel::next_due);
    /// otherwise it may undershoot (never overshoot).
    pub fn peek_hint(&self) -> Option<Tick> {
        if self.len == 0 {
            None
        } else {
            Some(Tick::new(self.hint))
        }
    }

    /// The earliest pending due tick, computed exactly without mutating
    /// the wheel. O(levels × slots) worst case.
    pub fn earliest(&self) -> Option<Tick> {
        self.locate_min().map(|(at, _, _)| Tick::new(at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events. The cursor is preserved, so tick
    /// monotonicity guarantees continue to hold across a clear.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
        self.occupancy = [0; LEVELS];
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.overdue.clear();
        self.hint = u64::MAX;
        self.hint_exact = true;
        self.len = 0;
    }

    /// Buckets one entry relative to the current cursor.
    fn place(&mut self, e: Entry<E>) {
        if e.at < self.cursor {
            self.overdue.push(e);
            return;
        }
        let delta = e.at - self.cursor;
        if delta >= HORIZON {
            self.overflow_min = self.overflow_min.min(e.at);
            self.overflow.push(e);
            return;
        }
        let level = Self::level_for(delta);
        let slot = Self::slot_of(e.at, level);
        self.occupancy[level] |= 1u64 << slot;
        self.slots[level * SLOTS + slot].push(e);
    }

    fn level_for(delta: u64) -> usize {
        debug_assert!(delta < HORIZON);
        if delta < 1 << BITS {
            0
        } else if delta < 1 << (2 * BITS) {
            1
        } else if delta < 1 << (3 * BITS) {
            2
        } else {
            3
        }
    }

    fn slot_of(at: u64, level: usize) -> usize {
        ((at >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Moves overflow entries whose distance from the cursor has dropped
    /// below the horizon into the wheel proper. Each entry is promoted at
    /// most once over its lifetime (the cursor is monotone), so the cost
    /// amortises to O(1) per event.
    fn promote_overflow(&mut self) {
        if self.overflow_min.saturating_sub(self.cursor) >= HORIZON {
            return;
        }
        let pending = std::mem::take(&mut self.overflow);
        self.overflow_min = u64::MAX;
        for e in pending {
            if e.at - self.cursor < HORIZON {
                let level = Self::level_for(e.at - self.cursor);
                let slot = Self::slot_of(e.at, level);
                self.occupancy[level] |= 1u64 << slot;
                self.slots[level * SLOTS + slot].push(e);
            } else {
                self.overflow_min = self.overflow_min.min(e.at);
                self.overflow.push(e);
            }
        }
    }

    /// Finds the pending entry with the smallest `(at, seq)`, or `None`
    /// when empty. Read-only; does not touch the hint.
    fn locate_min(&self) -> Option<(u64, u64, MinLoc)> {
        fn consider(best: &mut Option<(u64, u64, MinLoc)>, at: u64, seq: u64, loc: MinLoc) {
            match best {
                Some((b_at, b_seq, _)) if (*b_at, *b_seq) <= (at, seq) => {}
                _ => *best = Some((at, seq, loc)),
            }
        }
        let mut best: Option<(u64, u64, MinLoc)> = None;
        for (i, e) in self.overdue.iter().enumerate() {
            consider(&mut best, e.at, e.seq, MinLoc::Overdue(i));
        }
        for level in 0..LEVELS {
            if let Some((at, seq, flat, idx)) = self.level_min(level) {
                consider(&mut best, at, seq, MinLoc::Slot(flat, idx));
            }
        }
        // Overflow entries usually sit beyond every wheel entry, but an
        // entry scheduled long ago (small placement cursor) may now be
        // comparable; only then pay the scan.
        if !self.overflow.is_empty() && best.is_none_or(|(b_at, _, _)| self.overflow_min <= b_at) {
            for (i, e) in self.overflow.iter().enumerate() {
                consider(&mut best, e.at, e.seq, MinLoc::Overflow(i));
            }
        }
        best
    }

    /// The minimum `(at, seq)` entry within one level, as
    /// `(at, seq, flat_slot_index, index_in_slot)`.
    fn level_min(&self, level: usize) -> Option<(u64, u64, usize, usize)> {
        let occ = self.occupancy[level];
        if occ == 0 {
            return None;
        }
        let sc = Self::slot_of(self.cursor, level);
        // First occupied slot in ring order starting at the cursor's slot.
        let first = (sc + occ.rotate_right(sc as u32).trailing_zeros() as usize) % SLOTS;
        if first != sc || level == 0 {
            // Every entry here is nearer than any entry in a ring-later
            // slot (at level 0 a slot holds exactly one due tick, so the
            // cursor slot cannot mix near and wrapped entries either).
            return Some(self.slot_min(level * SLOTS + first));
        }
        // The cursor's own slot is the only one whose window is split by
        // the revolution boundary: it may hold entries due within the
        // cursor's current window ("near") and entries due one full
        // revolution later ("wrapped"). Near entries beat everything;
        // wrapped entries lose to any other occupied slot.
        let width = 1u64 << (BITS * level as u32);
        let window_end = (self.cursor / width + 1) * width;
        let mut near: Option<(u64, u64, usize)> = None;
        let mut wrapped: Option<(u64, u64, usize)> = None;
        for (i, e) in self.slots[level * SLOTS + sc].iter().enumerate() {
            let bucket = if e.at < window_end {
                &mut near
            } else {
                &mut wrapped
            };
            match bucket {
                Some((at, seq, _)) if (*at, *seq) <= (e.at, e.seq) => {}
                _ => *bucket = Some((e.at, e.seq, i)),
            }
        }
        if let Some((at, seq, i)) = near {
            return Some((at, seq, level * SLOTS + sc, i));
        }
        let rest = occ & !(1u64 << sc);
        if rest != 0 {
            let next =
                (sc + 1 + rest.rotate_right(sc as u32 + 1).trailing_zeros() as usize) % SLOTS;
            return Some(self.slot_min(level * SLOTS + next));
        }
        wrapped.map(|(at, seq, i)| (at, seq, level * SLOTS + sc, i))
    }

    /// The minimum `(at, seq)` entry within one (non-empty) flat slot.
    fn slot_min(&self, flat: usize) -> (u64, u64, usize, usize) {
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, e) in self.slots[flat].iter().enumerate() {
            match best {
                Some((at, seq, _)) if (at, seq) <= (e.at, e.seq) => {}
                _ => best = Some((e.at, e.seq, i)),
            }
        }
        let (at, seq, i) = best.expect("slot marked occupied");
        (at, seq, flat, i)
    }

    /// Removes the located entry, advances the cursor, and downgrades the
    /// hint to a (still valid) lower bound.
    fn remove(&mut self, at: u64, loc: MinLoc) -> E {
        let e = match loc {
            MinLoc::Overdue(i) => self.overdue.swap_remove(i),
            MinLoc::Overflow(i) => {
                let e = self.overflow.swap_remove(i);
                self.overflow_min = self.overflow.iter().map(|e| e.at).min().unwrap_or(u64::MAX);
                e
            }
            MinLoc::Slot(flat, i) => {
                let e = self.slots[flat].swap_remove(i);
                if self.slots[flat].is_empty() {
                    self.occupancy[flat / SLOTS] &= !(1u64 << (flat % SLOTS));
                }
                e
            }
        };
        self.len -= 1;
        // `at` is the global minimum, so remaining entries are >= `at`
        // and the cursor stays at or below every pending due tick.
        self.cursor = self.cursor.max(at);
        self.hint = at;
        self.hint_exact = false;
        e.event
    }
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_tick_then_fifo() {
        let mut w = TimingWheel::new();
        w.schedule(Tick::new(2), 'x');
        w.schedule(Tick::new(1), 'a');
        w.schedule(Tick::new(2), 'y');
        w.schedule(Tick::new(1), 'b');
        let drained: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(
            drained,
            vec![
                (Tick::new(1), 'a'),
                (Tick::new(1), 'b'),
                (Tick::new(2), 'x'),
                (Tick::new(2), 'y'),
            ]
        );
    }

    #[test]
    fn pop_due_respects_now_and_leaves_exact_hint() {
        let mut w = TimingWheel::new();
        w.schedule(Tick::new(5), ());
        assert_eq!(w.pop_due(Tick::new(4)), None);
        assert_eq!(w.peek_hint(), Some(Tick::new(5)));
        assert_eq!(w.pop_due(Tick::new(5)), Some((Tick::new(5), ())));
        assert!(w.is_empty());
        assert_eq!(w.peek_hint(), None);
    }

    #[test]
    fn hint_never_overshoots() {
        let mut w = TimingWheel::new();
        w.schedule(Tick::new(100), 1);
        w.schedule(Tick::new(7), 2);
        let hint = w.peek_hint().expect("non-empty");
        assert!(hint <= Tick::new(7));
        assert_eq!(w.next_due(), Some(Tick::new(7)));
        assert_eq!(w.peek_hint(), Some(Tick::new(7)));
    }

    #[test]
    fn scheduling_in_the_past_still_delivers() {
        let mut w = TimingWheel::new();
        w.schedule(Tick::new(50), "future");
        assert_eq!(w.pop(), Some((Tick::new(50), "future")));
        // Cursor is now 50; an earlier tick must still come out first.
        w.schedule(Tick::new(10), "past");
        w.schedule(Tick::new(60), "later");
        assert_eq!(w.pop(), Some((Tick::new(10), "past")));
        assert_eq!(w.pop(), Some((Tick::new(60), "later")));
    }

    #[test]
    fn far_future_overflow_promotes() {
        let mut w = TimingWheel::new();
        let far = Tick::new(3 * HORIZON + 17);
        w.schedule(far, "far");
        w.schedule(Tick::new(4), "near");
        assert_eq!(w.pop(), Some((Tick::new(4), "near")));
        assert_eq!(w.next_due(), Some(far));
        assert_eq!(w.pop(), Some((far, "far")));
        assert!(w.is_empty());
    }

    #[test]
    fn cursor_slot_wrap_at_upper_level() {
        // Force the level-1 cursor-slot split: with the cursor mid-window,
        // an entry one revolution later maps to the same level-1 slot as a
        // near entry, and a middle entry occupies a different slot.
        let mut w = TimingWheel::new();
        w.schedule(Tick::new(100), "warm");
        assert_eq!(w.pop(), Some((Tick::new(100), "warm"))); // cursor = 100
        let rev = 1u64 << (2 * BITS); // level-1 revolution = 4096
        w.schedule(Tick::new(100 + rev), "wrapped"); // same level-1 slot as cursor
        w.schedule(Tick::new(101), "near"); // cursor slot, near side
        w.schedule(Tick::new(900), "middle"); // different level-1 slot
        assert_eq!(w.pop(), Some((Tick::new(101), "near")));
        assert_eq!(w.pop(), Some((Tick::new(900), "middle")));
        assert_eq!(w.pop(), Some((Tick::new(100 + rev), "wrapped")));
    }

    #[test]
    fn len_and_clear() {
        let mut w = TimingWheel::default();
        assert!(w.is_empty());
        w.schedule(Tick::new(1), 1);
        w.schedule(Tick::new(2), 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.earliest(), Some(Tick::new(1)));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.earliest(), None);
        assert_eq!(w.peek_hint(), None);
    }

    /// Model check: the wheel must agree with a plain binary heap on a
    /// randomized schedule/pop interleaving spanning all levels, overflow,
    /// and past scheduling.
    #[test]
    fn agrees_with_reference_model() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for trial in 0..24u64 {
            let mut rng = crate::SimRng::seed(0x8ee1 + trial);
            let mut wheel = TimingWheel::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..600 {
                let roll = rng.next_u32() % 10;
                if roll < 6 {
                    // Spread across levels: mostly near, a tail far past
                    // the horizon, and occasionally behind the cursor.
                    let span = match rng.next_u32() % 8 {
                        0..=3 => 64,
                        4 => 4096,
                        5 => 1 << 18,
                        6 => HORIZON / 2,
                        _ => 3 * HORIZON,
                    };
                    let base = now.saturating_sub(span / 16);
                    let at = base + rng.next_u64() % span;
                    wheel.schedule(Tick::new(at), seq);
                    model.push(Reverse((at, seq)));
                    seq += 1;
                } else if roll < 9 {
                    now += rng.next_u64() % 200;
                    loop {
                        let got = wheel.pop_due(Tick::new(now));
                        let want = match model.peek() {
                            Some(&Reverse((at, _))) if at <= now => {
                                model.pop().map(|Reverse((at, s))| (Tick::new(at), s))
                            }
                            _ => None,
                        };
                        assert_eq!(got, want, "trial {trial} now {now}");
                        if got.is_none() {
                            break;
                        }
                    }
                    // After a None-returning pop_due the hint is exact.
                    let expect = model.peek().map(|&Reverse((at, _))| Tick::new(at));
                    assert_eq!(wheel.peek_hint(), expect, "trial {trial} hint");
                } else {
                    let got = wheel.pop();
                    let want = model.pop().map(|Reverse((at, s))| (Tick::new(at), s));
                    assert_eq!(got, want, "trial {trial} pop");
                    if let Some((at, _)) = got {
                        now = now.max(at.get());
                    }
                }
                assert_eq!(wheel.len(), model.len());
            }
            let mut last = (0u64, 0u64);
            while let Some(Reverse(want)) = model.pop() {
                let (at, s) = wheel.pop().expect("wheel drained early");
                assert_eq!((at.get(), s), want, "trial {trial} drain");
                assert!(want >= last);
                last = want;
            }
            assert!(wheel.is_empty());
        }
    }
}
