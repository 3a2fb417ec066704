//! A stable discrete-event queue.
//!
//! [`EventQueue`] is a binary heap of pending events ordered by due tick,
//! then by the order they were scheduled in: events pop by tick and FIFO
//! among events due at the same tick, so a simulation's outcome is a pure
//! function of its inputs and seed. [`peek`](EventQueue::peek) is always
//! the exact earliest pending tick.
//!
//! # Examples
//!
//! ```
//! use rmb_sim::{EventQueue, Tick};
//! let mut q = EventQueue::new();
//! q.schedule(Tick::new(3), "late");
//! q.schedule(Tick::new(1), "early");
//! assert_eq!(q.pop_due(Tick::new(2)), Some((Tick::new(1), "early")));
//! assert_eq!(q.pop_due(Tick::new(2)), None);
//! assert_eq!(q.peek(), Some(Tick::new(3)));
//! ```

use crate::clock::Tick;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One pending event, ordered by `(at, seq)` alone.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A discrete-event queue: events pop by due tick, then FIFO among equal
/// ticks. `schedule` and `pop` cost O(log n); [`peek`](EventQueue::peek)
/// costs O(1), which lets a simulation loop ask "anything due now?" every
/// tick.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence number of the next scheduled event.
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at tick `at`.
    pub fn schedule(&mut self, at: Tick, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            at: at.get(),
            seq,
            event,
        }));
    }

    /// Removes and returns the earliest event (by tick, then FIFO), or
    /// `None` when empty.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        self.heap.pop().map(|Reverse(e)| (Tick::new(e.at), e.event))
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `now`.
    pub fn pop_due(&mut self, now: Tick) -> Option<(Tick, E)> {
        if self.peek()? > now {
            return None;
        }
        self.pop()
    }

    /// The earliest pending due tick, or `None` when empty.
    pub fn peek(&self) -> Option<Tick> {
        self.heap.peek().map(|Reverse(e)| Tick::new(e.at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_tick_then_fifo() {
        let mut w = EventQueue::new();
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
        let mut w = EventQueue::new();
        w.schedule(Tick::new(5), ());
        assert_eq!(w.pop_due(Tick::new(4)), None);
        assert_eq!(w.peek(), Some(Tick::new(5)));
        assert_eq!(w.pop_due(Tick::new(5)), Some((Tick::new(5), ())));
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn hint_never_overshoots() {
        let mut w = EventQueue::new();
        w.schedule(Tick::new(100), 1);
        w.schedule(Tick::new(7), 2);
        assert_eq!(w.peek(), Some(Tick::new(7)));
        assert_eq!(w.pop(), Some((Tick::new(7), 2)));
        assert_eq!(w.peek(), Some(Tick::new(100)));
    }

    #[test]
    fn scheduling_in_the_past_still_delivers() {
        let mut w = EventQueue::new();
        w.schedule(Tick::new(50), "future");
        assert_eq!(w.pop(), Some((Tick::new(50), "future")));
        // An earlier tick scheduled after a later pop still comes out first.
        w.schedule(Tick::new(10), "past");
        w.schedule(Tick::new(60), "later");
        assert_eq!(w.pop(), Some((Tick::new(10), "past")));
        assert_eq!(w.pop(), Some((Tick::new(60), "later")));
    }

    #[test]
    fn far_future_overflow_promotes() {
        let mut w = EventQueue::new();
        let far = Tick::new(3 * (1 << 24) + 17);
        w.schedule(far, "far");
        w.schedule(Tick::new(4), "near");
        assert_eq!(w.pop(), Some((Tick::new(4), "near")));
        assert_eq!(w.peek(), Some(far));
        assert_eq!(w.pop(), Some((far, "far")));
        assert!(w.is_empty());
    }

    #[test]
    fn cursor_slot_wrap_at_upper_level() {
        // Ticks a power-of-two revolution apart, scheduled out of order
        // after a pop, still come out by tick.
        let mut w = EventQueue::new();
        w.schedule(Tick::new(100), "warm");
        assert_eq!(w.pop(), Some((Tick::new(100), "warm")));
        let rev = 1u64 << 12;
        w.schedule(Tick::new(100 + rev), "wrapped");
        w.schedule(Tick::new(101), "near");
        w.schedule(Tick::new(900), "middle");
        assert_eq!(w.pop(), Some((Tick::new(101), "near")));
        assert_eq!(w.pop(), Some((Tick::new(900), "middle")));
        assert_eq!(w.pop(), Some((Tick::new(100 + rev), "wrapped")));
    }

    #[test]
    fn len_and_clear() {
        let mut w = EventQueue::default();
        assert!(w.is_empty());
        w.schedule(Tick::new(1), 1);
        w.schedule(Tick::new(2), 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek(), Some(Tick::new(1)));
        while w.pop().is_some() {}
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
    }

    /// Model check: the queue must agree with a `Vec` stable-sorted by
    /// tick (so FIFO among equal ticks) on a randomized schedule/pop
    /// interleaving with near, far and past ticks.
    #[test]
    fn agrees_with_reference_model() {
        /// Stable-sorts the model by tick and pops its front if due.
        fn model_pop(model: &mut Vec<(u64, u64)>, now: u64) -> Option<(Tick, u64)> {
            model.sort_by_key(|&(at, _)| at);
            match model.first() {
                Some(&(at, _)) if at <= now => {
                    let (at, s) = model.remove(0);
                    Some((Tick::new(at), s))
                }
                _ => None,
            }
        }
        const FAR: u64 = 1 << 24;
        for trial in 0..24u64 {
            let mut rng = crate::SimRng::seed(0x8ee1 + trial);
            let mut queue = EventQueue::new();
            // `(at, seq)` in schedule order; the front after a stable
            // sort by `at` is the event due next.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..600 {
                let roll = rng.next_u32() % 10;
                if roll < 6 {
                    // Mostly near, a tail far ahead, and occasionally
                    // behind the latest pop.
                    let span = match rng.next_u32() % 8 {
                        0..=3 => 64,
                        4 => 4096,
                        5 => 1 << 18,
                        6 => FAR / 2,
                        _ => 3 * FAR,
                    };
                    let base = now.saturating_sub(span / 16);
                    let at = base + rng.next_u64() % span;
                    queue.schedule(Tick::new(at), seq);
                    model.push((at, seq));
                    seq += 1;
                } else if roll < 9 {
                    now += rng.next_u64() % 200;
                    loop {
                        let got = queue.pop_due(Tick::new(now));
                        let want = model_pop(&mut model, now);
                        assert_eq!(got, want, "trial {trial} now {now}");
                        if got.is_none() {
                            break;
                        }
                    }
                    let expect = model.first().map(|&(at, _)| Tick::new(at));
                    assert_eq!(queue.peek(), expect, "trial {trial} peek");
                } else {
                    let got = queue.pop();
                    let want = model_pop(&mut model, u64::MAX);
                    assert_eq!(got, want, "trial {trial} pop");
                    if let Some((at, _)) = got {
                        now = now.max(at.get());
                    }
                }
                assert_eq!(queue.len(), model.len());
            }
            let mut last = (0u64, 0u64);
            while let Some((at, s)) = model_pop(&mut model, u64::MAX) {
                let want = (at.get(), s);
                let (at, s) = queue.pop().expect("queue drained early");
                assert_eq!((at.get(), s), want, "trial {trial} drain");
                assert!(want >= last);
                last = want;
            }
            assert!(queue.is_empty());
        }
    }
}
