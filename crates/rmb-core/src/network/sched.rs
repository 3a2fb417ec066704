//! Bookkeeping of the event-driven scheduler: the establishing list, and
//! the ready set plus event queue of the injection queues. DESIGN.md §8a
//! describes the scheduler.

use super::RmbNetwork;
use rmb_sim::{EventQueue, Tick};
use rmb_types::VirtualBusId;

/// State of the event-driven scheduler.
///
/// Per-node injection state lives in a ready set plus an event queue. The
/// stream phase needs no entry: it visits every live bus. The dense sweep
/// ignores all of this.
#[derive(Debug, Default)]
pub(super) struct SchedState {
    /// Live `Establishing` buses in ascending id order, compacted lazily
    /// as buses leave the state (drives the decide/extend phases).
    pub(super) establishing: Vec<VirtualBusId>,
    /// Nodes whose queue front is due for injection, ascending.
    pub(super) ready: Vec<u32>,
    /// Per-node membership flag for `ready`.
    pub(super) ready_mask: Vec<bool>,
    /// One entry per node whose queue front becomes due at a future tick.
    pub(super) waiting: EventQueue<u32>,
    /// Reusable snapshot of `ready` for the injection scan.
    pub(super) scratch_ready: Vec<u32>,
}

impl RmbNetwork {
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
}
