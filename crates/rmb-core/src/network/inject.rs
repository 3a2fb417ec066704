//! The injection phase: the front request of a node's queue enters the
//! ring as a header flit on its source hop (§2.2–2.3).

use super::compact::mark_mobility;
use super::RmbNetwork;
use crate::virtual_bus::{BusState, VirtualBus};
use rmb_sim::trace::TraceKind;
use rmb_sim::Tick;
use rmb_types::{BusIndex, InsertionPolicy, VirtualBusId};

/// What [`RmbNetwork::try_inject_at`] did for one node's queue front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectOutcome {
    /// The node is at its concurrent-send cap; the front stays queued.
    CapBlocked,
    /// The queue is empty.
    NoFront,
    /// The front's `not_before` is in the future.
    NotDue,
    /// Faults block injection; the front was refused (and backed off or
    /// aborted), changing the queue front.
    RefusedAtSource,
    /// No usable segment; the HF stays buffered at the node (§2.3).
    Buffered,
    /// The front was injected as a new virtual bus.
    Injected,
}

impl RmbNetwork {
    pub(super) fn inject_pending(&mut self) {
        let now = self.now.get();
        let n = self.cfg.nodes().as_usize();
        // Rotate the scan start so low-numbered nodes get no static edge.
        let start = (now % n as u64) as usize;
        if self.event_driven() {
            // Promote nodes whose queue front has just come due from the
            // event queue into the ready set, then attempt injection only
            // at ready nodes — in the same rotated order the dense sweep
            // would visit them.
            while let Some((_, s)) = self.sched.waiting.pop_due(Tick::new(now)) {
                self.arm_node(s as usize);
            }
            if self.sched.ready.is_empty() {
                // No node has a due queue front; the rotated scan below
                // would visit nothing.
                return;
            }
            let mut ready = std::mem::take(&mut self.sched.scratch_ready);
            ready.clear();
            ready.extend_from_slice(&self.sched.ready);
            let pivot = ready.partition_point(|&s| (s as usize) < start);
            for idx in (pivot..ready.len()).chain(0..pivot) {
                let s = ready[idx] as usize;
                match self.try_inject_at(s) {
                    // Still blocked on a send cap or a busy segment: the
                    // front stays due, so the node stays ready.
                    InjectOutcome::CapBlocked | InjectOutcome::Buffered => {}
                    InjectOutcome::NoFront => self.ready_remove(s),
                    InjectOutcome::NotDue => {
                        // A ready node's front is immutable until visited,
                        // so its `not_before` cannot move into the future.
                        debug_assert!(false, "ready node's front is not due");
                        self.ready_remove(s);
                        self.arm_node(s);
                    }
                    // The front changed (consumed or re-queued with a
                    // backoff): re-arm for the new front, if any.
                    InjectOutcome::RefusedAtSource | InjectOutcome::Injected => {
                        self.ready_remove(s);
                        self.arm_node(s);
                    }
                }
            }
            self.sched.scratch_ready = ready;
        } else {
            for off in 0..n {
                let s = (start + off) % n;
                self.try_inject_at(s);
            }
        }
    }

    /// Attempts to inject the front pending request at node `s`: the
    /// per-node body of the injection phase, shared verbatim by the dense
    /// sweep (which ignores the outcome) and the event engine (which uses
    /// it to maintain the ready set).
    fn try_inject_at(&mut self, s: usize) -> InjectOutcome {
        let now = self.now.get();
        let top = self.cfg.top_bus();
        {
            let node = &self.nodes[s];
            if node.sends_active >= self.cfg.node.max_concurrent_sends {
                return InjectOutcome::CapBlocked;
            }
            let Some(front) = node.pending.front() else {
                return InjectOutcome::NoFront;
            };
            if front.not_before > now {
                return InjectOutcome::NotDue;
            }
            // Faults that park the request forever — a dead source INC,
            // or a header lane that is faulted rather than merely busy —
            // refuse it on the spot so it backs off (and eventually
            // aborts) instead of deadlocking the queue.
            let fault_blocked = self.dead_inc[s] > 0
                || match self.cfg.insertion {
                    InsertionPolicy::TopBusOnly => self.faulted(s, top.as_usize()),
                    InsertionPolicy::AnyFreeBus => {
                        (0..self.cfg.buses() as usize).all(|b| self.faulted(s, b))
                    }
                };
            if fault_blocked {
                self.refuse_at_source(s);
                return InjectOutcome::RefusedAtSource;
            }
            let height = match self.cfg.insertion {
                InsertionPolicy::TopBusOnly => {
                    // A request may only be initiated when the top segment
                    // at this INC is not serving another request (§2.2).
                    (self.seg(s, top.as_usize()).is_none()).then_some(top)
                }
                InsertionPolicy::AnyFreeBus => {
                    // Highest available segment on the source hop.
                    (0..self.cfg.buses())
                        .rev()
                        .map(BusIndex::new)
                        .find(|b| self.available(s, b.as_usize()))
                }
            };
            let Some(height) = height else {
                return InjectOutcome::Buffered; // HF stays buffered at the node (§2.3).
            };
            let pending = self.nodes[s].pending.pop_front().expect("front exists");
            self.pending_total -= 1;
            let id = VirtualBusId::new(self.next_bus);
            self.next_bus += 1;
            self.occupy(s, height, id);
            self.nodes[s].sends_active += 1;
            let bus = VirtualBus {
                id,
                request: pending.request,
                spec: pending.spec,
                requested_at: pending.requested_at,
                injected_at: now,
                refusals: pending.refusals,
                heights: vec![height],
                parked_since: now,
                taps: pending.taps,
                armed_taps: 0,
                fault_killed: false,
            };
            self.trace(
                TraceKind::Inject,
                id,
                pending.spec.source,
                Some(height),
                "HF inserted",
            );
            self.buses.insert(bus, BusState::Establishing);
            let slot = self.buses.slot(id).expect("freshly inserted bus");
            let bus = self.buses.at(slot);
            mark_mobility(&mut self.occ, &self.cfg, bus, BusState::Establishing, 0..1);
            if self.event_driven() {
                self.sched.establishing.push(id);
            }
            self.last_progress = now;
            InjectOutcome::Injected
        }
    }
}
