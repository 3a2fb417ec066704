//! Fault machinery: the fault timeline, the circuits a fault tears down,
//! and the bounded exponential backoff of fault-hit retries.

use super::RmbNetwork;
use crate::virtual_bus::BusState;
use rmb_sim::trace::{TraceEvent, TraceKind};
use rmb_types::{AbortedMessage, BusIndex, FaultKind, VirtualBusId};

/// Cap on the bounded exponential fault-retry backoff, in ticks.
const MAX_FAULT_BACKOFF: u64 = 4096;

impl RmbNetwork {
    /// Applies every fault-timeline entry due at or before the current
    /// tick (runs first in each tick, so a fresh fault is visible to all
    /// of the tick's phases).
    pub(super) fn apply_due_faults(&mut self) {
        let now = self.now.get();
        while let Some(&(at, is_repair, kind)) = self.fault_timeline.get(self.next_fault) {
            if at > now {
                break;
            }
            self.next_fault += 1;
            if is_repair {
                self.apply_repair(kind);
            } else {
                self.apply_fault(kind);
            }
            if self.recorder.is_some() {
                let (node, bus) = match kind {
                    FaultKind::SegmentStuck { hop, bus } => (hop, Some(bus)),
                    FaultKind::LinkCut { hop } => (hop, None),
                    FaultKind::IncDead { node } => (node, None),
                };
                let trace_kind = if is_repair {
                    TraceKind::FaultRepair
                } else {
                    TraceKind::FaultInject
                };
                if let Some(rec) = &mut self.recorder {
                    rec.record(TraceEvent {
                        at: self.now,
                        kind: trace_kind,
                        id: None,
                        node: Some(node.index()),
                        bus: bus.map(|b| b.index()),
                        detail: kind.to_string(),
                    });
                }
            }
            self.last_progress = now;
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::SegmentStuck { hop, bus } => self.fault_segment(hop.as_usize(), bus),
            FaultKind::LinkCut { hop } => {
                for b in 0..self.cfg.buses() {
                    self.fault_segment(hop.as_usize(), BusIndex::new(b));
                }
            }
            FaultKind::IncDead { node } => {
                self.dead_inc[node.as_usize()] += 1;
                // The dead INC drives every segment at its own hop.
                for b in 0..self.cfg.buses() {
                    self.fault_segment(node.as_usize(), BusIndex::new(b));
                }
                // Circuits terminating (or tapping) at the dead INC lose
                // their endpoint; the occupancy path above only catches
                // circuits that pass *through* it.
                let victims: Vec<VirtualBusId> = self
                    .buses
                    .iter()
                    .filter(|(_, b)| b.spec.destination == node || b.taps.contains(&node))
                    .map(|(id, _)| id)
                    .collect();
                for id in victims {
                    self.fault_kill(id, "endpoint INC died");
                }
            }
        }
    }

    fn apply_repair(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::SegmentStuck { hop, bus } => self.repair_segment(hop.as_usize(), bus),
            FaultKind::LinkCut { hop } => {
                for b in 0..self.cfg.buses() {
                    self.repair_segment(hop.as_usize(), BusIndex::new(b));
                }
            }
            FaultKind::IncDead { node } => {
                self.dead_inc[node.as_usize()] -= 1;
                for b in 0..self.cfg.buses() {
                    self.repair_segment(node.as_usize(), BusIndex::new(b));
                }
            }
        }
    }

    fn fault_segment(&mut self, hop: usize, bus: BusIndex) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        self.fault_count[idx] += 1;
        if self.fault_count[idx] == 1 {
            self.occ.assign_faulted(hop, bus.as_usize(), true);
            // An idle segment just leaves the availability pool. An
            // occupied one takes its circuit down with it; the teardown
            // keeps owning the segment until the Nack passes.
            if let Some(owner) = self.segments[idx] {
                self.fault_kill(owner, "segment faulted under the circuit");
            }
        }
    }

    fn repair_segment(&mut self, hop: usize, bus: BusIndex) {
        let idx = hop * self.cfg.buses() as usize + bus.as_usize();
        debug_assert!(self.fault_count[idx] > 0, "repairing a healthy segment");
        self.fault_count[idx] -= 1;
        if self.fault_count[idx] == 0 {
            self.occ.assign_faulted(hop, bus.as_usize(), false);
        }
    }

    /// Tears a live circuit down because of a fault: Nack back to the
    /// source (tail-first, reusing the ordinary teardown machinery) and
    /// mark it for the bounded-exponential retry path. No-op for circuits
    /// already tearing down.
    pub(super) fn fault_kill(&mut self, id: VirtualBusId, why: &str) {
        let Some(state) = self.buses.state(id) else {
            return;
        };
        let receiving = match state {
            BusState::TearingDown { .. } | BusState::Nacked { .. } => return,
            BusState::AwaitingHack { .. } | BusState::Streaming(_) => true,
            BusState::Establishing => false,
        };
        let (dst, source) = {
            let bus = self.buses.get(id).expect("bus is live");
            (bus.spec.destination, bus.spec.source)
        };
        if receiving {
            // Past acceptance the destination holds a receive port that
            // the ordinary Nack path never has to give back; the fault
            // abort must.
            self.nodes[dst.as_usize()].receives_active -= 1;
        }
        let now = self.now.get();
        self.buses.set_state(id, BusState::Nacked { freed: 0 });
        self.refresh_mobility(id);
        let bus = self.buses.get_mut(id).expect("bus is live");
        bus.fault_killed = true;
        let request = bus.request.get();
        self.fault_kills += 1;
        self.first_kill.entry(request).or_insert(now);
        self.last_progress = now;
        self.trace(TraceKind::FaultKill, id, source, None, why);
    }

    /// Bounded exponential backoff with jitter for fault-hit retries:
    /// `base · 2^min(refusals, 12)` capped at [`MAX_FAULT_BACKOFF`], plus
    /// a uniform jitter of up to half that, drawn from the seeded fault
    /// stream.
    pub(super) fn fault_backoff(&mut self, refusals: u32) -> u64 {
        let base = self.cfg.node.retry_backoff.max(1);
        let bounded = base
            .saturating_mul(1u64 << refusals.min(12))
            .min(MAX_FAULT_BACKOFF.max(base));
        bounded + self.fault_rng.index(bounded as usize / 2 + 1).unwrap_or(0) as u64
    }

    /// Refuses the due request at the head of node `s`'s queue because
    /// faults block injection (source INC dead, or the header lane
    /// faulted): counts a refusal, backs off exponentially, and aborts
    /// once past the retry budget.
    pub(super) fn refuse_at_source(&mut self, s: usize) {
        let now = self.now.get();
        let mut p = self.nodes[s].pending.pop_front().expect("front exists");
        self.pending_total -= 1;
        p.refusals += 1;
        self.refusals += 1;
        self.last_progress = now;
        if self
            .opts
            .max_retries
            .is_some_and(|limit| p.refusals > limit)
        {
            self.aborted += 1 + p.taps.len();
            self.record_abort(AbortedMessage {
                request: p.request,
                spec: p.spec,
                aborted_at: now,
                refusals: p.refusals,
            });
            self.first_kill.remove(&p.request.get());
            if let Some(rec) = &mut self.recorder {
                rec.record(TraceEvent {
                    at: self.now,
                    kind: TraceKind::Abort,
                    id: Some(p.request.get()),
                    node: Some(s as u32),
                    bus: None,
                    detail: format!("dropped at source after {} refusals", p.refusals),
                });
            }
        } else {
            self.retries += 1;
            p.not_before = now + self.fault_backoff(p.refusals);
            self.nodes[s].pending.push_back(p);
            self.pending_total += 1;
        }
    }
}
