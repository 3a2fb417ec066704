//! The establishment phases: destinations decide on parked headers
//! (accept, refuse, time out), then headers extend one hop (§2.3).

use super::compact::mark_mobility;
use super::RmbNetwork;
use crate::virtual_bus::BusState;
use rmb_sim::trace::TraceKind;
use rmb_types::{BusIndex, InsertionPolicy, VirtualBusId};

impl RmbNetwork {
    /// Runs one establishment phase (`decide_bus` / `extend_bus`) over
    /// exactly the live `Establishing` buses, in ascending id order.
    ///
    /// Event mode walks the scheduler's `establishing` list, dropping
    /// entries that died or left the state *before* the call (the dense
    /// sweep would skip them too) and keeping entries whose state changes
    /// *during* the call (they fall out on the next pass). Dense mode
    /// walks the whole active list; the per-bus methods re-check the
    /// state themselves.
    fn for_each_establishing(&mut self, mut phase: impl FnMut(&mut Self, VirtualBusId)) {
        if self.event_driven() {
            let mut list = std::mem::take(&mut self.sched.establishing);
            let mut kept = 0usize;
            for i in 0..list.len() {
                let id = list[i];
                let still = matches!(self.buses.state(id), Some(BusState::Establishing));
                if !still {
                    continue;
                }
                phase(self, id);
                list[kept] = id;
                kept += 1;
            }
            list.truncate(kept);
            self.sched.establishing = list;
        } else {
            // No bus is created or removed in this phase, so the active
            // list is stable and can be walked by position.
            for i in 0..self.buses.len() {
                let id = self.buses.active_id(i);
                phase(self, id);
            }
        }
    }

    pub(super) fn decide_at_destinations(&mut self) {
        self.for_each_establishing(Self::decide_bus);
    }

    fn decide_bus(&mut self, id: VirtualBusId) {
        let ring = self.ring();
        let now = self.now.get();
        {
            let (dst, span, head);
            {
                if !matches!(self.buses.state(id), Some(BusState::Establishing)) {
                    return;
                }
                let bus = self.buses.get(id).expect("bus is live");
                dst = bus.spec.destination;
                span = bus.heights.len() as u32;
                head = bus.head_node(ring);
            }
            // Multicast: the header is parked at the next unarmed tap —
            // take that node's receive port (arming the tap) or refuse the
            // whole circuit.
            let next_tap = {
                let bus = self.buses.get(id).expect("bus is live");
                bus.taps.get(bus.armed_taps).copied()
            };
            if Some(head) == next_tap {
                if self.dead_inc[head.as_usize()] > 0 {
                    self.fault_kill(id, "tap INC is dead");
                    return;
                }
                if self.nodes[head.as_usize()].receives_active
                    < self.cfg.node.max_concurrent_receives
                {
                    self.nodes[head.as_usize()].receives_active += 1;
                    let bus = self.buses.get_mut(id).expect("bus is live");
                    bus.armed_taps += 1;
                    bus.parked_since = now;
                    self.trace(TraceKind::Accept, id, head, None, "multicast tap armed");
                } else {
                    self.refuse(id);
                    self.trace(TraceKind::Refuse, id, head, None, "multicast tap busy");
                }
                self.last_progress = now;
                return;
            }
            if head != dst {
                if let Some(limit) = self.cfg.head_timeout {
                    let parked_since = self.buses.get(id).expect("bus is live").parked_since;
                    let parked = now.saturating_sub(parked_since);
                    if parked > limit {
                        self.refuse(id);
                        self.trace(
                            TraceKind::Refuse,
                            id,
                            head,
                            None,
                            "header timed out at intermediate INC",
                        );
                        self.last_progress = now;
                    }
                }
                return;
            }
            if self.dead_inc[dst.as_usize()] > 0 {
                self.fault_kill(id, "destination INC is dead");
                return;
            }
            let accept =
                self.nodes[dst.as_usize()].receives_active < self.cfg.node.max_concurrent_receives;
            if accept {
                self.buses
                    .set_state(id, BusState::AwaitingHack { hops_left: span });
                self.nodes[dst.as_usize()].receives_active += 1;
                // No hop changes mobility: the head has reached the
                // destination, so no hop feeds a parked head, and the
                // circuit is as assessable awaiting the Hack as before.
                self.trace(TraceKind::Accept, id, dst, None, "destination accepted");
            } else {
                self.refuse(id);
                self.trace(TraceKind::Refuse, id, dst, None, "destination busy");
            }
            self.last_progress = now;
        }
    }

    /// Refuses the establishing bus `id` with a `Nack`, which frees it
    /// tail-first from the next stream phase; it never sinks again.
    fn refuse(&mut self, id: VirtualBusId) {
        self.buses.set_state(id, BusState::Nacked { freed: 0 });
        self.refresh_mobility(id);
        self.refusals += 1;
    }

    pub(super) fn extend_heads(&mut self) {
        self.for_each_establishing(Self::extend_bus);
    }

    fn extend_bus(&mut self, id: VirtualBusId) {
        let ring = self.ring();
        let now = self.now.get();
        let top = self.cfg.top_bus();
        {
            let (head, last_height, injected_at);
            {
                if !matches!(self.buses.state(id), Some(BusState::Establishing)) {
                    return;
                }
                let bus = self.buses.get(id).expect("bus is live");
                head = bus.head_node(ring);
                if head == bus.spec.destination {
                    return;
                }
                // A multicast header dwells at each tap until the tap has
                // taken its receive port (the decision phase arms it).
                if bus.taps.get(bus.armed_taps) == Some(&head) {
                    return;
                }
                last_height = *bus.heights.last().expect("established hops");
                injected_at = bus.injected_at;
            }
            if injected_at == now {
                // Injected this very tick; the HF advances from next tick.
                return;
            }
            let hop = head.as_usize();
            let chosen = match self.cfg.insertion {
                InsertionPolicy::TopBusOnly => {
                    if self.faulted(hop, top.as_usize()) {
                        // The header lane ahead is dead and a parked HF
                        // cannot sidestep it: Nack back to the source
                        // rather than wait for a repair that may never
                        // come.
                        self.fault_kill(id, "header lane ahead is faulted");
                        return;
                    }
                    // Header flits travel on the top lane only (§2.3).
                    (self.seg(hop, top.as_usize()).is_none()).then_some(top)
                }
                InsertionPolicy::AnyFreeBus => {
                    if self.reach_all_faulted(hop, last_height) {
                        self.fault_kill(id, "every reachable segment ahead is faulted");
                        return;
                    }
                    self.free_within_reach(hop, last_height)
                }
            };
            if let Some(height) = chosen {
                debug_assert!(
                    last_height.is_adjacent_or_equal(height),
                    "extension out of the INC switching range"
                );
                self.occupy(hop, height, id);
                let prev = if hop == 0 { ring.as_usize() } else { hop } - 1;
                self.occ
                    .link(prev, last_height.as_usize(), height.as_usize());
                let slot = self.buses.slot(id).expect("bus is live");
                let bus = self.buses.at_mut(slot);
                bus.heights.push(height);
                bus.parked_since = now;
                let hops = bus.heights.len();
                // The old head hop no longer feeds the header; the new one
                // does, unless the header has reached its destination.
                let bus = self.buses.at(slot);
                let state = BusState::Establishing;
                mark_mobility(&mut self.occ, &self.cfg, bus, state, hops - 2..hops);
                self.trace(
                    TraceKind::Extend,
                    id,
                    head,
                    Some(height),
                    "header advanced one hop",
                );
                self.last_progress = now;
            }
        }
    }

    /// `true` when the segment is neither occupied nor faulted: two bit
    /// probes of the packed bitmaps.
    #[inline]
    pub(super) fn available(&self, hop: usize, bus: usize) -> bool {
        !self.occ.blocked(hop, bus)
    }

    /// For the `AnyFreeBus` ablation: the first available segment on
    /// `hop` within switching reach of `from`, preferring straight, then
    /// down, then up.
    fn free_within_reach(&self, hop: usize, from: BusIndex) -> Option<BusIndex> {
        if self.available(hop, from.as_usize()) {
            return Some(from);
        }
        if let Some(lower) = from.lower() {
            if self.available(hop, lower.as_usize()) {
                return Some(lower);
            }
        }
        if from.index() + 1 < self.cfg.buses() {
            let upper = from.upper();
            if self.available(hop, upper.as_usize()) {
                return Some(upper);
            }
        }
        None
    }

    /// `true` when every segment within switching reach of `from` at
    /// `hop` is faulted — the header can never advance until a repair, so
    /// waiting is pointless.
    fn reach_all_faulted(&self, hop: usize, from: BusIndex) -> bool {
        let mut all = self.faulted(hop, from.as_usize());
        if let Some(lower) = from.lower() {
            all = all && self.faulted(hop, lower.as_usize());
        }
        if from.index() + 1 < self.cfg.buses() {
            all = all && self.faulted(hop, from.upper().as_usize());
        }
        all
    }
}
