//! The stream and teardown phase: the Hack's return, data flits,
//! delivery, and the tail-first Fack/Nack teardown (§2.2). It is the
//! only phase that removes buses.

use super::compact::mark_mobility;
use super::{BusSlab, PendingRequest, RmbNetwork};
use crate::virtual_bus::{BusState, StreamState, VirtualBus};
use rmb_sim::trace::TraceKind;
use rmb_types::{AbortedMessage, DeliveredMessage, MessageSpec, VirtualBusId};

impl RmbNetwork {
    pub(super) fn progress_streams_and_teardowns(&mut self) {
        // This is the only phase that removes buses: detach the slab so
        // its state lane can be advanced while the rest of the network is
        // borrowed freely, compacting the active list behind the cursor.
        //
        // The loop below is the tick kernel's inner loop. It reads each
        // `Copy` state out of the slab's state lane and writes nothing
        // back for a parked header or a stream before its delivery: a
        // stream's sends and landings follow from its closed form (no
        // counters, no queues, no allocation). Every transition goes
        // through `step_bus`, kept out of line so that the loop holds its
        // state in registers; the cold `VirtualBus` struct is dereferenced
        // only there.
        if self.buses.is_empty() {
            return;
        }
        let now = self.now.get();
        let mut buses = std::mem::take(&mut self.buses);
        let mut kept = 0usize;
        for i in 0..buses.len() {
            let (id, slot) = buses.active_entry(i);
            let state = buses.state_at(slot);
            let unchanged = match state {
                BusState::Streaming(s) => {
                    // `t` ticks into the stream, flit `i` (the final flit
                    // is `i = m`) is sent at `t = 1 + i` and lands `L`
                    // ticks later; the final flit's landing delivers.
                    let t = now - s.circuit_at;
                    let (m, span) = (u64::from(s.data_flits), u64::from(s.span));
                    if t > m + span {
                        // The final flit landed: `step_bus` delivers.
                        false
                    } else {
                        if t <= m + 1 || t > span {
                            // A flit was sent or landed.
                            self.last_progress = now;
                        }
                        true
                    }
                }
                // A parked header waits for the establishment phases.
                BusState::Establishing => true,
                _ => false,
            };
            if unchanged || self.step_bus(&mut buses, id, slot, state) {
                buses.set_active(kept, id, slot);
                kept += 1;
            }
        }
        buses.truncate_active(kept);
        self.buses = buses;
    }

    /// Advances the bus `id` in `slot` one tick from `state`: one hop of
    /// the `Hack`'s return, the delivery when the final flit lands, or one
    /// teardown step. Writes the new state back and returns `true` while
    /// the bus stays live; otherwise removes it, re-queueing or aborting a
    /// refused request.
    #[inline(never)]
    fn step_bus(
        &mut self,
        buses: &mut BusSlab,
        id: VirtualBusId,
        slot: usize,
        mut state: BusState,
    ) -> bool {
        let ring = self.ring();
        let now = self.now.get();
        let mut remove = false;
        let mut progressed = false;
        let mut start_streaming = false;
        let mut completed = None;
        match state {
            BusState::Streaming(s) => {
                debug_assert_eq!(
                    now - s.circuit_at,
                    u64::from(s.data_flits) + 1 + u64::from(s.span),
                    "delivered once the final flit lands"
                );
                completed = Some(s);
            }
            BusState::AwaitingHack { hops_left } => {
                let hops_left = hops_left - 1;
                start_streaming = hops_left == 0;
                state = BusState::AwaitingHack { hops_left };
            }
            BusState::Establishing | BusState::TearingDown { .. } | BusState::Nacked { .. } => {}
        }
        if start_streaming {
            let bus = buses.get(id).expect("active ids are live");
            state = BusState::Streaming(StreamState::new(
                now,
                bus.heights.len() as u32,
                bus.spec.data_flits,
            ));
            progressed = true;
        }
        if let Some(s) = completed {
            let bus = buses.get(id).expect("active ids are live");
            self.deliver(bus, s.circuit_at, u64::from(s.span), now);
            state = BusState::TearingDown { freed: 0 };
            progressed = true;
        }
        let teardown_freed = match state {
            BusState::TearingDown { freed } | BusState::Nacked { freed } => Some(freed),
            _ => None,
        };
        if let Some(freed) = teardown_freed {
            if completed.is_none() {
                // The Fack / Nack crosses one INC per tick, freeing the
                // tail hop as it passes. (A bus that completed this very
                // tick starts freeing next tick.)
                let bus = buses.get(id).expect("active ids are live");
                let idx = bus.heights.len() - 1 - freed;
                let hop = bus.hop_upstream_node(ring, idx).as_usize();
                let height = bus.heights[idx];
                let hops = bus.heights.len();
                self.release(hop, height);
                let new_freed = freed + 1;
                state = match state {
                    BusState::TearingDown { .. } => BusState::TearingDown { freed: new_freed },
                    BusState::Nacked { .. } => BusState::Nacked { freed: new_freed },
                    _ => unreachable!("teardown state checked above"),
                };
                progressed = true;
                remove = new_freed == hops;
            }
        }
        if progressed {
            self.last_progress = now;
        }
        if completed.is_some() || (start_streaming && !self.cfg.early_compaction) {
            // A delivered circuit stops sinking; with early compaction
            // off, a streaming one starts (§2.4).
            let bus = buses.at(slot);
            mark_mobility(&mut self.occ, &self.cfg, bus, state, 0..bus.heights.len());
        }
        if remove {
            let bus = buses.take(id).expect("active ids are live");
            buses.discard(id);
            let nacked = matches!(state, BusState::Nacked { .. });
            self.nodes[bus.spec.source.as_usize()].sends_active -= 1;
            if nacked {
                // Release any multicast taps that were already armed.
                for tap in &bus.taps[..bus.armed_taps] {
                    self.nodes[tap.as_usize()].receives_active -= 1;
                }
                let refusals = bus.refusals + 1;
                if self.opts.max_retries.is_some_and(|limit| refusals > limit) {
                    // Retry budget exhausted: drop the request for
                    // good, counting every destination it covered.
                    self.aborted += 1 + bus.taps.len();
                    self.record_abort(AbortedMessage {
                        request: bus.request,
                        spec: bus.spec,
                        aborted_at: now,
                        refusals,
                    });
                    self.first_kill.remove(&bus.request.get());
                    self.trace(
                        TraceKind::Abort,
                        bus.id,
                        bus.spec.source,
                        None,
                        "retry budget exhausted",
                    );
                } else {
                    // Re-queue the refused request: linear backoff for
                    // ordinary contention Nacks, bounded exponential
                    // with jitter after a fault kill.
                    self.retries += 1;
                    let backoff = if bus.fault_killed {
                        self.fault_backoff(refusals)
                    } else {
                        self.cfg.node.retry_backoff * refusals as u64
                    };
                    self.enqueue(PendingRequest {
                        request: bus.request,
                        spec: bus.spec,
                        taps: bus.taps,
                        requested_at: bus.requested_at,
                        refusals,
                        not_before: now + backoff,
                    });
                }
            } else {
                self.trace(
                    TraceKind::Teardown,
                    bus.id,
                    bus.spec.source,
                    None,
                    "virtual bus removed",
                );
            }
            false
        } else {
            buses.set_state_at(slot, state);
            true
        }
    }

    /// Delivers the message `bus` carries, whose final flit arrived at
    /// `now` over a circuit of `span` hops that came up at `circuit_at`:
    /// logs it (and every multicast tap), frees the receive ports and
    /// closes a fault recovery. The caller starts the teardown.
    pub(super) fn deliver(&mut self, bus: &VirtualBus, circuit_at: u64, span: u64, now: u64) {
        let ring = self.ring();
        self.record_delivery(DeliveredMessage {
            request: bus.request,
            spec: bus.spec,
            requested_at: bus.requested_at,
            circuit_at,
            delivered_at: now,
            refusals: bus.refusals,
        });
        self.nodes[bus.spec.destination.as_usize()].receives_active -= 1;
        // Multicast taps saw the final flit as it flowed past,
        // span - dist hops before it reached the far end.
        for tap in &bus.taps {
            let dist = u64::from(ring.clockwise_distance(bus.spec.source, *tap));
            self.record_delivery(DeliveredMessage {
                request: bus.request,
                spec: MessageSpec::new(bus.spec.source, *tap, bus.spec.data_flits)
                    .at(bus.spec.inject_at),
                requested_at: bus.requested_at,
                circuit_at,
                delivered_at: now - (span - dist),
                refusals: bus.refusals,
            });
            self.nodes[tap.as_usize()].receives_active -= 1;
        }
        if let Some(kill_at) = self.first_kill.remove(&bus.request.get()) {
            let dt = now.saturating_sub(kill_at);
            self.recovered += 1;
            self.recovery_sum += dt;
            self.max_recovery = self.max_recovery.max(dt);
        }
        self.trace(
            TraceKind::Deliver,
            bus.id,
            bus.spec.destination,
            None,
            "final flit arrived",
        );
    }
}
