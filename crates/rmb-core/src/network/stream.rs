//! The stream and teardown phase: the Hack's return, data flits,
//! delivery, and the tail-first Fack/Nack teardown (§2.2). It is the
//! only phase that removes buses.

use super::compact::mark_mobility;
use super::{PendingRequest, RmbNetwork};
use crate::virtual_bus::{BusState, StreamState, VirtualBus};
use rmb_sim::trace::TraceKind;
use rmb_types::{AbortedMessage, DeliveredMessage, MessageSpec};

impl RmbNetwork {
    pub(super) fn progress_streams_and_teardowns(&mut self) {
        let ring = self.ring();
        let now = self.now.get();
        let event = self.event_driven();
        // This is the only phase that removes buses: detach the slab so
        // its state lane can be advanced while the rest of the network is
        // borrowed freely, compacting the active list behind the cursor.
        //
        // The steady-state streaming arm is the tick kernel's inner loop:
        // it reads the `Copy` state out of the slab's state lane, advances
        // two counters against closed-form send ticks (no queues, no
        // allocation), and writes the state back — the cold `VirtualBus`
        // struct is dereferenced only on transitions (stream start,
        // completion, teardown, removal).
        if self.buses.is_empty() {
            return;
        }
        let mut buses = std::mem::take(&mut self.buses);
        let mut kept = 0usize;
        for i in 0..buses.len() {
            let (id, slot) = buses.active_entry(i);
            if event && self.sched.next_due[slot] > now {
                // Nothing due: parked `Establishing` buses are stream
                // no-ops, and a draining stream's next delivery or final
                // flit is still in flight. The dense sweep would walk the
                // same no-op arms and observe nothing.
                buses.set_active(kept, id, slot);
                kept += 1;
                continue;
            }
            // Steady-state fast path: a mid-flight stream can only land
            // flits and send the next one — no transition is reachable —
            // so it is updated in place, skipping the copy-out/copy-back
            // protocol and the transition checks below.
            let fast = match buses.state_at_mut(slot) {
                BusState::Streaming(s) if s.ff_sent_at.is_none() && s.next_seq < s.data_flits => {
                    s.catch_up(now);
                    debug_assert_eq!(now, s.send_tick(s.next_seq), "one send per tick");
                    s.next_seq += 1;
                    true
                }
                _ => false,
            };
            if fast {
                // The send is progress; the stream stays due next tick.
                self.last_progress = now;
                if event {
                    self.sched.next_due[slot] = now + 1;
                }
                buses.set_active(kept, id, slot);
                kept += 1;
                continue;
            }
            let mut state = buses.state_at(slot);
            let mut remove = false;
            let mut progressed = false;
            let mut start_streaming = false;
            let mut completed = None;
            match state {
                BusState::Establishing | BusState::TearingDown { .. } | BusState::Nacked { .. } => {
                }
                BusState::AwaitingHack { hops_left } => {
                    let hops_left = hops_left - 1;
                    start_streaming = hops_left == 0;
                    state = BusState::AwaitingHack { hops_left };
                }
                BusState::Streaming(mut s) => {
                    // The fast path above sends every data flit, so what
                    // is left is the final flit and the deliveries
                    // (`L` ticks after each send) still in flight.
                    progressed |= s.catch_up(now);
                    if let Some(ff_at) = s.ff_sent_at {
                        if now >= ff_at + u64::from(s.span) {
                            // Final flit arrived: the message is delivered.
                            completed = Some(s);
                        }
                    } else {
                        debug_assert_eq!(s.next_seq, s.data_flits, "every data flit is out");
                        s.ff_sent_at = Some(now);
                        progressed = true;
                    }
                    state = BusState::Streaming(s);
                }
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
            if event && !remove {
                // When is this bus next due? `Establishing` parks until a
                // decision or fault wakes it; teardown-ish states act
                // every tick; a stream that has sent its final flit
                // sleeps until the next in-flight flit lands. The wake
                // ticks coincide with the dense sweep's delivery pops, so
                // `last_progress` (and with it stall detection and report
                // tick counts) stays byte-identical.
                self.sched.next_due[slot] = match state {
                    BusState::Establishing => u64::MAX,
                    BusState::AwaitingHack { .. }
                    | BusState::TearingDown { .. }
                    | BusState::Nacked { .. } => now + 1,
                    BusState::Streaming(s) => match s.ff_sent_at {
                        None => now + 1,
                        Some(ff) => {
                            let span = u64::from(s.span);
                            let next_delivery = if s.delivered < s.next_seq {
                                s.send_tick(s.delivered) + span
                            } else {
                                u64::MAX
                            };
                            (ff + span).min(next_delivery)
                        }
                    },
                };
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
            } else {
                buses.set_state_at(slot, state);
                buses.set_active(kept, id, slot);
                kept += 1;
            }
        }
        buses.truncate_active(kept);
        self.buses = buses;
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
