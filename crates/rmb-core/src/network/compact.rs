//! The compaction phase: Fig. 7's moves under Fig. 8's odd/even
//! assessment (§2.4–2.5), decided 64 hops per word, in global lockstep
//! or by the per-INC handshake controllers.

use super::{CompactionMode, RmbNetwork};
use crate::compaction::{assessed_in_phase, EndpointHeight, HopContext, Phase};
use crate::virtual_bus::{BusState, VirtualBus};
use rmb_sim::trace::{TraceEvent, TraceKind};
use rmb_types::{BusIndex, NodeId, VirtualBusId};

/// A compaction move: (bus, hop index, from height, to height, hop node).
pub(super) type MoveCmd = (VirtualBusId, usize, BusIndex, BusIndex, usize);

impl RmbNetwork {
    pub(super) fn run_compaction(&mut self) {
        if !self.cfg.compaction {
            return;
        }
        match &self.opts.compaction_mode {
            CompactionMode::Synchronous => {
                if self.track_dirty
                    && self.sched.compact_dirty.is_empty()
                    && self.sched.pending_wakes.is_empty()
                {
                    // Every live bus has assessed clean in both cycle
                    // phases and nothing woke one since: the dense scan
                    // would decide no move.
                    return;
                }
                let phase = Phase::of_tick(self.now.get());
                // Decide against the phase-start snapshot, then apply: the
                // odd/even assessment rule guarantees the decided moves are
                // mutually compatible (see compaction::tests).
                let mut moves = std::mem::take(&mut self.scratch_moves);
                if self.track_dirty {
                    self.collect_dirty_moves(phase, &mut moves);
                } else {
                    self.collect_moves_into(phase, None, &mut moves);
                }
                for (id, j, from, to, hop) in moves.drain(..) {
                    self.apply_move(id, j, from, to, hop);
                }
                self.scratch_moves = moves;
            }
            CompactionMode::Handshake { .. } => {
                let now = self.now.get();
                let n = self.cfg.nodes().as_usize();
                for i in 0..n {
                    // Re-borrowed per INC: the moves below need `&mut self`.
                    let CompactionMode::Handshake { periods } = &self.opts.compaction_mode else {
                        unreachable!("inside the handshake arm");
                    };
                    if !now.is_multiple_of(periods[i]) {
                        continue;
                    }
                    let cycles = self.cycles.as_mut().expect("handshake ring exists");
                    let may_switch = cycles.controller(i).may_switch_datapath();
                    let done = cycles.controller(i).internal_done();
                    let phase = cycles.controller(i).phase();
                    if may_switch && !done {
                        // Perform this INC's datapath switches for its
                        // local phase, then raise ID.
                        let mut moves = std::mem::take(&mut self.scratch_moves);
                        self.collect_moves_into(phase, Some(NodeId::new(i as u32)), &mut moves);
                        for (id, j, from, to, hop) in moves.drain(..) {
                            self.apply_move(id, j, from, to, hop);
                        }
                        self.scratch_moves = moves;
                        let cycles = self.cycles.as_mut().expect("handshake ring exists");
                        cycles.set_internal_done(i, true);
                    }
                    let cycles = self.cycles.as_mut().expect("handshake ring exists");
                    let step = cycles.activate(i);
                    if step == crate::cycle::CycleStep::CycleSwitched {
                        if let Some(rec) = &mut self.recorder {
                            rec.record(TraceEvent {
                                at: self.now,
                                kind: TraceKind::CycleSwitch,
                                id: None,
                                node: Some(i as u32),
                                bus: None,
                                detail: format!(
                                    "phase now {}",
                                    self.cycles.as_ref().unwrap().controller(i).phase()
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Collects the eligible moves for `phase` into `out` (cleared
    /// first), optionally restricted to hops whose upstream INC is
    /// `only_node` — the dense full scan, in ascending id order.
    fn collect_moves_into(&self, phase: Phase, only_node: Option<NodeId>, out: &mut Vec<MoveCmd>) {
        out.clear();
        for i in 0..self.buses.len() {
            let (id, slot) = self.buses.active_entry(i);
            let state = self.buses.state_at(slot);
            if !state.compactable() {
                continue;
            }
            if state.pre_hack() && !self.cfg.early_compaction {
                continue;
            }
            self.collect_bus_moves(id, slot, state, phase, only_node, out);
        }
    }

    /// Appends the eligible moves of one bus to `out`, hops in ascending
    /// order: the per-bus body shared by the dense scan, the dirty set and
    /// the handshake compactor's per-INC scan (restricted to the hop
    /// `only_node` drives). The caller has already filtered on
    /// compactability. Checked runs compare every result against the
    /// per-hop rule it replaced ([`hop_walk_moves`](Self::hop_walk_moves)).
    fn collect_bus_moves(
        &self,
        id: VirtualBusId,
        slot: usize,
        state: BusState,
        phase: Phase,
        only_node: Option<NodeId>,
        out: &mut Vec<MoveCmd>,
    ) {
        let before = out.len();
        self.word_moves(id, slot, state, phase, only_node, out);
        if self.opts.checked {
            let oracle = self.hop_walk_moves(id, slot, state, phase, only_node);
            assert_eq!(
                out[before..],
                oracle[..],
                "word-parallel compaction of bus {id} disagrees with the per-hop rule at {}",
                self.now
            );
        }
    }

    /// Fig. 7 under Fig. 8, decided 64 hops per word. For each level
    /// `ℓ ≥ 1` the bus occupies, hop `j` (bit `j` of height plane `ℓ`)
    /// sinks to `ℓ - 1` when
    ///
    /// * its upstream INC assesses level `ℓ` in this phase (Fig. 8: node,
    ///   level and phase parities sum to even; node parities alternate
    ///   along the bus's arc, and on odd rings the pattern flips once past
    ///   the cut),
    /// * the segment below is neither owned nor faulted (the occupancy
    ///   lanes of bus `ℓ - 1`, read along the same arc), and
    /// * neither neighbouring hop sits at `ℓ + 1` (plane `ℓ + 1` shifted
    ///   one hop either way).
    ///
    /// By continuity (invariant #2) a neighbour sits at `ℓ - 1`, `ℓ` or
    /// `ℓ + 1`, so the last condition is exactly Fig. 7's four
    /// straight/down cases; a PE end has no neighbour bit and always
    /// permits. The hop feeding a parked head keeps its extra rule: it
    /// may sink only from the top (`EndpointHeight::ParkedHead`). Set
    /// bits are emitted in ascending hop order, the order of the per-hop
    /// walk.
    fn word_moves(
        &self,
        id: VirtualBusId,
        slot: usize,
        state: BusState,
        phase: Phase,
        only_node: Option<NodeId>,
        out: &mut Vec<MoveCmd>,
    ) {
        let ring = self.ring();
        let bus = self.buses.at(slot);
        let src = bus.spec.source;
        let len = bus.heights.len();
        let (lo, hi) = self.aside.planes.levels(slot);
        let words = len.div_ceil(64);
        // The per-INC scan assesses one hop: one word, one level, one bit.
        let (word_range, level_range, only_bit) = match only_node {
            None => (0..words, lo.max(1)..=hi, !0u64),
            Some(node) => {
                let j = ring.clockwise_distance(src, node) as usize;
                if j >= len {
                    return;
                }
                let level = bus.heights[j].as_usize();
                (j / 64..j / 64 + 1, level.max(1)..=level, 1u64 << (j % 64))
            }
        };
        let last = len - 1;
        let pinned_head = matches!(state, BusState::Establishing)
            && bus.head_node(ring) != bus.spec.destination
            && bus.heights[last] != self.cfg.top_bus();
        let phase_bit = phase.as_bit() as usize;
        let n = ring.as_usize();
        for w in word_range {
            let start = ring.advance(src, 64 * w as u32).as_usize();
            // Bit i is set when node (start + i) mod n is odd. A bus spans
            // fewer than n hops, so its bits wrap at most once: past the
            // cut an odd ring flips the pattern, and bits past the bus end
            // are masked by the planes.
            let odd = if start.is_multiple_of(2) {
                0xAAAA_AAAA_AAAA_AAAA
            } else {
                0x5555_5555_5555_5555
            };
            let odd = if !n.is_multiple_of(2) && n - start < 64 {
                odd ^ (!0u64 << (n - start))
            } else {
                odd
            };
            let mut moves = 0u64;
            for level in level_range.clone() {
                let assessed = if (level + phase_bit) % 2 == 1 {
                    odd
                } else {
                    !odd
                };
                let mut candidates = self.aside.planes.word(slot, level, w) & assessed;
                if candidates == 0 {
                    continue;
                }
                if level < hi {
                    let up = self.aside.planes.word(slot, level + 1, w);
                    let from_prev = if w > 0 {
                        self.aside.planes.word(slot, level + 1, w - 1) >> 63
                    } else {
                        0
                    };
                    let from_next = if w + 1 < words {
                        self.aside.planes.word(slot, level + 1, w + 1) << 63
                    } else {
                        0
                    };
                    // Bit j: hop j - 1 or hop j + 1 sits at level + 1.
                    candidates &= !((up << 1 | from_prev) | (up >> 1 | from_next));
                    if candidates == 0 {
                        continue;
                    }
                }
                moves |= candidates & !self.occ.blocked_word(level - 1, start);
            }
            moves &= only_bit;
            if pinned_head && w == last / 64 {
                moves &= !(1u64 << (last % 64));
            }
            while moves != 0 {
                let j = 64 * w + moves.trailing_zeros() as usize;
                moves &= moves - 1;
                let from = bus.heights[j];
                let to = from.lower().expect("level 0 never moves");
                out.push((id, j, from, to, ring.advance(src, j as u32).as_usize()));
            }
        }
    }

    /// The per-hop reference for [`word_moves`](Self::word_moves): walks
    /// the bus hop by hop through [`assessed_in_phase`] and
    /// [`HopContext::switchable_down`]. Checked runs compare the two on
    /// every bus compaction assesses.
    fn hop_walk_moves(
        &self,
        id: VirtualBusId,
        slot: usize,
        state: BusState,
        phase: Phase,
        only_node: Option<NodeId>,
    ) -> Vec<MoveCmd> {
        let ring = self.ring();
        let bus = self.buses.at(slot);
        let mut out = Vec::new();
        for j in 0..bus.heights.len() {
            let node = bus.hop_upstream_node(ring, j);
            if only_node.is_some_and(|only| node != only) {
                continue;
            }
            let height = bus.heights[j];
            if !assessed_in_phase(node, height, phase) {
                continue;
            }
            if self.hop_context(bus, state, j).switchable_down().is_some() {
                let to = height.lower().expect("switchable implies not bottom");
                out.push((id, j, height, to, node.as_usize()));
            }
        }
        out
    }

    /// Collects eligible moves for `phase` by walking only the dirty set
    /// (buses a wake-up event touched since they last assessed clean).
    ///
    /// Equivalence with the dense scan: the dirty list is kept in
    /// ascending id order and per-bus hops ascend, so the collected moves
    /// come out in exactly the dense order; and a clean bus cannot have
    /// an eligible move, because every event that can *enable* a move —
    /// segment release or repair below a hop, a state change into a
    /// compactable state, an extension, one of the bus's own hops moving
    /// — re-marks the bus, and a bus only goes clean after assessing
    /// empty in both the odd and even phase. See DESIGN.md.
    fn collect_dirty_moves(&mut self, phase: Phase, out: &mut Vec<MoveCmd>) {
        self.flush_compaction_wakes();
        out.clear();
        let mut dirty = std::mem::take(&mut self.sched.compact_dirty);
        let mut kept = 0usize;
        for i in 0..dirty.len() {
            let id = dirty[i];
            let Some(slot) = self.buses.slot(id) else {
                // The bus died; its slot (and flags) may already belong
                // to a successor, so just drop the entry.
                continue;
            };
            let before = out.len();
            let eligible = {
                let state = self.buses.state_at(slot);
                let ok = state.compactable() && (self.cfg.early_compaction || !state.pre_hack());
                if ok {
                    self.collect_bus_moves(id, slot, state, phase, None, out);
                }
                ok
            };
            if !eligible {
                // Not assessable yet (or a torn-down straggler): the
                // state change that makes it assessable re-marks it.
                self.sched.dirty[slot] = false;
                continue;
            }
            if out.len() > before {
                self.sched.clean_streak[slot] = 0;
                dirty[kept] = id;
                kept += 1;
            } else {
                let streak = &mut self.sched.clean_streak[slot];
                *streak += 1;
                if *streak >= 2 {
                    // No move in either cycle phase: nothing to do until
                    // an enabling event re-marks this bus.
                    self.sched.dirty[slot] = false;
                } else {
                    dirty[kept] = id;
                    kept += 1;
                }
            }
        }
        dirty.truncate(kept);
        self.sched.compact_dirty = dirty;
    }

    /// The compaction context of hop `j` of `bus` (in `state`), for the
    /// per-hop oracle.
    fn hop_context(&self, bus: &VirtualBus, state: BusState, j: usize) -> HopContext {
        let ring = self.ring();
        let height = bus.heights[j];
        let upstream = if j == 0 {
            EndpointHeight::Pe
        } else {
            EndpointHeight::At(bus.heights[j - 1])
        };
        let last = bus.heights.len() - 1;
        let downstream = if j == last {
            match state {
                // INCs monitor only the top segment for header flits, so
                // the hop feeding a parked head must stay at the top.
                BusState::Establishing if bus.head_node(ring) != bus.spec.destination => {
                    EndpointHeight::ParkedHead
                }
                // Head parked at the destination awaiting the decision, or
                // already accepted: the PE interface reads any port.
                _ => EndpointHeight::Pe,
            }
        } else {
            EndpointHeight::At(bus.heights[j + 1])
        };
        let hop = bus.hop_upstream_node(ring, j).as_usize();
        // A faulted segment reads as permanently occupied, so compaction
        // migrates live buses around it (Fig. 7 conditions unchanged).
        let below_free = height
            .lower()
            .map(|lo| self.available(hop, lo.as_usize()))
            .unwrap_or(false);
        HopContext {
            height,
            top: self.cfg.top_bus(),
            upstream,
            downstream,
            below_free,
        }
    }

    fn apply_move(&mut self, id: VirtualBusId, j: usize, from: BusIndex, to: BusIndex, hop: usize) {
        debug_assert_eq!(self.seg(hop, from.as_usize()), Some(id));
        debug_assert!(self.seg(hop, to.as_usize()).is_none());
        let k = self.cfg.buses() as usize;
        let from_idx = hop * k + from.as_usize();
        let to_idx = hop * k + to.as_usize();
        debug_assert_eq!(self.fault_count[to_idx], 0, "moving onto a faulted segment");
        self.segments[from_idx] = None;
        self.segments[to_idx] = Some(id);
        self.occ.move_occupied(hop, from.as_usize(), to.as_usize());
        // A same-hop move swaps which layer owns the segment but leaves
        // `busy_segments` as it was. The vacated segment frees up unless
        // it faulted under its occupant; only then is no wake needed.
        if self.fault_count[from_idx] == 0 {
            self.wake_above(hop, from);
        }
        let slot = self.buses.slot(id).expect("moving a live bus");
        self.aside.planes.lower(slot, j, from, to);
        self.buses.at_mut(slot).heights[j] = to;
        self.compaction_moves += 1;
        self.last_progress = self.now.get();
        if self.recorder.is_some() {
            let detail = format!("hop {j} moved {from} -> {to}");
            self.trace(
                TraceKind::CompactMove,
                id,
                NodeId::new(hop as u32),
                Some(to),
                &detail,
            );
        }
    }
}
