//! The compaction phase: Fig. 7's moves under Fig. 8's odd/even
//! assessment (§2.4–2.5), decided for the whole ring one word per bus
//! level (`Occupancy::decide`), in global lockstep or by the per-INC
//! handshake controllers.

use super::{CompactionMode, RmbNetwork};
use crate::compaction::{assessed_in_phase, EndpointHeight, HopContext, Phase};
use crate::occupancy::Occupancy;
use crate::virtual_bus::{BusState, VirtualBus};
use rmb_sim::trace::{TraceEvent, TraceKind};
use rmb_types::{BusIndex, NodeId, RmbConfig, VirtualBusId};
use std::ops::Range;

/// A compaction move: (bus, hop index, from height, to height, hop node).
type Move = (VirtualBusId, usize, BusIndex, BusIndex, usize);

/// Writes the immobile bits of hops `hops` of `bus`, in `state`, to the
/// lanes (see [`VirtualBus::hop_immobile`]). Runs at every change that can
/// change one: an injection or extension for the hops at the head, a
/// change of state for all of them.
pub(super) fn mark_mobility(
    occ: &mut Occupancy,
    cfg: &RmbConfig,
    bus: &VirtualBus,
    state: BusState,
    hops: Range<usize>,
) {
    let n = cfg.nodes().as_usize();
    let mut hop = bus.hop_upstream_node(cfg.nodes(), hops.start).as_usize();
    for j in hops {
        let immobile = bus.hop_immobile(state, j, cfg);
        occ.set_immobile(hop, bus.heights[j].as_usize(), immobile);
        hop = if hop + 1 == n { 0 } else { hop + 1 };
    }
}

impl RmbNetwork {
    pub(super) fn run_compaction(&mut self) {
        if !self.cfg.compaction {
            return;
        }
        match &self.opts.compaction_mode {
            CompactionMode::Synchronous => {
                // With nothing occupied, or once the ring has settled, the
                // activation would find no move. The dense sweep never
                // skips, and checked runs decide anyway to check that.
                let idle = self.event_driven() && (self.busy_segments == 0 || self.occ.settled());
                if idle && !self.opts.checked {
                    return;
                }
                let moved = self.compact(Phase::of_tick(self.now.get()), None);
                assert!(
                    !(idle && moved),
                    "a settled ring sank a hop at {}",
                    self.now
                );
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
                        self.compact(phase, Some(i));
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

    /// One activation in `phase`, of the whole ring or of the INC at hop
    /// `only`: decides the moves, applies them and traces them in (bus id,
    /// hop) order. Returns whether a hop sank.
    fn compact(&mut self, phase: Phase, only: Option<usize>) -> bool {
        if !self.decide_moves(phase, only) {
            return false;
        }
        let traced = self.recorder.is_some().then(|| self.decided_moves());
        self.apply_moves();
        for (id, j, from, to, hop) in traced.into_iter().flatten() {
            let detail = format!("hop {j} moved {from} -> {to}");
            self.trace(
                TraceKind::CompactMove,
                id,
                NodeId::new(hop as u32),
                Some(to),
                &detail,
            );
        }
        true
    }

    /// Decides one activation's moves into the occupancy's move lanes and
    /// returns whether there are any. The event engine decides with the
    /// ring kernel. The dense sweep, which only builds with the `oracle`
    /// feature have, decides with the per-hop rule
    /// ([`hop_walk_moves`](Self::hop_walk_moves)), which reads heights and
    /// states instead of the link and immobile lanes, so the equivalence
    /// suite compares the two; checked runs compare them on every
    /// activation.
    fn decide_moves(&mut self, phase: Phase, only: Option<usize>) -> bool {
        if self.event_driven() && !self.opts.checked {
            return self.occ.decide(phase, only);
        }
        let mut oracle = Vec::new();
        for (_, bus, state) in self.buses.values_with_state() {
            if state.compactable() && (self.cfg.early_compaction || !state.pre_hack()) {
                self.hop_walk_moves(bus, state, phase, only, &mut oracle);
            }
        }
        if self.opts.checked {
            self.occ.decide(phase, only);
            assert_eq!(
                self.decided_moves(),
                oracle,
                "the ring kernel disagrees with the per-hop rule at {}",
                self.now
            );
        }
        if !self.event_driven() {
            let segments = oracle
                .iter()
                .map(|&(_, _, from, _, hop)| (hop, from.as_usize()));
            self.occ.set_moves(segments);
        }
        !oracle.is_empty()
    }

    /// The decided moves in (bus id, hop) order, the order of the per-hop
    /// walk: for checked runs and the trace.
    fn decided_moves(&self) -> Vec<Move> {
        let (ring, k) = (self.ring(), self.cfg.buses() as usize);
        let mut out = Vec::new();
        for level in 1..k {
            for w in 0..ring.as_usize().div_ceil(64) {
                let mut moves = self.occ.moves_word(level, w);
                while moves != 0 {
                    let hop = 64 * w + moves.trailing_zeros() as usize;
                    moves &= moves - 1;
                    let id = self.seg(hop, level).expect("a sinking hop has an owner");
                    let bus = self.buses.get(id).expect("owners are live");
                    let j = ring.clockwise_distance(bus.spec.source, NodeId::new(hop as u32));
                    let from = BusIndex::new(level as u16);
                    let to = BusIndex::new(level as u16 - 1);
                    out.push((id, j as usize, from, to, hop));
                }
            }
        }
        out.sort_unstable_by_key(|&(id, j, ..)| (id, j));
        out
    }

    /// Applies the decided moves: the owner table and each mover's height
    /// once per move, then the occupancy lanes one word per level.
    fn apply_moves(&mut self) {
        let (ring, k) = (self.ring(), self.cfg.buses() as usize);
        let n = ring.as_usize();
        let mut moved = 0;
        for level in 1..k {
            for w in 0..n.div_ceil(64) {
                let mut moves = self.occ.moves_word(level, w);
                while moves != 0 {
                    let hop = 64 * w + moves.trailing_zeros() as usize;
                    moves &= moves - 1;
                    let seg = hop * k + level;
                    let id = self.segments[seg]
                        .take()
                        .expect("a sinking hop has an owner");
                    debug_assert!(self.segments[seg - 1].is_none(), "sinking onto an owner");
                    debug_assert_eq!(self.fault_count[seg - 1], 0, "sinking onto a fault");
                    self.segments[seg - 1] = Some(id);
                    let slot = self.buses.slot(id).expect("moving a live bus");
                    let bus = self.buses.at_mut(slot);
                    let src = bus.spec.source.as_usize();
                    let j = if hop >= src { hop - src } else { hop + n - src };
                    bus.heights[j] = BusIndex::new(level as u16 - 1);
                    if j + 1 == bus.heights.len()
                        && self
                            .buses
                            .at(slot)
                            .hop_immobile(self.buses.state_at(slot), j, &self.cfg)
                    {
                        // The hop feeding a parked head left the top bus,
                        // and may sink no further.
                        self.occ.set_immobile(hop, level - 1, true);
                    }
                    moved += 1;
                }
            }
        }
        self.occ.apply_moves();
        self.compaction_moves += moved;
        self.last_progress = self.now.get();
    }

    /// Rewrites the immobile bits of every hop of the live bus `id`, after
    /// a change of its state.
    pub(super) fn refresh_mobility(&mut self, id: VirtualBusId) {
        let slot = self.buses.slot(id).expect("a live bus");
        let (bus, state) = (self.buses.at(slot), self.buses.state_at(slot));
        mark_mobility(
            &mut self.occ,
            &self.cfg,
            bus,
            state,
            0..bus.active_hops(state),
        );
    }

    /// Writes the links and immobile bits of every hop of the bus in
    /// `slot`, laid anew (see the `lone` module).
    pub(super) fn link_hops(&mut self, slot: usize) {
        let ring = self.ring();
        let (bus, state) = (self.buses.at(slot), self.buses.state_at(slot));
        let hops = bus.active_hops(state);
        for (j, pair) in bus.heights[..hops].windows(2).enumerate() {
            let hop = bus.hop_upstream_node(ring, j).as_usize();
            self.occ.link(hop, pair[0].as_usize(), pair[1].as_usize());
        }
        mark_mobility(&mut self.occ, &self.cfg, bus, state, 0..hops);
    }

    /// The per-hop rule the ring kernel replaced: walks `bus` (in `state`)
    /// hop by hop, or only its hop at `only`, through
    /// [`assessed_in_phase`] and [`HopContext::switchable_down`], and
    /// appends its moves to `out` in hop order.
    fn hop_walk_moves(
        &self,
        bus: &VirtualBus,
        state: BusState,
        phase: Phase,
        only: Option<usize>,
        out: &mut Vec<Move>,
    ) {
        let ring = self.ring();
        for j in 0..bus.heights.len() {
            let node = bus.hop_upstream_node(ring, j);
            if only.is_some_and(|only| node.as_usize() != only) {
                continue;
            }
            let height = bus.heights[j];
            if !assessed_in_phase(node, height, phase) {
                continue;
            }
            if self.hop_context(bus, state, j).switchable_down().is_some() {
                let to = height.lower().expect("switchable implies not bottom");
                out.push((bus.id, j, height, to, node.as_usize()));
            }
        }
    }

    /// The compaction context of hop `j` of `bus` (in `state`), for the
    /// per-hop rule.
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
}
