//! Threaded compaction of established virtual buses.
//!
//! Each INC thread owns the downward moves of its own output side and
//! performs them only inside its local odd/even phase, paced by the same
//! five-rule handshake as [`crate::ThreadedCycleRing`]. The shared bus
//! state sits behind a mutex, standing in for the physical bus wiring —
//! the *decisions* are fully distributed, exactly as in the paper's INC
//! hardware.

use rmb_core::{
    assessed_in_phase, CycleController, CycleFlags, CycleStep, EndpointHeight, HopContext, Phase,
};
use rmb_types::{BusIndex, NodeId, RingSize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// One established circuit for the static-compaction experiment: the
/// `Hack` has long returned, so both endpoints attach to PEs and every hop
/// may sink as far as the switching constraint allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticBus {
    /// First node of the clockwise arc.
    pub start: NodeId,
    /// Segment occupied on each hop, starting at `start`.
    pub heights: Vec<BusIndex>,
}

#[derive(Debug)]
struct Grid {
    ring: RingSize,
    k: u16,
    buses: Vec<StaticBus>,
    /// `occ[hop][bus]` holds the index of the occupying bus.
    occ: Vec<Vec<Option<usize>>>,
}

impl Grid {
    fn new(ring: RingSize, k: u16, buses: Vec<StaticBus>) -> Self {
        let mut occ = vec![vec![None; k as usize]; ring.as_usize()];
        for (b, bus) in buses.iter().enumerate() {
            for (j, h) in bus.heights.iter().enumerate() {
                let hop = ring.advance(bus.start, j as u32).as_usize();
                assert!(
                    occ[hop][h.as_usize()].replace(b).is_none(),
                    "initial configuration overlaps at hop {hop}"
                );
            }
        }
        Grid {
            ring,
            k,
            buses,
            occ,
        }
    }

    /// Performs all moves INC `node` may make in `phase`; returns the
    /// move count.
    fn compact_at(&mut self, node: NodeId, phase: Phase) -> u64 {
        let mut moves = 0;
        for b in 0..self.buses.len() {
            for j in 0..self.buses[b].heights.len() {
                if self.buses[b].hop_upstream(self.ring, j) != node {
                    continue;
                }
                let height = self.buses[b].heights[j];
                if !assessed_in_phase(node, height, phase) {
                    continue;
                }
                let ctx = self.hop_context(b, j);
                if ctx.switchable_down().is_some() {
                    let to = height.lower().expect("switchable implies not bottom");
                    let hop = node.as_usize();
                    debug_assert_eq!(self.occ[hop][height.as_usize()], Some(b));
                    self.occ[hop][height.as_usize()] = None;
                    debug_assert!(self.occ[hop][to.as_usize()].is_none());
                    self.occ[hop][to.as_usize()] = Some(b);
                    self.buses[b].heights[j] = to;
                    moves += 1;
                }
            }
        }
        moves
    }

    fn hop_context(&self, b: usize, j: usize) -> HopContext {
        let bus = &self.buses[b];
        let height = bus.heights[j];
        let upstream = if j == 0 {
            EndpointHeight::Pe
        } else {
            EndpointHeight::At(bus.heights[j - 1])
        };
        let downstream = if j + 1 == bus.heights.len() {
            EndpointHeight::Pe
        } else {
            EndpointHeight::At(bus.heights[j + 1])
        };
        let hop = bus.hop_upstream(self.ring, j).as_usize();
        let below_free = height
            .lower()
            .map(|lo| self.occ[hop][lo.as_usize()].is_none())
            .unwrap_or(false);
        HopContext {
            height,
            top: BusIndex::new(self.k - 1),
            upstream,
            downstream,
            below_free,
        }
    }

    /// `true` when no hop is switchable down in either phase.
    fn is_fixpoint(&self) -> bool {
        for phase in [Phase::Even, Phase::Odd] {
            for b in 0..self.buses.len() {
                for j in 0..self.buses[b].heights.len() {
                    let node = self.buses[b].hop_upstream(self.ring, j);
                    if assessed_in_phase(node, self.buses[b].heights[j], phase)
                        && self.hop_context(b, j).switchable_down().is_some()
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn check_consistency(&self) {
        for bus in &self.buses {
            for w in bus.heights.windows(2) {
                assert!(w[0].is_adjacent_or_equal(w[1]), "continuity broken: {w:?}");
            }
        }
        let occupied: usize = self
            .occ
            .iter()
            .flat_map(|row| row.iter())
            .filter(|s| s.is_some())
            .count();
        let hops: usize = self.buses.iter().map(|b| b.heights.len()).sum();
        assert_eq!(occupied, hops, "occupancy grid out of sync");
    }
}

impl StaticBus {
    fn hop_upstream(&self, ring: RingSize, j: usize) -> NodeId {
        ring.advance(self.start, j as u32)
    }
}

/// Outcome of a threaded compaction run.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// Final heights of every bus, in input order.
    pub buses: Vec<StaticBus>,
    /// Total downward moves performed across all threads.
    pub moves: u64,
    /// Cycle transitions completed per INC thread.
    pub transitions: Vec<u64>,
    /// `true` when the final configuration admits no further move.
    pub reached_fixpoint: bool,
}

/// Compacts a static set of established circuits with one thread per INC.
///
/// # Examples
///
/// ```
/// use rmb_async::{StaticBus, ThreadedCompactor};
/// use rmb_types::{BusIndex, NodeId};
///
/// // One 3-hop circuit parked on the top of a k=4 array: the threads
/// // bring it down to the bottom.
/// let bus = StaticBus {
///     start: NodeId::new(1),
///     heights: vec![BusIndex::new(3); 3],
/// };
/// let result = ThreadedCompactor::new(8, 4).run(vec![bus]);
/// assert!(result.reached_fixpoint);
/// assert!(result.buses[0].heights.iter().all(|h| h.index() == 0));
/// ```
#[derive(Debug, Clone)]
pub struct ThreadedCompactor {
    n: u32,
    k: u16,
    max_transitions: u64,
}

impl ThreadedCompactor {
    /// Creates a compactor for an `n`-node, `k`-bus array.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `k == 0`.
    pub fn new(n: u32, k: u16) -> Self {
        assert!(n >= 2, "need at least two INCs");
        assert!(k >= 1, "need at least one bus");
        ThreadedCompactor {
            n,
            k,
            max_transitions: 4 * (u64::from(k) + u64::from(n)) + 32,
        }
    }

    /// Runs the threads until every INC has completed enough transitions
    /// to guarantee a fixpoint, then validates and returns the result.
    ///
    /// # Panics
    ///
    /// Panics if the initial configuration overlaps, or if consistency is
    /// violated during the run (a bug, not an input error).
    pub fn run(&self, buses: Vec<StaticBus>) -> CompactionResult {
        let ring = RingSize::new(self.n).expect("n >= 2");
        let n = self.n as usize;
        let grid = Mutex::new(Grid::new(ring, self.k, buses));
        let flags: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        let transitions: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let moves = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let goal = self.max_transitions;

        let pack = |f: CycleFlags| u8::from(f.data) | (u8::from(f.cycle) << 1);
        let unpack = |b: u8| CycleFlags {
            data: b & 1 != 0,
            cycle: b & 2 != 0,
        };

        std::thread::scope(|s| {
            for i in 0..n {
                let grid = &grid;
                let flags = &flags;
                let transitions = &transitions;
                let moves = &moves;
                let stop = &stop;
                s.spawn(move || {
                    let mut ctl = CycleController::new(Phase::Even);
                    let left = (i + n - 1) % n;
                    let right = (i + 1) % n;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if ctl.may_switch_datapath() && !ctl.internal_done() {
                            let done = {
                                let mut g = grid.lock().unwrap();
                                let m = g.compact_at(NodeId::new(i as u32), ctl.phase());
                                g.check_consistency();
                                m
                            };
                            moves.fetch_add(done, Ordering::Relaxed);
                            ctl.set_internal_done(true);
                        }
                        let l = unpack(flags[left].load(Ordering::Acquire));
                        let r = unpack(flags[right].load(Ordering::Acquire));
                        let step = ctl.step(l, r);
                        flags[i].store(pack(ctl.flags()), Ordering::Release);
                        if step == CycleStep::CycleSwitched {
                            transitions[i].store(ctl.transitions(), Ordering::SeqCst);
                        }
                        if ctl.transitions() >= goal {
                            let all = transitions.iter().all(|t| t.load(Ordering::SeqCst) >= goal);
                            if all {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });

        let grid = grid.into_inner().unwrap();
        grid.check_consistency();
        CompactionResult {
            reached_fixpoint: grid.is_fixpoint(),
            buses: grid.buses,
            moves: moves.load(Ordering::Relaxed),
            transitions: transitions
                .iter()
                .map(|t| t.load(Ordering::SeqCst))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(start: u32, heights: &[u16]) -> StaticBus {
        StaticBus {
            start: NodeId::new(start),
            heights: heights.iter().map(|&h| BusIndex::new(h)).collect(),
        }
    }

    #[test]
    fn single_bus_sinks_to_bottom() {
        let result = ThreadedCompactor::new(6, 3).run(vec![bus(0, &[2, 2, 2, 2])]);
        assert!(result.reached_fixpoint);
        assert!(result.buses[0].heights.iter().all(|h| h.index() == 0));
        assert_eq!(result.moves, 8); // 4 hops x 2 levels
    }

    #[test]
    fn stacked_buses_pack_densely() {
        // Three overlapping circuits on k = 3: they end up on levels
        // 0, 1, 2 over the shared hops.
        let result = ThreadedCompactor::new(8, 3).run(vec![
            bus(0, &[0, 0, 0, 0]),
            bus(0, &[1, 1, 1, 1]),
            bus(0, &[2, 2, 2, 2]),
        ]);
        assert!(result.reached_fixpoint);
        assert_eq!(result.moves, 0, "already dense: nothing to do");
    }

    #[test]
    fn gap_is_filled_from_above() {
        // Bottom free, two buses above: both sink one level.
        let result = ThreadedCompactor::new(8, 3).run(vec![bus(0, &[1, 1, 1]), bus(0, &[2, 2, 2])]);
        assert!(result.reached_fixpoint);
        let mut levels: Vec<u16> = result.buses.iter().map(|b| b.heights[0].index()).collect();
        levels.sort_unstable();
        assert_eq!(levels, vec![0, 1]);
    }

    #[test]
    fn partial_overlap_respects_switching_constraint() {
        // A long bus above a short one: over the shared hops it stays one
        // level up; outside them it may dip only one level per hop.
        let result =
            ThreadedCompactor::new(10, 4).run(vec![bus(2, &[0, 0]), bus(0, &[3, 3, 3, 3, 3, 3])]);
        assert!(result.reached_fixpoint);
        let long = &result.buses[1];
        // Continuity held.
        for w in long.heights.windows(2) {
            assert!(w[0].is_adjacent_or_equal(w[1]));
        }
        // Over hops 2 and 3 the short bus owns level 0, so the long bus
        // sits at level 1 there.
        assert_eq!(long.heights[2].index(), 1);
        assert_eq!(long.heights[3].index(), 1);
        // Its free ends slope down to level 0.
        assert_eq!(long.heights[0].index(), 0);
        assert_eq!(long.heights[5].index(), 0);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn rejects_overlapping_input() {
        let _ = ThreadedCompactor::new(6, 2).run(vec![bus(0, &[1, 1]), bus(1, &[1, 1])]);
    }
}
