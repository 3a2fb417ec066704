//! Bit-parallel lanes over the physical segment array: occupancy, faults
//! and the compaction state, one ring-wide lane per fact per bus level.
//!
//! The network's authoritative records are the `segments` owner table
//! (one `Option<VirtualBusId>` per `hop × bus`), the fault counts, and
//! each live bus's `heights` and lifecycle state. This module keeps packed
//! mirrors of the boolean facts the hot path asks about, bit `hop` of one
//! lane per fact and bus level `ℓ`:
//!
//! * occupied — segment `(hop, ℓ)` has an owner;
//! * faulted — an active fault covers it;
//! * next up, next same, next down — its owner's next hop sits one level
//!   above, on the same level or one level below (none is set on a
//!   circuit's last hop). Its previous hop sits one level up exactly when
//!   bit `hop - 1` of the next-down lane of level `ℓ + 1` is set, so no
//!   lane records that;
//! * immobile — the segment may not sink: its circuit is tearing down or
//!   refused, has not seen its `Hack` while early compaction is off, or it
//!   feeds a parked header from below the top bus
//!   ([`VirtualBus::hop_immobile`](crate::VirtualBus::hop_immobile)).
//!
//! With these, segment availability is two bit probes, clockwise path
//! feasibility ANDs the levels' blocked words over each 64-hop word of an
//! arc, and one compaction activation decides Fig. 7's moves under Fig. 8
//! for 64 ring positions per word operation per level
//! ([`Occupancy::decide`]), then applies them to the lanes the same way
//! ([`Occupancy::apply_moves`]). It never asks which circuit owns a hop.
//! All lanes live in one contiguous word array, one allocation per
//! network: per 64 ring positions, each level's lanes are one group of
//! words, and the levels' groups follow each other. Every transition of
//! the tables (occupy, release, extend, move, fault, repair, a change of
//! state) writes the lanes in the same step. Checked runs rebuild them:
//! invariant #6 ([`Occupancy::verify`]) the occupied and faulted lanes
//! from the tables, invariant #7 ([`Occupancy::verify_lanes`]) the link
//! and immobile lanes from the heights and states.

use crate::compaction::Phase;
use rmb_sim::{ring_next_word, ring_prev_word};
use rmb_types::VirtualBusId;

/// The lanes of one bus level, in layout order.
const OCCUPIED: usize = 0;
const FAULTED: usize = 1;
const NEXT_UP: usize = 2;
const NEXT_SAME: usize = 3;
const NEXT_DOWN: usize = 4;
const IMMOBILE: usize = 5;
/// Scratch, clear between activations: the moves one activation decided,
/// from this level to the one below.
const MOVES: usize = 6;
const LANES: usize = 7;

/// Ring positions of even parity.
const EVEN: u64 = 0x5555_5555_5555_5555;

/// Packed lanes, kept in lockstep with the owner and fault tables and the
/// live buses. See the module docs for the exact bit semantics.
#[derive(Debug, Clone)]
pub(crate) struct Occupancy {
    /// All lanes, word-major: word `w` of lane `l` of bus level `b` is
    /// `words[(w · k + b) · LANES + l]`, so a level's lanes over 64 ring
    /// positions are one group, and a word's levels follow each other.
    words: Vec<u64>,
    /// Ring length (hops).
    n: usize,
    /// Words per lane: `n.div_ceil(64)`.
    wpr: usize,
    /// Bus levels.
    k: usize,
    /// Bit `p` is set once a whole-ring activation in phase `p` found no
    /// move; every lane write clears both.
    quiet: u8,
}

impl Occupancy {
    /// All-free lanes for a ring of `n` hops with `k` bus levels.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        let wpr = n.div_ceil(64);
        Occupancy {
            words: vec![0; LANES * k * wpr],
            n,
            wpr,
            k,
            quiet: 0,
        }
    }

    /// Word `w` of every lane of bus level `bus`.
    #[inline]
    fn group(&self, w: usize, bus: usize) -> &[u64; LANES] {
        let i = (w * self.k + bus) * LANES;
        self.words[i..i + LANES]
            .try_into()
            .expect("one word per lane")
    }

    #[inline]
    fn group_mut(&mut self, w: usize, bus: usize) -> &mut [u64; LANES] {
        let i = (w * self.k + bus) * LANES;
        (&mut self.words[i..i + LANES])
            .try_into()
            .expect("one word per lane")
    }

    /// The bit of `hop` in word `hop / 64` of a lane.
    #[inline]
    fn mask(&self, hop: usize) -> u64 {
        debug_assert!(hop < self.n, "hop {hop} out of range 0..{}", self.n);
        1u64 << (hop % 64)
    }

    #[inline]
    fn read(&self, bus: usize, lane: usize, hop: usize) -> bool {
        self.group(hop / 64, bus)[lane] & self.mask(hop) != 0
    }

    #[inline]
    fn write(&mut self, bus: usize, lane: usize, hop: usize, value: bool) {
        let m = self.mask(hop);
        let word = &mut self.group_mut(hop / 64, bus)[lane];
        if value {
            *word |= m;
        } else {
            *word &= !m;
        }
        self.quiet = 0;
    }

    /// Records that segment `(hop, bus)` gained an owner.
    #[inline]
    pub(crate) fn occupy(&mut self, hop: usize, bus: usize) {
        self.write(bus, OCCUPIED, hop, true);
    }

    /// Records that segment `(hop, bus)` lost its owner: clears its
    /// occupied, link and immobile bits, and the link of whichever hop led
    /// into it.
    pub(crate) fn release(&mut self, hop: usize, bus: usize) {
        let m = self.mask(hop);
        let group = self.group_mut(hop / 64, bus);
        for lane in [OCCUPIED, NEXT_UP, NEXT_SAME, NEXT_DOWN, IMMOBILE] {
            group[lane] &= !m;
        }
        let prev = if hop == 0 { self.n - 1 } else { hop - 1 };
        if bus > 0 {
            self.write(bus - 1, NEXT_UP, prev, false);
        }
        self.write(bus, NEXT_SAME, prev, false);
        if bus + 1 < self.k {
            self.write(bus + 1, NEXT_DOWN, prev, false);
        }
    }

    /// Records that segment `(hop, bus)` crossed into or out of the
    /// faulted set (fault_count 0 → 1 or 1 → 0).
    #[inline]
    pub(crate) fn assign_faulted(&mut self, hop: usize, bus: usize, faulted: bool) {
        self.write(bus, FAULTED, hop, faulted);
    }

    /// Records that the owner of segment `(hop, bus)` goes on at level
    /// `next`, within switching reach, on the following hop.
    pub(crate) fn link(&mut self, hop: usize, bus: usize, next: usize) {
        debug_assert!(next.abs_diff(bus) <= 1, "a link out of switching reach");
        let lane = match next.cmp(&bus) {
            std::cmp::Ordering::Greater => NEXT_UP,
            std::cmp::Ordering::Equal => NEXT_SAME,
            std::cmp::Ordering::Less => NEXT_DOWN,
        };
        self.write(bus, lane, hop, true);
    }

    /// Records whether segment `(hop, bus)` may not sink.
    #[inline]
    pub(crate) fn set_immobile(&mut self, hop: usize, bus: usize, immobile: bool) {
        self.write(bus, IMMOBILE, hop, immobile);
    }

    /// `true` once one odd and one even whole-ring activation found no
    /// move and no lane changed since. The decision is a function of the
    /// lanes and the phase alone, so every later activation would find no
    /// move either until a lane write.
    #[inline]
    pub(crate) fn settled(&self) -> bool {
        self.quiet == 0b11
    }

    /// `true` if segment `(hop, bus)` is owned or faulted — the bitmap
    /// form of "not available".
    #[inline]
    pub(crate) fn blocked(&self, hop: usize, bus: usize) -> bool {
        let group = self.group(hop / 64, bus);
        (group[OCCUPIED] | group[FAULTED]) & self.mask(hop) != 0
    }

    /// `true` if every hop of the clockwise arc `[start, start + span)`
    /// still has a free segment — the bitmap form of path feasibility:
    /// no hop of any 64-hop word of the arc is blocked on all `k` levels.
    /// Spans are clamped to the ring length.
    pub(crate) fn span_feasible(&self, start: usize, span: usize) -> bool {
        // The arc's positions: `start..end`, then past the cut `0..wrap`.
        let stop = start + span.min(self.n);
        let (end, wrap) = (stop.min(self.n), stop.saturating_sub(self.n));
        (0..self.wpr).all(|w| {
            let full = (0..self.k).fold(!0u64, |acc, bus| {
                let group = self.group(w, bus);
                acc & (group[OCCUPIED] | group[FAULTED])
            });
            full & (range_bits(w, start, end) | range_bits(w, 0, wrap)) == 0
        })
    }

    /// Decides one compaction activation in `phase` into the move lanes,
    /// at every ring position or, for one INC's activation, only at hop
    /// `only`; returns whether any hop sinks. For each level `ℓ ≥ 1` and
    /// 64 positions per word, the hop on segment `(h, ℓ)` sinks to `ℓ - 1`
    /// when
    ///
    /// * its upstream INC `h` assesses level `ℓ` in this phase (Fig. 8:
    ///   `h + ℓ + phase` is even),
    /// * the segment below is neither owned nor faulted,
    /// * neither neighbouring hop sits at `ℓ + 1`: its own next-up bit,
    ///   and bit `h - 1` of level `ℓ + 1`'s next-down lane for the
    ///   previous hop, and
    /// * it is not immobile.
    ///
    /// By continuity (invariant #2) a neighbour sits at `ℓ - 1`, `ℓ` or
    /// `ℓ + 1`, so the third condition is exactly Fig. 7's four
    /// straight/down cases; a PE end has no neighbour and always permits.
    /// The decision reads the lanes only, and every decided move is
    /// against the same snapshot: the odd/even rule makes them compatible
    /// (see `compaction::tests`).
    pub(crate) fn decide(&mut self, phase: Phase, only: Option<usize>) -> bool {
        let (n, k, wpr) = (self.n, self.k, self.wpr);
        let (words, only_bits) = match only {
            None => (0..wpr, !0u64),
            Some(hop) => (hop / 64..hop / 64 + 1, self.mask(hop)),
        };
        let mut any = 0;
        for w in words {
            let before = if w == 0 { wpr - 1 } else { w - 1 };
            for bus in 1..k {
                let assessed = if (bus as u64 + phase.as_bit()).is_multiple_of(2) {
                    EVEN
                } else {
                    !EVEN
                };
                let (here, below) = (self.group(w, bus), self.group(w, bus - 1));
                let mut moves = here[OCCUPIED]
                    & assessed
                    & only_bits
                    & !(here[IMMOBILE] | here[NEXT_UP] | below[OCCUPIED] | below[FAULTED]);
                if moves != 0 && bus + 1 < k {
                    let down = self.group(w, bus + 1)[NEXT_DOWN];
                    let down_before = self.group(before, bus + 1)[NEXT_DOWN];
                    moves &= !ring_prev_word(down, down_before, n, w);
                }
                self.group_mut(w, bus)[MOVES] = moves;
                any |= moves;
            }
        }
        if any == 0 && only.is_none() {
            self.quiet |= 1 << phase.as_bit();
        }
        any != 0
    }

    /// Word `w` of the decided moves from level `bus`: bit `i` is set when
    /// the hop on segment `(64w + i, bus)` sinks to `bus - 1`.
    #[inline]
    pub(crate) fn moves_word(&self, bus: usize, w: usize) -> u64 {
        self.group(w, bus)[MOVES]
    }

    /// Replaces the decided moves with `moves`, each a segment `(hop, bus)`
    /// whose hop sinks: the dense sweep's decision, taken from the per-hop
    /// rule.
    pub(crate) fn set_moves(&mut self, moves: impl IntoIterator<Item = (usize, usize)>) {
        for group in self.words.chunks_exact_mut(LANES) {
            group[MOVES] = 0;
        }
        for (hop, bus) in moves {
            let m = self.mask(hop);
            self.group_mut(hop / 64, bus)[MOVES] |= m;
        }
    }

    /// Applies the decided moves to the occupied and link lanes, one word
    /// per level, and clears them. Per level `ℓ`, with `m` the hops that
    /// sink from `ℓ` and `mn` the positions whose following hop at `ℓ`
    /// sinks, a mover's own link turns from same to up (its next hop
    /// stays) or to same (its next hop sank with it, or sat below), and
    /// its predecessor's link turns from up to same or from same to down.
    /// A hop whose next hop sits above never sinks, and nothing sinks onto
    /// a next hop below, so no other link changes. Each level's update
    /// touches the bits of hops that sat at `ℓ`, which no other level's
    /// update reads, so the levels go in any order. Immobile bits stay: a
    /// hop sinks only while mobile, and the caller marks the one case that
    /// freezes on the way down.
    pub(crate) fn apply_moves(&mut self) {
        let (n, k, wpr) = (self.n, self.k, self.wpr);
        self.quiet = 0;
        for w in 0..wpr {
            let after = if w + 1 == wpr { 0 } else { w + 1 };
            for bus in 1..k {
                let m = self.group(w, bus)[MOVES];
                // Bit h: the hop on segment (h + 1, bus) sinks.
                let mn = ring_next_word(m, self.group(after, bus)[MOVES], n, w);
                if m | mn == 0 {
                    continue;
                }
                let here = self.group_mut(w, bus);
                let (same, down) = (here[NEXT_SAME], here[NEXT_DOWN]);
                debug_assert_eq!(here[NEXT_UP] & m, 0, "sank under a hop");
                debug_assert_eq!(down & mn, 0, "sank onto an occupied segment");
                here[OCCUPIED] &= !m;
                here[NEXT_SAME] = same & !(m | mn);
                here[NEXT_DOWN] = down & !m | same & mn & !m;
                let below = self.group_mut(w, bus - 1);
                let up_below = below[NEXT_UP];
                below[OCCUPIED] |= m;
                below[NEXT_UP] = up_below & !mn | same & m & !mn;
                below[NEXT_SAME] |= same & m & mn | down & m | up_below & mn;
            }
        }
        for group in self.words.chunks_exact_mut(LANES) {
            group[MOVES] = 0;
        }
    }

    /// Clears every lane, for a rebuild from scratch.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Rebuilds the occupied and faulted lanes from the authoritative
    /// tables, one lane word at a time, and reports the first divergence
    /// (invariant #6: bitmap lockstep).
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-lockstep bit.
    pub(crate) fn verify(
        &self,
        segments: &[Option<VirtualBusId>],
        fault_count: &[u8],
    ) -> Result<(), String> {
        let k = self.k;
        for bus in 0..k {
            for w in 0..self.wpr {
                let (mut occupied, mut faulted) = (0u64, 0u64);
                for hop in 64 * w..self.n.min(64 * w + 64) {
                    let i = hop * k + bus;
                    occupied |= u64::from(segments[i].is_some()) << (hop % 64);
                    faulted |= u64::from(fault_count[i] > 0) << (hop % 64);
                }
                let group = self.group(w, bus);
                let stale = group[OCCUPIED] ^ occupied;
                if stale != 0 {
                    let hop = 64 * w + stale.trailing_zeros() as usize;
                    return Err(format!(
                        "occupied bit out of lockstep at (hop {hop}, bus {bus}): \
                         bitmap says {}, owner table says {:?}",
                        occupied >> (hop % 64) & 1 == 0,
                        segments.get(hop * k + bus).copied().flatten()
                    ));
                }
                let stale = group[FAULTED] ^ faulted;
                if stale != 0 {
                    let hop = 64 * w + stale.trailing_zeros() as usize;
                    return Err(format!(
                        "faulted bit out of lockstep at (hop {hop}, bus {bus}): \
                         bitmap says {}, fault count is {}",
                        faulted >> (hop % 64) & 1 == 0,
                        fault_count.get(hop * k + bus).copied().unwrap_or(0)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Compares the link and immobile lanes word by word with `expected`,
    /// whose lanes the checker rebuilt from the heights and states, and
    /// checks that no decided move is left over (invariant #7: lane
    /// lockstep).
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-lockstep bit.
    pub(crate) fn verify_lanes(&self, expected: &Occupancy) -> Result<(), String> {
        let lanes = [
            (NEXT_UP, "next-up"),
            (NEXT_SAME, "next-same"),
            (NEXT_DOWN, "next-down"),
            (IMMOBILE, "immobile"),
            (MOVES, "decided-move"),
        ];
        for bus in 0..self.k {
            for (lane, name) in lanes {
                for w in 0..self.wpr {
                    let stale = self.group(w, bus)[lane] ^ expected.group(w, bus)[lane];
                    if stale != 0 {
                        let hop = 64 * w + stale.trailing_zeros() as usize;
                        return Err(format!(
                            "{name} bit out of lockstep at (hop {hop}, bus {bus}): \
                             lanes say {}, heights and states say {}",
                            self.read(bus, lane, hop),
                            expected.read(bus, lane, hop)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The bits of word `w` that hold ring positions `lo..hi`.
fn range_bits(w: usize, lo: usize, hi: usize) -> u64 {
    let clip = |p: usize| p.clamp(64 * w, 64 * w + 64) - 64 * w;
    let (lo, hi) = (clip(lo), clip(hi));
    if lo >= hi {
        0
    } else {
        !0u64 >> (64 - (hi - lo)) << lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_tracks_both_bitmaps() {
        let mut occ = Occupancy::new(8, 2);
        assert!(!occ.blocked(3, 1));
        occ.occupy(3, 1);
        assert!(occ.blocked(3, 1));
        assert!(!occ.blocked(3, 0));
        occ.release(3, 1);
        occ.assign_faulted(3, 1, true);
        assert!(occ.blocked(3, 1));
        occ.assign_faulted(3, 1, false);
        assert!(!occ.blocked(3, 1));
    }

    #[test]
    fn span_feasibility_wraps_the_cut() {
        let mut occ = Occupancy::new(8, 2);
        assert!(occ.span_feasible(6, 4));
        // Hop 1 blocked on both layers: owned on bus 0, faulted on bus 1.
        occ.occupy(1, 0);
        assert!(occ.span_feasible(6, 4), "bus 1 is still free at hop 1");
        occ.assign_faulted(1, 1, true);
        assert!(!occ.span_feasible(6, 4), "arc 6,7,0,1 hits the full hop");
        assert!(occ.span_feasible(6, 3), "arc 6,7,0 stops short of it");
        assert!(occ.span_feasible(2, 7));
        occ.release(1, 0);
        assert!(occ.span_feasible(6, 4));
    }

    #[test]
    fn lanes_stay_independent_past_one_word() {
        // 130 hops → 3 words per lane; probe bits either side of the
        // word boundaries in distinct lanes of a 3-bus ring.
        let mut occ = Occupancy::new(130, 3);
        occ.occupy(63, 0);
        occ.occupy(64, 2);
        occ.assign_faulted(129, 1, true);
        assert!(occ.blocked(63, 0) && !occ.blocked(64, 0));
        assert!(occ.blocked(64, 2) && !occ.blocked(63, 2));
        assert!(occ.blocked(129, 1) && !occ.blocked(128, 1));
        assert!(occ.span_feasible(120, 130), "no hop blocked on every layer");
        occ.occupy(129, 0);
        occ.occupy(129, 2);
        assert!(!occ.span_feasible(120, 30), "wrapping arc sees hop 129");
        assert!(occ.span_feasible(0, 129), "the arc that stops short of it");
    }

    #[test]
    fn words_line_up_with_the_bit_probes() {
        // 65 hops: two words per lane, so arcs from late starts straddle
        // both words and wrap at the cut. Path feasibility, read a word at
        // a time, must agree with probing the arc's hops bit by bit.
        let (n, k) = (65, 2);
        let mut occ = Occupancy::new(n, k);
        for hop in [0, 63, 64] {
            occ.occupy(hop, 0);
        }
        occ.assign_faulted(64, 1, true);
        occ.occupy(63, 1);
        occ.occupy(7, 1);
        for start in [0, 1, 2, 40, 63, 64] {
            for span in [1, 2, 30, 64, 65] {
                let probed = (0..span).all(|i| {
                    let hop = (start + i) % n;
                    (0..k).any(|bus| !occ.blocked(hop, bus))
                });
                assert_eq!(occ.span_feasible(start, span), probed, "{start} + {span}");
            }
        }
        assert!(
            !occ.span_feasible(60, 4),
            "hop 63 is blocked on both levels"
        );
    }

    /// Lays a circuit's hops from `start` at `heights` into the lanes.
    fn lay(occ: &mut Occupancy, start: usize, heights: &[usize]) {
        for (j, &h) in heights.iter().enumerate() {
            let hop = (start + j) % occ.n;
            occ.occupy(hop, h);
            if let Some(&next) = heights.get(j + 1) {
                occ.link(hop, h, next);
            }
        }
    }

    /// One circuit across the cut of a 65-hop ring, two words per lane:
    /// the kernel sinks the assessed hops whose neighbours allow it, and
    /// the applied lanes equal the lanes of the sunk circuit laid afresh.
    #[test]
    fn decided_moves_leave_the_lanes_of_the_sunk_circuit() {
        let (n, k) = (65, 3);
        let heights = [2, 2, 1, 1, 2, 2, 2, 1];
        let mut occ = Occupancy::new(n, k);
        lay(&mut occ, 61, &heights);
        // Even phase: level 2 sinks at even positions, level 1 at odd
        // ones. Hops 0..8 sit at positions 61, 62, 63, 64, 0, 1, 2, 3.
        assert!(occ.decide(Phase::Even, None));
        let sunk: Vec<(usize, usize)> = (1..k)
            .flat_map(|bus| {
                let occ = &occ;
                (0..n).filter_map(move |hop| {
                    (occ.moves_word(bus, hop / 64) >> (hop % 64) & 1 == 1).then_some((hop, bus))
                })
            })
            .collect();
        // Hop 1 (position 62, level 2) sinks between a straight and a
        // down neighbour, hop 4 (0, across the cut) above a previous hop
        // one down, hop 6 (2) above a next hop one down. Hops 2 (63) and 7
        // (3) are assessed at level 1 but have their previous hop above.
        assert_eq!(sunk, vec![(0, 2), (2, 2), (62, 2)]);
        occ.apply_moves();
        let mut fresh = Occupancy::new(n, k);
        lay(&mut fresh, 61, &[2, 1, 1, 1, 1, 2, 1, 1]);
        assert_eq!(occ.verify_lanes(&fresh), Ok(()));
        assert_eq!(occ.words, fresh.words);
    }

    #[test]
    fn a_settled_ring_needs_both_phases_quiet_and_no_write() {
        let mut occ = Occupancy::new(16, 2);
        lay(&mut occ, 3, &[0, 0, 0]);
        assert!(!occ.decide(Phase::Odd, None));
        assert!(!occ.settled(), "the even phase is still unknown");
        assert!(!occ.decide(Phase::Even, Some(4)), "one INC settles nothing");
        assert!(!occ.settled());
        assert!(!occ.decide(Phase::Even, None));
        assert!(occ.settled());
        occ.set_immobile(3, 0, true);
        assert!(!occ.settled(), "every lane write unsettles the ring");
    }

    #[test]
    fn release_unlinks_the_hop_that_led_in() {
        let mut occ = Occupancy::new(8, 3);
        lay(&mut occ, 7, &[2, 1, 0]);
        occ.release(1, 0);
        let mut fresh = Occupancy::new(8, 3);
        lay(&mut fresh, 7, &[2, 1]);
        assert_eq!(occ.words, fresh.words);
    }

    #[test]
    fn verify_accepts_lockstep_state() {
        let (n, k) = (4, 2);
        let mut occ = Occupancy::new(n, k);
        let mut segments: Vec<Option<VirtualBusId>> = vec![None; n * k];
        let mut fault_count = vec![0u8; n * k];
        // Occupy (2, 1), fault (0, 0).
        segments[2 * k + 1] = Some(VirtualBusId::new(9));
        occ.occupy(2, 1);
        fault_count[0] = 1;
        occ.assign_faulted(0, 0, true);
        assert_eq!(occ.verify(&segments, &fault_count), Ok(()));
    }

    #[test]
    fn verify_catches_a_stale_bit() {
        let (n, k) = (4, 2);
        let occ = Occupancy::new(n, k);
        let mut segments: Vec<Option<VirtualBusId>> = vec![None; n * k];
        segments[5] = Some(VirtualBusId::new(1)); // owner table moved, bitmap didn't
        let fault_count = vec![0u8; n * k];
        let err = occ.verify(&segments, &fault_count).unwrap_err();
        assert!(err.contains("occupied bit out of lockstep"), "{err}");
    }
}
