//! Bit-parallel occupancy view of the physical segment array.
//!
//! The network's authoritative record of which segment belongs to which
//! circuit is the `segments` owner table (one `Option<VirtualBusId>` per
//! `hop × bus`). This module maintains a packed mirror of the *boolean*
//! facts the hot path asks about, one bit per segment per bus layer:
//!
//! * occupied lane of bus `b` — bit `hop` set ⟺ `segments[hop·k + b]` is `Some`,
//! * faulted lane of bus `b`  — bit `hop` set ⟺ `fault_count[hop·k + b] > 0`.
//!
//! With these, segment availability is two bit probes, and the blocked
//! segments of one bus layer at 64 consecutive ring positions are one
//! wrap-aware word read ([`rmb_sim::arc_word`], used by word-parallel
//! compaction). Clockwise path feasibility over a span ANDs the `k`
//! layers' blocked words over each 64-hop stretch of the arc instead of
//! walking the slab hop by hop. All `2k` lanes live in a
//! single contiguous word array — one allocation per network, with each
//! bus's occupied and faulted lanes adjacent so the paired probe in
//! [`Occupancy::blocked`] stays on one cache line for rings up to 64
//! hops. The bitmaps are updated in lockstep at every owner-table
//! transition (occupy / release / fault / repair); invariant #6
//! ([`Occupancy::verify`]) rebuilds them word by word in checked runs and
//! demands equality.

use rmb_sim::arc_word;
use rmb_types::VirtualBusId;

/// Packed occupancy bitmaps, kept in lockstep with the segment owner
/// table. See the module docs for the exact bit semantics and layout.
#[derive(Debug, Clone)]
pub(crate) struct Occupancy {
    /// All lanes, contiguous: for bus `b`, occupied words start at
    /// `2b · wpr` and faulted words at `(2b + 1) · wpr`.
    words: Vec<u64>,
    /// Ring length (hops).
    n: usize,
    /// Words per lane: `n.div_ceil(64)`.
    wpr: usize,
    /// Bus layers.
    k: usize,
}

impl Occupancy {
    /// All-free occupancy for a ring of `n` hops with `k` bus layers.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        let wpr = n.div_ceil(64);
        Occupancy {
            words: vec![0; 2 * k * wpr],
            n,
            wpr,
            k,
        }
    }

    /// Word index and bit mask addressing `hop` within the lane at `off`.
    #[inline]
    fn bit(&self, off: usize, hop: usize) -> (usize, u64) {
        debug_assert!(hop < self.n, "hop {hop} out of range 0..{}", self.n);
        (off + hop / 64, 1u64 << (hop % 64))
    }

    #[inline]
    fn write(&mut self, off: usize, hop: usize, value: bool) {
        let (w, m) = self.bit(off, hop);
        if value {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Records that segment `(hop, bus)` gained or lost an owner.
    #[inline]
    pub(crate) fn assign_occupied(&mut self, hop: usize, bus: usize, owned: bool) {
        self.write(2 * bus * self.wpr, hop, owned);
    }

    /// Records that segment `(hop, bus)` crossed into or out of the
    /// faulted set (fault_count 0 → 1 or 1 → 0).
    #[inline]
    pub(crate) fn assign_faulted(&mut self, hop: usize, bus: usize, faulted: bool) {
        self.write((2 * bus + 1) * self.wpr, hop, faulted);
    }

    /// Moves the owner bit of `hop` from bus `from`'s occupied lane to
    /// bus `to`'s in one fused update — the bitmap form of a same-hop
    /// compaction move.
    #[inline]
    pub(crate) fn move_occupied(&mut self, hop: usize, from: usize, to: usize) {
        let (w, m) = self.bit(0, hop);
        self.words[2 * from * self.wpr + w] &= !m;
        self.words[2 * to * self.wpr + w] |= m;
    }

    /// `true` if segment `(hop, bus)` is owned or faulted — the bitmap
    /// form of "not available".
    #[inline]
    pub(crate) fn blocked(&self, hop: usize, bus: usize) -> bool {
        let (w, m) = self.bit(2 * bus * self.wpr, hop);
        (self.words[w] | self.words[w + self.wpr]) & m != 0
    }

    /// The blocked (owned or faulted) segments of bus `bus` at the 64 ring
    /// positions from `start` on: bit `i` covers hop `(start + i) mod n`.
    #[inline]
    pub(crate) fn blocked_word(&self, bus: usize, start: usize) -> u64 {
        let occupied = 2 * bus * self.wpr;
        let faulted = occupied + self.wpr;
        arc_word(&self.words[occupied..faulted], self.n, start)
            | arc_word(&self.words[faulted..faulted + self.wpr], self.n, start)
    }

    /// `true` if every hop of the clockwise arc `[start, start + span)`
    /// still has a free segment — the bitmap form of path feasibility:
    /// no hop of any 64-hop stretch of the arc is blocked on all `k`
    /// layers. Spans are clamped to the ring length.
    pub(crate) fn span_feasible(&self, start: usize, span: usize) -> bool {
        let span = span.min(self.n);
        (0..span).step_by(64).all(|off| {
            let at = (start + off) % self.n;
            let full = (0..self.k).fold(!0u64, |acc, bus| acc & self.blocked_word(bus, at));
            let len = span - off;
            let arc = if len >= 64 { !0 } else { (1u64 << len) - 1 };
            full & arc == 0
        })
    }

    /// Rebuilds the expected bitmaps from the authoritative tables, one
    /// lane word at a time, and reports the first divergence (invariant
    /// #6: bitmap lockstep).
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-lockstep bit.
    pub(crate) fn verify(
        &self,
        segments: &[Option<VirtualBusId>],
        fault_count: &[u8],
    ) -> Result<(), String> {
        let (k, wpr) = (self.k, self.wpr);
        for bus in 0..k {
            for w in 0..wpr {
                let (mut occupied, mut faulted) = (0u64, 0u64);
                for hop in 64 * w..self.n.min(64 * w + 64) {
                    let i = hop * k + bus;
                    occupied |= u64::from(segments[i].is_some()) << (hop % 64);
                    faulted |= u64::from(fault_count[i] > 0) << (hop % 64);
                }
                let stale = self.words[2 * bus * wpr + w] ^ occupied;
                if stale != 0 {
                    let hop = 64 * w + stale.trailing_zeros() as usize;
                    return Err(format!(
                        "occupied bit out of lockstep at (hop {hop}, bus {bus}): \
                         bitmap says {}, owner table says {:?}",
                        occupied >> (hop % 64) & 1 == 0,
                        segments.get(hop * k + bus).copied().flatten()
                    ));
                }
                let stale = self.words[(2 * bus + 1) * wpr + w] ^ faulted;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_tracks_both_bitmaps() {
        let mut occ = Occupancy::new(8, 2);
        assert!(!occ.blocked(3, 1));
        occ.assign_occupied(3, 1, true);
        assert!(occ.blocked(3, 1));
        assert!(!occ.blocked(3, 0));
        occ.assign_occupied(3, 1, false);
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
        occ.assign_occupied(1, 0, true);
        assert!(occ.span_feasible(6, 4), "bus 1 is still free at hop 1");
        occ.assign_faulted(1, 1, true);
        assert!(!occ.span_feasible(6, 4), "arc 6,7,0,1 hits the full hop");
        assert!(occ.span_feasible(6, 3), "arc 6,7,0 stops short of it");
        assert!(occ.span_feasible(2, 7));
        occ.assign_occupied(1, 0, false);
        assert!(occ.span_feasible(6, 4));
    }

    #[test]
    fn lanes_stay_independent_past_one_word() {
        // 130 hops → 3 words per lane; probe bits either side of the
        // word boundaries in distinct lanes of a 3-bus ring.
        let mut occ = Occupancy::new(130, 3);
        occ.assign_occupied(63, 0, true);
        occ.assign_occupied(64, 2, true);
        occ.assign_faulted(129, 1, true);
        assert!(occ.blocked(63, 0) && !occ.blocked(64, 0));
        assert!(occ.blocked(64, 2) && !occ.blocked(63, 2));
        assert!(occ.blocked(129, 1) && !occ.blocked(128, 1));
        assert!(occ.span_feasible(120, 130), "no hop blocked on every layer");
        occ.assign_occupied(129, 0, true);
        occ.assign_occupied(129, 2, true);
        assert!(!occ.span_feasible(120, 30), "wrapping arc sees hop 129");
        assert!(occ.span_feasible(0, 129), "the arc that stops short of it");
    }

    #[test]
    fn words_line_up_with_the_bit_probes() {
        // 65 hops: two words per lane, so arcs from late starts straddle
        // both words and wrap at the cut.
        let (n, k) = (65, 3);
        let mut occ = Occupancy::new(n, k);
        occ.assign_occupied(0, 1, true);
        occ.assign_occupied(63, 1, true);
        occ.assign_faulted(64, 1, true);
        occ.assign_occupied(7, 2, true);
        for start in [0, 1, 2, 40, 63, 64] {
            let blocked = occ.blocked_word(1, start);
            for i in 0..64 {
                let hop = (start + i) % n;
                assert_eq!(
                    blocked >> i & 1 == 1,
                    occ.blocked(hop, 1),
                    "start {start}, i {i}"
                );
            }
        }
        assert_eq!(occ.blocked_word(0, 5), 0, "bus 0 untouched");
    }

    #[test]
    fn verify_accepts_lockstep_state() {
        let (n, k) = (4, 2);
        let mut occ = Occupancy::new(n, k);
        let mut segments: Vec<Option<VirtualBusId>> = vec![None; n * k];
        let mut fault_count = vec![0u8; n * k];
        // Occupy (2, 1), fault (0, 0).
        segments[2 * k + 1] = Some(VirtualBusId::new(9));
        occ.assign_occupied(2, 1, true);
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
