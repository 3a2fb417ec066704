//! Bit-parallel height planes of the live virtual buses.
//!
//! A virtual bus's `heights` vector says which bus level each of its hops
//! occupies. This module keeps the same fact transposed, per bus slot:
//! one `u64`-packed plane per bus level, with bit `j` of plane `ℓ` set
//! exactly when hop `j` sits at height `ℓ`. Read next to the occupancy
//! lanes, the planes let compaction decide Fig. 7's moves for 64 hops per
//! word operation (see `RmbNetwork::collect_bus_moves`).
//!
//! Heights change in exactly three places, and each updates the planes
//! in the same step: injection ([`HeightPlanes::reset`]), head extension
//! ([`HeightPlanes::push`]) and a compaction move
//! ([`HeightPlanes::lower`]). Alongside the bits, every slot carries the
//! lowest and highest level its bus occupies. By the continuity invariant
//! (adjacent hops differ by at most one level) the occupied levels form
//! that whole range, so the kernel visits only those levels and its cost
//! does not grow with `k`. Invariant #7 ([`HeightPlanes::verify`])
//! checks both against `heights`, read once, in checked runs.

use rmb_types::BusIndex;

/// Per-slot height planes plus occupied level range. See the module docs.
#[derive(Debug)]
pub(crate) struct HeightPlanes {
    /// Slot `s`, level `ℓ`, word `w` lives at `(s·k + ℓ)·wpr + w`: each
    /// slot's planes are contiguous, lowest level first. Grows with the
    /// bus slab; a slot's words are cleared when a new bus takes it.
    words: Vec<u64>,
    /// Per slot: the lowest and highest level its bus occupies.
    levels: Vec<(u16, u16)>,
    /// Bus levels per hop.
    k: usize,
    /// Words per plane: `n.div_ceil(64)`, since a bus spans fewer than
    /// `n` hops.
    wpr: usize,
}

impl HeightPlanes {
    /// Planes for buses on a ring of `n` hops with `k` bus levels. Holds
    /// no slot until the first injection.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        HeightPlanes {
            words: Vec::new(),
            levels: Vec::new(),
            k,
            wpr: n.div_ceil(64),
        }
    }

    /// Word index of plane `level` of `slot`.
    #[inline]
    fn base(&self, slot: usize, level: usize) -> usize {
        (slot * self.k + level) * self.wpr
    }

    /// Injection: `slot` now holds a one-hop bus at `height`. Clears the
    /// levels the slot's previous bus occupied (no other bits can be
    /// set), or grows the planes for a fresh slot.
    pub(crate) fn reset(&mut self, slot: usize, height: BusIndex) {
        if slot < self.levels.len() {
            let (lo, hi) = self.levels[slot];
            let (a, b) = (
                self.base(slot, lo.into()),
                self.base(slot, hi.into()) + self.wpr,
            );
            self.words[a..b].fill(0);
        } else {
            self.levels.resize(slot + 1, (0, 0));
            self.words.resize((slot + 1) * self.k * self.wpr, 0);
        }
        let w = self.base(slot, height.as_usize());
        self.words[w] = 1;
        self.levels[slot] = (height.index(), height.index());
    }

    /// Head extension: hop `hop` of the bus in `slot` now sits at
    /// `height`.
    pub(crate) fn push(&mut self, slot: usize, hop: usize, height: BusIndex) {
        let w = self.base(slot, height.as_usize()) + hop / 64;
        self.words[w] |= 1u64 << (hop % 64);
        let (lo, hi) = &mut self.levels[slot];
        *lo = (*lo).min(height.index());
        *hi = (*hi).max(height.index());
    }

    /// Compaction move: hop `hop` of the bus in `slot` sinks from `from`
    /// to `to` (`to = from - 1`).
    pub(crate) fn lower(&mut self, slot: usize, hop: usize, from: BusIndex, to: BusIndex) {
        let bit = 1u64 << (hop % 64);
        let from_base = self.base(slot, from.as_usize());
        let to_base = self.base(slot, to.as_usize());
        self.words[from_base + hop / 64] &= !bit;
        self.words[to_base + hop / 64] |= bit;
        let (lo, hi) = &mut self.levels[slot];
        *lo = (*lo).min(to.index());
        if *hi == from.index()
            && self.words[from_base..from_base + self.wpr]
                .iter()
                .all(|&w| w == 0)
        {
            // The top level emptied; the hop that left it sits one below.
            *hi = to.index();
        }
    }

    /// The lowest and highest level the bus in `slot` occupies.
    #[inline]
    pub(crate) fn levels(&self, slot: usize) -> (usize, usize) {
        let (lo, hi) = self.levels[slot];
        (lo.into(), hi.into())
    }

    /// Word `w` (hops `64w..64w + 64`) of plane `level` of `slot`.
    #[inline]
    pub(crate) fn word(&self, slot: usize, level: usize, w: usize) -> u64 {
        self.words[self.base(slot, level) + w]
    }

    /// Checks the planes and level range of `slot` against the bus's
    /// `heights` in one read of them (invariant #7: planes match heights
    /// bit for bit). Every hop's bit must be set, and the slot's planes
    /// must hold no other bit: as many set bits as hops.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-lockstep bit or bound.
    pub(crate) fn verify(&self, slot: usize, heights: &[BusIndex]) -> Result<(), String> {
        let planes = &self.words[self.base(slot, 0)..self.base(slot, self.k)];
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (j, h) in heights.iter().enumerate() {
            let (level, w) = (h.as_usize(), j / 64);
            let got = planes.get(level * self.wpr + w).copied().unwrap_or(0);
            if got & (1u64 << (j % 64)) == 0 {
                return Err(format!(
                    "plane {level} word {w} of slot {slot} is {got:#x}, missing hop {j}"
                ));
            }
            lo = lo.min(level);
            hi = hi.max(level);
        }
        let set: usize = planes.iter().map(|w| w.count_ones() as usize).sum();
        if set != heights.len() {
            return Err(format!(
                "slot {slot} sets {set} plane bits for {} hops",
                heights.len()
            ));
        }
        let range = self.levels(slot);
        if (lo, hi) != range {
            return Err(format!(
                "slot {slot} records levels {range:?}, heights span {lo}..={hi}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(h: u16) -> BusIndex {
        BusIndex::new(h)
    }

    /// Replays heights through the three writers, checking the planes
    /// after every step, across a word boundary.
    #[test]
    fn writers_keep_planes_and_levels_in_step() {
        let mut planes = HeightPlanes::new(130, 4);
        let mut heights = vec![b(3)];
        planes.reset(0, b(3));
        assert_eq!(planes.verify(0, &heights), Ok(()));
        for hop in 1..70 {
            planes.push(0, hop, b(3));
            heights.push(b(3));
        }
        assert_eq!(planes.verify(0, &heights), Ok(()));
        // Sink hop 64 twice and hop 0 once: the range widens downwards
        // but level 3 is still occupied.
        for (hop, from) in [(64, 3), (64, 2), (0, 3)] {
            planes.lower(0, hop, b(from), b(from - 1));
            heights[hop] = b(from - 1);
            assert_eq!(planes.verify(0, &heights), Ok(()));
        }
        assert_eq!(planes.levels(0), (1, 3));
        assert_eq!(planes.word(0, 1, 1), 1, "hop 64 is bit 0 of word 1");
        // Emptying level 3 lowers the top of the range.
        for (hop, height) in heights.iter_mut().enumerate() {
            if *height == b(3) {
                planes.lower(0, hop, b(3), b(2));
                *height = b(2);
            }
        }
        assert_eq!(planes.verify(0, &heights), Ok(()));
        assert_eq!(planes.levels(0), (1, 2));
    }

    #[test]
    fn a_recycled_slot_starts_clean() {
        let mut planes = HeightPlanes::new(8, 3);
        planes.reset(1, b(2));
        planes.push(1, 1, b(1));
        planes.push(1, 2, b(0));
        assert!(planes.verify(0, &[b(0)]).is_err(), "slot 0 is empty");
        planes.reset(1, b(2));
        assert_eq!(planes.verify(1, &[b(2)]), Ok(()));
    }

    #[test]
    fn verify_names_a_stale_bit() {
        let mut planes = HeightPlanes::new(8, 3);
        planes.reset(0, b(2));
        planes.push(0, 1, b(2));
        let err = planes.verify(0, &[b(2), b(1)]).unwrap_err();
        assert!(err.contains("plane 1 word 0"), "{err}");
    }
}
