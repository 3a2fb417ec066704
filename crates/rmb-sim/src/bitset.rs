//! Fixed-size circular bitmaps for bit-parallel occupancy queries.
//!
//! [`BitRing`] packs one bit per position of a ring (e.g. one bit per hop
//! of the RMB bus array) into `u64` words, so "is any position in this
//! clockwise arc set?" becomes a handful of masked word tests instead of a
//! per-position walk. Arcs may cross the ring's wrap point (position
//! `len - 1` back to 0), which the range queries split into two linear
//! spans internally.
//!
//! # Examples
//!
//! ```
//! use rmb_sim::BitRing;
//!
//! let mut ring = BitRing::new(100);
//! ring.set(99);
//! assert!(ring.any_in_arc(90, 20)); // arc 90..=9 wraps and hits bit 99
//! assert_eq!(ring.count_in_arc(90, 20), 1);
//! ring.clear(99);
//! assert!(!ring.any_in_arc(0, 100));
//! ```

/// `true` if any bit of the clockwise arc `[start, start + count)` is set
/// in a ring of `len` positions packed 64 per word into `words`.
///
/// The slice-level twin of [`BitRing::any_in_arc`], for callers that pack
/// several rings into one contiguous word array (e.g. per-bus occupancy
/// lanes) and hand in the `len.div_ceil(64)`-word window of one ring.
/// Arc lengths are clamped to `len`; a zero-length arc is always clear.
///
/// # Panics
///
/// Panics if `start >= len` on a non-empty query, or if `words` is shorter
/// than `len.div_ceil(64)`.
#[inline]
#[must_use]
pub fn arc_any(words: &[u64], len: usize, start: usize, count: usize) -> bool {
    let count = count.min(len);
    if count == 0 {
        return false;
    }
    assert!(start < len, "start {start} out of range 0..{len}");
    let tail = len - start;
    if count <= tail {
        span_any(words, start, start + count)
    } else {
        span_any(words, start, len) || span_any(words, 0, count - tail)
    }
}

/// The 64 ring positions starting at `start`, as one word: bit `i` of the
/// result is bit `(start + i) mod len` of a ring of `len` positions packed
/// 64 per word into `words`. A ring shorter than 64 positions repeats with
/// period `len`, so every bit of the result is defined.
///
/// The word-at-a-time twin of [`arc_any`], for kernels that combine
/// several lanes of the same ring 64 positions per step: reading each
/// lane through `arc_word` at the same `start` lines them up bit for bit,
/// wherever the arc crosses the ring's wrap point.
///
/// # Panics
///
/// Panics if `start >= len`, or if `words` is shorter than
/// `len.div_ceil(64)`.
#[inline]
#[must_use]
pub fn arc_word(words: &[u64], len: usize, start: usize) -> u64 {
    assert!(start < len, "start {start} out of range 0..{len}");
    if len >= 64 {
        // At most one wrap: the positions before the cut, then the
        // ring's first `64 - tail` positions.
        let tail = len - start;
        let head = window(words, start);
        if tail >= 64 {
            head
        } else {
            (head & ((1u64 << tail) - 1)) | (words[0] << tail)
        }
    } else {
        // Rotate the short ring to `start`, then repeat it up the word.
        let lane = words[0] & ((1u64 << len) - 1);
        let mut word = ((lane >> start) | (lane << (len - start))) & ((1u64 << len) - 1);
        let mut period = len;
        while period < 64 {
            word |= word << period;
            period *= 2;
        }
        word
    }
}

/// The 64 bits starting at bit `pos` of `words`, with bits past the end
/// of the slice read as zero.
#[inline]
fn window(words: &[u64], pos: usize) -> u64 {
    let (w, b) = (pos / 64, pos % 64);
    let low = words[w] >> b;
    if b == 0 {
        low
    } else {
        low | words.get(w + 1).map_or(0, |&next| next << (64 - b))
    }
}

/// Any set bit in the linear span `[lo, hi)`, `hi > lo`, no wrap.
#[inline]
fn span_any(words: &[u64], lo: usize, hi: usize) -> bool {
    let (fw, fb) = (lo / 64, lo % 64);
    let lw = (hi - 1) / 64;
    let first_mask = !0u64 << fb;
    let last_mask = !0u64 >> (63 - (hi - 1) % 64);
    if fw == lw {
        return words[fw] & first_mask & last_mask != 0;
    }
    if words[fw] & first_mask != 0 {
        return true;
    }
    if words[fw + 1..lw].iter().any(|&w| w != 0) {
        return true;
    }
    words[lw] & last_mask != 0
}

/// A fixed-length bitmap over ring positions `0..len`, packed 64 per word.
///
/// All range queries take a start position and an arc *length* (clockwise),
/// so wrap-around arcs need no special casing by the caller. Arc lengths
/// are clamped to the ring length: an arc of `len` covers everything.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitRing {
    words: Vec<u64>,
    len: usize,
}

impl BitRing {
    /// An all-zero ring of `len` positions.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitRing {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of positions.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// `true` when the ring has no positions.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "position {i} out of range 0..{}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "position {i} out of range 0..{}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "position {i} out of range 0..{}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Writes the bit at position `i`.
    #[inline]
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Total number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `true` if any bit in the clockwise arc of `count` positions
    /// starting at `start` is set. Arcs longer than the ring are clamped;
    /// a zero-length arc is always clear.
    ///
    /// # Panics
    ///
    /// Panics if `start >= len` on a non-empty query.
    #[inline]
    #[must_use]
    pub fn any_in_arc(&self, start: usize, count: usize) -> bool {
        arc_any(&self.words, self.len, start, count)
    }

    /// Number of set bits in the clockwise arc of `count` positions
    /// starting at `start` (a masked-range popcount). Arcs longer than the
    /// ring are clamped.
    ///
    /// # Panics
    ///
    /// Panics if `start >= len` on a non-empty query.
    #[must_use]
    pub fn count_in_arc(&self, start: usize, count: usize) -> u32 {
        let count = count.min(self.len);
        if count == 0 {
            return 0;
        }
        assert!(start < self.len, "start {start} out of range 0..{}", self.len);
        let tail = self.len - start;
        if count <= tail {
            self.span_count(start, start + count)
        } else {
            self.span_count(start, self.len) + self.span_count(0, count - tail)
        }
    }

    /// Position of the first set bit in the clockwise arc (found with a
    /// masked trailing-zeros scan), or `None` if the arc is clear. The
    /// returned position is absolute, not arc-relative.
    #[must_use]
    pub fn first_set_in_arc(&self, start: usize, count: usize) -> Option<usize> {
        let count = count.min(self.len);
        if count == 0 {
            return None;
        }
        assert!(start < self.len, "start {start} out of range 0..{}", self.len);
        let tail = self.len - start;
        if count <= tail {
            self.span_first(start, start + count)
        } else {
            self.span_first(start, self.len)
                .or_else(|| self.span_first(0, count - tail))
        }
    }

    /// Popcount of the linear span `[lo, hi)`, `hi > lo`, no wrap.
    fn span_count(&self, lo: usize, hi: usize) -> u32 {
        let (fw, fb) = (lo / 64, lo % 64);
        let lw = (hi - 1) / 64;
        let first_mask = !0u64 << fb;
        let last_mask = !0u64 >> (63 - (hi - 1) % 64);
        if fw == lw {
            return (self.words[fw] & first_mask & last_mask).count_ones();
        }
        (self.words[fw] & first_mask).count_ones()
            + self.words[fw + 1..lw]
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>()
            + (self.words[lw] & last_mask).count_ones()
    }

    /// First set bit of the linear span `[lo, hi)`, `hi > lo`, no wrap.
    fn span_first(&self, lo: usize, hi: usize) -> Option<usize> {
        let (fw, fb) = (lo / 64, lo % 64);
        let lw = (hi - 1) / 64;
        let first_mask = !0u64 << fb;
        let last_mask = !0u64 >> (63 - (hi - 1) % 64);
        for w in fw..=lw {
            let mut word = self.words[w];
            if w == fw {
                word &= first_mask;
            }
            if w == lw {
                word &= last_mask;
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Naive reference: bools in a Vec, arcs walked position by position.
    fn naive_arc(bits: &[bool], start: usize, count: usize) -> (bool, u32, Option<usize>) {
        let n = bits.len();
        let count = count.min(n);
        let mut any = false;
        let mut total = 0;
        let mut first = None;
        for j in 0..count {
            let i = (start + j) % n;
            if bits[i] {
                any = true;
                total += 1;
                if first.is_none() {
                    first = Some(i);
                }
            }
        }
        (any, total, first)
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut r = BitRing::new(130);
        assert!(!r.get(129));
        r.set(129);
        r.set(0);
        r.set(64);
        assert!(r.get(129) && r.get(0) && r.get(64));
        assert_eq!(r.count_ones(), 3);
        r.clear(64);
        assert!(!r.get(64));
        r.assign(64, true);
        assert!(r.get(64));
        r.clear_all();
        assert_eq!(r.count_ones(), 0);
    }

    #[test]
    fn arcs_cross_word_boundaries() {
        let mut r = BitRing::new(200);
        r.set(63);
        r.set(64);
        r.set(128);
        assert!(r.any_in_arc(60, 5));
        assert_eq!(r.count_in_arc(60, 5), 2);
        assert_eq!(r.count_in_arc(0, 200), 3);
        assert_eq!(r.first_set_in_arc(64, 100), Some(64));
        assert_eq!(r.first_set_in_arc(65, 100), Some(128));
        assert!(!r.any_in_arc(129, 71));
    }

    #[test]
    fn wrapping_arcs_cover_the_cut() {
        let mut r = BitRing::new(100);
        r.set(2);
        assert!(r.any_in_arc(95, 10), "arc 95..=4 wraps over the cut");
        assert_eq!(r.count_in_arc(95, 10), 1);
        assert_eq!(r.first_set_in_arc(95, 10), Some(2));
        assert!(!r.any_in_arc(95, 5));
        // Whole-ring arc from any start.
        assert!(r.any_in_arc(50, 100));
        // Oversized counts clamp to one full revolution.
        assert_eq!(r.count_in_arc(50, 1000), 1);
    }

    /// `arc_word` against the position-by-position definition, at ring
    /// lengths either side of one and two words, with `start` at 0, next
    /// to the cut and mid-word, over lanes with every bit pattern class
    /// (sparse, dense, alternating).
    #[test]
    fn arc_word_matches_the_wrapped_positions() {
        for len in [5usize, 63, 64, 65, 130] {
            let mut starts = vec![0, len - 1, len / 2, len.saturating_sub(2), len.min(37) - 1];
            if len > 64 {
                starts.extend([63, 64, len - 63, len - 64]);
            }
            for pattern in 0..4u64 {
                let mut ring = BitRing::new(len);
                for i in 0..len {
                    let set = match pattern {
                        0 => i % 7 == 3,
                        1 => i % 3 != 0,
                        2 => i % 2 == 1,
                        _ => i == len - 1,
                    };
                    ring.assign(i, set);
                }
                for &start in &starts {
                    let word = arc_word(&ring.words, len, start);
                    for i in 0..64 {
                        assert_eq!(
                            word >> i & 1 == 1,
                            ring.get((start + i) % len),
                            "len {len}, start {start}, pattern {pattern}, bit {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_length_and_empty() {
        let r = BitRing::new(10);
        assert!(!r.any_in_arc(3, 0));
        assert_eq!(r.count_in_arc(3, 0), 0);
        assert_eq!(r.first_set_in_arc(3, 0), None);
        let e = BitRing::new(0);
        assert!(e.is_empty());
        assert!(!e.any_in_arc(0, 0));
    }

    proptest! {
        /// Every arc query agrees with the walked reference, including
        /// wrap-around arcs and arcs longer than the ring.
        #[test]
        fn arc_queries_match_naive_walk(
            n in 1usize..200,
            setbits in vec(any::<u16>(), 0..64),
            start in any::<u16>(),
            count in 0usize..260,
        ) {
            let mut bits = vec![false; n];
            let mut ring = BitRing::new(n);
            for s in setbits {
                let i = s as usize % n;
                bits[i] = true;
                ring.set(i);
            }
            let start = start as usize % n;
            let (any, total, first) = naive_arc(&bits, start, count);
            prop_assert_eq!(ring.any_in_arc(start, count), any);
            prop_assert_eq!(ring.count_in_arc(start, count), total);
            prop_assert_eq!(ring.first_set_in_arc(start, count), first);
            prop_assert_eq!(ring.count_ones() as usize, bits.iter().filter(|&&b| b).count());
        }
    }
}
