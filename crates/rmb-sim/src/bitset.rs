//! Wrap-aware queries over circular bitmaps packed into `u64` words.
//!
//! A ring of `len` positions (e.g. one bit per hop of the RMB bus array)
//! packs 64 positions per word, position `i` at bit `i % 64` of word
//! `i / 64`. "Is any position in this clockwise arc set?" then becomes a
//! handful of masked word tests instead of a per-position walk. Arcs may
//! cross the ring's wrap point (position `len - 1` back to 0), which the
//! queries split into two linear spans internally.
//!
//! # Examples
//!
//! ```
//! use rmb_sim::{arc_any, arc_word};
//!
//! // A 100-position ring with only position 99 set.
//! let words = [0, 1u64 << 35];
//! assert!(arc_any(&words, 100, 90, 20)); // arc 90..=9 wraps and hits 99
//! assert!(!arc_any(&words, 100, 0, 99));
//! // The 64 positions from 95 on: bit 4 is position 99.
//! assert_eq!(arc_word(&words, 100, 95), 1 << 4);
//! ```

/// `true` if any bit of the clockwise arc `[start, start + count)` is set
/// in a ring of `len` positions packed 64 per word into `words`.
///
/// Callers that pack several rings into one contiguous word array (e.g.
/// per-bus occupancy lanes) hand in the `len.div_ceil(64)`-word window of
/// one ring. Arc lengths are clamped to `len`; a zero-length arc is
/// always clear.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Packs `len` positions 64 per word, setting the positions in `set`.
    fn pack(len: usize, set: &[usize]) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        for &i in set {
            words[i / 64] |= 1u64 << (i % 64);
        }
        words
    }

    /// Naive reference: the arc walked position by position.
    fn naive_any(bits: &[bool], start: usize, count: usize) -> bool {
        let n = bits.len();
        (0..count.min(n)).any(|j| bits[(start + j) % n])
    }

    #[test]
    fn arcs_cross_word_boundaries() {
        let words = pack(200, &[63, 64, 128]);
        assert!(arc_any(&words, 200, 60, 5));
        assert!(arc_any(&words, 200, 64, 1));
        assert!(arc_any(&words, 200, 65, 100), "arc 65..165 reaches 128");
        assert!(!arc_any(&words, 200, 65, 63));
        assert!(!arc_any(&words, 200, 129, 71));
        assert!(arc_any(&words, 200, 0, 200));
    }

    #[test]
    fn wrapping_arcs_cover_the_cut() {
        let words = pack(100, &[2]);
        assert!(
            arc_any(&words, 100, 95, 10),
            "arc 95..=4 wraps over the cut"
        );
        assert!(!arc_any(&words, 100, 95, 5));
        // Whole-ring arc from any start.
        assert!(arc_any(&words, 100, 50, 100));
        // Oversized counts clamp to one full revolution.
        assert!(arc_any(&words, 100, 50, 1000));
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
                let bits: Vec<bool> = (0..len)
                    .map(|i| match pattern {
                        0 => i % 7 == 3,
                        1 => i % 3 != 0,
                        2 => i % 2 == 1,
                        _ => i == len - 1,
                    })
                    .collect();
                let set: Vec<usize> = (0..len).filter(|&i| bits[i]).collect();
                let words = pack(len, &set);
                for &start in &starts {
                    let word = arc_word(&words, len, start);
                    for i in 0..64 {
                        assert_eq!(
                            word >> i & 1 == 1,
                            bits[(start + i) % len],
                            "len {len}, start {start}, pattern {pattern}, bit {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_length_and_empty() {
        let words = pack(10, &[3]);
        assert!(!arc_any(&words, 10, 3, 0));
        assert!(!arc_any(&[], 0, 0, 0));
        assert!(
            !arc_any(&[], 0, 5, 7),
            "an empty ring clamps every arc to zero"
        );
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
            let set: Vec<usize> = setbits.iter().map(|&s| s as usize % n).collect();
            for &i in &set {
                bits[i] = true;
            }
            let words = pack(n, &set);
            let start = start as usize % n;
            prop_assert_eq!(arc_any(&words, n, start, count), naive_any(&bits, start, count));
            let word = arc_word(&words, n, start);
            for i in 0..64 {
                prop_assert_eq!(word >> i & 1 == 1, bits[(start + i) % n]);
            }
        }
    }
}
