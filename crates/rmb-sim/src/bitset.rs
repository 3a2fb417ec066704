//! Ring shifts of circular bitmaps packed into `u64` words.
//!
//! A ring of `len` positions (e.g. one bit per hop of the RMB bus array)
//! packs 64 positions per word, position `i` at bit `i % 64` of word
//! `i / 64`, so a query over the ring is a handful of word operations
//! instead of a per-position walk. [`ring_prev_word`] and
//! [`ring_next_word`] line each position of a whole-ring lane up with its
//! neighbour one step either way, across the ring's wrap point (position
//! `len - 1` back to 0).
//!
//! # Examples
//!
//! ```
//! use rmb_sim::{ring_next_word, ring_prev_word};
//!
//! // A 100-position ring with only position 99 set.
//! let words = [0, 1u64 << 35];
//! // Position 0's predecessor is position 99, across the wrap.
//! assert_eq!(ring_prev_word(words[0], words[1], 100, 0), 1);
//! // Position 98's successor is position 99.
//! assert_eq!(ring_next_word(words[1], words[0], 100, 1), 1 << 34);
//! ```

/// Word `w` of a ring lane read one position back: bit `i` of the result
/// is position `(64w + i - 1) mod len` of a ring of `len` positions packed
/// 64 per word, so each position sees its counter-clockwise neighbour and
/// position 0 sees position `len - 1`. `word` is the lane's word `w`, and
/// `before` the word before it in ring order: word `w - 1`, or the last
/// word when `w` is 0 (on a one-word ring, `word` again). Lanes may be
/// laid out in any order.
///
/// Bits past the ring's end must be clear in both words, and are clear in
/// the result.
#[inline]
#[must_use]
pub fn ring_prev_word(word: u64, before: u64, len: usize, w: usize) -> u64 {
    let carry = if w == 0 {
        before >> ((len - 1) % 64)
    } else {
        before >> 63
    };
    (word << 1 | carry) & live_bits(len, w)
}

/// Word `w` of a ring lane read one position on: bit `i` of the result is
/// position `(64w + i + 1) mod len`, so each position sees its clockwise
/// neighbour and position `len - 1` sees position 0. `after` is the word
/// after `word` in ring order: word `w + 1`, or word 0 when `w` is the
/// last word. The counterpart of [`ring_prev_word`], under the same
/// conditions.
#[inline]
#[must_use]
pub fn ring_next_word(word: u64, after: u64, len: usize, w: usize) -> u64 {
    let carry = if w == (len - 1) / 64 {
        (after & 1) << ((len - 1) % 64)
    } else {
        after << 63
    };
    word >> 1 | carry
}

/// The bits of word `w` that hold ring positions below `len`.
#[inline]
fn live_bits(len: usize, w: usize) -> u64 {
    match len - 64 * w {
        end if end >= 64 => !0,
        end => (1u64 << end) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs `len` positions 64 per word, setting the positions in `set`.
    fn pack(len: usize, set: &[usize]) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        for &i in set {
            words[i / 64] |= 1u64 << (i % 64);
        }
        words
    }

    /// Random-looking lanes of `len` positions with bits past the end
    /// clear, one per pattern class.
    fn lanes(len: usize) -> Vec<(Vec<bool>, Vec<u64>)> {
        (0..5u64)
            .map(|pattern| {
                let bits: Vec<bool> = (0..len)
                    .map(|i| match pattern {
                        0 => i % 7 == 3,
                        1 => i % 3 != 0,
                        2 => i % 2 == 1,
                        3 => i == 0 || i == len - 1,
                        _ => (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1,
                    })
                    .collect();
                let set: Vec<usize> = (0..len).filter(|&i| bits[i]).collect();
                let words = pack(len, &set);
                (bits, words)
            })
            .collect()
    }

    /// Both one-step shifts against the position-by-position definition
    /// at an odd ring shorter than a word, one word's worth and either
    /// side of one and two words: every word, every bit, the wrap
    /// included, and nothing past the ring's end.
    #[test]
    fn ring_shifts_match_the_neighbouring_positions() {
        for len in [5usize, 16, 63, 64, 65, 130] {
            for (pattern, (bits, words)) in lanes(len).iter().enumerate() {
                let wpr = words.len();
                for w in 0..wpr {
                    let (before, after) = (words[(w + wpr - 1) % wpr], words[(w + 1) % wpr]);
                    let prev = ring_prev_word(words[w], before, len, w);
                    let next = ring_next_word(words[w], after, len, w);
                    for i in 0..64 {
                        let pos = 64 * w + i;
                        let (want_prev, want_next) = if pos < len {
                            (bits[(pos + len - 1) % len], bits[(pos + 1) % len])
                        } else {
                            (false, false)
                        };
                        let at = format!("len {len}, pattern {pattern}, word {w}, bit {i}");
                        assert_eq!(prev >> i & 1 == 1, want_prev, "prev: {at}");
                        assert_eq!(next >> i & 1 == 1, want_next, "next: {at}");
                    }
                }
            }
        }
    }

    /// Reading a lane one position back and then one position on gives
    /// the lane back, at the same sizes.
    #[test]
    fn ring_shifts_undo_each_other() {
        for len in [5usize, 16, 63, 64, 65, 130] {
            for (_, words) in lanes(len) {
                let wpr = words.len();
                let prev: Vec<u64> = (0..wpr)
                    .map(|w| ring_prev_word(words[w], words[(w + wpr - 1) % wpr], len, w))
                    .collect();
                let back: Vec<u64> = (0..wpr)
                    .map(|w| ring_next_word(prev[w], prev[(w + 1) % wpr], len, w))
                    .collect();
                assert_eq!(back, words, "len {len}");
            }
        }
    }
}
