//! Permutation families.
//!
//! These are the standard permutations interconnection papers of the era
//! evaluated against: random, rotation, reversal, bit-reversal, transpose,
//! perfect shuffle and butterfly, plus the hardest case for a one-way ring
//! (every node sends to the diametrically opposite node).

use rmb_sim::SimRng;
use rmb_types::{MessageSpec, NodeId};
use std::fmt;

/// A named permutation family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PermutationKind {
    /// `π(i)` drawn uniformly from all permutations.
    Random,
    /// `π(i) = (i + d) mod N` — a rotation by `d`.
    Rotation(u32),
    /// `π(i) = (i + N/2) mod N` — the longest-path rotation, the worst
    /// case for a unidirectional ring.
    Opposite,
    /// `π(i) = N - 1 - i` — index reversal.
    Reversal,
    /// Reverse the `log2 N` address bits (requires `N` a power of two).
    BitReversal,
    /// Swap the high and low halves of the address bits — the matrix
    /// transpose permutation (requires `N` an even power of two).
    Transpose,
    /// Left-rotate the address bits by one — the perfect shuffle
    /// (requires `N` a power of two).
    PerfectShuffle,
    /// Complement the address bits — the butterfly / exchange permutation
    /// (requires `N` a power of two).
    BitComplement,
}

impl PermutationKind {
    /// All kinds that apply to any ring size.
    pub const GENERAL: [PermutationKind; 4] = [
        PermutationKind::Random,
        PermutationKind::Rotation(1),
        PermutationKind::Opposite,
        PermutationKind::Reversal,
    ];

    /// All kinds requiring `N` to be a power of two.
    pub const POWER_OF_TWO: [PermutationKind; 4] = [
        PermutationKind::BitReversal,
        PermutationKind::Transpose,
        PermutationKind::PerfectShuffle,
        PermutationKind::BitComplement,
    ];

    /// `true` when the kind only works on power-of-two ring sizes.
    const fn needs_power_of_two(self) -> bool {
        matches!(
            self,
            PermutationKind::BitReversal
                | PermutationKind::Transpose
                | PermutationKind::PerfectShuffle
                | PermutationKind::BitComplement
        )
    }
}

impl fmt::Display for PermutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermutationKind::Random => f.write_str("random"),
            PermutationKind::Rotation(d) => write!(f, "rotation({d})"),
            PermutationKind::Opposite => f.write_str("opposite"),
            PermutationKind::Reversal => f.write_str("reversal"),
            PermutationKind::BitReversal => f.write_str("bit-reversal"),
            PermutationKind::Transpose => f.write_str("transpose"),
            PermutationKind::PerfectShuffle => f.write_str("perfect-shuffle"),
            PermutationKind::BitComplement => f.write_str("bit-complement"),
        }
    }
}

/// A concrete permutation over `0..N`.
///
/// Fixed points (`π(i) = i`) produce no message — a node does not send to
/// itself — so [`messages`](Self::messages) may return fewer than `N`
/// specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    kind: PermutationKind,
    map: Vec<u32>,
}

impl Permutation {
    /// Generates a permutation of the given family over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if the kind requires a power-of-two `n`
    /// (every bit-address family does) and `n` is not one, or if
    /// `Transpose` is asked for an odd number of address bits.
    pub fn generate(kind: PermutationKind, n: u32, rng: &mut SimRng) -> Self {
        assert!(n > 0, "permutation over an empty ring");
        if kind.needs_power_of_two() {
            assert!(n.is_power_of_two(), "{kind} requires a power-of-two N");
        }
        let bits = n.trailing_zeros();
        let map: Vec<u32> = match kind {
            PermutationKind::Random => {
                let mut v: Vec<u32> = (0..n).collect();
                rng.shuffle(&mut v);
                v
            }
            PermutationKind::Rotation(d) => (0..n).map(|i| (i + d) % n).collect(),
            PermutationKind::Opposite => (0..n).map(|i| (i + n / 2) % n).collect(),
            PermutationKind::Reversal => (0..n).map(|i| n - 1 - i).collect(),
            PermutationKind::BitReversal => {
                (0..n).map(|i| i.reverse_bits() >> (32 - bits)).collect()
            }
            PermutationKind::Transpose => {
                assert!(
                    bits.is_multiple_of(2),
                    "transpose needs an even number of address bits"
                );
                let half = bits / 2;
                let low_mask = (1u32 << half) - 1;
                (0..n)
                    .map(|i| ((i & low_mask) << half) | (i >> half))
                    .collect()
            }
            PermutationKind::PerfectShuffle => (0..n)
                .map(|i| ((i << 1) | (i >> (bits - 1))) & (n - 1))
                .collect(),
            PermutationKind::BitComplement => (0..n).map(|i| !i & (n - 1)).collect(),
        };
        Permutation { kind, map }
    }

    /// Builds a permutation from an explicit map.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..map.len()`.
    pub fn from_map(map: Vec<u32>) -> Self {
        let p = Permutation {
            kind: PermutationKind::Random,
            map,
        };
        assert!(p.is_permutation(), "map is not a permutation");
        p
    }

    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.map.len() as u32
    }

    /// `true` for the empty permutation (never produced by `generate`).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The image of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn apply(&self, i: u32) -> u32 {
        self.map[i as usize]
    }

    /// Validates bijectivity (used by tests and `from_map`).
    pub fn is_permutation(&self) -> bool {
        let n = self.map.len();
        let mut seen = vec![false; n];
        for &v in &self.map {
            let Some(slot) = seen.get_mut(v as usize) else {
                return false;
            };
            if *slot {
                return false;
            }
            *slot = true;
        }
        true
    }

    /// Number of fixed points (`π(i) = i`), which yield no message.
    pub fn fixed_points(&self) -> u32 {
        self.map
            .iter()
            .enumerate()
            .filter(|(i, &v)| *i as u32 == v)
            .count() as u32
    }

    /// Converts the permutation into message specs with `flits` data flits
    /// each, all injected at tick 0. Fixed points are skipped.
    pub fn messages(&self, flits: u32) -> Vec<MessageSpec> {
        self.map
            .iter()
            .enumerate()
            .filter(|(i, &d)| *i as u32 != d)
            .map(|(s, &d)| MessageSpec::new(NodeId::new(s as u32), NodeId::new(d), flits))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed(11)
    }

    #[test]
    fn all_families_are_bijective() {
        for kind in PermutationKind::GENERAL
            .into_iter()
            .chain(PermutationKind::POWER_OF_TWO)
        {
            let p = Permutation::generate(kind, 16, &mut rng());
            assert!(p.is_permutation(), "{kind}");
            assert_eq!(p.len(), 16);
        }
    }

    #[test]
    fn bit_reversal_matches_hand_computation() {
        let p = Permutation::generate(PermutationKind::BitReversal, 8, &mut rng());
        // 3 bits: 0->0, 1->4, 2->2, 3->6, 4->1, 5->5, 6->3, 7->7.
        assert_eq!(
            (0..8).map(|i| p.apply(i)).collect::<Vec<_>>(),
            vec![0, 4, 2, 6, 1, 5, 3, 7]
        );
    }

    #[test]
    fn transpose_matches_hand_computation() {
        let p = Permutation::generate(PermutationKind::Transpose, 16, &mut rng());
        // 4 bits, halves swapped: i = hi*4 + lo -> lo*4 + hi.
        assert_eq!(p.apply(0b0111), 0b1101);
        assert_eq!(p.apply(0b0001), 0b0100);
        assert_eq!(p.apply(0b1111), 0b1111);
    }

    #[test]
    fn perfect_shuffle_rotates_bits() {
        let p = Permutation::generate(PermutationKind::PerfectShuffle, 8, &mut rng());
        assert_eq!(p.apply(0b100), 0b001);
        assert_eq!(p.apply(0b011), 0b110);
    }

    #[test]
    fn bit_complement_and_reversal() {
        let p = Permutation::generate(PermutationKind::BitComplement, 8, &mut rng());
        assert_eq!(p.apply(0), 7);
        assert_eq!(p.apply(5), 2);
        let r = Permutation::generate(PermutationKind::Reversal, 5, &mut rng());
        assert_eq!(r.apply(0), 4);
        assert_eq!(r.apply(4), 0);
    }

    #[test]
    fn opposite_is_half_rotation() {
        let p = Permutation::generate(PermutationKind::Opposite, 10, &mut rng());
        assert_eq!(p.apply(3), 8);
        assert_eq!(p.apply(8), 3);
        assert_eq!(p.fixed_points(), 0);
    }

    #[test]
    fn rotation_by_zero_is_all_fixed_points() {
        let p = Permutation::generate(PermutationKind::Rotation(0), 6, &mut rng());
        assert_eq!(p.fixed_points(), 6);
        assert!(p.messages(4).is_empty());
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = Permutation::generate(PermutationKind::Random, 32, &mut SimRng::seed(3));
        let b = Permutation::generate(PermutationKind::Random, 32, &mut SimRng::seed(3));
        assert_eq!(a, b);
    }

    #[test]
    fn messages_skip_fixed_points_and_carry_flits() {
        let p = Permutation::from_map(vec![1, 0, 2]);
        let msgs = p.messages(9);
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().all(|m| m.data_flits == 9));
        assert!(msgs.iter().all(|m| m.source != m.destination));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bit_reversal_rejects_non_power_of_two() {
        let _ = Permutation::generate(PermutationKind::BitReversal, 12, &mut rng());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_map_rejects_duplicates() {
        let _ = Permutation::from_map(vec![0, 0, 1]);
    }
}
