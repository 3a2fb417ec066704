//! Output-port status registers (paper Table 1).
//!
//! Each INC maintains a 3-bit status register for the output port of each
//! physical bus segment (§2.4). The bits name which input port(s) currently
//! drive the output port, *relative to the output port's own index* `l`:
//!
//! | bit | weight | meaning                         |
//! |-----|--------|---------------------------------|
//! | 0   | 1      | receives from **below** (`l-1`) |
//! | 1   | 2      | receives **straight** (`l`)     |
//! | 2   | 4      | receives from **above** (`l+1`) |
//!
//! An output port may receive from more than one input only while the data
//! on both inputs is identical — exactly the situation created by the
//! make-before-break step of a downward move (§2.3, Fig. 4). That overlap
//! is always between two *adjacent* sources, which is why the two codes
//! combining "above" and "below" (5 = `101` and 7 = `111`) are marked *not
//! allowed* in Table 1.

use std::fmt;

/// The direction an output port receives from, relative to its own index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceDir {
    /// From input port `l - 1`.
    Below,
    /// From input port `l`.
    Straight,
    /// From input port `l + 1`.
    Above,
}

impl SourceDir {
    /// All three directions, bottom-up.
    pub const ALL: [SourceDir; 3] = [SourceDir::Below, SourceDir::Straight, SourceDir::Above];

    /// The bit weight of this direction in the status register.
    pub const fn bit(self) -> u8 {
        match self {
            SourceDir::Below => 0b001,
            SourceDir::Straight => 0b010,
            SourceDir::Above => 0b100,
        }
    }

    /// The input-port offset (`-1`, `0`, `+1`) this direction denotes.
    pub const fn offset(self) -> i32 {
        match self {
            SourceDir::Below => -1,
            SourceDir::Straight => 0,
            SourceDir::Above => 1,
        }
    }

    /// Maps an input-port offset to a direction, if it is within the INC's
    /// switching range.
    pub const fn from_offset(offset: i32) -> Option<SourceDir> {
        match offset {
            -1 => Some(SourceDir::Below),
            0 => Some(SourceDir::Straight),
            1 => Some(SourceDir::Above),
            _ => None,
        }
    }
}

impl fmt::Display for SourceDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceDir::Below => "below",
            SourceDir::Straight => "straight",
            SourceDir::Above => "above",
        };
        f.write_str(s)
    }
}

/// A 3-bit output-port status register (Table 1).
///
/// # Examples
///
/// ```
/// use rmb_core::{PortStatus, SourceDir};
///
/// let s = PortStatus::UNUSED.with(SourceDir::Above);
/// assert_eq!(s.bits(), 0b100);
/// assert!(s.is_allowed());
/// let overlap = s.with(SourceDir::Straight); // make-before-break moment
/// assert_eq!(overlap.bits(), 0b110);
/// assert!(overlap.is_allowed());
/// let bad = PortStatus::from_bits(0b101).unwrap();
/// assert!(!bad.is_allowed()); // "above and below" is Table 1's "Not allowed"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortStatus(u8);

impl PortStatus {
    /// `000` — bus is unused.
    pub const UNUSED: PortStatus = PortStatus(0);

    /// Builds a status from raw bits. Returns `None` above 3 bits.
    /// Note that the two *not allowed* codes (5, 7) are representable — the
    /// register is 3 bits of hardware — but [`is_allowed`](Self::is_allowed)
    /// reports them as illegal, exactly as Table 1 does.
    pub const fn from_bits(bits: u8) -> Option<PortStatus> {
        if bits < 8 {
            Some(PortStatus(bits))
        } else {
            None
        }
    }

    /// The raw 3-bit code.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Adds a source direction (make-before-break "make").
    #[must_use]
    pub const fn with(self, dir: SourceDir) -> PortStatus {
        PortStatus(self.0 | dir.bit())
    }

    /// Removes a source direction (make-before-break "break").
    #[must_use]
    pub const fn without(self, dir: SourceDir) -> PortStatus {
        PortStatus(self.0 & !dir.bit())
    }

    /// `true` when the port is not driven at all (Table 1 row `000`).
    pub const fn is_unused(self) -> bool {
        self.0 == 0
    }

    /// Number of input ports currently driving this output.
    const fn source_count(self) -> u32 {
        self.0.count_ones()
    }

    /// `true` for the six codes Table 1 allows. The forbidden codes are
    /// `101` (above *and* below without straight) and `111` (all three):
    /// a make-before-break overlap is always between two adjacent sources.
    pub const fn is_allowed(self) -> bool {
        self.0 != 0b101 && self.0 != 0b111
    }

    /// `true` when this is a steady (non-overlap) state: unused or exactly
    /// one source. Two sources is the transient make-before-break state.
    pub const fn is_steady(self) -> bool {
        self.source_count() <= 1
    }

    /// The single source direction in a steady used state, if any.
    pub const fn sole_source(self) -> Option<SourceDir> {
        match self.0 {
            0b001 => Some(SourceDir::Below),
            0b010 => Some(SourceDir::Straight),
            0b100 => Some(SourceDir::Above),
            _ => None,
        }
    }

    /// The interpretation string Table 1 prints for this code.
    pub const fn interpretation(self) -> &'static str {
        match self.0 {
            0b000 => "Bus is unused",
            0b001 => "Port receives from below",
            0b010 => "Port receives straight",
            0b011 => "Port receives from below and straight",
            0b100 => "Port receives from above",
            0b101 => "Not allowed",
            0b110 => "Port receives from above and straight",
            _ => "Not allowed",
        }
    }

    /// The full Table 1, in code order `000..111`, as `(code, allowed,
    /// interpretation)` rows. Used by the table-regeneration harness.
    pub fn table1() -> [(u8, bool, &'static str); 8] {
        let mut rows = [(0u8, false, ""); 8];
        let mut code = 0u8;
        while code < 8 {
            let s = PortStatus(code);
            rows[code as usize] = (code, s.is_allowed(), s.interpretation());
            code += 1;
        }
        rows
    }
}

impl fmt::Display for PortStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03b}", self.0)
    }
}

impl fmt::Binary for PortStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_exactly_two_forbidden_codes() {
        let rows = PortStatus::table1();
        let forbidden: Vec<u8> = rows
            .iter()
            .filter(|(_, allowed, _)| !allowed)
            .map(|(c, _, _)| *c)
            .collect();
        assert_eq!(forbidden, vec![0b101, 0b111]);
    }

    #[test]
    fn table1_interpretations_match_paper_rows() {
        // Paper Table 1, viewed from the output port, in code order.
        let expected = [
            "Bus is unused",
            "Port receives from below",
            "Port receives straight",
            "Port receives from below and straight",
            "Port receives from above",
            "Not allowed",
            "Port receives from above and straight",
            "Not allowed",
        ];
        for (code, want) in expected.iter().enumerate() {
            assert_eq!(
                PortStatus::from_bits(code as u8).unwrap().interpretation(),
                *want,
                "code {code:03b}"
            );
        }
    }

    #[test]
    fn with_without_roundtrip() {
        let s = PortStatus::UNUSED
            .with(SourceDir::Straight)
            .with(SourceDir::Above);
        assert_eq!(s.bits(), 0b110);
        let s = s.without(SourceDir::Above);
        assert_eq!(s.sole_source(), Some(SourceDir::Straight));
        assert!(s.is_steady());
    }

    #[test]
    fn steady_vs_overlap() {
        assert!(PortStatus::UNUSED.is_steady());
        assert!(PortStatus::UNUSED.with(SourceDir::Below).is_steady());
        let overlap = PortStatus::UNUSED
            .with(SourceDir::Below)
            .with(SourceDir::Straight);
        assert!(!overlap.is_steady());
        assert!(overlap.is_allowed());
        assert_eq!(overlap.source_count(), 2);
        assert_eq!(overlap.sole_source(), None);
    }

    #[test]
    fn from_bits_bounds() {
        assert!(PortStatus::from_bits(7).is_some());
        assert!(PortStatus::from_bits(8).is_none());
    }

    #[test]
    fn offsets_roundtrip() {
        for dir in SourceDir::ALL {
            assert_eq!(SourceDir::from_offset(dir.offset()), Some(dir));
        }
        assert_eq!(SourceDir::from_offset(2), None);
        assert_eq!(SourceDir::from_offset(-2), None);
    }

    #[test]
    fn display_is_three_bit_binary() {
        assert_eq!(PortStatus::from_bits(0b100).unwrap().to_string(), "100");
        assert_eq!(PortStatus::UNUSED.to_string(), "000");
        assert_eq!(
            format!("{:b}", PortStatus::from_bits(0b110).unwrap()),
            "110"
        );
    }

    #[test]
    fn every_steady_code_plus_adjacent_make_is_allowed() {
        // The MBB "make" adds a source adjacent to the existing one
        // (straight+below, straight+above); both results are allowed.
        for base in [SourceDir::Below, SourceDir::Straight, SourceDir::Above] {
            let s = PortStatus::UNUSED.with(base);
            for add in [SourceDir::Below, SourceDir::Straight, SourceDir::Above] {
                let merged = s.with(add);
                let adjacent = (base.offset() - add.offset()).abs() <= 1;
                if adjacent {
                    assert!(merged.is_allowed(), "{base}+{add}");
                } else {
                    assert!(!merged.is_allowed(), "{base}+{add}");
                }
            }
        }
    }
}
