//! The simulation clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in ticks.
///
/// One tick is the time a flit needs to traverse one bus segment; the RMB's
/// constant wire length (§3.2 "Review") makes this uniform across the ring.
///
/// # Examples
///
/// ```
/// use rmb_sim::Tick;
/// let t = Tick::new(10) + 5;
/// assert_eq!(t, Tick::new(15));
/// assert_eq!(t - Tick::new(10), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// Time zero.
    pub const ZERO: Tick = Tick(0);

    /// Creates a tick from a raw count.
    pub const fn new(t: u64) -> Self {
        Tick(t)
    }

    /// Returns the raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The next tick.
    pub const fn next(self) -> Tick {
        Tick(self.0 + 1)
    }
}

impl Add<u64> for Tick {
    type Output = Tick;
    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl AddAssign<u64> for Tick {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Tick> for Tick {
    type Output = u64;
    fn sub(self, rhs: Tick) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Tick {
    fn from(v: u64) -> Self {
        Tick(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut t = Tick::ZERO;
        t += 3;
        assert_eq!(t, Tick::new(3));
        assert_eq!(t + 2, Tick::new(5));
        assert_eq!(Tick::new(5) - Tick::new(2), 3);
        assert_eq!(Tick::new(1).next(), Tick::new(2));
    }

    #[test]
    fn ordering_and_display() {
        assert!(Tick::new(1) < Tick::new(2));
        assert_eq!(Tick::new(7).to_string(), "t7");
        assert_eq!(Tick::from(9u64).get(), 9);
    }
}
