//! A minimal, self-contained property-testing harness.
//!
//! The build environment for this workspace is fully offline, so the real
//! `proptest` crate cannot be fetched. This crate exposes the narrow slice
//! of its API the test suites actually use — range and `any` strategies,
//! tuple and `vec` composition, `proptest!`, `prop_assert!` /
//! `prop_assert_eq!` and `ProptestConfig::with_cases` — backed by a
//! deterministic splitmix64/xoshiro generator. There is no shrinking: a
//! failing case reports its case index and seed so it can be replayed.
//!
//! Case count can be scaled globally with the `PROPTEST_CASES` environment
//! variable (useful to keep CI latency bounded).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic generator driving test-case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit word (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Bitmask rejection: unbiased and deterministic.
        let mask = u64::MAX >> (n - 1).leading_zeros().min(63);
        loop {
            let v = self.next_u64() & mask;
            if v < n {
                return v;
            }
        }
    }
}

/// A value generator. The subset of `proptest::strategy::Strategy` that the
/// workspace needs: generation only, no shrinking.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )+};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arb_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}
arb_tuple!(A);
arb_tuple!(A, B);
arb_tuple!(A, B, C);
arb_tuple!(A, B, C, D);
arb_tuple!(A, B, C, D, E);

/// Strategy producing any value of `T`, like `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = (self.end as u64) - (self.start as u64);
                self.start + rng.below(width) as $t
            }
        }
    )+};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! strategy_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
strategy_tuple!(A: 0, B: 1);
strategy_tuple!(A: 0, B: 1, C: 2);
strategy_tuple!(A: 0, B: 1, C: 2, D: 3);
strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for a `Vec` whose length is drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Optional-value strategies, mirroring `proptest::option`.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy yielding `None` about a quarter of the time, else `Some`
    /// of the inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Runner configuration (`with_cases` only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Effective case count: the configured count, overridable via the
/// `PROPTEST_CASES` environment variable.
pub fn effective_cases(cfg: &ProptestConfig) -> u32 {
    match std::env::var("PROPTEST_CASES") {
        Ok(v) => v.parse().unwrap_or(cfg.cases),
        Err(_) => cfg.cases,
    }
}

/// Everything a test file needs, mirroring `proptest::prelude`.
/// Error type carried by `prop_assert!` failures: the failure message.
pub type TestCaseError = String;

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Declares property tests. Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(..)]` header followed by `fn name(arg in strategy,
/// ...) { body }` items, each expanded to a `#[test]` running the body over
/// generated cases. A failure panics with the case index and seed.
#[macro_export]
macro_rules! proptest {
    (@cfg($cfg:expr)) => {};
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @cfg($cfg) $($rest)* }
    };
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        // Upstream proptest style: the `#[test]` attribute is written by
        // the caller and passes through with the other metas.
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let cases = $crate::effective_cases(&cfg);
            // Stable per-test seed: the test path hashes the same on every
            // run, so failures replay.
            let base = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cases {
                let seed = base ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut rng = $crate::TestRng::new(seed);
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body Ok(()) })();
                if let Err(msg) = outcome {
                    panic!(
                        "property {} failed at case {case}/{cases} (seed {seed:#x}):\n{msg}",
                        stringify!($name)
                    );
                }
            }
        }
        $crate::proptest! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Asserts inside `proptest!` bodies, reporting instead of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// Equality assert inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Inequality assert inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: both sides are {:?}", a);
    }};
}

/// FNV-1a — stable test-name hashing for replayable seeds.
pub fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = (3u32..20).generate(&mut rng);
            assert!((3..20).contains(&v));
        }
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::new(2);
        for _ in 0..200 {
            let v = collection::vec(any::<u32>(), 1..40).generate(&mut rng);
            assert!((1..40).contains(&v.len()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = (any::<u32>(), 0u64..9, 1u16..5);
        let a: Vec<_> = {
            let mut rng = TestRng::new(7);
            (0..50).map(|_| s.generate(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = TestRng::new(7);
            (0..50).map(|_| s.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_and_asserts(x in 0u32..100, v in crate::collection::vec(any::<u8>(), 0..10)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
