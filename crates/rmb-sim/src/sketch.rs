//! Streaming quantile sketch for online tail-latency tracking.
//!
//! The open-loop serving driver needs p50/p99/p999 over runs that can
//! last billions of ticks, so it cannot retain samples. This module
//! implements the Cormode–Korn–Muthukrishnan–Srivastava (CKMS) *targeted
//! quantiles* sketch: a sorted summary of `(value, g, Δ)` tuples whose
//! size is bounded by the error targets, not by the stream length, with a
//! provable rank-error guarantee — a query for target φ with error ε
//! returns a value whose rank is within `ε·n` of `φ·n`.
//!
//! The implementation is deterministic (insertion order fully determines
//! the summary), allocation-light, and tuned for the latency use case:
//! values are `u64` ticks, inserts are a binary search plus a short
//! `memmove`, and compression runs every [`COMPRESS_EVERY`] inserts.
//!
//! # Examples
//!
//! ```
//! use rmb_sim::stats::QuantileSketch;
//!
//! let mut q = QuantileSketch::latency_defaults();
//! for v in 1..=10_000u64 {
//!     q.record(v);
//! }
//! let p50 = q.quantile(0.5).unwrap();
//! assert!((4_800..=5_200).contains(&p50), "p50 = {p50}");
//! assert_eq!(q.count(), 10_000);
//! ```

/// One summary tuple: `g` is the gap in rank to the previous tuple,
/// `delta` the uncertainty of this tuple's own rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    v: u64,
    g: u64,
    delta: u64,
}

/// Compression cadence: a full compress pass every this many inserts.
const COMPRESS_EVERY: u64 = 128;

/// A CKMS targeted-quantiles sketch over `u64` samples.
///
/// Construct with explicit `(φ, ε)` targets via [`QuantileSketch::new`]
/// or use [`QuantileSketch::latency_defaults`] (p50 ± 1%, p99 ± 0.1%,
/// p999 ± 0.05% rank error). Queries away from the targets degrade
/// gracefully but only the targets carry the stated guarantee.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// `(phi, epsilon)` targets, each with `0 < phi < 1`, `epsilon > 0`.
    targets: Vec<(f64, f64)>,
    /// Summary, sorted by value.
    entries: Vec<Entry>,
    /// Total samples observed.
    count: u64,
    /// Inserts since the last compression.
    since_compress: u64,
    /// Exact extrema and sum (cheap, and useful alongside percentiles).
    min: u64,
    max: u64,
    sum: u128,
}

impl QuantileSketch {
    /// Creates a sketch tracking the given `(φ, ε)` targets.
    ///
    /// # Panics
    ///
    /// Panics if no targets are given or any target has `φ` outside
    /// `(0, 1)` or `ε <= 0`.
    #[must_use]
    pub fn new(targets: &[(f64, f64)]) -> Self {
        assert!(!targets.is_empty(), "need at least one quantile target");
        for &(phi, eps) in targets {
            assert!(phi > 0.0 && phi < 1.0, "target phi {phi} outside (0, 1)");
            assert!(eps > 0.0, "target epsilon must be positive");
        }
        QuantileSketch {
            targets: targets.to_vec(),
            entries: Vec::new(),
            count: 0,
            since_compress: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// The standard serving targets: p50 ± 1%, p99 ± 0.1%, p999 ± 0.05%
    /// rank error.
    #[must_use]
    pub fn latency_defaults() -> Self {
        Self::new(&[(0.5, 0.01), (0.99, 0.001), (0.999, 0.0005)])
    }

    /// Samples observed so far.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, or `None` before any sample.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` before any sample.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples (0 before any sample).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Summary tuples currently retained (bounded by the error targets,
    /// not the stream length).
    pub fn retained(&self) -> usize {
        self.entries.len()
    }

    /// The targeted-quantiles invariant `f(r, n)`: how much rank slack a
    /// tuple covering rank `r` may carry. Minimised over the targets,
    /// floored at 1.
    fn invariant(&self, rank: u64, n: u64) -> u64 {
        let r = rank as f64;
        let n = n as f64;
        let mut f = f64::MAX;
        for &(phi, eps) in &self.targets {
            let cand = if r <= phi * n {
                2.0 * eps * (n - r) / (1.0 - phi)
            } else {
                2.0 * eps * r / phi
            };
            f = f.min(cand);
        }
        (f.floor() as u64).max(1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += u128::from(v);
        // Insertion point: first entry with value >= v.
        let idx = self.entries.partition_point(|e| e.v < v);
        if idx == 0 || idx == self.entries.len() {
            // New minimum or maximum: exact rank, delta 0.
            self.entries.insert(idx, Entry { v, g: 1, delta: 0 });
        } else {
            // Rank of the predecessor of the insertion point.
            let rank: u64 = self.entries[..idx].iter().map(|e| e.g).sum();
            let delta = self.invariant(rank, self.count).saturating_sub(1);
            self.entries.insert(idx, Entry { v, g: 1, delta });
        }
        self.since_compress += 1;
        if self.since_compress >= COMPRESS_EVERY {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Records `n` identical samples (used when a batch completes at one
    /// tick with one latency).
    pub fn record_repeated(&mut self, v: u64, n: u64) {
        for _ in 0..n {
            self.record(v);
        }
    }

    /// Merges adjacent tuples whose combined slack stays within the
    /// invariant, bounding the summary size.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let n = self.count;
        // Walk right to left, merging entry i into i+1 when allowed. The
        // first and last entries are never merged away (exact extrema).
        let mut i = self.entries.len() - 2;
        while i >= 1 {
            let rank: u64 = self.entries[..i].iter().map(|e| e.g).sum();
            let merged = self.entries[i].g + self.entries[i + 1].g + self.entries[i + 1].delta;
            if merged <= self.invariant(rank, n) {
                self.entries[i + 1].g += self.entries[i].g;
                self.entries.remove(i);
            }
            i -= 1;
        }
    }

    /// The value at quantile `phi`, or `None` before any sample.
    ///
    /// For the configured targets the returned value's rank is within
    /// `ε·n` of `φ·n`; other quantiles interpolate between summary
    /// tuples with weaker (but still monotone) accuracy.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let n = self.count;
        let target = phi * n as f64;
        let slack = self.invariant(target.floor() as u64, n) as f64 / 2.0;
        let mut rank: u64 = 0;
        let mut prev = self.entries[0].v;
        for e in &self.entries {
            if (rank + e.g + e.delta) as f64 > target + slack {
                return Some(prev);
            }
            rank += e.g;
            prev = e.v;
        }
        Some(self.entries.last().expect("count > 0 implies entries").v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Exact quantile by sorting: value at rank ceil(phi * n).
    fn exact(samples: &mut [u64], phi: f64) -> u64 {
        samples.sort_unstable();
        let n = samples.len();
        let r = ((phi * n as f64).ceil() as usize).clamp(1, n);
        samples[r - 1]
    }

    /// Rank error of `got` relative to the sorted sample set.
    fn rank_error(sorted: &[u64], got: u64, phi: f64) -> f64 {
        let n = sorted.len() as f64;
        // Rank range occupied by `got` in the sorted data.
        let lo = sorted.partition_point(|&v| v < got) as f64;
        let hi = sorted.partition_point(|&v| v <= got) as f64;
        let target = phi * n;
        if target < lo {
            (lo - target) / n
        } else if target > hi {
            (target - hi) / n
        } else {
            0.0
        }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let q = QuantileSketch::latency_defaults();
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.count(), 0);
        assert_eq!(q.min(), None);
        assert_eq!(q.max(), None);
        assert_eq!(q.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut q = QuantileSketch::latency_defaults();
        q.record(42);
        assert_eq!(q.quantile(0.5), Some(42));
        assert_eq!(q.quantile(0.999), Some(42));
        assert_eq!(q.min(), Some(42));
        assert_eq!(q.max(), Some(42));
    }

    #[test]
    fn uniform_stream_meets_rank_error_bounds() {
        let mut q = QuantileSketch::latency_defaults();
        let mut rng = SimRng::seed(11);
        let mut samples: Vec<u64> = (0..50_000).map(|_| rng.next_u64() % 100_000).collect();
        for &v in &samples {
            q.record(v);
        }
        samples.sort_unstable();
        for &(phi, eps) in &[(0.5, 0.01), (0.99, 0.001), (0.999, 0.0005)] {
            let got = q.quantile(phi).unwrap();
            let err = rank_error(&samples, got, phi);
            // 2x the per-target epsilon absorbs the query-side slack.
            assert!(
                err <= 2.0 * eps,
                "phi {phi}: rank error {err} > {}",
                2.0 * eps
            );
        }
    }

    #[test]
    fn heavy_tail_stream_meets_rank_error_bounds() {
        // Latency-shaped data: most samples small, a long sparse tail.
        let mut q = QuantileSketch::latency_defaults();
        let mut rng = SimRng::seed(7);
        let mut samples = Vec::with_capacity(40_000);
        for _ in 0..40_000 {
            let base = 20 + rng.next_u64() % 80;
            let v = if rng.chance(0.01) {
                base + 1_000 + rng.next_u64() % 50_000
            } else {
                base
            };
            samples.push(v);
            q.record(v);
        }
        samples.sort_unstable();
        for &(phi, eps) in &[(0.5, 0.01), (0.99, 0.001), (0.999, 0.0005)] {
            let got = q.quantile(phi).unwrap();
            let err = rank_error(&samples, got, phi);
            assert!(
                err <= 2.0 * eps,
                "phi {phi}: rank error {err} > {}",
                2.0 * eps
            );
        }
    }

    #[test]
    fn sorted_and_reversed_insertion_agree_with_exact() {
        for reverse in [false, true] {
            let mut vals: Vec<u64> = (1..=20_000).collect();
            if reverse {
                vals.reverse();
            }
            let mut q = QuantileSketch::latency_defaults();
            for &v in &vals {
                q.record(v);
            }
            let p99 = q.quantile(0.99).unwrap();
            let want = exact(&mut vals, 0.99);
            let diff = p99.abs_diff(want) as f64 / 20_000.0;
            assert!(
                diff <= 0.002,
                "reverse={reverse}: p99 {p99} vs exact {want}"
            );
        }
    }

    #[test]
    fn summary_stays_bounded() {
        let mut q = QuantileSketch::latency_defaults();
        let mut rng = SimRng::seed(3);
        for _ in 0..200_000 {
            q.record(rng.next_u64() % 1_000_000);
        }
        // 200k samples compress to a summary orders of magnitude smaller;
        // the bound is a generous multiple of the theoretical size.
        assert!(q.retained() < 5_000, "retained {} tuples", q.retained());
        assert_eq!(q.count(), 200_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut q = QuantileSketch::latency_defaults();
            let mut rng = SimRng::seed(99);
            for _ in 0..10_000 {
                q.record(rng.next_u64() % 10_000);
            }
            (
                q.quantile(0.5),
                q.quantile(0.99),
                q.quantile(0.999),
                q.retained(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn record_repeated_matches_loop() {
        let mut a = QuantileSketch::latency_defaults();
        let mut b = QuantileSketch::latency_defaults();
        a.record_repeated(7, 100);
        for _ in 0..100 {
            b.record(7);
        }
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.count(), b.count());
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut q = QuantileSketch::latency_defaults();
        let mut rng = SimRng::seed(4);
        for _ in 0..30_000 {
            q.record(rng.next_u64() % 5_000);
        }
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&p| q.quantile(p).unwrap())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }
}
