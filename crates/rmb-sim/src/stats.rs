//! Statistics collection: online moments and histograms.
//!
//! Every number reported in EXPERIMENTS.md flows through these types.
//! The streaming [`QuantileSketch`] (re-exported here next to
//! [`Histogram`]) lives in its own module; it is the bounded-memory
//! percentile tracker behind the open-loop serving reports.

pub use crate::sketch::QuantileSketch;

use std::fmt;

/// Online mean / variance / extrema over a stream of samples
/// (Welford's algorithm — numerically stable, single pass).
///
/// # Examples
///
/// ```
/// use rmb_sim::stats::OnlineStats;
/// let mut s = OnlineStats::default();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(6.0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl OnlineStats {
    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub const fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, if any.
    pub const fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample, if any.
    pub const fn max(&self) -> Option<f64> {
        self.max
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min.unwrap_or(f64::NAN),
            self.max.unwrap_or(f64::NAN)
        )
    }
}

/// A histogram over non-negative integer samples with fixed-width bins plus
/// an overflow bin.
///
/// # Examples
///
/// ```
/// use rmb_sim::stats::Histogram;
/// let mut h = Histogram::new(10, 5); // 5 bins of width 10
/// h.record(0);
/// h.record(12);
/// h.record(999); // overflow
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(1), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0` or `bins == 0`.
    pub fn new(bin_width: u64, bins: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            bins: vec![0; bins],
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        self.sum += value;
        let idx = (value / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Count in bin `i` (`[i*w, (i+1)*w)`), 0 when out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins.get(i).copied().unwrap_or(0)
    }

    /// Count of samples beyond the last bin.
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples.
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, resolved to bin upper edges.
    /// Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as u64 + 1) * self.bin_width - 1);
            }
        }
        Some(u64::MAX)
    }

    /// Iterates over `(bin_lower_edge, count)` pairs, skipping empty bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as u64 * self.bin_width, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::default();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn histogram_binning_and_quantiles() {
        let mut h = Histogram::new(5, 4);
        for v in [0, 4, 5, 9, 10, 19, 100] {
            h.record(v);
        }
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 2);
        assert_eq!(h.bin_count(2), 1);
        assert_eq!(h.bin_count(3), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 7);
        assert!((h.mean() - 147.0 / 7.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), Some(4)); // first non-empty bin edge
        assert!(h.quantile(0.5).unwrap() <= 9);
        assert_eq!(h.quantile(1.0), Some(u64::MAX)); // overflow sample
        assert_eq!(h.iter().count(), 4);
    }

    #[test]
    fn histogram_empty_quantile() {
        let h = Histogram::new(1, 1);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn histogram_zero_width_panics() {
        let _ = Histogram::new(0, 4);
    }
}
