//! Arrival processes for open-loop load sweeps.

use rmb_sim::SimRng;
use rmb_types::{MessageSpec, NodeId};

/// Each node independently starts a new message with probability `p` per
/// tick, to a uniformly random other node — the standard Bernoulli
/// injection process for interconnect load sweeps.
///
/// # Examples
///
/// ```
/// use rmb_workloads::BernoulliArrivals;
/// use rmb_sim::SimRng;
///
/// let arr = BernoulliArrivals::new(0.1);
/// let mut rng = SimRng::seed(1);
/// let msgs = arr.generate(8, 100, &mut rng, &mut |_| 4);
/// assert!(!msgs.is_empty());
/// assert!(msgs.iter().all(|m| m.source != m.destination));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliArrivals {
    p: f64,
}

impl BernoulliArrivals {
    /// Creates a process with per-node per-tick injection probability `p`
    /// (clamped to `[0, 1]`).
    pub fn new(p: f64) -> Self {
        BernoulliArrivals {
            p: p.clamp(0.0, 1.0),
        }
    }

    /// The injection probability.
    pub const fn rate(&self) -> f64 {
        self.p
    }

    /// Produces the message stream for `ticks` simulated ticks on a ring
    /// of `n` nodes, with message bodies drawn by `flits`, sorted by
    /// injection tick and, within a tick, by source node.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn generate(
        &self,
        n: u32,
        ticks: u64,
        rng: &mut SimRng,
        flits: &mut dyn FnMut(&mut SimRng) -> u32,
    ) -> Vec<MessageSpec> {
        // Nodes are drawn in ascending order, so a stable merge by tick
        // leaves ties in source order.
        radix_merge(self.draw(n, ticks, rng, flits))
    }

    /// The per-node streams, node by node, each in tick order.
    fn draw(
        &self,
        n: u32,
        ticks: u64,
        rng: &mut SimRng,
        flits: &mut dyn FnMut(&mut SimRng) -> u32,
    ) -> Vec<MessageSpec> {
        assert!(n >= 2, "need at least two nodes");
        // Geometric gap sampling: equivalent to per-tick Bernoulli but
        // O(messages) instead of O(nodes * ticks).
        let mut msgs = Vec::new();
        for node in 0..n {
            let mut t = rng.geometric_gap(self.p).saturating_sub(1);
            while t < ticks {
                let dst = {
                    let r = rng.index((n - 1) as usize).expect("n >= 2") as u32;
                    if r >= node {
                        r + 1
                    } else {
                        r
                    }
                };
                let body = flits(rng);
                msgs.push(MessageSpec::new(NodeId::new(node), NodeId::new(dst), body).at(t));
                t = t.saturating_add(rng.geometric_gap(self.p));
            }
        }
        msgs
    }
}

/// Stable sort by injection tick: an LSD radix sort on 8-bit digits, one
/// counting pass per byte of the largest tick, which keeps equal ticks in
/// their input order like a stable comparison sort, in O(messages) per
/// pass.
fn radix_merge(mut msgs: Vec<MessageSpec>) -> Vec<MessageSpec> {
    let max = msgs.iter().map(|m| m.inject_at).max().unwrap_or(0);
    let mut out = msgs.clone();
    let mut shift = 0;
    while shift < u64::BITS && max >> shift != 0 {
        let digit = |m: &MessageSpec| (m.inject_at >> shift) as usize & 0xff;
        let mut next = [0usize; 256];
        for m in &msgs {
            next[digit(m)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        for m in &msgs {
            let slot = &mut next[digit(m)];
            out[*slot] = *m;
            *slot += 1;
        }
        std::mem::swap(&mut msgs, &mut out);
        shift += 8;
    }
    msgs
}

/// A per-node stream of inter-arrival gaps, for open-loop serving drivers
/// that generate load *online* (one gap at a time, riding an event queue)
/// rather than materialising a whole batch up front.
///
/// Unlike [`BernoulliArrivals::generate`], which returns a complete sorted
/// message list, an `ArrivalStream` is consulted lazily: every time node
/// `node` fires, the driver asks for the gap to that node's *next*
/// arrival. This keeps memory independent of run length — a billion-tick
/// soak holds one pending arrival per node, not a billion specs.
///
/// Gaps are in ticks and at least 1 (a node submits at most one new
/// message per tick). Implementations must be deterministic given the
/// caller's `SimRng`.
pub trait ArrivalStream {
    /// Ticks from the current arrival at `node` to its next one (>= 1).
    fn next_gap(&mut self, node: u32, rng: &mut SimRng) -> u64;

    /// Short label for reports, e.g. `"poisson"`.
    fn label(&self) -> &'static str;
}

/// Memoryless arrivals: every gap is geometric with per-tick rate `p`,
/// the streaming twin of [`BernoulliArrivals`] (a discrete-time Poisson
/// process).
///
/// # Examples
///
/// ```
/// use rmb_workloads::{ArrivalStream, PoissonStream};
/// use rmb_sim::SimRng;
///
/// let mut s = PoissonStream::new(0.1);
/// let mut rng = SimRng::seed(1);
/// let gap = s.next_gap(0, &mut rng);
/// assert!(gap >= 1);
/// assert_eq!(s.label(), "poisson");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonStream {
    p: f64,
}

impl PoissonStream {
    /// Creates a stream with per-node per-tick arrival probability `p`
    /// (clamped to `[1e-12, 1]` — a zero rate would mean an infinite gap).
    pub fn new(p: f64) -> Self {
        PoissonStream {
            p: p.clamp(1e-12, 1.0),
        }
    }

    /// The per-tick arrival probability.
    pub const fn rate(&self) -> f64 {
        self.p
    }
}

impl ArrivalStream for PoissonStream {
    fn next_gap(&mut self, _node: u32, rng: &mut SimRng) -> u64 {
        rng.geometric_gap(self.p).max(1)
    }

    fn label(&self) -> &'static str {
        "poisson"
    }
}

/// Bursty on/off arrivals: each node alternates between a geometric-length
/// burst of closely spaced messages and a long idle gap, modelling the
/// clumped traffic that stresses admission control far harder than a
/// memoryless process at the same mean rate.
///
/// The stream is parameterised to *match the mean rate* of a
/// [`PoissonStream`] with the same `p`: bursts of mean length `burst_len`
/// arrive with intra-burst gaps of mean `1/p_on`, separated by off gaps
/// sized so the long-run rate is `p`. The driver can therefore sweep the
/// same offered-load axis for both processes.
///
/// # Examples
///
/// ```
/// use rmb_workloads::{ArrivalStream, BurstyStream};
/// use rmb_sim::SimRng;
///
/// let mut s = BurstyStream::new(0.02, 8);
/// let mut rng = SimRng::seed(1);
/// assert!(s.next_gap(3, &mut rng) >= 1);
/// assert_eq!(s.label(), "bursty");
/// ```
#[derive(Debug, Clone)]
pub struct BurstyStream {
    /// Target long-run per-tick rate.
    p: f64,
    /// Mean messages per burst.
    burst_len: u32,
    /// Intra-burst per-tick rate (dense: mean gap 2 ticks).
    p_on: f64,
    /// Mean off gap between bursts, derived so the long-run rate is `p`.
    off_gap: f64,
    /// Messages left in the current burst, per node (lazily sized).
    left: Vec<u32>,
}

impl BurstyStream {
    /// Creates a bursty stream with long-run rate `p` and mean burst
    /// length `burst_len` (at least 1).
    pub fn new(p: f64, burst_len: u32) -> Self {
        let p = p.clamp(1e-12, 0.5);
        let burst_len = burst_len.max(1);
        let p_on = 0.5;
        // Long-run rate: burst_len messages per (burst_len / p_on + off_gap)
        // ticks. Solve for off_gap; clamp at 1 so saturating rates stay
        // well-defined (they just stop being bursty).
        let off_gap = (f64::from(burst_len) / p - f64::from(burst_len) / p_on).max(1.0);
        BurstyStream {
            p,
            burst_len,
            p_on,
            off_gap,
            left: Vec::new(),
        }
    }

    /// The target long-run per-tick rate.
    pub const fn rate(&self) -> f64 {
        self.p
    }
}

impl ArrivalStream for BurstyStream {
    fn next_gap(&mut self, node: u32, rng: &mut SimRng) -> u64 {
        let node = node as usize;
        if self.left.len() <= node {
            self.left.resize(node + 1, 0);
        }
        if self.left[node] == 0 {
            // Start a new burst after an off period. Burst length is
            // geometric with mean `burst_len`; the off gap is geometric
            // with mean `off_gap`.
            let len = rng.geometric_gap(1.0 / f64::from(self.burst_len)) as u32;
            self.left[node] = len.max(1);
            rng.geometric_gap(1.0 / self.off_gap).max(1)
        } else {
            self.left[node] -= 1;
            rng.geometric_gap(self.p_on).max(1)
        }
    }

    fn label(&self) -> &'static str {
        "bursty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_matches_expectation() {
        let arr = BernoulliArrivals::new(0.05);
        let mut rng = SimRng::seed(9);
        let ticks = 20_000;
        let n = 16;
        let msgs = arr.generate(n, ticks, &mut rng, &mut |_| 1);
        let expected = 0.05 * ticks as f64 * n as f64;
        let got = msgs.len() as f64;
        assert!(
            (got - expected).abs() < 0.1 * expected,
            "got {got}, expected about {expected}"
        );
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let arr = BernoulliArrivals::new(0.0);
        let mut rng = SimRng::seed(1);
        assert!(arr.generate(8, 1000, &mut rng, &mut |_| 1).is_empty());
    }

    #[test]
    fn rate_is_clamped() {
        assert_eq!(BernoulliArrivals::new(7.0).rate(), 1.0);
        assert_eq!(BernoulliArrivals::new(-1.0).rate(), 0.0);
    }

    #[test]
    fn destinations_are_uniform_over_others() {
        let arr = BernoulliArrivals::new(0.2);
        let mut rng = SimRng::seed(5);
        let msgs = arr.generate(4, 50_000, &mut rng, &mut |_| 1);
        let mut hist = [0u32; 4];
        for m in &msgs {
            assert_ne!(m.source, m.destination);
            hist[m.destination.as_usize()] += 1;
        }
        // Every node is someone's destination with roughly equal frequency.
        let total: u32 = hist.iter().sum();
        for &h in &hist {
            let share = h as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.03, "share {share}");
        }
    }

    /// `generate`'s radix merge orders the draws exactly as a stable
    /// comparison sort by tick does, over random node counts, rates and
    /// windows whose largest tick needs one to five 8-bit digits.
    #[test]
    fn radix_merge_matches_a_stable_sort() {
        let mut rng = SimRng::seed(26);
        let mut digits_seen = [0u32; 6];
        for case in 0..250u32 {
            let n = 2 + rng.index(40).unwrap() as u32;
            // A window past 2^(8d - 1) ticks, holding 1 to 64 messages in
            // expectation.
            let d = 1 + case % 5;
            let half = 1u64 << (8 * d - 1);
            let ticks = half + rng.next_u64() % half;
            let expected = 1.0 + rng.index(64).unwrap() as f64;
            let arr = BernoulliArrivals::new(expected / (f64::from(n) * ticks as f64));
            let seed = rng.next_u64();
            let flits = &mut |r: &mut SimRng| r.index(16).unwrap() as u32;
            let got = arr.generate(n, ticks, &mut SimRng::seed(seed), flits);
            let mut want = arr.draw(n, ticks, &mut SimRng::seed(seed), flits);
            want.sort_by_key(|m| m.inject_at);
            assert_eq!(got, want, "n {n}, ticks {ticks}, seed {seed}");
            let max = got.iter().map(|m| m.inject_at).max().unwrap_or(0);
            digits_seen[(u64::BITS - max.leading_zeros()).div_ceil(8) as usize] += 1;
        }
        assert!(
            digits_seen[1..].iter().all(|&c| c > 0),
            "cases per digit count: {digits_seen:?}"
        );
        // Empty and one-message batches.
        assert_eq!(radix_merge(Vec::new()), Vec::new());
        let one = vec![MessageSpec::new(NodeId::new(1), NodeId::new(0), 3).at(1 << 40)];
        assert_eq!(radix_merge(one.clone()), one);
    }

    #[test]
    fn sorted_by_injection_time() {
        let arr = BernoulliArrivals::new(0.1);
        let mut rng = SimRng::seed(2);
        let msgs = arr.generate(8, 2_000, &mut rng, &mut |_| 1);
        // Within a tick, arrivals keep ascending source order.
        let key = |m: &MessageSpec| (m.inject_at, m.source);
        assert!(msgs.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
        assert!(msgs.windows(2).any(|w| w[0].inject_at == w[1].inject_at));
    }

    /// Long-run arrival rate of a stream, measured by walking one node's
    /// gap sequence.
    fn measured_rate(stream: &mut dyn ArrivalStream, seed: u64, events: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        let mut t = 0u64;
        for _ in 0..events {
            t += stream.next_gap(0, &mut rng);
        }
        events as f64 / t as f64
    }

    #[test]
    fn poisson_stream_matches_target_rate() {
        for &p in &[0.01, 0.05, 0.2] {
            let got = measured_rate(&mut PoissonStream::new(p), 11, 50_000);
            assert!((got - p).abs() < 0.05 * p, "target {p}, measured {got}");
        }
    }

    #[test]
    fn bursty_stream_matches_target_mean_rate() {
        for &p in &[0.01, 0.05] {
            let got = measured_rate(&mut BurstyStream::new(p, 8), 13, 50_000);
            assert!((got - p).abs() < 0.15 * p, "target {p}, measured {got}");
        }
    }

    #[test]
    fn bursty_stream_actually_clumps() {
        // At the same mean rate, the bursty stream's gap variance must
        // dwarf the Poisson stream's: lots of short gaps, a few huge ones.
        let stats = |stream: &mut dyn ArrivalStream| {
            let mut rng = SimRng::seed(17);
            let gaps: Vec<u64> = (0..20_000).map(|_| stream.next_gap(0, &mut rng)).collect();
            let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
            let var =
                gaps.iter().map(|&g| (g as f64 - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean) // squared coefficient of variation
        };
        let poisson_cv2 = stats(&mut PoissonStream::new(0.02));
        let bursty_cv2 = stats(&mut BurstyStream::new(0.02, 8));
        assert!(
            bursty_cv2 > 2.0 * poisson_cv2,
            "bursty cv^2 {bursty_cv2} vs poisson {poisson_cv2}"
        );
    }

    #[test]
    fn streams_gaps_are_positive_and_deterministic() {
        let run = || {
            let mut s = BurstyStream::new(0.03, 4);
            let mut rng = SimRng::seed(23);
            (0..1000)
                .map(|i| s.next_gap(i % 5, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().all(|&g| g >= 1));
    }

    #[test]
    fn flit_sampler_is_consulted() {
        let arr = BernoulliArrivals::new(0.1);
        let mut rng = SimRng::seed(3);
        let msgs = arr.generate(8, 1_000, &mut rng, &mut |r| {
            16 + (r.index(16).unwrap() as u32)
        });
        assert!(msgs.iter().all(|m| (16..32).contains(&m.data_flits)));
    }
}
