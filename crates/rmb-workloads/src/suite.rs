//! Named workload suites tying permutations, sizes and arrivals together.

use crate::arrival::BernoulliArrivals;
use crate::permutation::{Permutation, PermutationKind};
use crate::sizes::SizeDistribution;
use rmb_sim::SimRng;
use rmb_types::MessageSpec;

/// A complete, reproducible workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Ring / network size.
    pub nodes: u32,
    /// Message body size distribution.
    pub sizes: SizeDistribution,
    /// Seed every stream derives from.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A convenient default: fixed 16-flit bodies.
    pub fn new(nodes: u32, seed: u64) -> Self {
        WorkloadConfig {
            nodes,
            sizes: SizeDistribution::Fixed(16),
            seed,
        }
    }

    /// Replaces the size distribution.
    #[must_use]
    pub fn with_sizes(mut self, sizes: SizeDistribution) -> Self {
        self.sizes = sizes;
        self
    }
}

/// Generates the concrete message streams of a [`WorkloadConfig`].
#[derive(Debug, Clone)]
pub struct WorkloadSuite {
    config: WorkloadConfig,
}

impl WorkloadSuite {
    /// Creates a suite for a configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        WorkloadSuite { config }
    }

    /// The configuration.
    pub const fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// One permutation workload: every non-fixed point sends one message
    /// at tick 0.
    pub fn permutation(&self, kind: PermutationKind) -> Vec<MessageSpec> {
        let mut rng = SimRng::seed(self.config.seed);
        let mut perm_rng = rng.fork("permutation");
        let mut size_rng = rng.fork("sizes");
        let p = Permutation::generate(kind, self.config.nodes, &mut perm_rng);
        p.messages(0)
            .into_iter()
            .map(|m| {
                MessageSpec::new(
                    m.source,
                    m.destination,
                    self.config.sizes.sample(&mut size_rng),
                )
            })
            .collect()
    }

    /// An open-loop Bernoulli stream at per-node rate `rate` for `ticks`.
    pub fn bernoulli(&self, rate: f64, ticks: u64) -> Vec<MessageSpec> {
        let mut rng = SimRng::seed(self.config.seed);
        let mut arr_rng = rng.fork("arrivals");
        let sizes = self.config.sizes;
        BernoulliArrivals::new(rate).generate(self.config.nodes, ticks, &mut arr_rng, &mut |r| {
            sizes.sample(r)
        })
    }

    /// A hot-spot stream: a Bernoulli stream in which each message is
    /// redirected to `target` with probability `bias` (the classic
    /// hot-spot traffic of shared-memory studies). `bias = 0` is plain
    /// uniform traffic; `bias = 1` sends everything to the hot node.
    pub fn hotspot(
        &self,
        rate: f64,
        ticks: u64,
        target: rmb_types::NodeId,
        bias: f64,
    ) -> Vec<MessageSpec> {
        assert!(
            target.index() < self.config.nodes,
            "hot node must be on the ring"
        );
        let mut rng = SimRng::seed(self.config.seed);
        let mut arr_rng = rng.fork("arrivals");
        let mut bias_rng = rng.fork("hotspot");
        let sizes = self.config.sizes;
        let base = BernoulliArrivals::new(rate).generate(
            self.config.nodes,
            ticks,
            &mut arr_rng,
            &mut |r| sizes.sample(r),
        );
        base.into_iter()
            .filter_map(|m| {
                if bias_rng.chance(bias) {
                    if m.source == target {
                        return None; // the hot node does not message itself
                    }
                    Some(MessageSpec::new(m.source, target, m.data_flits).at(m.inject_at))
                } else {
                    Some(m)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_workload_is_deterministic() {
        let suite = WorkloadSuite::new(WorkloadConfig::new(16, 77));
        let a = suite.permutation(PermutationKind::Random);
        let b = suite.permutation(PermutationKind::Random);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn sizes_are_applied() {
        let cfg = WorkloadConfig::new(8, 1).with_sizes(SizeDistribution::Fixed(3));
        let suite = WorkloadSuite::new(cfg);
        let msgs = suite.permutation(PermutationKind::Opposite);
        assert!(msgs.iter().all(|m| m.data_flits == 3));
    }

    #[test]
    fn hotspot_concentrates_destinations() {
        use rmb_types::NodeId;
        let suite = WorkloadSuite::new(WorkloadConfig::new(16, 3));
        let hot = NodeId::new(5);
        let msgs = suite.hotspot(0.05, 10_000, hot, 0.7);
        assert!(!msgs.is_empty());
        let to_hot = msgs.iter().filter(|m| m.destination == hot).count() as f64;
        let share = to_hot / msgs.len() as f64;
        assert!(share > 0.6 && share < 0.85, "share {share}");
        assert!(msgs.iter().all(|m| m.source != m.destination));
        // bias 0 leaves the uniform stream untouched.
        let uniform = suite.hotspot(0.05, 10_000, hot, 0.0);
        assert_eq!(uniform, suite.bernoulli(0.05, 10_000));
    }

    #[test]
    fn bernoulli_stream_scales_with_rate() {
        let suite = WorkloadSuite::new(WorkloadConfig::new(8, 9));
        let low = suite.bernoulli(0.01, 10_000);
        let high = suite.bernoulli(0.1, 10_000);
        assert!(high.len() > 5 * low.len());
    }
}
