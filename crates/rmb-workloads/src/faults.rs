//! Random fault schedules for resilience experiments.
//!
//! The fault-tolerance sweep needs reproducible schedules in which a
//! controlled *fraction* of the physical segments fails at random times.
//! This module turns (fraction, horizon, outage) knobs into a concrete
//! [`FaultPlan`] using the same seeded RNG discipline as the workload
//! generators: same seed, same plan, on every platform.

use rmb_sim::SimRng;
use rmb_types::{BusIndex, FaultPlan, NodeId};

/// Parameters of a random segment-fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Fraction of the `n * k` physical segments to fail (clamped to
    /// `0.0..=1.0`); the count is rounded to the nearest whole segment.
    pub fraction: f64,
    /// Fault activation times are drawn uniformly from `0..horizon`.
    pub horizon: u64,
    /// Outage length of each fault; `None` makes every fault permanent.
    pub outage: Option<u64>,
}

impl FaultScenario {
    /// Number of segments this scenario fails on an `n * k` ring.
    fn segment_count(&self, n: u32, k: u16) -> usize {
        let total = n as usize * k as usize;
        let want = (self.fraction.clamp(0.0, 1.0) * total as f64).round() as usize;
        want.min(total)
    }

    /// Draws the concrete plan: `segment_count` *distinct* segments, each
    /// stuck from a uniform tick in `0..horizon`, repaired `outage` ticks
    /// later (or never).
    pub fn draw(&self, n: u32, k: u16, rng: &mut SimRng) -> FaultPlan {
        let total = n as usize * k as usize;
        let mut segments: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut segments);
        let mut plan = FaultPlan::new();
        for &idx in segments.iter().take(self.segment_count(n, k)) {
            let hop = NodeId::new((idx / k as usize) as u32);
            let bus = BusIndex::new((idx % k as usize) as u16);
            let at = rng.index(self.horizon.max(1) as usize).unwrap_or(0) as u64;
            plan = plan.segment_stuck(at, hop, bus, self.outage.map(|o| at + o.max(1)));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_round_and_clamp() {
        let s = |fraction| FaultScenario {
            fraction,
            horizon: 100,
            outage: None,
        };
        assert_eq!(s(0.0).segment_count(8, 4), 0);
        assert_eq!(s(0.5).segment_count(8, 4), 16);
        assert_eq!(s(0.2).segment_count(8, 2), 3, "0.2 * 16 = 3.2 rounds to 3");
        assert_eq!(s(2.0).segment_count(8, 2), 16, "clamped to every segment");
    }

    #[test]
    fn draw_is_deterministic_and_valid() {
        let scenario = FaultScenario {
            fraction: 0.25,
            horizon: 500,
            outage: Some(200),
        };
        let a = scenario.draw(10, 3, &mut SimRng::seed(42));
        let b = scenario.draw(10, 3, &mut SimRng::seed(42));
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.events().len(), scenario.segment_count(10, 3));
        a.validate(10, 3).unwrap();
        // Distinct segments.
        let mut seen: Vec<_> = a.events().iter().map(|e| format!("{}", e.kind)).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), a.events().len());
        // Repairs always strictly after activation.
        for e in a.events() {
            assert!(e.repair_at.unwrap() > e.at);
        }
    }

    #[test]
    fn permanent_scenario_has_no_repairs() {
        let scenario = FaultScenario {
            fraction: 0.5,
            horizon: 100,
            outage: None,
        };
        let plan = scenario.draw(6, 2, &mut SimRng::seed(7));
        assert!(plan.events().iter().all(|e| e.repair_at.is_none()));
    }
}
