//! The wall-clock measurement record that makes run speed a first-class
//! experiment output.
//!
//! It lives here (not in the engine crates) so that every
//! [`StatsReport`](crate::StatsReport) row can carry a [`PerfStats`]
//! regardless of which engine produced it.

/// Wall-clock measurement of one run: how fast the simulation advanced in
/// host time.
///
/// This is *measurement metadata*, not simulation state — two runs of the
/// same workload on hosts of different speeds produce different
/// `PerfStats` but identical simulation results. Report types therefore
/// exclude it from their equality comparisons: two runs of the same
/// workload compare equal even though their wall clocks differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfStats {
    /// Wall-clock milliseconds the run took.
    pub wall_ms: f64,
    /// Simulated ticks per wall-clock second.
    pub sim_ticks_per_sec: f64,
    /// Worker threads the engine ran on.
    pub threads: u32,
}

impl PerfStats {
    /// Builds the record from a tick count and an elapsed wall duration.
    /// A zero elapsed time (sub-resolution run) reports a rate of 0.0
    /// rather than infinity so JSON stays finite.
    pub fn measure(ticks: u64, elapsed: std::time::Duration, threads: usize) -> Self {
        let secs = elapsed.as_secs_f64();
        PerfStats {
            wall_ms: secs * 1_000.0,
            sim_ticks_per_sec: if secs > 0.0 { ticks as f64 / secs } else { 0.0 },
            threads: threads.min(u32::MAX as usize) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn perf_stats_measure() {
        let p = PerfStats::measure(1_000_000, Duration::from_millis(500), 4);
        assert!((p.wall_ms - 500.0).abs() < 1e-9);
        assert!((p.sim_ticks_per_sec - 2_000_000.0).abs() < 1.0);
        assert_eq!(p.threads, 4);
        let z = PerfStats::measure(10, Duration::ZERO, 1);
        assert_eq!(z.sim_ticks_per_sec, 0.0, "zero elapsed must stay finite");
    }
}
