//! The odd/even cycle handshake under real threads.

use rmb_core::{CycleController, CycleFlags, CycleStep, Phase};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::thread;

fn pack(flags: CycleFlags) -> u8 {
    u8::from(flags.data) | (u8::from(flags.cycle) << 1)
}

fn unpack(bits: u8) -> CycleFlags {
    CycleFlags {
        data: bits & 1 != 0,
        cycle: bits & 2 != 0,
    }
}

/// Outcome of a threaded cycle-ring run.
#[derive(Debug, Clone)]
pub struct CycleRunStats {
    /// Completed cycle transitions per INC thread.
    pub transitions: Vec<u64>,
    /// `true` when every transition observed both neighbours within one
    /// transition (Lemma 1), checked *at the moment of each transition*.
    pub lemma1_held: bool,
    /// Largest neighbour skew observed at any transition instant.
    pub max_observed_skew: u64,
}

/// Runs `n` cycle controllers on `n` OS threads with deliberately uneven
/// pacing, verifying Lemma 1 under true concurrency.
///
/// Threads publish their `OD`/`OC` flags in shared atomics (the hardware
/// signal wires) and read their neighbours' on every local activation —
/// there is no global clock and no lock.
#[derive(Debug, Clone)]
pub struct ThreadedCycleRing {
    n: usize,
    min_transitions: u64,
    /// Extra busy-work iterations per activation for thread `i % pacing
    /// .len()`, creating persistent speed imbalance.
    pacing: Vec<u32>,
}

impl ThreadedCycleRing {
    /// Creates a runner for `n` INC threads.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least two INCs");
        ThreadedCycleRing {
            n,
            min_transitions: 100,
            pacing: vec![0, 50, 10, 200, 5],
        }
    }

    /// Sets how many transitions every thread must complete before the
    /// run stops.
    #[must_use]
    pub fn min_transitions(mut self, t: u64) -> Self {
        self.min_transitions = t;
        self
    }

    /// Sets the per-thread busy-work pacing pattern.
    #[must_use]
    pub fn pacing(mut self, pacing: Vec<u32>) -> Self {
        assert!(!pacing.is_empty(), "pacing pattern must be non-empty");
        self.pacing = pacing;
        self
    }

    /// Runs the ring until every thread has completed the requested
    /// transitions; returns per-thread statistics.
    pub fn run(&self) -> CycleRunStats {
        let n = self.n;
        let flags: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        let transitions: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let max_skew = AtomicU64::new(0);
        let violated = AtomicBool::new(false);
        let stop = AtomicBool::new(false);

        thread::scope(|s| {
            for i in 0..n {
                let flags = &flags;
                let transitions = &transitions;
                let max_skew = &max_skew;
                let violated = &violated;
                let stop = &stop;
                let busy = self.pacing[i % self.pacing.len()];
                let goal = self.min_transitions;
                s.spawn(move || {
                    let mut ctl = CycleController::new(Phase::Even);
                    let left = (i + n - 1) % n;
                    let right = (i + 1) % n;
                    let mut spin = 0u32;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        // "Datapath work" for this phase: pure pacing.
                        if ctl.may_switch_datapath() && !ctl.internal_done() {
                            for _ in 0..busy {
                                spin = spin.wrapping_add(1);
                            }
                            ctl.set_internal_done(true);
                        }
                        let l = unpack(flags[left].load(Ordering::Acquire));
                        let r = unpack(flags[right].load(Ordering::Acquire));
                        let step = ctl.step(l, r);
                        flags[i].store(pack(ctl.flags()), Ordering::Release);
                        if step == CycleStep::CycleSwitched {
                            // Lemma 1, checked at the transition instant:
                            // our new count may lead a neighbour by at
                            // most one.
                            let mine = ctl.transitions();
                            transitions[i].store(mine, Ordering::SeqCst);
                            for nb in [left, right] {
                                let theirs = transitions[nb].load(Ordering::SeqCst);
                                let skew = mine.abs_diff(theirs);
                                max_skew.fetch_max(skew, Ordering::Relaxed);
                                if skew > 1 {
                                    violated.store(true, Ordering::SeqCst);
                                }
                            }
                        }
                        if ctl.transitions() >= goal {
                            // Signal completion; keep stepping so slower
                            // neighbours are not starved of our flags.
                            let all_done =
                                transitions.iter().all(|t| t.load(Ordering::SeqCst) >= goal);
                            if all_done {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        std::thread::yield_now();
                    }
                    std::hint::black_box(spin);
                });
            }
        });

        CycleRunStats {
            transitions: transitions
                .iter()
                .map(|t| t.load(Ordering::SeqCst))
                .collect(),
            lemma1_held: !violated.load(Ordering::SeqCst),
            max_observed_skew: max_skew.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma1_holds_under_preemption() {
        let stats = ThreadedCycleRing::new(6).min_transitions(300).run();
        assert!(stats.lemma1_held, "skew {}", stats.max_observed_skew);
        assert!(stats.transitions.iter().all(|&t| t >= 300));
        assert!(stats.max_observed_skew <= 1);
    }

    #[test]
    fn extreme_pacing_imbalance_still_bounded() {
        let stats = ThreadedCycleRing::new(4)
            .pacing(vec![0, 5_000, 0, 1])
            .min_transitions(150)
            .run();
        assert!(stats.lemma1_held);
        // The handshake forces the fast threads down to the slow one's
        // pace: all counts end within one of each other.
        let min = stats.transitions.iter().min().unwrap();
        let max = stats.transitions.iter().max().unwrap();
        assert!(max - min <= 1, "transitions: {:?}", stats.transitions);
    }

    #[test]
    fn two_node_ring_works() {
        // Each node is both left and right neighbour of the other.
        let stats = ThreadedCycleRing::new(2).min_transitions(100).run();
        assert!(stats.lemma1_held);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_inc() {
        let _ = ThreadedCycleRing::new(1);
    }
}
