//! The odd/even cycle controller (§2.5, Table 2, Fig. 9–10).
//!
//! INCs run off independent clocks; the timing of communications on the
//! virtual buses is entirely independent of those clocks. What *is*
//! coordinated is the alternation between odd and even compaction cycles:
//! an INC moves virtual buses only when it and both neighbours are ready,
//! and switches cycle only when it and both neighbours have finished their
//! moves. Two state flags per INC drive this:
//!
//! * `OD` — "own datapaths have switched" (this cycle's virtual-bus moves
//!   are complete),
//! * `OC` — "own cycle has changed" (odd→even or vice versa),
//!
//! read by the neighbours as `LD`/`RD` and `LC`/`RC`, plus the internal
//! signal `ID` raised by the compaction engine when all datapath switches
//! for the current cycle are done.
//!
//! The transition rules (Fig. 10, and the Lemma 1 proof):
//!
//! 1. at reset, `OD = OC = 0` for all INCs;
//! 2. `OD ← 1` if `ID = 1` and `LC = 0` and `RC = 0`;
//! 3. `OC ← 1` if `OD = 1` and `LD = 1` and `RD = 1`;
//! 4. `OD ← 0` if `OD = 1` and `LC = 1` and `RC = 1`;
//! 5. `OC ← 0` if `OC = 1` and `LD = 0` and `RD = 0`.
//!
//! (§2.5's prose prints rule 3 as `OC = 1 if OD = 1 and LC = 0 and RC = 0`,
//! but both Fig. 10 and the Lemma 1 proof — "a node changes state between
//! odd and even only when both of its neighbors are ready to change
//! (LD=RD=1)" — use the `LD/RD` form, which we follow.)

use crate::compaction::Phase;
use std::fmt;

/// The externally visible flags of one INC's cycle controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CycleFlags {
    /// `OD` — own datapaths switched.
    pub data: bool,
    /// `OC` — own cycle changed.
    pub cycle: bool,
}

impl fmt::Display for CycleFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OD={} OC={}", u8::from(self.data), u8::from(self.cycle))
    }
}

/// The four switching states of an INC (Fig. 9), derived from `(OD, OC)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchState {
    /// `OD=0, OC=0` — ready for / performing its own datapath switches,
    /// waiting for neighbours to be ready for a datapath switch.
    ReadyForDatapath,
    /// `OD=1, OC=0` — own datapath switched; waiting for neighbours to be
    /// ready for a cycle switch.
    DatapathSwitched,
    /// `OD=1, OC=1` — own cycle switched; waiting for neighbours' cycle
    /// switches to complete.
    CycleSwitched,
    /// `OD=0, OC=1` — preparing for the next datapath switch; waiting for
    /// neighbours to lower their data flags.
    PreparingNext,
}

impl SwitchState {
    /// Classifies a flag pair.
    pub const fn of(flags: CycleFlags) -> SwitchState {
        match (flags.data, flags.cycle) {
            (false, false) => SwitchState::ReadyForDatapath,
            (true, false) => SwitchState::DatapathSwitched,
            (true, true) => SwitchState::CycleSwitched,
            (false, true) => SwitchState::PreparingNext,
        }
    }
}

impl fmt::Display for SwitchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SwitchState::ReadyForDatapath => "ready-for-datapath",
            SwitchState::DatapathSwitched => "datapath-switched",
            SwitchState::CycleSwitched => "cycle-switched",
            SwitchState::PreparingNext => "preparing-next",
        };
        f.write_str(s)
    }
}

/// What a controller observed / did in one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleStep {
    /// No rule fired.
    Idle,
    /// Rule 2 fired: `OD` rose; the INC's moves for this cycle are locked
    /// in.
    DataSwitched,
    /// Rule 3 fired: `OC` rose and the local phase flipped.
    CycleSwitched,
    /// Rule 4 fired: `OD` fell.
    DataCleared,
    /// Rule 5 fired: `OC` fell; the controller is ready for the next
    /// cycle's datapath work.
    CycleCleared,
}

/// One INC's cycle controller.
///
/// Drive it by calling [`step`](Self::step) with a snapshot of both
/// neighbours' flags whenever the INC's local clock fires. The controller
/// itself never touches the datapath; the caller raises `ID` (via
/// [`set_internal_done`](Self::set_internal_done)) once it has performed
/// the virtual-bus moves for the current local phase.
///
/// # Examples
///
/// ```
/// use rmb_core::{CycleController, CycleFlags, Phase};
///
/// let mut c = CycleController::new(Phase::Even);
/// c.set_internal_done(true);
/// // Lone INC with idle neighbours: OD rises, then with both neighbours'
/// // data flags also up it would switch cycle.
/// c.step(CycleFlags::default(), CycleFlags::default());
/// assert!(c.flags().data);
/// ```
#[derive(Debug, Clone)]
pub struct CycleController {
    flags: CycleFlags,
    phase: Phase,
    internal_done: bool,
    transitions: u64,
}

impl CycleController {
    /// Creates a controller at reset (`OD = OC = 0`, rule 1) in the given
    /// initial phase.
    pub fn new(initial: Phase) -> Self {
        CycleController {
            flags: CycleFlags::default(),
            phase: initial,
            internal_done: false,
            transitions: 0,
        }
    }

    /// Current externally visible flags (what neighbours read).
    pub const fn flags(&self) -> CycleFlags {
        self.flags
    }

    /// Current local phase (which segments this INC assesses).
    pub const fn phase(&self) -> Phase {
        self.phase
    }

    /// Current Fig. 9 state.
    pub const fn state(&self) -> SwitchState {
        SwitchState::of(self.flags)
    }

    /// Number of completed cycle transitions (Lemma 1's measure).
    pub const fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Raises / lowers the internal `ID` signal: all datapath switches for
    /// the current cycle have completed.
    pub fn set_internal_done(&mut self, done: bool) {
        self.internal_done = done;
    }

    /// Whether the datapath work for the current phase has been flagged
    /// complete.
    pub const fn internal_done(&self) -> bool {
        self.internal_done
    }

    /// `true` while the controller is in the window where the INC may
    /// perform datapath switches for the current phase: `OD = OC = 0`.
    pub const fn may_switch_datapath(&self) -> bool {
        matches!(self.state(), SwitchState::ReadyForDatapath)
    }

    /// Applies at most one transition rule against a snapshot of the
    /// neighbours' flags, modelling one asynchronous hardware evaluation.
    ///
    /// `left` and `right` are the flags of the counter-clockwise and
    /// clockwise neighbours respectively (their `OD`/`OC` are this INC's
    /// `LD`/`LC` and `RD`/`RC`).
    pub fn step(&mut self, left: CycleFlags, right: CycleFlags) -> CycleStep {
        let (ld, lc) = (left.data, left.cycle);
        let (rd, rc) = (right.data, right.cycle);
        match self.state() {
            // Rule 2: OD <- 1 if ID and !LC and !RC.
            SwitchState::ReadyForDatapath => {
                if self.internal_done && !lc && !rc {
                    self.flags.data = true;
                    CycleStep::DataSwitched
                } else {
                    CycleStep::Idle
                }
            }
            // Rule 3: OC <- 1 if OD and LD and RD; the local phase flips.
            SwitchState::DatapathSwitched => {
                if ld && rd {
                    self.flags.cycle = true;
                    self.phase = self.phase.flipped();
                    self.transitions += 1;
                    CycleStep::CycleSwitched
                } else {
                    CycleStep::Idle
                }
            }
            // Rule 4: OD <- 0 if OD and LC and RC.
            SwitchState::CycleSwitched => {
                if lc && rc {
                    self.flags.data = false;
                    // The next cycle's datapath work has not happened yet.
                    self.internal_done = false;
                    CycleStep::DataCleared
                } else {
                    CycleStep::Idle
                }
            }
            // Rule 5: OC <- 0 if OC and !LD and !RD.
            SwitchState::PreparingNext => {
                if !ld && !rd {
                    self.flags.cycle = false;
                    CycleStep::CycleCleared
                } else {
                    CycleStep::Idle
                }
            }
        }
    }

    /// Table 2 of the paper: the mnemonics, kinds and interpretations of
    /// the states and signals used by odd/even cycle control. Used by the
    /// table-regeneration harness.
    pub fn table2() -> [(&'static str, &'static str, &'static str); 7] {
        [
            (
                "OD",
                "state",
                "Own Datapaths have switched (virtual bus switch)",
            ),
            ("LD", "state", "Left neighbour's Datapaths switched"),
            ("RD", "state", "Right neighbour's Datapaths switched"),
            (
                "OC",
                "state",
                "Own Cycle has changed (odd to even or vice versa)",
            ),
            ("LC", "state", "Left neighbour's Cycle has changed"),
            ("RC", "state", "Right neighbour's Cycle has changed"),
            (
                "ID",
                "signal",
                "Internal signal to INC indicating all Datapath switches \
                 (virtual bus movements) have been completed",
            ),
        ]
    }
}

/// A ring of cycle controllers with per-INC activation, used to validate
/// Lemma 1 under arbitrary (fair) interleavings and to drive the
/// handshake-mode compactor.
///
/// # Examples
///
/// ```
/// use rmb_core::CycleRing;
///
/// let mut ring = CycleRing::new(6);
/// // Activate INCs round-robin with ID always asserted; phases advance.
/// for round in 0..100 {
///     for i in 0..6 {
///         ring.set_internal_done(i, true);
///         ring.activate(i);
///     }
/// }
/// assert!(ring.min_transitions() > 0);
/// assert!(ring.max_neighbour_skew() <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct CycleRing {
    controllers: Vec<CycleController>,
}

impl CycleRing {
    /// Creates `n` controllers, all reset into the even phase.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`; the handshake needs at least two INCs.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "cycle ring needs at least two INCs");
        CycleRing {
            controllers: (0..n).map(|_| CycleController::new(Phase::Even)).collect(),
        }
    }

    /// Number of INCs.
    pub fn len(&self) -> usize {
        self.controllers.len()
    }

    /// `false`; a ring always has at least two controllers.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable access to controller `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn controller(&self, i: usize) -> &CycleController {
        &self.controllers[i]
    }

    /// Raises/lowers the `ID` signal of controller `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_internal_done(&mut self, i: usize, done: bool) {
        self.controllers[i].set_internal_done(done);
    }

    /// Activates controller `i` once (its local clock fired): it reads its
    /// neighbours' current flags and applies at most one rule.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn activate(&mut self, i: usize) -> CycleStep {
        let n = self.controllers.len();
        let left = self.controllers[(i + n - 1) % n].flags();
        let right = self.controllers[(i + 1) % n].flags();
        self.controllers[i].step(left, right)
    }

    /// Smallest transition count across the ring.
    pub fn min_transitions(&self) -> u64 {
        self.controllers
            .iter()
            .map(|c| c.transitions())
            .min()
            .unwrap_or(0)
    }

    /// Largest difference in completed transitions between any pair of
    /// neighbouring INCs — Lemma 1 asserts this never exceeds one.
    pub fn max_neighbour_skew(&self) -> u64 {
        let n = self.controllers.len();
        (0..n)
            .map(|i| {
                let a = self.controllers[i].transitions();
                let b = self.controllers[(i + 1) % n].transitions();
                a.abs_diff(b)
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_is_rule_one() {
        let c = CycleController::new(Phase::Even);
        assert_eq!(c.flags(), CycleFlags::default());
        assert_eq!(c.state(), SwitchState::ReadyForDatapath);
        assert_eq!(c.transitions(), 0);
        assert!(c.may_switch_datapath());
    }

    #[test]
    fn od_requires_id_and_quiet_neighbour_cycles() {
        let mut c = CycleController::new(Phase::Even);
        // Without ID nothing happens.
        assert_eq!(
            c.step(CycleFlags::default(), CycleFlags::default()),
            CycleStep::Idle
        );
        c.set_internal_done(true);
        // With a neighbour mid cycle-change, rule 2 is blocked.
        let busy = CycleFlags {
            data: false,
            cycle: true,
        };
        assert_eq!(c.step(busy, CycleFlags::default()), CycleStep::Idle);
        assert_eq!(c.step(CycleFlags::default(), busy), CycleStep::Idle);
        // Quiet neighbours: OD rises.
        assert_eq!(
            c.step(CycleFlags::default(), CycleFlags::default()),
            CycleStep::DataSwitched
        );
        assert_eq!(c.state(), SwitchState::DatapathSwitched);
    }

    #[test]
    fn oc_requires_both_neighbour_datapaths() {
        let mut c = CycleController::new(Phase::Even);
        c.set_internal_done(true);
        c.step(CycleFlags::default(), CycleFlags::default());
        let up = CycleFlags {
            data: true,
            cycle: false,
        };
        assert_eq!(c.step(up, CycleFlags::default()), CycleStep::Idle);
        assert_eq!(c.step(CycleFlags::default(), up), CycleStep::Idle);
        assert_eq!(c.step(up, up), CycleStep::CycleSwitched);
        assert_eq!(c.phase(), Phase::Odd);
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn full_four_state_walk() {
        let mut c = CycleController::new(Phase::Even);
        c.set_internal_done(true);
        let dq = CycleFlags::default(); // data quiet, cycle quiet
        let du = CycleFlags {
            data: true,
            cycle: false,
        };
        let cu = CycleFlags {
            data: true,
            cycle: true,
        };
        let dn = CycleFlags {
            data: false,
            cycle: true,
        };
        assert_eq!(c.step(dq, dq), CycleStep::DataSwitched);
        assert_eq!(c.step(du, du), CycleStep::CycleSwitched);
        assert_eq!(c.state(), SwitchState::CycleSwitched);
        assert_eq!(c.step(cu, cu), CycleStep::DataCleared);
        assert_eq!(c.state(), SwitchState::PreparingNext);
        // ID was auto-lowered when OD fell.
        assert!(!c.internal_done());
        // dn has data=false on both sides, so rule 5 fires.
        assert_eq!(c.step(dn, dn), CycleStep::CycleCleared);
        assert_eq!(c.state(), SwitchState::ReadyForDatapath);
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn ring_lockstep_progresses_and_alternates() {
        let mut ring = CycleRing::new(4);
        for _ in 0..200 {
            for i in 0..4 {
                ring.set_internal_done(i, true);
                ring.activate(i);
            }
        }
        assert!(ring.min_transitions() >= 10);
        assert!(ring.max_neighbour_skew() <= 1);
        // All controllers alternate phases; with symmetric activation they
        // stay within one transition of each other.
        let phases: Vec<Phase> = (0..4).map(|i| ring.controller(i).phase()).collect();
        for w in phases.windows(2) {
            // Neighbouring phases differ by at most one transition, so
            // they are equal or opposite; both are fine.
            let _ = w;
        }
    }

    #[test]
    fn lemma1_skew_bound_under_skewed_activation() {
        // Activate node 0 ten times as often as the others: Lemma 1 must
        // still hold.
        let mut ring = CycleRing::new(5);
        for round in 0..2000 {
            for i in 0..5 {
                ring.set_internal_done(i, true);
                if i == 0 || round % 10 == i {
                    ring.activate(i);
                }
            }
        }
        assert!(ring.max_neighbour_skew() <= 1);
    }

    #[test]
    fn no_progress_without_internal_done() {
        // An INC whose compaction engine never reports completion stalls
        // the whole ring at most one transition ahead (Lemma 1).
        let mut ring = CycleRing::new(4);
        for _ in 0..500 {
            for i in 0..4 {
                ring.set_internal_done(i, i != 2);
                ring.activate(i);
            }
        }
        assert_eq!(ring.controller(2).transitions(), 0);
        assert!(ring.max_neighbour_skew() <= 1);
        // Its neighbours can be at most 1 transition ahead.
        assert!(ring.controller(1).transitions() <= 1);
        assert!(ring.controller(3).transitions() <= 1);
    }

    #[test]
    fn table2_lists_six_states_and_one_signal() {
        let rows = CycleController::table2();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows.iter().filter(|(_, k, _)| *k == "state").count(), 6);
        assert_eq!(rows.iter().filter(|(_, k, _)| *k == "signal").count(), 1);
        assert_eq!(rows[6].0, "ID");
    }

    #[test]
    fn switch_state_display() {
        assert_eq!(
            SwitchState::ReadyForDatapath.to_string(),
            "ready-for-datapath"
        );
        assert_eq!(
            CycleFlags {
                data: true,
                cycle: false
            }
            .to_string(),
            "OD=1 OC=0"
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn ring_of_one_panics() {
        let _ = CycleRing::new(1);
    }
}
