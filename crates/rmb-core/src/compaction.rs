//! The compaction protocol: switchability, the four legal transitions
//! (Fig. 7), the make-before-break sequence (Fig. 4), and the odd/even
//! assessment rule (Fig. 8).
//!
//! Compaction moves one *hop* of a virtual bus — the stretch it occupies on
//! one physical segment between a pair of adjacent INCs — from bus `l` down
//! to bus `l - 1`. The paper's constraint is that each INC can only switch
//! an input port `l` to output ports `{l-1, l, l+1}`, so a hop may move
//! down only if **both** of its neighbouring hops sit at a height the new
//! position can still reach (§2.4). There are exactly four such scenarios
//! (Fig. 7), enumerated by [`MoveCondition`].

use crate::status::{PortStatus, SourceDir};
use rmb_types::{BusIndex, NodeId};
use std::fmt;

/// The height of the connection on one side of a hop, as seen by the
/// switchability rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointHeight {
    /// The hop attaches to a PE through the node interface, which can read
    /// from / write to *any* bus port (§2.1) — no height constraint.
    Pe,
    /// The hop ends at a parked (blocked) header flit latched in the next
    /// INC. When that INC's top output frees, it re-drives the HF onto the
    /// top bus — INCs monitor only the top segment for header flits
    /// (§2.2) — so this hop must stay within switching reach of the top:
    /// it may sink exactly one level, to `top - 1`, and no further.
    ParkedHead,
    /// The adjacent hop of the same virtual bus sits at this height.
    At(BusIndex),
}

impl EndpointHeight {
    /// Whether this endpoint permits the hop to move from `from` down to
    /// `from - 1`, on a bus array whose top segment is `top`.
    ///
    /// * `Pe` always permits (the PE interface reaches every port).
    /// * `ParkedHead` permits only the single move `top → top - 1`, which
    ///   keeps the future top-bus extension within the INC's `±1`
    ///   switching range.
    /// * `At(h)` permits when `h ∈ {from - 1, from}`: after the move, the
    ///   INC between the two hops must connect heights differing by at most
    ///   one, and before the move they already differ by at most one, which
    ///   leaves exactly these two cases — this is where Fig. 7's "four
    ///   conditions" come from (two choices on each side).
    pub fn permits_move_down(self, from: BusIndex, top: BusIndex) -> bool {
        match self {
            EndpointHeight::Pe => true,
            EndpointHeight::ParkedHead => from == top,
            EndpointHeight::At(h) => h == from || (from.lower() == Some(h)),
        }
    }
}

impl fmt::Display for EndpointHeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointHeight::Pe => f.write_str("PE"),
            EndpointHeight::ParkedHead => f.write_str("head"),
            EndpointHeight::At(h) => write!(f, "{h}"),
        }
    }
}

/// One of the four legal transition scenarios of Fig. 7 for moving a hop
/// from bus `l` to `l - 1`, classified by where the neighbouring hops sit.
///
/// `Straight` means the neighbour is at `l` (the connection through the
/// shared INC is currently straight); `Down` means the neighbour is already
/// at `l - 1`. PE endpoints behave like `Straight` for naming purposes: the
/// interface simply re-attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveCondition {
    /// Upstream at `l`, downstream at `l` — both sides straight.
    StraightStraight,
    /// Upstream at `l`, downstream already at `l - 1`.
    StraightDown,
    /// Upstream already at `l - 1`, downstream at `l`.
    DownStraight,
    /// Both neighbours already at `l - 1`.
    DownDown,
}

impl MoveCondition {
    /// All four conditions, in Fig. 7 order.
    pub const ALL: [MoveCondition; 4] = [
        MoveCondition::StraightStraight,
        MoveCondition::StraightDown,
        MoveCondition::DownStraight,
        MoveCondition::DownDown,
    ];

    /// Condition number as used when citing Fig. 7 (1-based).
    pub const fn number(self) -> u8 {
        match self {
            MoveCondition::StraightStraight => 1,
            MoveCondition::StraightDown => 2,
            MoveCondition::DownStraight => 3,
            MoveCondition::DownDown => 4,
        }
    }
}

impl fmt::Display for MoveCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MoveCondition::StraightStraight => "straight/straight",
            MoveCondition::StraightDown => "straight/down",
            MoveCondition::DownStraight => "down/straight",
            MoveCondition::DownDown => "down/down",
        };
        f.write_str(s)
    }
}

/// The full context needed to decide whether one hop may move down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopContext {
    /// Current height of the hop.
    pub height: BusIndex,
    /// The top bus segment of the array (`k - 1`).
    pub top: BusIndex,
    /// Connection height on the upstream (counter-clockwise) side.
    pub upstream: EndpointHeight,
    /// Connection height on the downstream (clockwise) side.
    pub downstream: EndpointHeight,
    /// Whether the segment directly below the hop is free on this hop's
    /// stretch of the bus array.
    pub below_free: bool,
}

impl HopContext {
    /// Decides whether the hop is *switchable down* (§2.4), and if so under
    /// which of the four Fig. 7 conditions.
    ///
    /// Returns `None` when the hop is at the bottom bus, the segment below
    /// is occupied, or either neighbour is out of reach of the new height.
    ///
    /// The decision is table-driven: each endpoint reduces to one of three
    /// codes (stays straight / already down / forbids the move), and the
    /// 3×3 code product indexes a constant move table — no per-endpoint
    /// branching in the hot assessment loop.
    pub fn switchable_down(&self) -> Option<MoveCondition> {
        self.height.lower()?;
        if !self.below_free {
            return None;
        }
        let u = endpoint_code(self.upstream, self.height, self.top);
        let d = endpoint_code(self.downstream, self.height, self.top);
        MOVE_TABLE[u * 3 + d]
    }
}

/// Collapses an endpoint's relation to a hop moving down from `from` into
/// a table index: `0` = the endpoint permits the move and stays straight
/// (at `from`, or a PE interface that simply re-attaches), `1` = the
/// endpoint already sits at `from - 1` (the "down" cases of Fig. 7),
/// `2` = the endpoint forbids the move.
#[inline]
fn endpoint_code(e: EndpointHeight, from: BusIndex, top: BusIndex) -> usize {
    match e {
        EndpointHeight::Pe => 0,
        EndpointHeight::ParkedHead => {
            if from == top {
                0
            } else {
                2
            }
        }
        EndpointHeight::At(h) => {
            if h == from {
                0
            } else if from.lower() == Some(h) {
                1
            } else {
                2
            }
        }
    }
}

/// Fig. 7's four legal transitions as a 3×3 lookup over
/// `(upstream code, downstream code)`; any pairing that involves a
/// forbidding endpoint (code 2) maps to `None`.
const MOVE_TABLE: [Option<MoveCondition>; 9] = [
    Some(MoveCondition::StraightStraight), // (straight, straight)
    Some(MoveCondition::StraightDown),     // (straight, down)
    None,                                  // (straight, forbid)
    Some(MoveCondition::DownStraight),     // (down, straight)
    Some(MoveCondition::DownDown),         // (down, down)
    None,                                  // (down, forbid)
    None,                                  // (forbid, _)
    None,
    None,
];

/// The odd/even assessment rule (Fig. 8, §2.4): INC `node` considers moving
/// the transaction on bus segment `bus` during `phase` iff node parity,
/// segment parity and cycle parity line up.
///
/// * An even INC considers **even** segments in **even** cycles and odd
///   segments in odd cycles.
/// * An odd INC considers **even** segments in **odd** cycles and odd
///   segments in even cycles.
///
/// Equivalently: `(node + bus + phase) ≡ 0 (mod 2)`.
///
/// # Examples
///
/// ```
/// use rmb_core::{assessed_in_phase, Phase};
/// use rmb_types::{BusIndex, NodeId};
///
/// // Even INC, even segment, even cycle: assessed.
/// assert!(assessed_in_phase(NodeId::new(0), BusIndex::new(2), Phase::Even));
/// // Even INC, even segment, odd cycle: not assessed.
/// assert!(!assessed_in_phase(NodeId::new(0), BusIndex::new(2), Phase::Odd));
/// ```
pub fn assessed_in_phase(node: NodeId, bus: BusIndex, phase: Phase) -> bool {
    (node.index() as u64 + bus.index() as u64 + phase.as_bit()).is_multiple_of(2)
}

/// The two-phase local synchronisation cycle (§2.4): odd and even.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// The even cycle.
    #[default]
    Even,
    /// The odd cycle.
    Odd,
}

impl Phase {
    /// 0 for even, 1 for odd.
    pub const fn as_bit(self) -> u64 {
        match self {
            Phase::Even => 0,
            Phase::Odd => 1,
        }
    }

    /// The other phase.
    #[must_use]
    pub const fn flipped(self) -> Phase {
        match self {
            Phase::Even => Phase::Odd,
            Phase::Odd => Phase::Even,
        }
    }

    /// Phase of global tick `t` in the synchronous compactor (even ticks
    /// run even cycles).
    pub const fn of_tick(t: u64) -> Phase {
        if t.is_multiple_of(2) {
            Phase::Even
        } else {
            Phase::Odd
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Even => f.write_str("even"),
            Phase::Odd => f.write_str("odd"),
        }
    }
}

/// One stage of the make-before-break sequence at one INC (Fig. 4), as a
/// pair of output-port register codes: the code of the *old* output port
/// (height `l`) and of the *new* output port (height `l - 1`).
///
/// The three stages are: existing connection, make the parallel connection,
/// break the original connection. The intermediate codes are exactly the
/// ones Fig. 7 prints between the before/after states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbbStage {
    /// Human label for the stage ("existing", "make", "break").
    pub label: &'static str,
    /// Status register of the output port the hop is moving *from*.
    pub old_port: PortStatus,
    /// Status register of the output port the hop is moving *to*.
    pub new_port: PortStatus,
}

/// Computes the three make-before-break stages for the *upstream* INC of a
/// moving hop: the INC whose output ports drive the hop's segment.
///
/// `incoming` is the direction the INC's old output port (`l`) currently
/// receives from; it is also what the new output port (`l - 1`) will
/// receive from, expressed relative to *its* index — so the direction
/// shifts by one (what was "straight" into port `l` is "above" into port
/// `l - 1`).
///
/// Returns `None` if the incoming connection would be out of switching
/// range for the new port (i.e. `incoming == Below`, which would need the
/// new port to reach two ports down).
pub fn mbb_stages_upstream(incoming: SourceDir) -> Option<[MbbStage; 3]> {
    // Direction into the new port, one index lower: offset shifts by +1.
    let into_new = SourceDir::from_offset(incoming.offset() + 1)?;
    let old = PortStatus::UNUSED.with(incoming);
    let new = PortStatus::UNUSED.with(into_new);
    Some([
        MbbStage {
            label: "existing",
            old_port: old,
            new_port: PortStatus::UNUSED,
        },
        MbbStage {
            label: "make",
            old_port: old,
            new_port: new,
        },
        MbbStage {
            label: "break",
            old_port: PortStatus::UNUSED,
            new_port: new,
        },
    ])
}

/// Computes the three make-before-break stages for the *downstream* INC of
/// a moving hop: the INC whose output port consumes the hop's segment.
///
/// The hop arrives on input `l` before the move and input `l - 1` after;
/// the consuming output port (at `out_height` relative to `l`: `Straight`
/// for `l`, `Below` for `l - 1`) first receives from both, then drops the
/// old input. This is the `100 → 110 → 010` sequence printed in Fig. 7.
///
/// Returns `None` for `out_height == Above`: an output at `l + 1` cannot
/// reach the new input at `l - 1`, which is exactly why such hops are not
/// switchable down.
pub fn mbb_stages_downstream(out_height: SourceDir) -> Option<[MbbStage; 3]> {
    // Direction of old input `l` into the output port.
    let old_in = SourceDir::from_offset(-out_height.offset())?;
    // Direction of new input `l - 1` into the output port.
    let new_in = SourceDir::from_offset(-out_height.offset() - 1)?;
    let before = PortStatus::UNUSED.with(old_in);
    let during = before.with(new_in);
    let after = PortStatus::UNUSED.with(new_in);
    Some([
        MbbStage {
            label: "existing",
            old_port: before,
            new_port: before,
        },
        MbbStage {
            label: "make",
            old_port: during,
            new_port: during,
        },
        MbbStage {
            label: "break",
            old_port: after,
            new_port: after,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(height: u16, up: EndpointHeight, down: EndpointHeight, below_free: bool) -> HopContext {
        HopContext {
            height: BusIndex::new(height),
            top: BusIndex::new(7),
            upstream: up,
            downstream: down,
            below_free,
        }
    }

    #[test]
    fn bottom_bus_never_switchable() {
        let c = ctx(0, EndpointHeight::Pe, EndpointHeight::Pe, true);
        assert_eq!(c.switchable_down(), None);
    }

    #[test]
    fn occupied_segment_below_blocks() {
        let c = ctx(3, EndpointHeight::Pe, EndpointHeight::Pe, false);
        assert_eq!(c.switchable_down(), None);
    }

    #[test]
    fn parked_head_allows_exactly_one_sink_from_top() {
        // At the top (7, given ctx() uses top = 7), the hop feeding a
        // parked head may sink once ...
        let c = ctx(7, EndpointHeight::Pe, EndpointHeight::ParkedHead, true);
        assert!(c.switchable_down().is_some());
        // ... but from top-1 it may not sink further: the latched HF must
        // stay within switching reach of the top output.
        let c = ctx(6, EndpointHeight::Pe, EndpointHeight::ParkedHead, true);
        assert_eq!(c.switchable_down(), None);
        let c = ctx(
            3,
            EndpointHeight::At(BusIndex::new(3)),
            EndpointHeight::ParkedHead,
            true,
        );
        assert_eq!(c.switchable_down(), None);
    }

    #[test]
    fn exactly_four_conditions_exist() {
        // Enumerate every neighbour height within switching range of a hop
        // at l = 4 and check that precisely the four Fig. 7 combinations
        // are movable.
        let l = 4u16;
        let mut conditions = Vec::new();
        for up in [l - 1, l, l + 1] {
            for down in [l - 1, l, l + 1] {
                let c = ctx(
                    l,
                    EndpointHeight::At(BusIndex::new(up)),
                    EndpointHeight::At(BusIndex::new(down)),
                    true,
                );
                if let Some(cond) = c.switchable_down() {
                    conditions.push(((up, down), cond));
                }
            }
        }
        assert_eq!(conditions.len(), 4, "Fig. 7 names exactly four conditions");
        assert_eq!(
            conditions,
            vec![
                ((l - 1, l - 1), MoveCondition::DownDown),
                ((l - 1, l), MoveCondition::DownStraight),
                ((l, l - 1), MoveCondition::StraightDown),
                ((l, l), MoveCondition::StraightStraight),
            ]
        );
    }

    #[test]
    fn pe_endpoints_act_as_wildcards() {
        let c = ctx(
            2,
            EndpointHeight::Pe,
            EndpointHeight::At(BusIndex::new(2)),
            true,
        );
        assert_eq!(c.switchable_down(), Some(MoveCondition::StraightStraight));
        let c = ctx(
            2,
            EndpointHeight::At(BusIndex::new(1)),
            EndpointHeight::Pe,
            true,
        );
        assert_eq!(c.switchable_down(), Some(MoveCondition::DownStraight));
    }

    #[test]
    fn neighbour_above_blocks_move() {
        let c = ctx(
            2,
            EndpointHeight::At(BusIndex::new(3)),
            EndpointHeight::At(BusIndex::new(2)),
            true,
        );
        assert_eq!(c.switchable_down(), None);
        let c = ctx(
            2,
            EndpointHeight::At(BusIndex::new(2)),
            EndpointHeight::At(BusIndex::new(3)),
            true,
        );
        assert_eq!(c.switchable_down(), None);
    }

    #[test]
    fn condition_numbers_are_stable() {
        let nums: Vec<u8> = MoveCondition::ALL.iter().map(|c| c.number()).collect();
        assert_eq!(nums, vec![1, 2, 3, 4]);
    }

    /// The lookup table must encode exactly the predicate-based rule it
    /// replaced: permit iff both endpoints permit, with the condition
    /// named by which endpoints already sit at `from - 1`.
    #[test]
    fn move_table_matches_the_predicate_rule() {
        let top = BusIndex::new(7);
        let mut endpoints = vec![EndpointHeight::Pe, EndpointHeight::ParkedHead];
        for h in 0..8 {
            endpoints.push(EndpointHeight::At(BusIndex::new(h)));
        }
        for from_h in 0..8u16 {
            let from = BusIndex::new(from_h);
            for &up in &endpoints {
                for &down in &endpoints {
                    let c = HopContext {
                        height: from,
                        top,
                        upstream: up,
                        downstream: down,
                        below_free: true,
                    };
                    let expected = if from.lower().is_none()
                        || !up.permits_move_down(from, top)
                        || !down.permits_move_down(from, top)
                    {
                        None
                    } else {
                        let target = from.lower().unwrap();
                        let u = matches!(up, EndpointHeight::At(h) if h == target);
                        let d = matches!(down, EndpointHeight::At(h) if h == target);
                        Some(match (u, d) {
                            (false, false) => MoveCondition::StraightStraight,
                            (false, true) => MoveCondition::StraightDown,
                            (true, false) => MoveCondition::DownStraight,
                            (true, true) => MoveCondition::DownDown,
                        })
                    };
                    assert_eq!(
                        c.switchable_down(),
                        expected,
                        "from {from}, up {up}, down {down}"
                    );
                }
            }
        }
    }

    #[test]
    fn assessment_rule_matches_paper_text() {
        // Even INC i considers even segment l in even cycles (§2.4).
        assert!(assessed_in_phase(
            NodeId::new(2),
            BusIndex::new(4),
            Phase::Even
        ));
        // ... and odd segments in odd cycles.
        assert!(assessed_in_phase(
            NodeId::new(2),
            BusIndex::new(3),
            Phase::Odd
        ));
        // Odd INC considers even segments in odd cycles ...
        assert!(assessed_in_phase(
            NodeId::new(3),
            BusIndex::new(4),
            Phase::Odd
        ));
        // ... and odd segments in even cycles.
        assert!(assessed_in_phase(
            NodeId::new(3),
            BusIndex::new(3),
            Phase::Even
        ));
        // Complements are not assessed.
        assert!(!assessed_in_phase(
            NodeId::new(2),
            BusIndex::new(4),
            Phase::Odd
        ));
        assert!(!assessed_in_phase(
            NodeId::new(3),
            BusIndex::new(4),
            Phase::Even
        ));
    }

    #[test]
    fn adjacent_same_height_hops_assessed_in_different_phases() {
        // The race the paper circumvents: both hops of a bus at the same
        // height at adjacent INCs must not move in the same cycle.
        for i in 0..10u32 {
            for l in 0..8u16 {
                let a = assessed_in_phase(NodeId::new(i), BusIndex::new(l), Phase::Even);
                let b = assessed_in_phase(NodeId::new(i + 1), BusIndex::new(l), Phase::Even);
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn phase_alternation() {
        assert_eq!(Phase::of_tick(0), Phase::Even);
        assert_eq!(Phase::of_tick(1), Phase::Odd);
        assert_eq!(Phase::Even.flipped(), Phase::Odd);
        assert_eq!(Phase::Odd.flipped(), Phase::Even);
        assert_eq!(Phase::Even.to_string(), "even");
    }

    #[test]
    fn mbb_upstream_straight_reproduces_fig7_codes() {
        // Old port receives straight (010); new port one lower receives the
        // same input, now "from above" (100): the 000 -> 100 -> 100 column
        // of Fig. 7, while the old port goes 010 -> 010 -> 000.
        let stages = mbb_stages_upstream(SourceDir::Straight).unwrap();
        assert_eq!(stages[0].old_port.bits(), 0b010);
        assert_eq!(stages[0].new_port.bits(), 0b000);
        assert_eq!(stages[1].old_port.bits(), 0b010);
        assert_eq!(stages[1].new_port.bits(), 0b100);
        assert_eq!(stages[2].old_port.bits(), 0b000);
        assert_eq!(stages[2].new_port.bits(), 0b100);
    }

    #[test]
    fn mbb_upstream_from_below_reproduces_fig7_codes() {
        // Upstream neighbour already at l-1: old port l receives from below
        // (001); new port l-1 receives straight (010): Fig. 7's
        // "000 -> 010 -> 010" with "001 -> 001 -> 000".
        let stages = mbb_stages_upstream(SourceDir::Below).unwrap();
        assert_eq!(stages[0].old_port.bits(), 0b001);
        assert_eq!(stages[1].new_port.bits(), 0b010);
        assert_eq!(stages[2].old_port.bits(), 0b000);
        assert_eq!(stages[2].new_port.bits(), 0b010);
    }

    #[test]
    fn mbb_upstream_from_above_is_impossible() {
        // An input at l+1 cannot reach output l-1.
        assert!(mbb_stages_upstream(SourceDir::Above).is_none());
    }

    #[test]
    fn mbb_downstream_straight_out_reproduces_fig7_codes() {
        // Downstream INC keeps its output at l: it goes
        // 010 (straight from input l) -> 011 (add input l-1, "below")
        // -> 001 (only below).
        let stages = mbb_stages_downstream(SourceDir::Straight).unwrap();
        assert_eq!(stages[0].old_port.bits(), 0b010);
        assert_eq!(stages[1].old_port.bits(), 0b011);
        assert_eq!(stages[2].old_port.bits(), 0b001);
        for s in &stages {
            assert!(s.old_port.is_allowed());
        }
    }

    #[test]
    fn mbb_downstream_down_out_reproduces_fig7_codes() {
        // Downstream INC's output already at l-1: 100 -> 110 -> 010, the
        // exact sequence printed twice in Fig. 7.
        let stages = mbb_stages_downstream(SourceDir::Below).unwrap();
        assert_eq!(stages[0].old_port.bits(), 0b100);
        assert_eq!(stages[1].old_port.bits(), 0b110);
        assert_eq!(stages[2].old_port.bits(), 0b010);
    }

    #[test]
    fn mbb_downstream_above_out_is_impossible() {
        assert!(mbb_stages_downstream(SourceDir::Above).is_none());
    }

    #[test]
    fn all_mbb_intermediate_states_are_allowed_codes() {
        for dir in [SourceDir::Below, SourceDir::Straight] {
            for s in mbb_stages_upstream(dir).unwrap() {
                assert!(s.old_port.is_allowed());
                assert!(s.new_port.is_allowed());
            }
            for s in mbb_stages_downstream(dir).unwrap() {
                assert!(s.old_port.is_allowed());
                assert!(s.new_port.is_allowed());
            }
        }
    }
}
