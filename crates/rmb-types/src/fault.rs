//! Deterministic fault schedules for the reconfigurable network.
//!
//! The paper's central claim (§2.4) is that the RMB stays live because
//! virtual buses migrate via make-before-break compaction. Exercising the
//! "reconfigurable" half of the title requires breaking things: this module
//! defines a [`FaultPlan`] — a deterministic, pre-computed schedule of
//! segment, link and INC failures (with optional repair times) that a
//! simulator replays tick by tick. Keeping the schedule as plain data (built
//! up front, typically from a seeded RNG) preserves the property that a
//! simulation run is a pure function of its inputs.
//!
//! # Examples
//!
//! ```
//! use rmb_types::{BusIndex, FaultKind, FaultPlan, NodeId};
//!
//! let plan = FaultPlan::new()
//!     .segment_stuck(100, NodeId::new(3), BusIndex::new(1), Some(400))
//!     .link_cut(250, NodeId::new(5), None)
//!     .inc_dead(300, NodeId::new(7), Some(900));
//! assert_eq!(plan.events().len(), 3);
//! assert!(plan.validate(16, 4).is_ok());
//! ```

use crate::ids::{BusIndex, NodeId};
use std::error::Error;
use std::fmt;

/// What breaks.
///
/// A *segment* is one of the `k` parallel bus segments between adjacent
/// INCs; `hop` names the upstream node of the segment (the INC that drives
/// it), matching the segment-table convention used by the simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One bus segment sticks: no header may extend over it and no virtual
    /// bus may migrate onto it until repair.
    SegmentStuck {
        /// Upstream node of the faulted segment.
        hop: NodeId,
        /// Which of the `k` parallel segments at that hop.
        bus: BusIndex,
    },
    /// The whole link between `hop` and its successor is cut: all `k`
    /// segments at that hop fault together.
    LinkCut {
        /// Upstream node of the cut link.
        hop: NodeId,
    },
    /// The INC at `node` dies: it can neither inject, accept, nor drive its
    /// outgoing segments, so every segment at `hop = node` faults and every
    /// circuit terminating at the node is torn down.
    IncDead {
        /// The node whose INC fails.
        node: NodeId,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SegmentStuck { hop, bus } => write!(f, "segment-stuck {hop} {bus}"),
            FaultKind::LinkCut { hop } => write!(f, "link-cut {hop}"),
            FaultKind::IncDead { node } => write!(f, "inc-dead {node}"),
        }
    }
}

/// One scheduled failure, with an optional repair time.
///
/// `repair_at == None` means the fault is permanent for the rest of the
/// run. When present, `repair_at` must be strictly after `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Tick at which the fault activates.
    pub at: u64,
    /// What fails.
    pub kind: FaultKind,
    /// Tick at which the fault heals, or `None` for a permanent fault.
    pub repair_at: Option<u64>,
}

/// A deterministic schedule of fault events.
///
/// Events are kept sorted by activation tick (ties preserve insertion
/// order), so replaying the plan is independent of construction order.
/// Overlapping faults on the same resource are legal: a resource is faulty
/// while *any* covering fault is active.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan (no faults — the happy path).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an event, keeping the schedule sorted by activation tick.
    pub fn push(&mut self, event: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
    }

    /// Adds an event, builder style.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }

    /// Schedules a single stuck segment.
    #[must_use]
    pub fn segment_stuck(
        self,
        at: u64,
        hop: NodeId,
        bus: BusIndex,
        repair_at: Option<u64>,
    ) -> Self {
        self.with(FaultEvent {
            at,
            kind: FaultKind::SegmentStuck { hop, bus },
            repair_at,
        })
    }

    /// Schedules a cut of the whole link at `hop`.
    #[must_use]
    pub fn link_cut(self, at: u64, hop: NodeId, repair_at: Option<u64>) -> Self {
        self.with(FaultEvent {
            at,
            kind: FaultKind::LinkCut { hop },
            repair_at,
        })
    }

    /// Schedules the death of the INC at `node`.
    #[must_use]
    pub fn inc_dead(self, at: u64, node: NodeId, repair_at: Option<u64>) -> Self {
        self.with(FaultEvent {
            at,
            kind: FaultKind::IncDead { node },
            repair_at,
        })
    }

    /// The scheduled events, sorted by activation tick.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event against ring dimensions: node and hop indices
    /// must lie in `0..n`, bus indices in `0..k`, and repairs must come
    /// strictly after activation.
    pub fn validate(&self, n: u32, k: u16) -> Result<(), FaultPlanError> {
        for (i, event) in self.events.iter().enumerate() {
            if let Some(repair) = event.repair_at {
                if repair <= event.at {
                    return Err(FaultPlanError::RepairNotAfterFault { index: i });
                }
            }
            match event.kind {
                FaultKind::SegmentStuck { hop, bus } => {
                    if hop.index() >= n {
                        return Err(FaultPlanError::NodeOutOfRange {
                            index: i,
                            node: hop,
                        });
                    }
                    if bus.index() >= k {
                        return Err(FaultPlanError::BusOutOfRange { index: i, bus });
                    }
                }
                FaultKind::LinkCut { hop } => {
                    if hop.index() >= n {
                        return Err(FaultPlanError::NodeOutOfRange {
                            index: i,
                            node: hop,
                        });
                    }
                }
                FaultKind::IncDead { node } => {
                    if node.index() >= n {
                        return Err(FaultPlanError::NodeOutOfRange { index: i, node });
                    }
                }
            }
        }
        Ok(())
    }
}

/// A fault plan that does not fit the ring it was given to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// An event names a node outside `0..n`.
    NodeOutOfRange {
        /// Position of the offending event in the sorted schedule.
        index: usize,
        /// The out-of-range node.
        node: NodeId,
    },
    /// An event names a bus outside `0..k`.
    BusOutOfRange {
        /// Position of the offending event in the sorted schedule.
        index: usize,
        /// The out-of-range bus.
        bus: BusIndex,
    },
    /// An event's repair tick is not strictly after its activation tick.
    RepairNotAfterFault {
        /// Position of the offending event in the sorted schedule.
        index: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NodeOutOfRange { index, node } => {
                write!(
                    f,
                    "fault event {index} names {node}, which is outside the ring"
                )
            }
            FaultPlanError::BusOutOfRange { index, bus } => {
                write!(
                    f,
                    "fault event {index} names {bus}, which is outside the bus array"
                )
            }
            FaultPlanError::RepairNotAfterFault { index } => {
                write!(f, "fault event {index} repairs no later than it activates")
            }
        }
    }
}

impl Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_by_activation_tick() {
        let plan = FaultPlan::new()
            .link_cut(50, NodeId::new(1), None)
            .segment_stuck(10, NodeId::new(0), BusIndex::new(0), Some(20))
            .inc_dead(30, NodeId::new(2), None);
        let ticks: Vec<u64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(ticks, vec![10, 30, 50]);
    }

    #[test]
    fn ties_preserve_insertion_order() {
        let plan = FaultPlan::new()
            .segment_stuck(5, NodeId::new(0), BusIndex::new(0), None)
            .segment_stuck(5, NodeId::new(1), BusIndex::new(1), None);
        match plan.events()[0].kind {
            FaultKind::SegmentStuck { hop, .. } => assert_eq!(hop, NodeId::new(0)),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn validate_rejects_out_of_range_and_bad_repairs() {
        let bad_node = FaultPlan::new().inc_dead(0, NodeId::new(8), None);
        assert!(matches!(
            bad_node.validate(8, 2),
            Err(FaultPlanError::NodeOutOfRange { .. })
        ));
        let bad_bus = FaultPlan::new().segment_stuck(0, NodeId::new(0), BusIndex::new(2), None);
        assert!(matches!(
            bad_bus.validate(8, 2),
            Err(FaultPlanError::BusOutOfRange { .. })
        ));
        let bad_repair = FaultPlan::new().link_cut(10, NodeId::new(0), Some(10));
        assert!(matches!(
            bad_repair.validate(8, 2),
            Err(FaultPlanError::RepairNotAfterFault { .. })
        ));
        let ok = FaultPlan::new().link_cut(10, NodeId::new(0), Some(11));
        assert!(ok.validate(8, 2).is_ok());
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.validate(2, 1).is_ok());
    }

    #[test]
    fn display_is_compact() {
        let kind = FaultKind::SegmentStuck {
            hop: NodeId::new(3),
            bus: BusIndex::new(1),
        };
        assert_eq!(kind.to_string(), "segment-stuck n3 b1");
        assert_eq!(
            FaultKind::LinkCut {
                hop: NodeId::new(5)
            }
            .to_string(),
            "link-cut n5"
        );
        assert_eq!(
            FaultKind::IncDead {
                node: NodeId::new(7)
            }
            .to_string(),
            "inc-dead n7"
        );
    }

    #[test]
    fn plan_error_messages_are_lowercase() {
        let msgs = [
            FaultPlanError::NodeOutOfRange {
                index: 0,
                node: NodeId::new(9),
            }
            .to_string(),
            FaultPlanError::BusOutOfRange {
                index: 1,
                bus: BusIndex::new(9),
            }
            .to_string(),
            FaultPlanError::RepairNotAfterFault { index: 2 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }
}
