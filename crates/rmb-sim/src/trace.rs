//! Structured event tracing.
//!
//! The RMB paper's figures are protocol diagrams; this module records the
//! protocol events needed to regenerate them (virtual-bus creation, hop
//! extension, compaction moves, acknowledgements, teardown).

use crate::clock::Tick;
use std::fmt;

/// One traced protocol event.
///
/// Field meanings follow the paper's vocabulary: `node` is an INC position,
/// `bus` a physical segment index, `id` a request or virtual-bus number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: Tick,
    /// Event category (stable, machine-readable).
    pub kind: TraceKind,
    /// The request / virtual bus involved, if any.
    pub id: Option<u64>,
    /// The INC involved, if any (ring position).
    pub node: Option<u32>,
    /// The bus segment involved, if any.
    pub bus: Option<u16>,
    /// Free-form detail for human consumption.
    pub detail: String,
}

/// Categories of traced events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TraceKind {
    /// A header flit was inserted at the top bus of its source INC.
    Inject,
    /// The header advanced one hop, extending the virtual bus.
    Extend,
    /// The destination accepted and a `Hack` started back.
    Accept,
    /// The destination refused and a `Nack` started back.
    Refuse,
    /// A data flit was delivered to the destination PE.
    Deliver,
    /// A compaction move: one hop of a virtual bus moved down one segment.
    CompactMove,
    /// An odd/even cycle transition at an INC.
    CycleSwitch,
    /// The final-flit acknowledgement removed the virtual bus.
    Teardown,
    /// A scheduled fault activated (segment stuck, link cut, INC dead).
    FaultInject,
    /// A scheduled fault healed.
    FaultRepair,
    /// A live circuit was torn down because a fault struck a resource it
    /// occupied or depended on.
    FaultKill,
    /// A request exhausted its retry budget and was dropped.
    Abort,
    /// A message finished a leg of a hierarchical route and entered a
    /// bridge INC's bounded queue.
    BridgeIngress,
    /// A message left a bridge queue to start its next leg (or was
    /// refused because the downstream bridge queue was full — see the
    /// event detail).
    BridgeEgress,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Inject => "inject",
            TraceKind::Extend => "extend",
            TraceKind::Accept => "accept",
            TraceKind::Refuse => "refuse",
            TraceKind::Deliver => "deliver",
            TraceKind::CompactMove => "compact-move",
            TraceKind::CycleSwitch => "cycle-switch",
            TraceKind::Teardown => "teardown",
            TraceKind::FaultInject => "fault-inject",
            TraceKind::FaultRepair => "fault-repair",
            TraceKind::FaultKill => "fault-kill",
            TraceKind::Abort => "abort",
            TraceKind::BridgeIngress => "bridge-ingress",
            TraceKind::BridgeEgress => "bridge-egress",
        };
        f.write_str(s)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.at, self.kind)?;
        if let Some(id) = self.id {
            write!(f, " v{id}")?;
        }
        if let Some(node) = self.node {
            write!(f, " n{node}")?;
        }
        if let Some(bus) = self.bus {
            write!(f, " b{bus}")?;
        }
        if !self.detail.is_empty() {
            write!(f, " — {}", self.detail)?;
        }
        Ok(())
    }
}

/// Keeps every event in memory, for tests and figure regeneration.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Appends one event.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Extracts the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Tick::new(3),
            kind,
            id: Some(1),
            node: Some(2),
            bus: Some(0),
            detail: "x".to_owned(),
        }
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.record(sample(TraceKind::Inject));
        s.record(sample(TraceKind::Extend));
        s.record(sample(TraceKind::CompactMove));
        assert_eq!(s.events().len(), 3);
        let kinds: Vec<_> = s.into_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [TraceKind::Inject, TraceKind::Extend, TraceKind::CompactMove]
        );
    }

    #[test]
    fn display_is_compact() {
        let e = sample(TraceKind::CompactMove);
        assert_eq!(e.to_string(), "t3 compact-move v1 n2 b0 — x");
        let bare = TraceEvent {
            at: Tick::ZERO,
            kind: TraceKind::CycleSwitch,
            id: None,
            node: None,
            bus: None,
            detail: String::new(),
        };
        assert_eq!(bare.to_string(), "t0 cycle-switch");
    }

    #[test]
    fn fault_kinds_display_kebab_case() {
        assert_eq!(TraceKind::FaultInject.to_string(), "fault-inject");
        assert_eq!(TraceKind::FaultRepair.to_string(), "fault-repair");
        assert_eq!(TraceKind::FaultKill.to_string(), "fault-kill");
        assert_eq!(TraceKind::Abort.to_string(), "abort");
        assert_eq!(TraceKind::BridgeIngress.to_string(), "bridge-ingress");
        assert_eq!(TraceKind::BridgeEgress.to_string(), "bridge-egress");
    }
}
