//! Virtual buses: the circuits laid over physical bus segments.
//!
//! A virtual bus is the chain of physical segments currently carrying one
//! request's circuit (§2.2, Fig. 2). Its *heights* record which physical
//! segment it occupies on every hop between source and destination; the
//! compaction protocol lowers these heights over time without ever
//! breaking the circuit.
//!
//! Lifecycle state lives in a struct-of-arrays lane owned by the network's
//! bus slab, not on [`VirtualBus`] itself: the per-tick kernel only reads
//! that lane for a streaming circuit, leaving the cold request metadata
//! here untouched.

use rmb_types::{BusIndex, MessageSpec, NodeId, RequestId, RingSize, RmbConfig, VirtualBusId};
use std::fmt;

/// Lifecycle state of a virtual bus.
///
/// `Copy` by design: the tick kernel reads a bus's state out of the slab's
/// state lane into a register-resident local and writes it back only when
/// it changes — no per-circuit heap traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusState {
    /// The header flit is drawing the bus toward the destination; the head
    /// is parked at the INC one hop past the last occupied segment.
    Establishing,
    /// The destination accepted; the `Hack` is travelling back to the
    /// source and will arrive after `hops_left` more ticks.
    AwaitingHack {
        /// Segments the `Hack` still has to cross.
        hops_left: u32,
    },
    /// The circuit is up and data flits are streaming.
    Streaming(StreamState),
    /// The `Fack` is removing the bus, tail (destination) end first;
    /// `freed` hops have been released so far.
    TearingDown {
        /// Hops already released, counted from the destination end.
        freed: usize,
    },
    /// The destination refused with a `Nack`, which is releasing the bus
    /// tail-first; `freed` hops have been released so far.
    Nacked {
        /// Hops already released, counted from the destination end.
        freed: usize,
    },
}

impl BusState {
    /// `true` while compaction may consider this bus's hops at all.
    /// Dying buses (`TearingDown`, `Nacked`) are left alone; the freed
    /// space they leave behind is what compaction of *other* buses uses.
    pub const fn compactable(&self) -> bool {
        matches!(
            self,
            BusState::Establishing | BusState::AwaitingHack { .. } | BusState::Streaming(_)
        )
    }

    /// `true` before the header acknowledgement has returned.
    pub const fn pre_hack(&self) -> bool {
        matches!(self, BusState::Establishing | BusState::AwaitingHack { .. })
    }
}

impl fmt::Display for BusState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusState::Establishing => f.write_str("establishing"),
            BusState::AwaitingHack { hops_left } => write!(f, "awaiting-hack({hops_left})"),
            BusState::Streaming(_) => f.write_str("streaming"),
            BusState::TearingDown { freed } => write!(f, "tearing-down({freed})"),
            BusState::Nacked { freed } => write!(f, "nacked({freed})"),
        }
    }
}

/// The data-flit stream of an established circuit.
///
/// Flits advance one segment per tick and the source sends one flit per
/// tick, so with the circuit up at tick `c` over `L` hops, data flit `i`
/// (0-based) of `m` goes out at `c + 1 + i` and lands at `c + 1 + i + L`,
/// the final flit goes out at `c + m + 1`, and its landing at
/// `c + m + 1 + L` delivers the message. A circuit buffers no flits and the
/// destination PE takes one per tick, so no `Dack` window could do more
/// than slow the source: `Dack`s are not modelled. Those three numbers
/// therefore fix the whole stream, and the stream phase reads every send
/// and landing off them: the state is written once, when the circuit
/// comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamState {
    /// Tick at which the `Hack` reached the source (circuit established).
    pub circuit_at: u64,
    /// Circuit length in hops, fixed once streaming starts (compaction
    /// changes the heights' *values*, never the count).
    pub span: u32,
    /// Total data flits of the message, snapshotted from the spec.
    pub data_flits: u32,
}

impl StreamState {
    /// The stream of a circuit established at `circuit_at` over `span`
    /// hops, carrying `data_flits` flits.
    #[must_use]
    pub const fn new(circuit_at: u64, span: u32, data_flits: u32) -> Self {
        StreamState {
            circuit_at,
            span,
            data_flits,
        }
    }
}

/// One virtual bus: the cold, per-request side of a circuit.
///
/// The lifecycle [`BusState`] is *not* stored here — it lives in the bus
/// slab's state lane (see `RmbNetwork::bus_state`), so methods that depend
/// on it take the state as a parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualBus {
    /// Identity of this circuit.
    pub id: VirtualBusId,
    /// The request it serves.
    pub request: RequestId,
    /// The message being carried.
    pub spec: MessageSpec,
    /// Tick the PE first asked for this connection (across retries).
    pub requested_at: u64,
    /// Tick this attempt's header flit was inserted at the top bus.
    pub injected_at: u64,
    /// `Nack` refusals suffered before this attempt.
    pub refusals: u32,
    /// Physical segment occupied on each hop, hop 0 starting at the
    /// source. Grows as the head extends; entries only ever decrease
    /// (downward compaction).
    pub heights: Vec<BusIndex>,
    /// Tick of the last head advance (injection or extension); used by the
    /// optional head-timeout anti-deadlock extension.
    pub parked_since: u64,
    /// Intermediate destinations of a multicast circuit, in clockwise
    /// order before the final destination. Empty for unicast (the paper's
    /// base protocol); see `RmbNetwork::submit_multicast`.
    pub taps: Vec<NodeId>,
    /// How many of `taps` have taken their receive port so far (taps are
    /// armed in order as the header passes them).
    pub armed_taps: usize,
    /// `true` when this attempt was torn down by a fault (as opposed to a
    /// destination `Nack`); selects the bounded-exponential retry backoff.
    pub fault_killed: bool,
}

impl VirtualBus {
    /// The node the header flit is parked at while establishing: one hop
    /// past the last occupied segment.
    pub fn head_node(&self, ring: RingSize) -> NodeId {
        ring.advance(self.spec.source, self.heights.len() as u32)
    }

    /// Number of hops still occupied under lifecycle state `state` (the
    /// tail `freed` hops are released first during teardown).
    pub fn active_hops(&self, state: BusState) -> usize {
        match state {
            BusState::TearingDown { freed } | BusState::Nacked { freed } => {
                self.heights.len().saturating_sub(freed)
            }
            _ => self.heights.len(),
        }
    }

    /// The upstream INC of hop `j`: the node whose output ports drive the
    /// hop's segment.
    pub fn hop_upstream_node(&self, ring: RingSize, j: usize) -> NodeId {
        ring.advance(self.spec.source, j as u32)
    }

    /// Whether hop `j` may not sink while the bus is in `state`, whatever
    /// its neighbours: the bus is dying, or has not seen its `Hack` while
    /// early compaction is off (§2.4), or hop `j` feeds a parked header
    /// from below the top bus, which INCs monitor for headers (§2.2). The
    /// compaction kernel reads this from the occupancy's immobile lane.
    pub(crate) fn hop_immobile(&self, state: BusState, j: usize, cfg: &RmbConfig) -> bool {
        !state.compactable()
            || (state.pre_hack() && !cfg.early_compaction)
            || (state == BusState::Establishing
                && j + 1 == self.heights.len()
                && self.heights[j] != cfg.top_bus()
                && self.head_node(cfg.nodes()) != self.spec.destination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(src: u32, dst: u32, hops: &[u16]) -> VirtualBus {
        VirtualBus {
            id: VirtualBusId::new(1),
            request: RequestId::new(1),
            spec: MessageSpec::new(NodeId::new(src), NodeId::new(dst), 4),
            requested_at: 0,
            injected_at: 0,
            refusals: 0,
            heights: hops.iter().map(|&h| BusIndex::new(h)).collect(),
            parked_since: 0,
            taps: Vec::new(),
            armed_taps: 0,
            fault_killed: false,
        }
    }

    #[test]
    fn span_and_head_wrap_around_the_ring() {
        let ring = RingSize::new(8).unwrap();
        let b = bus(6, 2, &[3, 3]);
        assert_eq!(b.head_node(ring), NodeId::new(0));
        assert_eq!(b.hop_upstream_node(ring, 0), NodeId::new(6));
        assert_eq!(b.hop_upstream_node(ring, 1), NodeId::new(7));
    }

    #[test]
    fn active_hops_shrink_during_teardown() {
        let b = bus(0, 4, &[1, 1, 1, 1]);
        assert_eq!(b.active_hops(BusState::Establishing), 4);
        assert_eq!(b.active_hops(BusState::TearingDown { freed: 3 }), 1);
        assert_eq!(b.active_hops(BusState::Nacked { freed: 5 }), 0);
    }

    #[test]
    fn compactability_by_state() {
        assert!(BusState::Establishing.compactable());
        assert!(BusState::AwaitingHack { hops_left: 2 }.compactable());
        assert!(BusState::Streaming(StreamState::default()).compactable());
        assert!(!BusState::TearingDown { freed: 0 }.compactable());
        assert!(!BusState::Nacked { freed: 0 }.compactable());
    }

    #[test]
    fn pre_hack_classification() {
        assert!(BusState::Establishing.pre_hack());
        assert!(BusState::AwaitingHack { hops_left: 1 }.pre_hack());
        assert!(!BusState::Streaming(StreamState::default()).pre_hack());
        assert!(!BusState::TearingDown { freed: 0 }.pre_hack());
    }

    #[test]
    fn display_forms() {
        assert_eq!(BusState::Establishing.to_string(), "establishing");
        assert_eq!(
            BusState::AwaitingHack { hops_left: 3 }.to_string(),
            "awaiting-hack(3)"
        );
        assert_eq!(
            BusState::TearingDown { freed: 2 }.to_string(),
            "tearing-down(2)"
        );
        assert_eq!(BusState::Nacked { freed: 1 }.to_string(), "nacked(1)");
    }
}
