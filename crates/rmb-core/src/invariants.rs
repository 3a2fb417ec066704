//! Structural invariant checking for the RMB network.
//!
//! These are the properties the paper's correctness argument rests on
//! (§2.4–2.5, Lemma 1, Theorem 1), checked directly against the simulator
//! state:
//!
//! 1. **Consistency** — the segment occupancy array and the virtual buses'
//!    height vectors describe the same configuration.
//! 2. **Continuity** — every live virtual bus occupies one segment per hop
//!    with adjacent heights differing by at most one (the INC switching
//!    range), i.e. the circuit is electrically continuous.
//! 3. **Head pinning** — while a header flit is parked short of its
//!    destination, the hop feeding it stays within switching reach of the
//!    top bus, on which the HF will be re-driven (INCs monitor only the
//!    top segment for header flits).
//! 4. **Legal port codes** — every derived INC status register is one of
//!    Table 1's allowed codes.
//! 5. **Fault isolation** — no *live* circuit (establishing, awaiting the
//!    Hack, or streaming data flits) occupies a faulted segment. A faulted
//!    segment owned by no bus is legal (it simply sits out of the
//!    availability pool), and so is one still owned by a circuit that is
//!    tearing down — the Nack/Fack frees it tail-first over the following
//!    ticks — but a data flit crossing a faulted segment is not.
//! 6. **Bitmap lockstep** — the packed occupancy bitmaps the hot path
//!    queries (per-bus occupied and faulted bits) agree bit-for-bit with
//!    the authoritative segment owner and fault tables.
//! 7. **Plane lockstep** — the per-slot height planes word-parallel
//!    compaction reads agree bit-for-bit with every live bus's `heights`,
//!    and each slot's recorded level range is exactly the lowest and
//!    highest height its bus occupies.
//!
//! A fifth property — *downward-only motion* (§2.2: "The motion of
//! virtual-buses for the purpose of compaction is only downwards") — needs
//! history and is checked tick-over-tick by the network's checked mode
//! rather than here. Note that the paper's "this feature provides an order
//! on the virtual buses" remark is *not* a global no-crossing property:
//! two circuits may legally hold crossing height profiles when one's trail
//! sank behind a blocked header while the other extended along the top bus
//! (both INC connections stay within the ±1 switching range).

use crate::inc::derive_inc;
use crate::network::RmbNetwork;
use crate::virtual_bus::BusState;
use rmb_types::InsertionPolicy;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant failed (stable short name).
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

impl Error for InvariantViolation {}

fn fail(invariant: &'static str, detail: String) -> Result<(), InvariantViolation> {
    Err(InvariantViolation { invariant, detail })
}

/// Checks all structural invariants of a network.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_network(net: &RmbNetwork) -> Result<(), InvariantViolation> {
    let ring = net.ring();
    let n = ring.as_usize();
    let k = net.config().buses() as usize;
    let buses = net.buses_raw();

    // 1. Consistency, both directions.
    let mut expected: HashMap<(usize, usize), u64> = HashMap::new();
    for (bus, state) in buses.values_with_state() {
        let active = bus.active_hops(state);
        for j in 0..active {
            let hop = bus.hop_upstream_node(ring, j).as_usize();
            let l = bus.heights[j].as_usize();
            if expected.insert((hop, l), bus.id.get()).is_some() {
                return fail(
                    "consistency",
                    format!("two virtual buses claim segment (hop {hop}, bus {l})"),
                );
            }
            match net.segment_slot(hop, l) {
                Some(id) if id == bus.id => {}
                other => {
                    return fail(
                        "consistency",
                        format!(
                            "bus {} hop {j} expects segment (hop {hop}, bus {l}), found {other:?}",
                            bus.id
                        ),
                    )
                }
            }
        }
    }
    for hop in 0..n {
        for l in 0..k {
            if let Some(id) = net.segment_slot(hop, l) {
                if expected.get(&(hop, l)) != Some(&id.get()) {
                    return fail(
                        "consistency",
                        format!("segment (hop {hop}, bus {l}) holds {id} but no bus claims it"),
                    );
                }
            }
        }
    }

    // 2. Continuity: adjacent active heights within the INC switch range.
    for (bus, state) in buses.values_with_state() {
        let active = bus.active_hops(state);
        for j in 1..active {
            let a = bus.heights[j - 1];
            let b = bus.heights[j];
            if !a.is_adjacent_or_equal(b) {
                return fail(
                    "continuity",
                    format!(
                        "bus {} jumps from {a} to {b} between hops {} and {j}",
                        bus.id,
                        j - 1
                    ),
                );
            }
        }
    }

    // 3. Head pinning (only meaningful under the paper's insertion rule):
    // a blocked header's feeding hop stays within switching reach of the
    // top bus, on which the HF will be re-driven.
    if net.config().insertion == InsertionPolicy::TopBusOnly {
        let top = net.config().top_bus();
        for (bus, state) in buses.values_with_state() {
            if matches!(state, BusState::Establishing)
                && bus.head_node(ring) != bus.spec.destination
            {
                let last = *bus.heights.last().expect("live bus has hops");
                if !last.is_adjacent_or_equal(top) {
                    return fail(
                        "head-pinning",
                        format!(
                            "bus {} is establishing but its head hop sits at {last}, \
                             out of reach of {top}",
                            bus.id
                        ),
                    );
                }
            }
        }
    }

    // 4. Legal port codes at every INC.
    check_port_codes(net)?;

    // 5. Fault isolation: live circuits never occupy faulted segments.
    // (Unowned faulted segments are legal, as are dying circuits whose
    // teardown has not yet swept past the fault.)
    for (bus, state) in buses.values_with_state() {
        if !state.compactable() {
            continue;
        }
        for j in 0..bus.heights.len() {
            let hop = bus.hop_upstream_node(ring, j);
            let height = bus.heights[j];
            if net.is_segment_faulted(hop, height) {
                return fail(
                    "fault-isolation",
                    format!(
                        "live bus {} ({}) occupies faulted segment (hop {hop}, {height})",
                        bus.id, state
                    ),
                );
            }
        }
    }

    // 6. Bitmap lockstep: the packed occupancy mirror the hot path
    // queries must agree bit-for-bit with the owner / fault tables it
    // shadows.
    if let Err(detail) = net.verify_occupancy() {
        return fail("bitmap-lockstep", detail);
    }

    // 7. Plane lockstep: the height planes compaction decides from must
    // agree bit-for-bit with the heights they transpose.
    if let Err(detail) = net.verify_planes() {
        return fail("plane-lockstep", detail);
    }

    Ok(())
}

/// Invariant #4 on its own: every derived INC status register holds a
/// code Table 1 allows. Once #1 and #2 hold, every output port is fed by
/// one hop from within switching range, so in [`check_network`]'s order
/// only a state that already breaks #1 could fail it.
pub(crate) fn check_port_codes(net: &RmbNetwork) -> Result<(), InvariantViolation> {
    for node in net.ring().nodes() {
        let view = derive_inc(net, node);
        for (l, status) in view.outputs.iter().enumerate() {
            if !status.is_allowed() {
                return fail(
                    "port-codes",
                    format!("INC {node} output {l} holds forbidden code {status}"),
                );
            }
        }
    }
    Ok(())
}
