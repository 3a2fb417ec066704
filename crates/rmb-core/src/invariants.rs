//! The invariant checker behind [`RmbNetwork::check_invariants`], whose
//! docs list the invariants, and behind checked mode's tick end. One walk
//! over the live buses checks them bus by bus, filling two flat `N·k`
//! tables indexed like the segment table, each segment's expected owner and
//! the Table 1 code of the output port that drives it, and rebuilding the
//! link and immobile lanes. A count of occupied segments then finishes #1,
//! #6 reads the bitmaps once, and #7 compares the lanes word by word.

use crate::network::RmbNetwork;
use crate::occupancy::Occupancy;
use crate::status::{PortStatus, SourceDir};
use crate::virtual_bus::BusState;
use rmb_types::{BusIndex, InsertionPolicy, VirtualBusId};
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

/// What checks keep between ticks: the walk's two tables and rebuilt
/// lanes, reused, and per bus slot the bus that held it at the last check
/// with its heights then.
#[derive(Debug, Default)]
pub(crate) struct CheckState {
    owner: Vec<Option<VirtualBusId>>,
    codes: Vec<PortStatus>,
    lanes: Option<Occupancy>,
    history: Vec<(Option<VirtualBusId>, Vec<BusIndex>)>,
}

/// Checks invariants #1–#7, and downward-only motion against the heights
/// `st` recorded at its last check; returns the first violation found.
/// Without `lockstep` it skips the comparisons with mirrored tables (#1, #6
/// and #7). Only that lets a test reach #4: once #1 holds, each output port
/// has one feeding hop, which #2 keeps within switching range.
pub(crate) fn check_network(
    net: &RmbNetwork,
    st: &mut CheckState,
    lockstep: bool,
) -> Result<(), InvariantViolation> {
    let (ring, cfg) = (net.ring(), net.config());
    let k = cfg.buses() as usize;
    // Only the paper's insertion rule re-drives a parked header on top.
    let top = (cfg.insertion == InsertionPolicy::TopBusOnly).then(|| cfg.top_bus());
    let (segments, faults) = net.segment_tables();
    let (owner, codes, history) = (&mut st.owner, &mut st.codes, &mut st.history);
    owner.clear();
    owner.resize(segments.len(), None);
    codes.clear();
    codes.resize(segments.len(), PortStatus::UNUSED);
    let n = ring.as_usize();
    let lanes = st.lanes.get_or_insert_with(|| Occupancy::new(n, k));
    lanes.clear();
    let mut claims = 0;
    for (slot, bus, state) in net.buses_raw().values_with_state() {
        let id = bus.id;
        let mut hop = bus.spec.source;
        // The previous hop's height, which feeds this hop's output port
        // (the PE drives the source's).
        let mut feed: Option<BusIndex> = None;
        let active = &bus.heights[..bus.active_hops(state)];
        claims += active.len();
        for (j, &height) in active.iter().enumerate() {
            let (h, l) = (hop.as_usize(), height.as_usize());
            let seg = h * k + l;
            // 1. Consistency, forwards: the segment is this hop's alone,
            // and the segment table says so.
            if lockstep && owner[seg].replace(id).is_some() {
                let detail = format!("two virtual buses claim segment (hop {h}, bus {l})");
                return fail("consistency", detail);
            }
            if lockstep && segments[seg] != Some(id) {
                let found = segments[seg];
                let detail = format!("bus {id} hop {j} expects segment (hop {h}, bus {l})");
                return fail("consistency", format!("{detail}, found {found:?}"));
            }
            if let Some(from) = feed {
                // 2. Continuity: an INC switches only between adjacent
                // levels.
                let offset = i32::from(from.index()) - i32::from(height.index());
                let Some(dir) = SourceDir::from_offset(offset) else {
                    let detail = format!("bus {id} jumps from {from} to {height}");
                    return fail(
                        "continuity",
                        format!("{detail} between hops {} and {j}", j - 1),
                    );
                };
                // 4. Legal port codes: the output port this hop leaves
                // through now also receives from `dir`.
                let code = codes[seg].with(dir);
                if !code.is_allowed() {
                    let detail = format!("INC {hop} output {l} holds forbidden code {code}");
                    return fail("port-codes", detail);
                }
                codes[seg] = code;
                // 7. The previous hop's link, now that it is in reach.
                lanes.link((h + n - 1) % n, from.as_usize(), l);
            }
            lanes.set_immobile(h, l, bus.hop_immobile(state, j, cfg));
            // 5. Fault isolation: a live circuit never occupies a faulted
            // segment. (Unowned faulted segments are legal, as are dying
            // circuits whose teardown has not yet swept past the fault.)
            if state.compactable() && faults[seg] > 0 {
                let detail = format!("live bus {id} ({state}) occupies faulted segment");
                return fail("fault-isolation", format!("{detail} (hop {hop}, {height})"));
            }
            feed = Some(height);
            hop = ring.advance(hop, 1);
        }

        // 3. Head pinning: a header parked short of its destination will be
        // re-driven on the top bus, so the hop feeding it stays in reach.
        if let (Some(top), Some(last), BusState::Establishing) = (top, feed, state) {
            if bus.head_node(ring) != bus.spec.destination && !last.is_adjacent_or_equal(top) {
                let detail = format!("bus {id} is establishing but its head hop sits at {last}");
                return fail("head-pinning", format!("{detail}, out of reach of {top}"));
            }
        }

        // Downward-only motion (§2.2): while a bus lives, no hop's height
        // rises and hops are only appended. Ids are never reused, so a
        // slot recorded for another bus holds no history.
        if slot >= history.len() {
            history.resize_with(slot + 1, Default::default);
        }
        let (holder, before) = &mut history[slot];
        if *holder != Some(id) {
            *holder = Some(id);
            before.clear();
        }
        let (had, has) = (before.len(), bus.heights.len());
        if had > has {
            let detail = format!("bus {id} shrank from {had} to {has} hops");
            return fail(
                "downward-only",
                detail + ": hops never detach from the front",
            );
        }
        for (j, (was, &now)) in before.iter_mut().zip(&bus.heights).enumerate() {
            if now > *was {
                let detail = format!("bus {id} hop {j} moved up");
                return fail(
                    "downward-only",
                    format!("{detail}: {} -> {}", was.index(), now.index()),
                );
            }
            *was = now;
        }
        before.extend_from_slice(&bus.heights[had..]);
    }
    if !lockstep {
        return Ok(());
    }

    // 1. Consistency, backwards: every claim matched its segment, so the
    // segment table holds more occupied segments than there were claims
    // exactly when one that no hop claims is occupied; the tables differ
    // there first.
    if segments.iter().filter(|s| s.is_some()).count() != claims {
        let seg = owner.iter().zip(segments).position(|(o, s)| o != s);
        let seg = seg.expect("more occupied segments than claims");
        let (h, l, id) = (seg / k, seg % k, segments[seg].expect("claims matched"));
        let detail = format!("segment (hop {h}, bus {l}) holds {id} but no bus claims it");
        return fail("consistency", detail);
    }

    // 6. Bitmap lockstep: the packed occupancy mirror the hot path queries
    // agrees bit for bit with the owner and fault tables it shadows.
    if let Err(detail) = net.verify_occupancy() {
        return fail("bitmap-lockstep", detail);
    }

    // 7. Lane lockstep: the link and immobile lanes compaction decides from
    // agree bit for bit with the ones the walk rebuilt.
    if let Err(detail) = net.verify_lanes(lanes) {
        return fail("lane-lockstep", detail);
    }
    Ok(())
}
