//! Deriving an INC's port view from the network state.
//!
//! The simulator keeps virtual buses as ground truth; this module projects
//! one INC's output-port status registers (Table 1) and PE attachment out
//! of them — the view a hardware INC would actually hold. The renderers
//! print it; the invariant checker sets the same codes for every INC in
//! its one walk over the buses rather than projecting each INC in turn.

use crate::network::RmbNetwork;
use crate::status::{PortStatus, SourceDir};
use rmb_types::{BusIndex, NodeId, VirtualBusId};

/// The projection of one INC: status register per output port, plus the
/// PE-side attachments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncView {
    /// The INC's ring position.
    pub node: NodeId,
    /// Status register for each output port, index 0 = bottom bus.
    /// Ports driven by the local PE (a circuit originating here) read as
    /// `UNUSED` in Table 1 terms — the PE interface is a separate
    /// attachment, reported in [`pe_drives`](Self::pe_drives).
    pub outputs: Vec<PortStatus>,
    /// Which virtual bus occupies each output port (drives the outgoing
    /// segment), regardless of where it is fed from.
    pub output_owner: Vec<Option<VirtualBusId>>,
    /// The output port the local PE is writing to, if a circuit starts
    /// here.
    pub pe_drives: Vec<(BusIndex, VirtualBusId)>,
    /// The input port(s) the local PE is reading from, if circuits end
    /// here.
    pub pe_reads: Vec<(BusIndex, VirtualBusId)>,
}

/// Projects the port view of `node` out of the network state.
///
/// # Panics
///
/// Panics if `node` is outside the ring.
pub fn derive_inc(net: &RmbNetwork, node: NodeId) -> IncView {
    let ring = net.ring();
    assert!(ring.contains(node), "node {node} outside the ring");
    let k = net.config().buses() as usize;
    let mut view = IncView {
        node,
        outputs: vec![PortStatus::UNUSED; k],
        output_owner: vec![None; k],
        pe_drives: Vec::new(),
        pe_reads: Vec::new(),
    };
    for (_, bus, state) in net.buses_raw().values_with_state() {
        let active = bus.active_hops(state);
        if active == 0 {
            continue;
        }
        // Hop j's upstream INC is advance(src, j); this INC drives hop j
        // when node == advance(src, j), i.e. j = distance(src, node).
        let j_out = ring.clockwise_distance(bus.spec.source, node) as usize;
        if j_out < active {
            let out = bus.heights[j_out];
            view.output_owner[out.as_usize()] = Some(bus.id);
            if j_out == 0 {
                // The circuit starts here: the PE drives this port.
                view.pe_drives.push((out, bus.id));
            } else {
                let inp = bus.heights[j_out - 1];
                let offset = inp.index() as i32 - out.index() as i32;
                let dir = SourceDir::from_offset(offset)
                    .expect("continuity invariant keeps hops within switching range");
                view.outputs[out.as_usize()] = view.outputs[out.as_usize()].with(dir);
            }
        }
        // The circuit's final hop delivers into the destination INC, where
        // the PE reads it.
        let span_to_here = ring.clockwise_distance(bus.spec.source, node) as usize;
        if node == bus.spec.destination && span_to_here == active && span_to_here >= 1 {
            view.pe_reads.push((bus.heights[active - 1], bus.id));
        }
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RmbNetwork;
    use rmb_types::{MessageSpec, RmbConfig};

    #[test]
    fn idle_network_has_all_ports_unused() {
        let net = RmbNetwork::new(RmbConfig::new(6, 3).unwrap());
        for i in 0..6 {
            let view = derive_inc(&net, NodeId::new(i));
            assert!(view.outputs.iter().all(|s| s.is_unused()));
            assert!(view.pe_drives.is_empty());
            assert!(view.pe_reads.is_empty());
        }
    }

    #[test]
    fn single_circuit_ports_read_as_expected() {
        let mut net = RmbNetwork::new(RmbConfig::new(8, 2).unwrap());
        net.submit(MessageSpec::new(NodeId::new(1), NodeId::new(4), 4))
            .unwrap();
        // Run a few ticks so the header extends through node 2.
        net.run(3);
        let src = derive_inc(&net, NodeId::new(1));
        assert_eq!(src.pe_drives.len(), 1, "source PE drives its INC");
        let mid = derive_inc(&net, NodeId::new(2));
        // Node 2 forwards the circuit: exactly one output in use, fed from
        // an adjacent input.
        let used: Vec<_> = mid.outputs.iter().filter(|s| !s.is_unused()).collect();
        assert_eq!(used.len(), 1);
        assert!(used[0].is_allowed());
    }

    #[test]
    #[should_panic(expected = "outside the ring")]
    fn derive_inc_rejects_foreign_nodes() {
        let net = RmbNetwork::new(RmbConfig::new(4, 2).unwrap());
        let _ = derive_inc(&net, NodeId::new(9));
    }
}
