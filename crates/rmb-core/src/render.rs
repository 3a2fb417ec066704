//! ASCII rendering of the bus array, used to regenerate the paper's
//! occupancy figures (Fig. 1–3, Fig. 5).

use crate::network::RmbNetwork;
use rmb_types::VirtualBusId;
use std::fmt::Write as _;

/// Renders the physical bus array as text: one row per bus segment (top
/// bus first, as in the paper's figures), one column per hop. Each cell
/// shows the occupying virtual bus as a letter (`A` = bus id 0, wrapping
/// after `Z`), or `.` when free.
///
/// # Examples
///
/// ```
/// use rmb_core::{render_occupancy, RmbNetwork};
/// use rmb_types::RmbConfig;
///
/// let net = RmbNetwork::new(RmbConfig::new(4, 2)?);
/// let art = render_occupancy(&net);
/// assert!(art.contains("b1 |"));
/// assert!(art.contains(". . . ."));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn render_occupancy(net: &RmbNetwork) -> String {
    let n = net.ring().as_usize();
    let k = net.config().buses() as usize;
    let (owners, _) = net.segment_tables();
    let mut out = String::new();
    for l in (0..k).rev() {
        let _ = write!(out, "b{l} |");
        for hop in 0..n {
            let cell = match owners[hop * k + l] {
                Some(id) => bus_letter(id),
                None => '.',
            };
            let _ = write!(out, " {cell}");
        }
        out.push('\n');
    }
    let _ = write!(out, "    ");
    for hop in 0..n {
        let _ = write!(out, " {}", hop % 10);
    }
    out.push('\n');
    out
}

/// Stable display letter for a virtual bus id.
pub fn bus_letter(id: VirtualBusId) -> char {
    char::from(b'A' + (id.get() % 26) as u8)
}

/// Renders one line per live virtual bus: id, endpoints, state and the
/// height profile (the Fig. 2 "virtual bus" view).
pub fn render_virtual_buses(net: &RmbNetwork) -> String {
    let mut out = String::new();
    for (_, bus, state) in net.buses_raw().values_with_state() {
        let profile: Vec<String> = bus
            .heights
            .iter()
            .take(bus.active_hops(state))
            .map(|h| h.index().to_string())
            .collect();
        let _ = writeln!(
            out,
            "{} ({}) {}->{} [{}] {}",
            bus_letter(bus.id),
            bus.id,
            bus.spec.source,
            bus.spec.destination,
            profile.join(","),
            state,
        );
    }
    out
}

/// Renders one INC's live Table 1 status registers plus PE attachments —
/// the register-level view a hardware debugger would show.
///
/// # Examples
///
/// ```
/// use rmb_core::{render_inc_status, RmbNetwork};
/// use rmb_types::{NodeId, RmbConfig};
///
/// let net = RmbNetwork::new(RmbConfig::new(6, 2)?);
/// let dump = render_inc_status(&net, NodeId::new(3));
/// assert!(dump.contains("out0: 000"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if `node` is outside the ring.
pub fn render_inc_status(net: &RmbNetwork, node: rmb_types::NodeId) -> String {
    use std::fmt::Write as _;
    let view = crate::derive_inc(net, node);
    let mut out = String::new();
    let _ = writeln!(out, "INC {node} output-port status (Table 1 codes):");
    for (l, status) in view.outputs.iter().enumerate().rev() {
        let owner = view.output_owner[l]
            .map(|id| format!(" <- {}", bus_letter(id)))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  out{l}: {status} ({}){owner}",
            status.interpretation()
        );
    }
    for (bus, id) in &view.pe_drives {
        let _ = writeln!(out, "  PE writes {bus} (circuit {})", bus_letter(*id));
    }
    for (bus, id) in &view.pe_reads {
        let _ = writeln!(out, "  PE reads  {bus} (circuit {})", bus_letter(*id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::{MessageSpec, NodeId, RmbConfig};

    #[test]
    fn empty_network_renders_dots() {
        let net = RmbNetwork::new(RmbConfig::new(3, 2).unwrap());
        let art = render_occupancy(&net);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // k rows + axis
        assert!(lines[0].starts_with("b1 |"));
        assert!(lines[1].starts_with("b0 |"));
        assert_eq!(lines[0].matches('.').count(), 3);
    }

    #[test]
    fn occupied_segments_show_bus_letters() {
        let mut net = RmbNetwork::new(RmbConfig::new(6, 2).unwrap());
        net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(3), 2))
            .unwrap();
        net.run(2);
        let art = render_occupancy(&net);
        assert!(art.contains('A'), "bus id 0 renders as A:\n{art}");
        let listing = render_virtual_buses(&net);
        assert!(listing.contains("n0->n3"));
    }

    #[test]
    fn inc_status_dump_shows_live_connection() {
        let mut net = RmbNetwork::new(RmbConfig::new(8, 2).unwrap());
        net.submit(MessageSpec::new(NodeId::new(1), NodeId::new(5), 100))
            .unwrap();
        net.run(10);
        // Node 3 forwards the circuit; its dump names a used port.
        let dump = render_inc_status(&net, NodeId::new(3));
        assert!(dump.contains("Port receives"), "{dump}");
        // The source PE drives its INC.
        let src = render_inc_status(&net, NodeId::new(1));
        assert!(src.contains("PE writes"), "{src}");
    }

    #[test]
    fn bus_letters_wrap() {
        assert_eq!(bus_letter(VirtualBusId::new(0)), 'A');
        assert_eq!(bus_letter(VirtualBusId::new(25)), 'Z');
        assert_eq!(bus_letter(VirtualBusId::new(26)), 'A');
    }
}
