//! Multicast on one circuit vs. a unicast series: the extension the paper
//! names in §1 ("the RMB concept can also be extended to support
//! broadcasting and multicasting"), implemented with taps — the header
//! takes each intermediate destination's receive port as it passes, and
//! every tap then reads the stream in place.
//!
//! ```text
//! cargo run --example multicast_demo
//! ```

use rmb::analysis::Table;
use rmb::core::RmbNetwork;
use rmb::types::{MessageSpec, NodeId, RmbConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16u32;
    let k = 2u16;
    let flits = 24u32;
    let destinations: Vec<NodeId> = vec![3, 6, 9, 12].into_iter().map(NodeId::new).collect();

    // One multicast circuit.
    let mut mc = RmbNetwork::new(RmbConfig::new(n, k)?);
    mc.submit_multicast(NodeId::new(0), &destinations, flits, 0)?;
    let mc_report = mc.run_to_quiescence(100_000);

    // The same fan-out as four separate messages.
    let mut uc = RmbNetwork::new(RmbConfig::new(n, k)?);
    for d in &destinations {
        uc.submit(MessageSpec::new(NodeId::new(0), *d, flits))?;
    }
    let uc_report = uc.run_to_quiescence(100_000);

    println!(
        "Fan-out of one {flits}-flit payload from n0 to {} destinations\n\
         (N = {n}, k = {k}):\n",
        destinations.len()
    );
    let mut t = Table::new(vec!["destination", "multicast arrival", "unicast arrival"]);
    for d in &destinations {
        let at = |log: &[rmb::types::DeliveredMessage]| {
            log.iter()
                .find(|m| m.spec.destination == *d)
                .map(|m| m.delivered_at.to_string())
                .unwrap_or_default()
        };
        t.row(vec![
            d.to_string(),
            at(mc.delivered_log()),
            at(uc.delivered_log()),
        ]);
    }
    println!("{t}");
    println!(
        "multicast makespan: {} ticks ({} circuit, {} refusals)",
        mc_report.makespan(),
        1,
        mc_report.refusals
    );
    println!(
        "unicast   makespan: {} ticks ({} circuits, {} refusals)",
        uc_report.makespan(),
        destinations.len(),
        uc_report.refusals
    );
    println!(
        "\nThe single tapped circuit reaches every member at stream speed;\n\
         the unicast series serialises on the source's send port and pays\n\
         a fresh circuit set-up per destination."
    );
    Ok(())
}
