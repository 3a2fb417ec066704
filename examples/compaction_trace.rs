//! Watch the compaction protocol at work: several overlapping circuits
//! enter on the top bus and sink to the lowest free segments, frame by
//! frame (the animated version of the paper's Figures 2, 3 and 5).
//!
//! ```text
//! cargo run --example compaction_trace
//! ```

use rmb::core::{render_occupancy, render_virtual_buses, RmbNetwork};
use rmb::sim::trace::TraceKind;
use rmb::types::{MessageSpec, NodeId, RmbConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = RmbConfig::new(12, 4)?;
    let mut net = RmbNetwork::builder(cfg).recording(true).build();

    // Three long-running circuits sharing hops 4..6, staggered so each
    // finds the top bus free thanks to its predecessor's compaction.
    net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(7), 400))?;
    net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(9), 400).at(4))?;
    net.submit(MessageSpec::new(NodeId::new(4), NodeId::new(11), 400).at(8))?;

    for _frame in 0..8 {
        net.run(4);
        println!(
            "t = {:>3} ----------------------------------------",
            net.now()
        );
        print!("{}", render_occupancy(&net));
        println!();
    }
    println!("live circuits:\n{}", render_virtual_buses(&net));

    let events = net.take_events();
    let moves = events
        .iter()
        .filter(|e| e.kind == TraceKind::CompactMove)
        .count();
    println!("compaction moves so far: {moves}");
    println!("first ten moves:");
    for e in events
        .iter()
        .filter(|e| e.kind == TraceKind::CompactMove)
        .take(10)
    {
        println!("  {e}");
    }
    Ok(())
}
