//! Quickstart for the hierarchical RMB: four local rings bridged through
//! a global ring, mixed intra- and inter-ring traffic.
//!
//! ```text
//! cargo run --example hier_quickstart
//! ```

use rmb::hier::{model, HierNetwork};
use rmb::sim::SimRng;
use rmb::types::{HierConfig, HierMessageSpec, NodeAddr, NodeId};
use rmb::workloads::LocalityTraffic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four 16-node local rings, 4 buses per hop, joined by a 4-node
    // global ring of bridges (one bridge per local ring, at position 0).
    let cfg = HierConfig::builder(4, 16, 4)
        .bridge_queue_depth(4)
        .build()?;
    println!(
        "{} rings x {} nodes = {} compute nodes (+{} bridges)\n",
        cfg.rings(),
        cfg.local().nodes(),
        cfg.compute_nodes(),
        cfg.rings()
    );

    // One inter-ring message, traced: watch it cross both bridges.
    let mut net = HierNetwork::builder(cfg).recording(true).build();
    let spec = HierMessageSpec::new(
        NodeAddr::new(0, NodeId::new(3)),
        NodeAddr::new(2, NodeId::new(9)),
        8,
    );
    println!("predicted unloaded latency for {spec}:");
    println!("  {} ticks\n", model::unloaded_latency(&cfg, &spec));
    net.submit(spec)?;
    let report = net.run_to_quiescence(10_000);
    let d = &net.delivered_log()[0];
    println!(
        "delivered after {} ticks (measured latency {})",
        report.ticks,
        d.delivered_at - d.spec.inject_at
    );
    println!("bridge crossings in the trace:");
    for event in net.take_events() {
        let text = event.to_string();
        if text.contains("bridge") {
            println!("  {text}");
        }
    }

    // A locality-0.8 workload: most traffic stays on its home ring, the
    // rest queues through the bridges.
    let mut net = HierNetwork::new(cfg);
    let msgs = LocalityTraffic {
        rings: cfg.rings(),
        nodes: cfg.local().nodes().get(),
        bridge: cfg.bridge(),
        locality: 0.8,
        flits: 8,
    }
    .generate(200, 1_000, &mut SimRng::seed(42));
    net.submit_all(msgs)?;
    let report = net.run_to_quiescence(1_000_000);
    println!(
        "\nworkload: {} delivered / {} aborted in {} ticks, mean latency {:.1}",
        report.delivered,
        report.aborted,
        report.ticks,
        report.mean_latency()
    );
    println!(
        "bridge refusals (bounded queues pushing back): {}",
        report.bridge_refusals
    );
    Ok(())
}
