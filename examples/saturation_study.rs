//! Open-loop load sweep: push Bernoulli traffic through the RMB at rising
//! rates and watch latency, throughput and bus utilisation find the
//! saturation knee — then look at a latency histogram on both sides of
//! it.
//!
//! ```text
//! cargo run --release --example saturation_study
//! ```

use rmb::analysis::Table;
use rmb::core::RmbNetwork;
use rmb::types::RmbConfig;
use rmb::workloads::{SizeDistribution, WorkloadConfig, WorkloadSuite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 24u32;
    let k = 6u16;
    let window = 4_000u64;
    let suite = WorkloadSuite::new(WorkloadConfig::new(n, 2026).with_sizes(
        SizeDistribution::Bimodal {
            short: 4,
            long: 48,
            p_short: 0.7,
        },
    ));

    let mut table = Table::new(vec![
        "rate/node/tick",
        "messages",
        "mean latency",
        "p99 (approx)",
        "utilization",
    ]);
    for rate in [0.0005, 0.001, 0.002, 0.004, 0.008] {
        let msgs = suite.bernoulli(rate, window);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()?;
        let mut net = RmbNetwork::new(cfg);
        net.submit_all(msgs.iter().copied())?;
        let report = net.run_to_quiescence(window * 50);
        let hist = net.latency_histogram(256);
        table.row(vec![
            format!("{rate:.4}"),
            format!("{}/{}", report.delivered, msgs.len()),
            format!("{:.1}", report.mean_latency()),
            match hist.quantile(0.99) {
                Some(u64::MAX) => "beyond histogram".into(),
                Some(q) => q.to_string(),
                None => String::new(),
            },
            format!("{:.3}", report.mean_utilization),
        ]);
    }
    println!(
        "RMB saturation study (N = {n}, k = {k}, bimodal 4/48-flit bodies,\n\
         {window}-tick injection window):\n"
    );
    println!("{table}");
    println!(
        "The knee sits where mean latency decouples from the unloaded value;\n\
         beyond it the bus array pins near full utilisation while latency\n\
         grows without bound — the open-loop signature of any circuit-\n\
         switched interconnect."
    );
    Ok(())
}
