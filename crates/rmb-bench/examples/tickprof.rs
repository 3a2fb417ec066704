//! Profiling harness: separates the fixed per-tick cost (idle network)
//! from the marginal per-circuit cost, without criterion overhead. Used
//! for the X9 duty-cycle attribution (see EXPERIMENTS.md); build with
//! `cargo build --profile bench -p rmb-bench --example tickprof`.

use std::time::Instant;

use rmb_core::RmbNetwork;
use rmb_types::{MessageSpec, NodeId, RmbConfig};

fn net_with(n: u32, active: u32) -> RmbNetwork {
    let cfg = RmbConfig::builder(n, 8)
        .head_timeout(8 * u64::from(n))
        .build()
        .expect("valid");
    let mut net = RmbNetwork::new(cfg);
    let stride = n.checked_div(active).unwrap_or(n);
    for i in 0..active {
        let s = i * stride;
        net.submit(MessageSpec::new(
            NodeId::new(s),
            NodeId::new((s + stride / 2 + 1) % n),
            1_000_000_000,
        ))
        .expect("valid");
    }
    net.run(16 * u64::from(n));
    assert_eq!(net.active_virtual_buses(), active as usize);
    net
}

fn time_ticks(net: &mut RmbNetwork, iters: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        net.tick();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let iters = 2_000_000u64;
    for (n, active) in [(64u32, 0u32), (64, 4), (64, 16), (1024, 0), (1024, 16)] {
        let mut net = net_with(n, active);
        time_ticks(&mut net, 200_000); // warm
        let best = (0..3)
            .map(|_| time_ticks(&mut net, iters))
            .fold(f64::INFINITY, f64::min);
        let marginal = if active > 0 {
            format!("  ({:.1} ns/circuit)", best / f64::from(active))
        } else {
            String::new()
        };
        println!("N{n} active{active}: {best:.1} ns/tick{marginal}");
    }
}
