//! Cross-crate integration tests: workload generation → RMB and baseline
//! simulation → offline analysis, all through the umbrella crate's public
//! API.

use rmb::analysis::{competitive_ratio, offline_schedule, ring_lower_bound, DualRmbRing, RmbRing};
use rmb::baselines::{FatTree, Hypercube, Mesh2D, Network};
use rmb::core::RmbNetwork;
use rmb::types::{RingSize, RmbConfig};
use rmb::workloads::{PermutationKind, SizeDistribution, WorkloadConfig, WorkloadSuite};

fn rmb_cfg(n: u32, k: u16) -> RmbConfig {
    RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .expect("valid config")
}

#[test]
fn workload_to_delivery_pipeline() {
    let n = 16u32;
    let suite = WorkloadSuite::new(WorkloadConfig::new(n, 7).with_sizes(
        SizeDistribution::Bimodal {
            short: 2,
            long: 32,
            p_short: 0.5,
        },
    ));
    let msgs = suite.permutation(PermutationKind::Random);
    let mut net = RmbNetwork::builder(rmb_cfg(n, 4)).checked(true).build();
    net.submit_all(msgs.iter().copied())
        .expect("valid workload");
    let report = net.run_to_quiescence(4_000_000);
    assert_eq!(report.delivered, msgs.len(), "stalled={}", report.stalled);
    // Delivered payload sizes match the submitted specs one-to-one.
    let mut sent: Vec<u32> = msgs.iter().map(|m| m.data_flits).collect();
    let mut got: Vec<u32> = net
        .delivered_log()
        .iter()
        .map(|d| d.spec.data_flits)
        .collect();
    sent.sort_unstable();
    got.sort_unstable();
    assert_eq!(sent, got);
}

#[test]
fn every_network_routes_the_same_permutation() {
    let n = 16u32;
    let k = 4u16;
    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, 3).with_sizes(SizeDistribution::Fixed(8)));
    let msgs = suite.permutation(PermutationKind::BitReversal);
    let mut nets: Vec<Box<dyn Network>> = vec![
        Box::new(RmbRing::new(rmb_cfg(n, k))),
        Box::new(DualRmbRing::new(rmb_cfg(n, k))),
        Box::new(Hypercube::new(n)),
        Box::new(FatTree::new(n, k)),
        Box::new(Mesh2D::square(n)),
    ];
    for net in &mut nets {
        let out = net.route_messages(&msgs, 4_000_000);
        assert_eq!(
            out.delivered.len(),
            msgs.len(),
            "{} failed (stalled={})",
            net.label(),
            out.stalled
        );
        // Per-message sanity: each delivery corresponds to a submitted
        // message and finishes after it starts.
        for d in &out.delivered {
            assert!(msgs
                .iter()
                .any(|m| m.source == d.spec.source && m.destination == d.spec.destination));
            assert!(d.delivered_at >= d.circuit_at);
        }
    }
}

#[test]
fn online_offline_analysis_chain() {
    let n = 24u32;
    let k = 6u16;
    let ring = RingSize::new(n).unwrap();
    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, 11).with_sizes(SizeDistribution::Fixed(12)));
    let msgs = suite.permutation(PermutationKind::Random);

    let mut rmb = RmbRing::new(rmb_cfg(n, k));
    let online = rmb.route_messages(&msgs, 8_000_000);
    assert_eq!(online.delivered.len(), msgs.len());

    let sched = offline_schedule(ring, k, &msgs);
    assert!(sched.is_feasible(ring, k, &msgs));
    assert!(sched.makespan >= ring_lower_bound(ring, k, &msgs));

    let ratio = competitive_ratio(online.makespan(), &sched).expect("nonzero offline");
    assert!(ratio >= 0.9, "online cannot beat offline by much: {ratio}");
    assert!(
        ratio < 32.0,
        "competitiveness out of plausible range: {ratio}"
    );
}

#[test]
fn paper_shape_ring_wins_local_hypercube_wins_global() {
    // The §3 qualitative shape on measured runs.
    let n = 16u32;
    let k = 4u16;
    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, 5).with_sizes(SizeDistribution::Fixed(16)));

    let local = suite.permutation(PermutationKind::Rotation(1));
    let global = suite.permutation(PermutationKind::Opposite);

    let mut ring = RmbRing::new(rmb_cfg(n, k));
    let mut cube = Hypercube::new(n);

    let ring_local = ring.route_messages(&local, 4_000_000);
    let cube_local = cube.route_messages(&local, 4_000_000);
    let ring_global = ring.route_messages(&global, 4_000_000);
    let cube_global = cube.route_messages(&global, 4_000_000);

    assert!(ring_local.makespan() <= cube_local.makespan() + 4);
    assert!(cube_global.makespan() * 2 < ring_global.makespan());
}

#[test]
fn dual_ring_halves_long_haul_traffic() {
    let n = 16u32;
    let k = 4u16;
    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, 9).with_sizes(SizeDistribution::Fixed(16)));
    let msgs = suite.permutation(PermutationKind::Reversal);
    let mut single = RmbRing::new(rmb_cfg(n, k));
    let mut dual = DualRmbRing::new(rmb_cfg(n, k));
    let s = single.route_messages(&msgs, 4_000_000);
    let d = dual.route_messages(&msgs, 4_000_000);
    assert_eq!(s.delivered.len(), msgs.len());
    assert_eq!(d.delivered.len(), msgs.len());
    assert!(d.makespan() * 2 < s.makespan() + 100);
}

#[test]
fn deterministic_across_runs() {
    let n = 16u32;
    let suite = WorkloadSuite::new(
        WorkloadConfig::new(n, 42).with_sizes(SizeDistribution::Uniform { min: 1, max: 32 }),
    );
    let msgs = suite.bernoulli(0.01, 2_000);
    let run = || {
        let mut net = RmbNetwork::new(rmb_cfg(n, 4));
        net.submit_all(msgs.iter().copied()).expect("valid");
        let r = net.run_to_quiescence(2_000_000);
        (r.ticks, r.delivered, r.compaction_moves, r.refusals)
    };
    assert_eq!(run(), run(), "simulation must be a pure function of input");
}
