//! Feasibility oracle: the packed-bitmap answers of
//! [`RmbNetwork::path_feasible`] must match a slab walk over the public
//! owner and fault tables on *every* query, at *every* observation point,
//! under random workloads and random fault/repair schedules.
//!
//! The walk ([`slab_walk`]) reads only [`RmbNetwork::segment_owner`] and
//! [`RmbNetwork::is_segment_faulted`]: a hop is usable when some bus on it
//! has no owner and no fault, and a path is feasible when every hop on it
//! is usable. At sampled ticks the test asks for every (src, dst) pair,
//! including the wrap-around spans crossing the ring's cut. The networks
//! run `checked`, so invariant #6 (the bitmaps in lockstep with the owner
//! and fault tables) is also re-verified after every tick.

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_core::RmbNetwork;
use rmb_types::{BusIndex, FaultPlan, MessageSpec, NodeId, RmbConfig};

/// Workload item: (source, destination offset, flits, delay).
type RawMsg = (u32, u32, u32, u64);

/// Raw fault item: (kind, at, node, bus, outage).
type RawFault = (u8, u64, u32, u16, u64);

/// The reference answer: every hop of the clockwise path `src → dst` has
/// a bus that is neither owned nor faulted.
fn slab_walk(net: &RmbNetwork, src: u32, dst: u32) -> bool {
    let n = net.ring().get();
    let span = (dst + n - src) % n;
    (0..span).all(|j| {
        let hop = NodeId::new((src + j) % n);
        (0..net.config().buses())
            .map(BusIndex::new)
            .any(|b| net.segment_owner(hop, b).is_none() && !net.is_segment_faulted(hop, b))
    })
}

/// Every (src, dst) pair, src != dst — spans 1..N-1, including every
/// wrap-around arc across the ring's word-boundary cut.
fn assert_all_queries_agree(net: &RmbNetwork, tick: u64) {
    let n = net.ring().get();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            assert_eq!(
                net.path_feasible(NodeId::new(src), NodeId::new(dst)),
                slab_walk(net, src, dst),
                "bitmap and slab walk disagree on {src} -> {dst} at tick {tick}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random traffic plus random segment faults and repairs: the bitmap
    /// answers every feasibility query as the slab walk does at every
    /// sampled instant.
    #[test]
    fn bitmap_matches_slab_walk_under_faults(
        n in 4u32..14,
        k in 1u16..4,
        raw in vec(any::<RawMsg>(), 1..10),
        faults in vec(any::<RawFault>(), 0..8),
        stride in 1u64..40,
    ) {
        let msgs: Vec<MessageSpec> = raw
            .iter()
            .map(|&(s, off, flits, at)| {
                let src = s % n;
                let dst = (src + 1 + off % (n - 1)) % n;
                MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits % 24).at(at % 300)
            })
            .collect();
        let mut plan = FaultPlan::new();
        for &(kind, at, node, bus, outage) in &faults {
            let at = at % 1_000;
            let node = NodeId::new(node % n);
            let repair = if outage % 3 == 0 { None } else { Some(at + 1 + outage % 400) };
            plan = match kind % 4 {
                0 | 1 => plan.segment_stuck(at, node, BusIndex::new(bus % k), repair),
                2 => plan.link_cut(at, node, repair),
                _ => plan.inc_dead(at, node, repair),
            };
        }
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .unwrap();
        let mut net = RmbNetwork::builder(cfg)
            .checked(true)
            .fault_plan(plan)
            .fault_seed(11)
            .max_retries(6)
            .build();
        net.submit_all(msgs).unwrap();
        assert_all_queries_agree(&net, 0);
        for tick in 0..2_000u64 {
            if net.is_quiescent() && tick > 1_000 {
                break;
            }
            net.tick();
            if tick % stride == 0 {
                assert_all_queries_agree(&net, tick + 1);
            }
        }
        assert_all_queries_agree(&net, u64::MAX);
    }
}

/// A saturated hop makes exactly the arcs crossing it infeasible, and a
/// repair brings them back — checked against the slab walk across the
/// ring cut, where the query's 64-hop stretches of the occupancy lanes
/// wrap past the last hop.
#[test]
fn saturation_and_repair_agree_across_the_cut() {
    let n = 70u32; // > 64 so arcs straddle the bitmap's word boundary
    let cfg = RmbConfig::new(n, 1).unwrap();
    let plan = FaultPlan::new().segment_stuck(5, NodeId::new(67), BusIndex::new(0), Some(400));
    let mut net = RmbNetwork::builder(cfg)
        .checked(true)
        .fault_plan(plan)
        .build();
    for tick in 0..=500u64 {
        assert_all_queries_agree(&net, tick);
        if tick == 50 {
            // While the fault at hop 67 is active (k = 1, so the hop is
            // full), the wrapping path 60 -> 3 is infeasible.
            assert!(!net.path_feasible(NodeId::new(60), NodeId::new(3)));
            assert!(net.path_feasible(NodeId::new(0), NodeId::new(60)));
        }
        if tick == 450 {
            assert!(
                net.path_feasible(NodeId::new(60), NodeId::new(3)),
                "repair restores the arc"
            );
        }
        net.tick();
    }
}
