//! Property-based tests of the baseline networks: conservation (every
//! message delivered exactly once), route legality and latency bounds
//! across random workloads on all topologies.

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_baselines::{FatTree, Hypercube, KAryNCube, Mesh2D, Network};
use rmb_types::{MessageSpec, NodeId};

type RawMsg = (u32, u32, u32, u64);

fn build_msgs(n: u32, raw: &[RawMsg]) -> Vec<MessageSpec> {
    raw.iter()
        .map(|&(s, off, flits, at)| {
            let src = s % n;
            let dst = (src + 1 + off % (n - 1)) % n;
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits % 24).at(at % 200)
        })
        .collect()
}

fn check_conservation(net: &mut dyn Network, msgs: &[MessageSpec]) -> Result<(), TestCaseError> {
    let out = net.route_messages(msgs, 4_000_000);
    prop_assert!(!out.stalled, "{} stalled", net.label());
    prop_assert_eq!(out.delivered.len(), msgs.len(), "{}", net.label());
    for d in &out.delivered {
        prop_assert!(d.delivered_at >= d.circuit_at);
        prop_assert!(d.circuit_at >= d.requested_at);
        // Latency at least the body length (one flit per tick at best).
        prop_assert!(d.latency() >= u64::from(d.spec.data_flits));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hypercube_conserves_messages(
        pow in 2u32..6,
        raw in vec(any::<RawMsg>(), 1..24),
    ) {
        let n = 1 << pow;
        let msgs = build_msgs(n, &raw);
        check_conservation(&mut Hypercube::new(n), &msgs)?;
        check_conservation(&mut Hypercube::new_with_layout_wires(n), &msgs)?;
    }

    #[test]
    fn mesh_conserves_messages(
        side in 2u32..7,
        raw in vec(any::<RawMsg>(), 1..24),
    ) {
        let n = side * side;
        let msgs = build_msgs(n, &raw);
        check_conservation(&mut Mesh2D::new(side, side), &msgs)?;
    }

    #[test]
    fn fat_tree_conserves_messages(
        pow in 2u32..6,
        k in 1u16..6,
        raw in vec(any::<RawMsg>(), 1..24),
    ) {
        let n = 1 << pow;
        let msgs = build_msgs(n, &raw);
        check_conservation(&mut FatTree::new(n, k), &msgs)?;
        check_conservation(&mut FatTree::new_with_layout_wires(n, k), &msgs)?;
    }

    #[test]
    fn torus_conserves_messages(
        radix in 3u32..6,
        dims in 1u32..3,
        raw in vec(any::<RawMsg>(), 1..20),
    ) {
        let n = radix.pow(dims);
        let msgs = build_msgs(n, &raw);
        check_conservation(&mut KAryNCube::new(radix, dims), &msgs)?;
    }

    /// Unloaded single-message latency equals the topology's distance
    /// plus the flit pipeline, exactly.
    #[test]
    fn single_message_latency_is_distance_plus_pipeline(
        s in any::<u32>(),
        off in any::<u32>(),
        flits in 0u32..32,
    ) {
        let n = 16u32;
        let src = s % n;
        let dst = (src + 1 + off % (n - 1)) % n;
        let msgs = vec![MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits)];

        let mut cube = Hypercube::new(n);
        let out = cube.route_messages(&msgs, 100_000);
        let d = &out.delivered[0];
        let hamming = (src ^ dst).count_ones() as u64;
        prop_assert_eq!(d.circuit_at, hamming);
        // Tail flit: injected `flits + 1` ticks after the header, then
        // pipelines across the same `hamming` channels.
        prop_assert_eq!(d.delivered_at, hamming + u64::from(flits) + 1);
    }
}
