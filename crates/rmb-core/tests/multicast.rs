//! Tests of the multicast extension (§1: "the RMB concept can also be
//! extended to support broadcasting and multicasting").

use rmb_core::RmbNetwork;
use rmb_types::{MessageSpec, NodeId, ProtocolError, RmbConfig};

fn net(n: u32, k: u16) -> RmbNetwork {
    RmbNetwork::builder(RmbConfig::new(n, k).unwrap())
        .checked(true)
        .build()
}

fn nodes(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().map(|&i| NodeId::new(i)).collect()
}

#[test]
fn multicast_delivers_to_every_destination() {
    let mut net = net(12, 3);
    net.submit_multicast(NodeId::new(1), &nodes(&[4, 7, 9]), 8, 0)
        .unwrap();
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 3, "one delivery per destination");
    assert_eq!(report.undelivered, 0);
    let mut dests: Vec<u32> = net
        .delivered_log()
        .iter()
        .map(|d| d.spec.destination.index())
        .collect();
    dests.sort_unstable();
    assert_eq!(dests, vec![4, 7, 9]);
    // All three share one request and one circuit.
    let log = net.delivered_log();
    assert!(log.iter().all(|d| d.request == log[0].request));
    assert!(log.iter().all(|d| d.circuit_at == log[0].circuit_at));
    assert!(net.is_quiescent());
    assert_eq!(net.busy_segments(), 0);
}

#[test]
fn nearer_taps_receive_earlier() {
    let mut net = net(12, 3);
    net.submit_multicast(NodeId::new(0), &nodes(&[3, 6, 9]), 16, 0)
        .unwrap();
    net.run_to_quiescence(10_000);
    let at = |d: u32| {
        net.delivered_log()
            .iter()
            .find(|m| m.spec.destination.index() == d)
            .unwrap()
            .delivered_at
    };
    assert!(at(3) < at(6));
    assert!(at(6) < at(9));
    // The stream flows one hop per tick past the taps.
    assert_eq!(at(6) - at(3), 3);
    assert_eq!(at(9) - at(6), 3);
}

#[test]
fn multicast_uses_one_circuit_not_three() {
    // One multicast to three destinations occupies one arc; three unicasts
    // need three circuits and (with k = 1) must serialise.
    let destinations = nodes(&[3, 5, 7]);
    let mut mc = net(10, 1);
    mc.submit_multicast(NodeId::new(0), &destinations, 32, 0)
        .unwrap();
    let mc_report = mc.run_to_quiescence(100_000);
    assert_eq!(mc_report.delivered, 3);

    let mut uc = net(10, 1);
    for d in &destinations {
        uc.submit(MessageSpec::new(NodeId::new(0), *d, 32)).unwrap();
    }
    let uc_report = uc.run_to_quiescence(100_000);
    assert_eq!(uc_report.delivered, 3);

    assert!(
        mc_report.makespan() * 2 < uc_report.makespan(),
        "multicast {} vs unicast {}",
        mc_report.makespan(),
        uc_report.makespan()
    );
}

#[test]
fn busy_tap_refuses_and_retries() {
    let mut net = net(12, 3);
    // Keep node 5 busy receiving a long unicast...
    net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(5), 120))
        .unwrap();
    // ... then multicast across it.
    net.submit_multicast(NodeId::new(0), &nodes(&[5, 8]), 4, 4)
        .unwrap();
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 3, "unicast + two multicast legs");
    assert!(report.refusals >= 1, "tap at busy node 5 must Nack once");
    assert!(net.is_quiescent());
}

#[test]
fn broadcast_to_all_other_nodes() {
    let n = 10u32;
    let mut net = net(n, 2);
    let everyone: Vec<NodeId> = (1..n).map(NodeId::new).collect();
    net.submit_multicast(NodeId::new(0), &everyone, 8, 0)
        .unwrap();
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, (n - 1) as usize);
    assert_eq!(report.undelivered, 0);
}

#[test]
fn multicast_validation() {
    let mut net = net(8, 2);
    // Empty destination set.
    assert!(matches!(
        net.submit_multicast(NodeId::new(0), &[], 1, 0),
        Err(ProtocolError::SelfMessage { .. })
    ));
    // Source among destinations.
    assert!(net
        .submit_multicast(NodeId::new(0), &nodes(&[2, 0]), 1, 0)
        .is_err());
    // Duplicate destinations.
    assert!(net
        .submit_multicast(NodeId::new(0), &nodes(&[2, 2]), 1, 0)
        .is_err());
    // Out-of-ring node.
    assert!(matches!(
        net.submit_multicast(NodeId::new(0), &nodes(&[9]), 1, 0),
        Err(ProtocolError::UnknownNode { .. })
    ));
    // A single destination degenerates to unicast and works.
    net.submit_multicast(NodeId::new(0), &nodes(&[4]), 4, 0)
        .unwrap();
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 1);
}

#[test]
fn unordered_destination_lists_are_sorted_along_the_ring() {
    let mut net = net(12, 2);
    net.submit_multicast(NodeId::new(6), &nodes(&[2, 10, 8]), 4, 0)
        .unwrap();
    // Clockwise from 6: 8 (2 hops), 10 (4 hops), 2 (8 hops).
    let report = net.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 3);
    let at = |d: u32| {
        net.delivered_log()
            .iter()
            .find(|m| m.spec.destination.index() == d)
            .unwrap()
            .delivered_at
    };
    assert!(at(8) < at(10));
    assert!(at(10) < at(2));
}

#[test]
fn multicast_circuit_compacts_like_any_other() {
    let mut net = net(12, 4);
    net.submit_multicast(NodeId::new(0), &nodes(&[4, 8]), 200, 0)
        .unwrap();
    net.run(40);
    let bus = net.virtual_buses().next().expect("circuit live");
    assert!(
        bus.heights.iter().all(|h| h.index() == 0),
        "heights: {:?}",
        bus.heights
    );
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 2);
}
