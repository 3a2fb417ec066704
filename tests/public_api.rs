//! Public-API hygiene tests: umbrella re-exports, thread-safety markers,
//! the JSON round-trip of a message spec.

use rmb::core::{BusState, RmbNetwork, RunReport, VirtualBus};
use rmb::sim::{EventQueue, SimRng, Tick};
use rmb::types::json::Value;
use rmb::types::{DeliveredMessage, MessageSpec, NodeId, RmbConfig};

#[test]
fn umbrella_reexports_cover_all_crates() {
    // One symbol per crate proves the module wiring.
    let _ = rmb::types::NodeId::new(0);
    let _ = rmb::sim::Tick::ZERO;
    let _ = rmb::core::PortStatus::UNUSED;
    let _ = rmb::asynchronous::ThreadedCycleRing::new(2);
    let _ = rmb::baselines::Hypercube::new(4);
    let _ = rmb::analysis::cost::cost(rmb::analysis::Architecture::Rmb, 8, 2);
    let _ = rmb::workloads::PermutationKind::Random;
    let _ = rmb::serve::AdmissionMode::Aggregate { depth: 1 };
    let _ = rmb::scenario::parse_scenario("").unwrap_err();
}

#[test]
fn key_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RmbConfig>();
    assert_send_sync::<MessageSpec>();
    assert_send_sync::<DeliveredMessage>();
    assert_send_sync::<RmbNetwork>();
    assert_send_sync::<RunReport>();
    assert_send_sync::<VirtualBus>();
    assert_send_sync::<BusState>();
    assert_send_sync::<Tick>();
    assert_send_sync::<SimRng>();
    assert_send_sync::<EventQueue<u32>>();
}

#[test]
fn message_and_result_json_roundtrip() {
    let spec = MessageSpec::new(NodeId::new(1), NodeId::new(5), 32).at(7);
    let json = Value::parse(&spec.to_json()).unwrap();
    assert_eq!(MessageSpec::from_value(&json).unwrap(), spec);
}

#[test]
fn network_is_usable_behind_a_thread() {
    // A whole simulation can be shipped to a worker thread (Send).
    let handle = std::thread::spawn(|| {
        let mut net = RmbNetwork::new(RmbConfig::new(8, 2).unwrap());
        net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(4), 8))
            .unwrap();
        net.run_to_quiescence(100_000).delivered
    });
    assert_eq!(handle.join().unwrap(), 1);
}

#[test]
fn errors_are_reportable() {
    let mut net = RmbNetwork::new(RmbConfig::new(4, 1).unwrap());
    let err = net
        .submit(MessageSpec::new(NodeId::new(1), NodeId::new(1), 0))
        .unwrap_err();
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("not routable"));
}
