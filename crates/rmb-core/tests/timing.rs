//! Exact-timing tests of the data-flit pipeline: the arithmetic the
//! simulator's stream model is built on, checked against first
//! principles.

use rmb_core::{BusState, RmbNetwork};
use rmb_types::{MessageSpec, NodeId, RmbConfig};

fn run_one(n: u32, k: u16, span_dst: u32, flits: u32) -> (u64, u64) {
    let cfg = RmbConfig::new(n, k).unwrap();
    let mut net = RmbNetwork::builder(cfg).checked(true).build();
    net.submit(MessageSpec::new(
        NodeId::new(0),
        NodeId::new(span_dst),
        flits,
    ))
    .unwrap();
    let report = net.run_to_quiescence(1_000_000);
    assert_eq!(report.delivered, 1);
    let d = &net.delivered_log()[0];
    (d.circuit_at, d.delivered_at)
}

/// The pipeline's timeline for span L, m data flits, injection at t0 = 0:
/// inject t0; header extends L-1 times (t1..t(L-1)); accept at tL;
/// Hack crosses L hops -> circuit at t2L; DFs sent t2L+1..t2L+m;
/// FF sent t2L+m+1; arrives L later.
#[test]
fn unlimited_pipeline_formula_holds_across_spans_and_sizes() {
    for (n, dst, m) in [(8u32, 4u32, 4u32), (8, 1, 0), (12, 9, 25), (6, 5, 7)] {
        let span = u64::from(dst); // source is node 0
        let (circuit, done) = run_one(n, 2, dst, m);
        assert_eq!(circuit, 2 * span, "N={n} dst={dst}");
        assert_eq!(
            done,
            2 * span + u64::from(m) + 1 + span,
            "N={n} dst={dst} m={m}"
        );
    }
}

/// The stream state is observable mid-flight: delivered counts grow
/// monotonically, never exceeding sends.
#[test]
fn stream_counters_are_consistent_every_tick() {
    let cfg = RmbConfig::new(10, 2).unwrap();
    let mut net = RmbNetwork::builder(cfg).checked(true).build();
    net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(6), 40))
        .unwrap();
    let mut last_delivered = 0;
    for _ in 0..300 {
        net.tick();
        if let Some(bus) = net.virtual_buses().next() {
            if let Some(BusState::Streaming(s)) = net.bus_state(bus.id) {
                assert!(s.delivered >= last_delivered);
                assert!(s.delivered <= s.next_seq);
                last_delivered = s.delivered;
            }
        }
    }
    assert_eq!(last_delivered, 40, "all data flits observed delivered");
}

/// Latency histograms on the report bin correctly.
#[test]
fn report_latency_histogram() {
    let cfg = RmbConfig::new(8, 2).unwrap();
    let mut net = RmbNetwork::new(cfg);
    for i in 0..4 {
        net.submit(
            MessageSpec::new(NodeId::new(i), NodeId::new((i + 2) % 8), 4).at(u64::from(i) * 100),
        )
        .unwrap();
    }
    let report = net.run_to_quiescence(100_000);
    assert_eq!(report.delivered, 4);
    let h = net.latency_histogram(8);
    assert_eq!(h.total(), 4);
    assert!(h.mean() > 0.0);
}
