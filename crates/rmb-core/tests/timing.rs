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

/// The stream state is observable mid-flight: the flits sent and landed,
/// read off it in closed form, grow monotonically with landings never
/// ahead of sends, and the final flit's landing delivers the message.
#[test]
fn stream_counters_are_consistent_every_tick() {
    let cfg = RmbConfig::new(10, 2).unwrap();
    let mut net = RmbNetwork::builder(cfg).checked(true).build();
    net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(6), 40))
        .unwrap();
    let (mut last_sent, mut last_landed) = (0, 0);
    let mut stream = None;
    for _ in 0..300 {
        net.tick();
        let ticked = net.now().get() - 1;
        if let Some(bus) = net.virtual_buses().next() {
            if let Some(BusState::Streaming(s)) = net.bus_state(bus.id) {
                // Data flit i goes out at circuit_at + 1 + i and lands
                // span ticks later.
                let sent = (ticked - s.circuit_at).min(u64::from(s.data_flits));
                let landed = sent.min(ticked.saturating_sub(s.circuit_at + u64::from(s.span)));
                assert!(sent >= last_sent && landed >= last_landed);
                assert!(landed <= sent);
                (last_sent, last_landed) = (sent, landed);
                stream = Some(s);
            }
        }
    }
    assert_eq!(last_landed, 40, "all data flits observed delivered");
    let s = stream.expect("the circuit streamed");
    assert_eq!(
        net.delivered_log()[0].delivered_at,
        s.circuit_at + 40 + 1 + u64::from(s.span)
    );
}

/// The stall detectors read `last_progress()`, so a stream marks progress
/// on exactly the ticks a flit is sent or lands. `t` ticks after the
/// circuit comes up, flit `i` (the final flit is `i = m`) is sent at
/// `t = 1 + i` and lands at `t = 1 + i + L`, and the final flit's landing
/// delivers. Compaction is off, so no move adds progress of its own.
#[test]
fn a_stream_progresses_exactly_when_a_flit_is_sent_or_lands() {
    for (n, span) in [(4u32, 1u32), (8, 2), (12, 5), (16, 9)] {
        for m in [0, 1, span - 1, span, span + 1, 3 * span] {
            let cfg = RmbConfig::builder(n, 3).compaction(false).build().unwrap();
            let mut net = RmbNetwork::builder(cfg).checked(true).build();
            net.submit(MessageSpec::new(NodeId::new(1), NodeId::new(1 + span), m))
                .unwrap();
            let circuit_at = loop {
                net.tick();
                let bus = net.virtual_buses().next().expect("circuit live");
                if let Some(BusState::Streaming(s)) = net.bus_state(bus.id) {
                    break s.circuit_at;
                }
            };
            let (m, l) = (u64::from(m), u64::from(span));
            let delivery = circuit_at + m + 1 + l;
            for tick in circuit_at + 1..=delivery {
                assert_eq!(net.now().get(), tick);
                let before = net.last_progress();
                net.tick();
                let t = tick - circuit_at;
                let moved = t <= m + 1 || (l < t && t <= m + 1 + l);
                let want = if moved { tick } else { before };
                assert_eq!(net.last_progress(), want, "N={n} L={l} m={m} t={t}");
            }
            let d = &net.delivered_log()[0];
            assert_eq!((d.circuit_at, d.delivered_at), (circuit_at, delivery));
        }
    }
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
