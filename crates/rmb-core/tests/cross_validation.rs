//! N-version cross-validation: the arithmetic engine (`RmbNetwork`) and
//! the explicit flit-level engine (`microsim::FlitLevelRmb`) implement
//! the same protocol independently; on identical workloads they must
//! produce identical per-message delivery times, circuit times, refusals
//! and compaction-move counts.

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_core::microsim::FlitLevelRmb;
use rmb_core::RmbNetwork;
use rmb_sim::SimRng;
use rmb_types::{MessageSpec, NodeId, RmbConfig};

/// (request id, circuit tick, delivery tick) per delivered message.
type Outcome = Vec<(u64, u64, u64)>;

fn run_both(n: u32, k: u16, msgs: &[MessageSpec]) -> (Outcome, Outcome) {
    // Workloads that deadlock (for example crossed partial circuits on
    // k = 1 — see the deadlock study) must still produce *identical*
    // partial outcomes. The checked reference stops at quiescence or once
    // its stall detector sees a circular wait; the independent engine
    // always runs to quiescence or the fixed budget, so any delivery,
    // refusal or compaction move it makes after the reference's stall
    // shows up as a mismatch below.
    let cap = 60_000;
    let cfg = RmbConfig::new(n, k).unwrap();

    let mut reference = RmbNetwork::builder(cfg).checked(true).build();
    for m in msgs {
        reference.submit(*m).unwrap();
    }
    let report = reference.run_to_quiescence(cap);

    let mut explicit = FlitLevelRmb::new(cfg);
    for m in msgs {
        explicit.submit(*m).unwrap();
    }
    explicit.run_to_quiescence(cap);

    let mut a: Outcome = reference
        .delivered_log()
        .iter()
        .map(|d| (d.request.get(), d.circuit_at, d.delivered_at))
        .collect();
    let mut b: Outcome = explicit
        .delivered()
        .iter()
        .map(|d| (d.request.get(), d.circuit_at, d.delivered_at))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    // Compaction-move counts must agree too: the engines make identical
    // decisions, not merely identical deliveries.
    assert_eq!(report.compaction_moves, explicit.compaction_moves());
    assert_eq!(report.refusals, explicit.refusals());
    // A stall the reference gave up on must be one the independent engine
    // never leaves either.
    assert_eq!(
        reference.is_quiescent(),
        explicit.is_quiescent(),
        "stalled: {}",
        report.stalled
    );
    (a, b)
}

#[test]
fn single_messages_agree_across_spans() {
    for n in [4u32, 8, 12] {
        for dst in 1..n {
            for m in [0u32, 3, 17] {
                let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(dst), m)];
                let (a, b) = run_both(n, 3, &msgs);
                assert_eq!(a, b, "n={n} dst={dst} m={m}");
            }
        }
    }
}

#[test]
fn overlapping_circuits_agree() {
    let msgs = vec![
        MessageSpec::new(NodeId::new(0), NodeId::new(8), 40),
        MessageSpec::new(NodeId::new(1), NodeId::new(7), 40).at(2),
        MessageSpec::new(NodeId::new(2), NodeId::new(9), 24).at(5),
        MessageSpec::new(NodeId::new(10), NodeId::new(3), 12).at(9),
    ];
    let (a, b) = run_both(12, 3, &msgs);
    assert_eq!(a, b);
}

#[test]
fn refusal_and_retry_agree() {
    // Two senders to one destination: one gets Nacked, retries, delivers.
    let msgs = vec![
        MessageSpec::new(NodeId::new(0), NodeId::new(4), 60),
        MessageSpec::new(NodeId::new(2), NodeId::new(4), 6),
    ];
    let (a, b) = run_both(8, 2, &msgs);
    assert_eq!(a, b);
}

/// Past the knee: a 16-node, k=4 ring offered uniform 8-flit messages at
/// 0.012 msgs/node/tick for 2,000 ticks, drawn per tick and node, at three
/// seeds. Without a head timeout the partial circuits can wait on one
/// another in a circle, so the engines must also agree on where the run
/// stalls.
#[test]
fn saturated_uniform_load_agrees() {
    let n = 16;
    for seed in [1996, 1, 2] {
        let mut rng = SimRng::seed(seed);
        let mut msgs = Vec::new();
        for at in 0..2_000 {
            for src in 0..n {
                if rng.chance(0.012) {
                    let r = rng.index(n as usize - 1).unwrap() as u32;
                    let dst = if r >= src { r + 1 } else { r };
                    msgs.push(MessageSpec::new(NodeId::new(src), NodeId::new(dst), 8).at(at));
                }
            }
        }
        let (a, b) = run_both(n, 4, &msgs);
        assert_eq!(a, b, "seed {seed}");
    }
}

/// Ring sizes beyond the small ones: one word short of, exactly at and
/// past a 64-hop lane word, odd and even, so the compaction lanes span two
/// and three words and odd rings put two even nodes side by side at the
/// cut.
const WIDE_RINGS: [u32; 5] = [63, 64, 65, 127, 130];

#[test]
fn wide_odd_ring_compaction_agrees() {
    // Long circuits crossing the cut of a 127-node ring: their lanes span
    // two words, and the Fig. 8 parity pattern breaks where the arc
    // wraps. Each later circuit overlaps the earlier ones and sinks
    // beneath them hop by hop.
    let msgs = vec![
        MessageSpec::new(NodeId::new(100), NodeId::new(90), 200),
        MessageSpec::new(NodeId::new(101), NodeId::new(80), 160).at(3),
        MessageSpec::new(NodeId::new(110), NodeId::new(70), 120).at(9),
        MessageSpec::new(NodeId::new(20), NodeId::new(10), 40).at(40),
    ];
    let (a, b) = run_both(127, 5, &msgs);
    assert_eq!(a.len(), msgs.len(), "every circuit delivers");
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full cross-check over random workloads: identical deliveries,
    /// identical compaction decisions. The checked reference also compares
    /// its ring kernel's moves against the per-hop rule over every bus
    /// compaction may move, and its lanes against the heights and states
    /// (invariant #7), on every tick.
    #[test]
    fn engines_agree_on_random_workloads(
        ring in 0usize..16,
        small_k in 1u16..5,
        wide_k in 1u16..13,
        raw in vec((any::<u32>(), any::<u32>(), 0u32..24, 0u64..120), 1..14),
    ) {
        // Small rings keep the contention-heavy k ≤ 4 draw (refusals,
        // Nacks, k = 1 circular waits); wide rings add multi-word lanes
        // and k up to 12.
        let (n, k) = if ring < 11 {
            (3 + ring as u32, small_k)
        } else {
            (WIDE_RINGS[ring - 11], wide_k)
        };
        let msgs: Vec<MessageSpec> = raw
            .iter()
            .map(|&(s, off, flits, at)| {
                let src = s % n;
                let dst = (src + 1 + off % (n - 1)) % n;
                MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits).at(at)
            })
            .collect();
        let (a, b) = run_both(n, k, &msgs);
        // Note: completeness is NOT required — k = 1 workloads can reach
        // the circular wait documented in EXPERIMENTS.md. The engines
        // must agree on whatever happened.
        prop_assert_eq!(a, b);
    }
}
