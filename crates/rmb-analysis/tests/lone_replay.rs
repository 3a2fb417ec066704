//! The lattice and the dual ring on the composition engine replay
//! memoised lone circuits instead of ticking them; every carrier of a
//! checked run ticks them. Both runs must agree in everything but the
//! count of replayed ticks.

use rmb_analysis::{DualRmbRing, RmbLattice};
use rmb_hier::{route, route_checked, LegMap, Routed};
use rmb_sim::SimRng;
use rmb_types::{MessageSpec, NodeId, RmbConfig};

/// Routes `msgs` both ways, checks they agree, and returns the unchecked
/// run.
fn agree<M: LegMap>(map: &M, msgs: &[MessageSpec]) -> Routed {
    let fast = route(map, msgs, 1_000_000);
    let slow = route_checked(map, msgs, 1_000_000);
    assert_eq!(slow.jumped_ticks, 0);
    assert_eq!(
        slow,
        Routed {
            jumped_ticks: 0,
            ..fast.clone()
        }
    );
    fast
}

#[test]
fn lattice_replay_matches_checked_ticks() {
    let cfg = RmbConfig::builder(4, 2)
        .head_timeout(64)
        .retry_backoff(8)
        .build()
        .unwrap();
    let lattice = RmbLattice::new(vec![4, 4], cfg);
    let mut rng = SimRng::seed(0x1a77);
    // Sparse traffic: most legs run alone on their ring, with bursts of
    // contention.
    let msgs: Vec<MessageSpec> = (0..160)
        .map(|i| {
            let src = rng.index(16).unwrap() as u32;
            let dst = rng.index(16).unwrap() as u32;
            let at = if i % 8 == 0 {
                40 * i
            } else {
                40 * i + rng.index(30).unwrap() as u64
            };
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), 1 + (i % 3) as u32 * 4).at(at)
        })
        .collect();
    let out = agree(&lattice, &msgs);
    assert!(!out.stalled);
    assert_eq!(out.delivered.len(), msgs.len());
    assert!(out.jumped_ticks > 0, "{out:?}");
}

#[test]
fn dual_ring_stalls_on_the_same_tick_with_and_without_replay() {
    // k = 1 and no head timeout: every node sends two hops
    // counter-clockwise at once, on the reverse ring, and the headers pin
    // one another forever. Meanwhile two identical long legs run back to
    // back, alone, on the primary ring; the second replays the first.
    let n = 8;
    let dual = DualRmbRing::new(RmbConfig::new(n, 1).unwrap());
    let mut msgs: Vec<MessageSpec> = (0..n)
        .map(|i| MessageSpec::new(NodeId::new(i), NodeId::new((i + n - 2) % n), 4))
        .collect();
    for at in [0, 300] {
        msgs.push(MessageSpec::new(NodeId::new(0), NodeId::new(3), 200).at(at));
    }
    let out = agree(&dual, &msgs);
    assert!(out.stalled);
    assert_eq!(out.delivered.len(), 2);
    assert!(out.jumped_ticks > 200, "{out:?}");
}
