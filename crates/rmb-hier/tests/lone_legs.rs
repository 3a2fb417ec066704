//! Legs that run alone on their carrier ring: a leg that streams for
//! longer than the hierarchy's base stall window is still progress, every
//! lone-circuit life the engine memoises matches the analytical leg
//! model, and a replayed life agrees with its ticks under the shortest
//! stall window a composition may use.

use rmb_hier::{model, route, route_checked, HierNetwork, Leg, LegMap, Routed};
use rmb_sim::SimRng;
use rmb_types::{HierConfig, HierMessageSpec, MessageSpec, NodeAddr, NodeId, RmbConfig};
use rmb_workloads::LocalityTraffic;

fn addr(ring: u32, node: u32) -> NodeAddr {
    NodeAddr::new(ring, NodeId::new(node))
}

/// Two rings of 8 nodes, k = 2, default timing: a base stall window of
/// 1,216 ticks.
fn small() -> HierConfig {
    HierConfig::builder(2, 8, 2).build().unwrap()
}

#[test]
fn a_leg_streaming_past_the_base_window_is_not_a_stall() {
    let mut net = HierNetwork::new(small());
    let spec = HierMessageSpec::new(addr(0, 1), addr(0, 5), 2_000);
    net.submit(spec).unwrap();
    let report = net.run_to_quiescence(1_000_000);
    assert!(!report.stalled, "{report:?}");
    assert_eq!(report.delivered, 1);
    // The leg lands at 3·4 + 2,000 + 1, after the 1,216-tick base window.
    assert_eq!(net.delivered_log()[0].delivered_at, 2_013);
    assert_eq!(
        net.delivered_log()[0].latency(),
        model::unloaded_latency(net.config(), &spec)
    );
}

#[test]
fn a_long_message_across_rings_is_not_a_stall() {
    let mut net = HierNetwork::new(small());
    let spec = HierMessageSpec::new(addr(0, 1), addr(1, 5), 1_200);
    net.submit(spec).unwrap();
    let report = net.run_to_quiescence(1_000_000);
    assert!(!report.stalled, "{report:?}");
    assert_eq!(report.delivered, 1);
    assert_eq!(
        net.delivered_log()[0].latency(),
        model::unloaded_latency(net.config(), &spec)
    );
}

/// Every life the engine memoised delivers when the analytical leg
/// model says (`3L + m + 1` ticks after injection) and tears down one hop
/// per tick after that.
#[test]
fn every_memoised_life_matches_the_leg_model() {
    let cfg = HierConfig::builder(4, 16, 4).build().unwrap();
    let mut net = HierNetwork::new(cfg);
    for flits in [1, 8, 32] {
        let msgs = LocalityTraffic {
            rings: 4,
            nodes: 16,
            bridge: NodeId::new(0),
            locality: 0.7,
            flits,
        }
        .generate(120, 40_000, &mut SimRng::seed(u64::from(flits)));
        net.submit_all(msgs).unwrap();
    }
    let report = net.run_to_quiescence(10_000_000);
    assert!(!report.stalled, "{report:?}");
    assert_eq!(report.delivered, 360);
    let memo = net.lone_memo();
    assert!(memo.hits() > memo.misses(), "{memo:?}");
    assert!(memo.lives().count() >= 20, "{memo:?}");
    for life in memo.lives() {
        let span = u64::from(life.span());
        assert_eq!(
            life.delivery_ticks(),
            model::leg_delivery_ticks(span, life.data_flits()),
            "{life:?}"
        );
        assert_eq!(
            life.teardown_ticks(),
            life.delivery_ticks() + span,
            "{life:?}"
        );
    }
}

/// One ring as a composition: a message takes one leg, and the stall
/// window is as short as a lone circuit's pauses allow, its span plus one
/// tick.
struct OneRing {
    cfg: RmbConfig,
    window: u64,
}

impl LegMap for OneRing {
    fn carriers(&self) -> Vec<RmbConfig> {
        vec![self.cfg]
    }

    fn next_leg(&self, msg: &MessageSpec, at: NodeId) -> Leg {
        Leg {
            carrier: 0,
            from: at,
            to: msg.destination,
            reaches: msg.destination,
        }
    }

    fn stall_window(&self, _messages: &[MessageSpec]) -> u64 {
        self.window
    }
}

/// A 24-hop leg runs alone twice, and the second run replays the first's
/// life, counting each of its ticks as progress. Under a window of the
/// span plus one tick the ticked life's `Hack` return does not stall
/// either, so the replayed run and the checked run agree.
#[test]
fn a_replayed_life_agrees_under_the_shortest_window() {
    let map = OneRing {
        cfg: RmbConfig::new(32, 2).unwrap(),
        window: 25,
    };
    let leg = MessageSpec::new(NodeId::new(0), NodeId::new(24), 8);
    let msgs = [leg, leg.at(200)];
    let slow = route_checked(&map, &msgs, 100_000);
    assert!(!slow.stalled, "{slow:?}");
    assert_eq!(slow.delivered.len(), 2);
    let fast = route(&map, &msgs, 100_000);
    // The run ends on the second delivery: only its first segment jumps.
    assert_eq!(fast.jumped_ticks, model::leg_delivery_ticks(24, 8));
    assert_eq!(
        Routed {
            jumped_ticks: 0,
            ..fast
        },
        slow
    );
}
