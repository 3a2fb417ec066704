//! Property-based JSON round-trips and arithmetic laws for the shared
//! vocabulary types.

use proptest::prelude::*;
use rmb_types::json::{FromJson, ToJson};
use rmb_types::{
    AckMode, BusIndex, DeliveredMessage, InsertionPolicy, MessageSpec, NodeId, RequestId, RingSize,
    RmbConfig,
};

proptest! {
    #[test]
    fn ring_arithmetic_laws(n in 2u32..2000, a in any::<u32>(), b in any::<u32>()) {
        let ring = RingSize::new(n).unwrap();
        let x = NodeId::new(a % n);
        let y = NodeId::new(b % n);
        // successor/predecessor are inverses.
        prop_assert_eq!(ring.predecessor(ring.successor(x)), x);
        prop_assert_eq!(ring.successor(ring.predecessor(x)), x);
        // clockwise distance is a quasi-metric on the directed ring.
        let d = ring.clockwise_distance(x, y);
        prop_assert!(d < n);
        prop_assert_eq!(ring.advance(x, d), y);
        // Forward + backward distances sum to 0 or N.
        let back = ring.clockwise_distance(y, x);
        prop_assert!(d + back == 0 || d + back == n);
    }

    #[test]
    fn bus_index_lower_upper_inverse(i in 0u16..u16::MAX) {
        let b = BusIndex::new(i);
        prop_assert_eq!(b.upper().lower(), Some(b));
        if let Some(lo) = b.lower() {
            prop_assert_eq!(lo.upper(), b);
            prop_assert!(b.is_adjacent_or_equal(lo));
        }
        prop_assert_eq!(b.distance(b), 0);
    }

    #[test]
    fn message_spec_roundtrips(
        s in any::<u32>(),
        d in any::<u32>(),
        flits in any::<u32>(),
        at in any::<u64>(),
    ) {
        let spec = MessageSpec::new(NodeId::new(s), NodeId::new(d), flits).at(at);
        let json = spec.to_json();
        prop_assert_eq!(MessageSpec::from_json(&json).unwrap(), spec);
    }

    #[test]
    fn delivered_message_roundtrips(
        req in any::<u64>(),
        t0 in any::<u32>(),
        dt1 in any::<u32>(),
        dt2 in any::<u32>(),
        refusals in any::<u32>(),
    ) {
        let d = DeliveredMessage {
            request: RequestId::new(req),
            spec: MessageSpec::new(NodeId::new(0), NodeId::new(1), 4),
            requested_at: u64::from(t0),
            circuit_at: u64::from(t0) + u64::from(dt1),
            delivered_at: u64::from(t0) + u64::from(dt1) + u64::from(dt2),
            refusals,
        };
        let json = d.to_json();
        prop_assert_eq!(DeliveredMessage::from_json(&json).unwrap(), d);
        prop_assert_eq!(d.latency(), u64::from(dt1) + u64::from(dt2));
        prop_assert_eq!(d.setup_latency(), u64::from(dt1));
    }

    #[test]
    fn config_roundtrips(
        n in 2u32..10_000,
        k in 1u16..512,
        compaction in any::<bool>(),
        early in any::<bool>(),
        timeout in proptest::option::of(1u64..100_000),
        backoff in 0u64..10_000,
        window in proptest::option::of(1u32..1_000),
    ) {
        let mut b = RmbConfig::builder(n, k)
            .compaction(compaction)
            .early_compaction(early)
            .retry_backoff(backoff)
            .ack_mode(match window {
                Some(w) => AckMode::Windowed { window: w },
                None => AckMode::Unlimited,
            })
            .insertion(InsertionPolicy::TopBusOnly);
        if let Some(t) = timeout {
            b = b.head_timeout(t);
        }
        let cfg = b.build().unwrap();
        let json = cfg.to_json();
        prop_assert_eq!(RmbConfig::from_json(&json).unwrap(), cfg);
        prop_assert_eq!(cfg.top_bus(), BusIndex::new(k - 1));
    }
}
