//! Property-based ring and bus-index arithmetic laws and the message
//! spec's JSON round-trip.

use proptest::prelude::*;
use rmb_types::json::Value;
use rmb_types::{BusIndex, MessageSpec, NodeId, RingSize};

proptest! {
    #[test]
    fn ring_arithmetic_laws(n in 2u32..2000, a in any::<u32>(), b in any::<u32>()) {
        let ring = RingSize::new(n).unwrap();
        let x = NodeId::new(a % n);
        let y = NodeId::new(b % n);
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
    }

    #[test]
    fn message_spec_roundtrips(
        s in any::<u32>(),
        d in any::<u32>(),
        flits in any::<u32>(),
        at in any::<u64>(),
    ) {
        let spec = MessageSpec::new(NodeId::new(s), NodeId::new(d), flits).at(at);
        let json = Value::parse(&spec.to_json()).unwrap();
        prop_assert_eq!(MessageSpec::from_value(&json).unwrap(), spec);
    }
}
