//! Trace recording and replay: turn a run's delivered set into a
//! portable workload.
//!
//! A recorded trace is the canonical JSON array of the [`MessageSpec`]s a
//! run delivered, sorted into the canonical trace order — by
//! `(inject_at, source, destination, data_flits)` — so the same delivered
//! *set* always encodes to the same bytes regardless of completion order,
//! engine or scheduler. Replaying the trace through another scenario
//! re-offers exactly those messages; a replay run that delivers everything
//! proves the two runs moved an identical message set.

use rmb_types::json::{JsonError, Value};
use rmb_types::MessageSpec;

/// Sorts specs into canonical trace order:
/// `(inject_at, source, destination, data_flits)`.
pub fn canonical_trace_order(specs: &mut [MessageSpec]) {
    specs.sort_by_key(|m| {
        (
            m.inject_at,
            m.source.index(),
            m.destination.index(),
            m.data_flits,
        )
    });
}

/// Encodes specs as a canonical JSON array (sorted trace order, fixed key
/// order, no whitespace, trailing newline). Byte-equality of two encoded
/// traces is equality of the message multisets.
///
/// # Examples
///
/// ```
/// use rmb_types::{MessageSpec, NodeId};
/// use rmb_workloads::{decode_trace, encode_trace};
///
/// let specs = vec![
///     MessageSpec::new(NodeId::new(3), NodeId::new(1), 4).at(7),
///     MessageSpec::new(NodeId::new(0), NodeId::new(2), 4).at(2),
/// ];
/// let text = encode_trace(&specs);
/// let back = decode_trace(&text).unwrap();
/// assert_eq!(back[0].inject_at, 2); // canonical order, not input order
/// assert_eq!(back.len(), 2);
/// ```
pub fn encode_trace(specs: &[MessageSpec]) -> String {
    let mut sorted = specs.to_vec();
    canonical_trace_order(&mut sorted);
    let mut out = String::with_capacity(sorted.len() * 64 + 8);
    out.push('[');
    for (i, m) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&m.to_json());
    }
    out.push_str("]\n");
    out
}

/// Decodes a trace produced by [`encode_trace`] (any JSON array of spec
/// objects is accepted; order is normalised on encode, not decode).
///
/// # Errors
///
/// [`JsonError`] when the text is not a JSON array of message specs.
pub fn decode_trace(text: &str) -> Result<Vec<MessageSpec>, JsonError> {
    let v = Value::parse(text.trim_end())?;
    match v {
        Value::Arr(items) => items.iter().map(MessageSpec::from_value).collect(),
        _ => Err(JsonError {
            at: 0,
            message: "trace: expected a JSON array of message specs".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::NodeId;

    fn spec(s: u32, d: u32, f: u32, at: u64) -> MessageSpec {
        MessageSpec::new(NodeId::new(s), NodeId::new(d), f).at(at)
    }

    #[test]
    fn encoding_is_order_insensitive() {
        let a = vec![spec(0, 1, 4, 10), spec(2, 3, 8, 5), spec(1, 0, 4, 10)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(encode_trace(&a), encode_trace(&b));
    }

    #[test]
    fn round_trips_through_text() {
        let specs = vec![spec(5, 2, 16, 0), spec(0, 7, 1, 99), spec(5, 2, 16, 0)];
        let decoded = decode_trace(&encode_trace(&specs)).unwrap();
        assert_eq!(decoded.len(), 3, "duplicates survive (multiset)");
        let mut expect = specs;
        canonical_trace_order(&mut expect);
        assert_eq!(decoded, expect);
    }

    #[test]
    fn empty_trace_round_trips() {
        assert_eq!(encode_trace(&[]), "[]\n");
        assert!(decode_trace("[]\n").unwrap().is_empty());
    }

    #[test]
    fn rejects_non_arrays() {
        assert!(decode_trace("{}").is_err());
        assert!(decode_trace("nonsense").is_err());
    }
}
