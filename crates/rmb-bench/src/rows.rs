//! JSON emission for experiment rows.
//!
//! The `--json` mode of the `experiments` binary needs a machine-readable
//! encoding of each result struct. With no serde in the hermetic build,
//! this module provides a tiny [`JsonReport`] trait plus the
//! [`json_report!`](crate::json_report) macro that implements it
//! field-by-field, emitting keys in declaration order so serial and
//! parallel sweeps produce byte-identical reports.

use rmb_types::json::escape;

/// A scalar that knows its JSON spelling.
pub trait JsonScalar {
    /// JSON literal for this value.
    fn json_scalar(&self) -> String;
}

macro_rules! int_scalar {
    ($($ty:ty),+) => {
        $(impl JsonScalar for $ty {
            fn json_scalar(&self) -> String {
                self.to_string()
            }
        })+
    };
}

int_scalar!(u16, u32, u64, usize, i32, i64);

impl JsonScalar for bool {
    fn json_scalar(&self) -> String {
        self.to_string()
    }
}

impl JsonScalar for f64 {
    fn json_scalar(&self) -> String {
        // JSON has no NaN/Infinity literal; represent them as null.
        if self.is_finite() {
            self.to_string()
        } else {
            "null".to_string()
        }
    }
}

impl JsonScalar for String {
    fn json_scalar(&self) -> String {
        escape(self)
    }
}

impl JsonScalar for &str {
    fn json_scalar(&self) -> String {
        escape(self)
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn json_scalar(&self) -> String {
        match self {
            Some(v) => v.json_scalar(),
            None => "null".to_string(),
        }
    }
}

/// An experiment result that serializes itself to JSON.
pub trait JsonReport {
    /// JSON encoding (an object for a row, an array for a row set).
    fn to_json(&self) -> String;
}

impl<T: JsonReport> JsonReport for Vec<T> {
    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&row.to_json());
        }
        if !self.is_empty() {
            out.push('\n');
        }
        out.push(']');
        out
    }
}

/// Implements [`JsonReport`] for a struct by listing its fields; keys are
/// emitted in the listed order.
#[macro_export]
macro_rules! json_report {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::rows::JsonReport for $ty {
            fn to_json(&self) -> String {
                let mut out = String::from("{");
                let mut first = true;
                $(
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = &first;
                    out.push('"');
                    out.push_str(stringify!($field));
                    out.push_str("\": ");
                    out.push_str(&$crate::rows::JsonScalar::json_scalar(&self.$field));
                )+
                out.push('}');
                out
            }
        }
    };
}

use crate::experiments::{
    AblationResult, CompetitivenessRow, DeadlockResult, FaultToleranceRow, GridRow, HierScalingRow,
    HierThroughputRow, HotspotRow, Lemma1Result, LoadPoint, MultiSendRow, MulticastRow,
    OpenLoopRow, PermutationRow, ScalingRow, SoakRow, Theorem1Result, WireDelayRow,
};

json_report!(AblationResult {
    variant,
    makespan,
    mean_latency,
    refusals,
    stalled
});
json_report!(CompetitivenessRow {
    workload,
    online,
    offline,
    lower_bound,
    ratio
});
json_report!(DeadlockResult {
    n,
    k,
    verbatim_stalled,
    verbatim_delivered,
    timeout_completed,
    timeout_makespan,
    timeout_refusals,
});
json_report!(Lemma1Result {
    n,
    sim_max_skew,
    sim_min_transitions,
    threaded_max_skew,
    threaded_min_transitions,
    bound_held,
});
json_report!(LoadPoint {
    offered,
    messages,
    delivered,
    throughput,
    mean_latency,
    utilization
});
json_report!(PermutationRow {
    network,
    permutation,
    messages,
    makespan,
    mean_latency,
    stalled
});
json_report!(ScalingRow {
    n,
    network,
    makespan
});
json_report!(Theorem1Result {
    feasible_trials,
    admitted_without_refusal,
    infeasible_trials,
    mean_setup_latency,
});
json_report!(HotspotRow {
    receives,
    delivered,
    hot_latency,
    refusals
});
json_report!(MulticastRow {
    group,
    multicast,
    unicast_series
});
json_report!(WireDelayRow {
    network,
    unit_wires,
    layout_wires
});
json_report!(GridRow {
    network,
    segments,
    makespan
});
json_report!(MultiSendRow { sends, makespan });
json_report!(HierScalingRow {
    topology,
    rings,
    n,
    total_nodes,
    k,
    locality,
    messages,
    delivered,
    aborted,
    bridge_refusals,
    makespan,
    throughput,
    mean_latency,
    stalled,
    wall_ms,
    sim_ticks_per_sec,
});
json_report!(HierThroughputRow {
    rings,
    n,
    k,
    locality,
    messages,
    ticks,
    wall_ms,
    sim_ticks_per_sec,
    host_threads,
});
json_report!(OpenLoopRow {
    topology,
    arrivals,
    rate,
    offered,
    shed,
    shed_rate,
    delivered,
    aborted,
    in_flight,
    throughput,
    mean_latency,
    p50,
    p99,
    p999,
    utilization,
    ticks,
});
json_report!(SoakRow {
    topology,
    rate,
    ticks,
    offered,
    shed,
    delivered,
    aborted,
    in_flight,
    p50,
    p99,
    p999,
    loss_accounted,
    retained_records,
});
json_report!(FaultToleranceRow {
    n,
    k,
    fraction,
    faulted_segments,
    messages,
    delivered,
    aborted,
    retries,
    fault_kills,
    throughput,
    mean_latency,
    stalled,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_emit_valid_json() {
        let rows = vec![
            ScalingRow {
                n: 4,
                network: "RMB".to_string(),
                makespan: 120,
            },
            ScalingRow {
                n: 6,
                network: "ring \"quoted\"".to_string(),
                makespan: 0,
            },
        ];
        let s = rows.to_json();
        let v = rmb_types::json::Value::parse(&s).expect("valid json");
        match v {
            rmb_types::json::Value::Arr(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].get("n").and_then(|x| x.as_u32()), Some(4));
                assert_eq!(
                    items[1].get("network").and_then(|x| x.as_str()),
                    Some("ring \"quoted\"")
                );
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn nan_becomes_null() {
        let p = LoadPoint {
            offered: 0.1,
            messages: 0,
            delivered: 0,
            throughput: 0.0,
            mean_latency: f64::NAN,
            utilization: 0.5,
        };
        let s = p.to_json();
        assert!(rmb_types::json::Value::parse(&s).is_ok());
        assert!(s.contains("\"mean_latency\": null"));
    }

    #[test]
    fn option_scalars_emit_value_or_null() {
        assert_eq!(Some(41u64).json_scalar(), "41");
        assert_eq!(None::<u64>.json_scalar(), "null");
    }

    #[test]
    fn empty_row_set_is_an_empty_array() {
        let rows: Vec<ScalingRow> = Vec::new();
        assert_eq!(rows.to_json(), "[]");
    }
}
