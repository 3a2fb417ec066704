//! Offline scheduling of circuit batches on the ring, and the competitive
//! ratio of the online RMB protocol.
//!
//! §4 of the paper: *"A measure of effectiveness of this approach is its
//! 'competitiveness', i.e. the ratio of its required time for
//! communicating all messages to the time required by an optimal off-line
//! schedule. We plan to pursue research to evaluate the competitiveness of
//! our on-line routing protocol."* This module implements that evaluation.
//!
//! A message from `s` to `d` is a clockwise arc on the ring. A circuit
//! holds one bus segment on every hop of its arc for its whole service
//! time, so an offline schedule is an assignment of start times such that
//! at every instant at most `k` circuits cross any hop. We compute:
//!
//! * [`ring_lower_bound`] — `max(longest single service, max over hops of
//!   total work / k)`: no schedule, online or offline, beats it;
//! * [`offline_schedule`] — a longest-processing-time-first greedy
//!   schedule with exact per-hop occupancy tracking, an *achievable*
//!   offline makespan (within a small factor of optimal);
//! * [`competitive_ratio`] — online makespan divided by the offline
//!   makespan.

use rmb_types::{MessageSpec, RingSize};

/// Service time of one message: how long its circuit holds each hop of
/// its arc in the RMB protocol model — header transit + Hack return +
/// body + final flit + teardown, all proportional to `3·span + flits`
/// plus small constants.
pub fn service_time(ring: RingSize, m: &MessageSpec) -> u64 {
    let span = u64::from(ring.clockwise_distance(m.source, m.destination));
    3 * span + u64::from(m.data_flits) + 3
}

/// The two-part makespan lower bound for scheduling the batch on a ring
/// with `k` buses: the heaviest single message, and the most congested
/// hop's total work divided by `k`.
pub fn ring_lower_bound(ring: RingSize, k: u16, messages: &[MessageSpec]) -> u64 {
    let n = ring.as_usize();
    let mut work = vec![0u64; n];
    let mut longest = 0u64;
    for m in messages {
        let w = service_time(ring, m);
        longest = longest.max(w);
        let span = ring.clockwise_distance(m.source, m.destination);
        for j in 0..span {
            work[ring.advance(m.source, j).as_usize()] += w;
        }
    }
    let congested = work.into_iter().max().unwrap_or(0);
    longest.max(congested.div_ceil(u64::from(k)))
}

/// One scheduled circuit in an offline plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledCircuit {
    /// Index into the input message slice.
    pub message: usize,
    /// Assigned start time.
    pub start: u64,
    /// `start + service_time`.
    pub finish: u64,
}

/// An offline batch schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineSchedule {
    /// Per-message assignments, in input order.
    pub circuits: Vec<ScheduledCircuit>,
    /// The schedule's makespan.
    pub makespan: u64,
}

/// Greedy offline scheduler: sort by service time (longest first), then
/// give each message the earliest start at which every hop of its arc has
/// a bus free for its whole duration.
///
/// The resulting makespan is achievable by an omniscient scheduler and is
/// the denominator of the competitive ratio. (Optimal circuit scheduling
/// is NP-hard; LPT-greedy is the standard proxy and is within a small
/// constant factor on ring instances.)
pub fn offline_schedule(ring: RingSize, k: u16, messages: &[MessageSpec]) -> OfflineSchedule {
    let n = ring.as_usize();
    let k = usize::from(k);
    // Occupancy: per hop, a list of (start, finish) busy intervals; a hop
    // admits a circuit at time t when fewer than k intervals cover any
    // instant of [t, t + w).
    let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];

    let mut order: Vec<usize> = (0..messages.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(service_time(ring, &messages[i])));

    let mut circuits = vec![
        ScheduledCircuit {
            message: 0,
            start: 0,
            finish: 0
        };
        messages.len()
    ];
    let mut makespan = 0;
    for &i in &order {
        let m = &messages[i];
        let w = service_time(ring, m);
        let span = ring.clockwise_distance(m.source, m.destination);
        let hops: Vec<usize> = (0..span)
            .map(|j| ring.advance(m.source, j).as_usize())
            .collect();
        // Candidate start times: 0 and every finish time on the arc.
        let mut candidates: Vec<u64> = vec![0];
        for &h in &hops {
            candidates.extend(busy[h].iter().map(|&(_, f)| f));
        }
        candidates.sort_unstable();
        candidates.dedup();
        let start = candidates
            .into_iter()
            .find(|&t| {
                hops.iter().all(|&h| {
                    let overlapping = busy[h].iter().filter(|&&(s, f)| s < t + w && f > t).count();
                    overlapping < k
                })
            })
            .expect("t = max finish always admits");
        for &h in &hops {
            busy[h].push((start, start + w));
        }
        circuits[i] = ScheduledCircuit {
            message: i,
            start,
            finish: start + w,
        };
        makespan = makespan.max(start + w);
    }
    OfflineSchedule { circuits, makespan }
}

impl OfflineSchedule {
    /// Validates that at no instant more than `k` circuits cross any hop.
    pub fn is_feasible(&self, ring: RingSize, k: u16, messages: &[MessageSpec]) -> bool {
        let n = ring.as_usize();
        let mut events: Vec<Vec<(u64, i64)>> = vec![Vec::new(); n];
        for c in &self.circuits {
            let m = &messages[c.message];
            let span = ring.clockwise_distance(m.source, m.destination);
            for j in 0..span {
                let h = ring.advance(m.source, j).as_usize();
                events[h].push((c.start, 1));
                events[h].push((c.finish, -1));
            }
        }
        for hop in &mut events {
            hop.sort_unstable();
            let mut level = 0i64;
            for &(_, d) in hop.iter() {
                level += d;
                if level > i64::from(k) {
                    return false;
                }
            }
        }
        true
    }
}

/// The competitive ratio: online makespan over the offline greedy
/// makespan. Values near 1 mean the online protocol loses little to its
/// lack of clairvoyance. Returns `None` for an empty batch or a zero
/// offline makespan.
pub fn competitive_ratio(online_makespan: u64, offline: &OfflineSchedule) -> Option<f64> {
    if offline.makespan == 0 {
        None
    } else {
        Some(online_makespan as f64 / offline.makespan as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::NodeId;

    fn ring(n: u32) -> RingSize {
        RingSize::new(n).unwrap()
    }

    fn msg(s: u32, d: u32, f: u32) -> MessageSpec {
        MessageSpec::new(NodeId::new(s), NodeId::new(d), f)
    }

    #[test]
    fn service_time_scales_with_span_and_body() {
        let r = ring(8);
        assert_eq!(service_time(r, &msg(0, 4, 10)), 3 * 4 + 10 + 3);
        assert_eq!(service_time(r, &msg(6, 2, 0)), 3 * 4 + 3);
    }

    #[test]
    fn lower_bound_is_max_of_parts() {
        let r = ring(8);
        // One long message dominates.
        let solo = vec![msg(0, 4, 100)];
        assert_eq!(ring_lower_bound(r, 4, &solo), 115);
        // Many short messages over one hop with k = 1: congestion part.
        let storm: Vec<MessageSpec> = (0..10).map(|_| msg(0, 1, 1)).collect();
        assert_eq!(ring_lower_bound(r, 1, &storm), 10 * 7);
        assert_eq!(ring_lower_bound(r, 2, &storm), 5 * 7);
    }

    #[test]
    fn disjoint_arcs_schedule_concurrently() {
        let r = ring(8);
        let batch = vec![msg(0, 2, 4), msg(2, 4, 4), msg(4, 6, 4), msg(6, 0, 4)];
        let sched = offline_schedule(r, 1, &batch);
        assert!(sched.is_feasible(r, 1, &batch));
        // All four can run at once even with one bus.
        assert_eq!(sched.makespan, service_time(r, &batch[0]));
        assert!(sched.circuits.iter().all(|c| c.start == 0));
    }

    #[test]
    fn overlapping_arcs_serialise_per_bus() {
        let r = ring(8);
        let batch = vec![msg(0, 4, 4), msg(1, 5, 4), msg(2, 6, 4)];
        // k = 1: all three share hops 2..4; they must serialise.
        let sched = offline_schedule(r, 1, &batch);
        assert!(sched.is_feasible(r, 1, &batch));
        let w = service_time(r, &batch[0]);
        assert_eq!(sched.makespan, 3 * w);
        // k = 3: all at once.
        let sched = offline_schedule(r, 3, &batch);
        assert!(sched.is_feasible(r, 3, &batch));
        assert_eq!(sched.makespan, w);
    }

    #[test]
    fn schedule_never_beats_lower_bound() {
        let r = ring(16);
        let batch: Vec<MessageSpec> = (0..16).map(|s| msg(s, (s + 5) % 16, (s % 7) * 3)).collect();
        for k in [1u16, 2, 4, 8] {
            let sched = offline_schedule(r, k, &batch);
            assert!(sched.is_feasible(r, k, &batch), "k={k}");
            assert!(
                sched.makespan >= ring_lower_bound(r, k, &batch),
                "k={k}: {} < {}",
                sched.makespan,
                ring_lower_bound(r, k, &batch)
            );
        }
    }

    #[test]
    fn feasibility_detects_violations() {
        let r = ring(4);
        let batch = vec![msg(0, 2, 4), msg(0, 2, 4)];
        let bad = OfflineSchedule {
            circuits: vec![
                ScheduledCircuit {
                    message: 0,
                    start: 0,
                    finish: 10,
                },
                ScheduledCircuit {
                    message: 1,
                    start: 5,
                    finish: 15,
                },
            ],
            makespan: 15,
        };
        assert!(!bad.is_feasible(r, 1, &batch));
        assert!(bad.is_feasible(r, 2, &batch));
    }

    #[test]
    fn competitive_ratio_basics() {
        let sched = OfflineSchedule {
            circuits: Vec::new(),
            makespan: 100,
        };
        assert_eq!(competitive_ratio(150, &sched), Some(1.5));
        let empty = OfflineSchedule {
            circuits: Vec::new(),
            makespan: 0,
        };
        assert_eq!(competitive_ratio(10, &empty), None);
    }
}
