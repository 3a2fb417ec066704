//! A flit-level micro-simulator used to cross-validate
//! [`RmbNetwork`](crate::RmbNetwork).
//!
//! [`RmbNetwork`](crate::RmbNetwork) models the data plane arithmetically
//! (send-time queues); this engine models it *explicitly*: every header,
//! data and final flit is an object advancing one segment per tick, every
//! acknowledgement is an object walking back along the circuit, and —
//! crucially — each INC's output-port status registers (Table 1) are real
//! state, updated through the make-before-break micro-steps of Fig. 4 with
//! legality asserted at every intermediate stage.
//!
//! The two engines implement the same protocol independently; the
//! cross-validation suite runs both on identical workloads and requires
//! *identical* per-message delivery times. Divergence in either
//! implementation fails the cross-check.
//!
//! Scope: the paper's base protocol — top-bus insertion, synchronous
//! odd/even compaction, unicast, no head timeout.

use crate::compaction::{assessed_in_phase, EndpointHeight, HopContext, Phase};
use crate::status::{PortStatus, SourceDir};
use rmb_types::{
    BusIndex, DeliveredMessage, MessageSpec, NodeId, ProtocolError, RequestId, RingSize, RmbConfig,
    VirtualBusId,
};
use std::collections::{BTreeMap, VecDeque};

/// One in-flight flit of a circuit: its sequence number (0 = header,
/// 1..=m data, m+1 = final) and the hop index it currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlitPos {
    seq: u32,
    hop: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum CircuitState {
    /// Header drawing the circuit; parked at `head_node`.
    Establishing,
    /// Accepted; the Hack object is at hop boundary `pos` (counting back
    /// from the destination; reaches the source at `pos == span`).
    HackReturning { pos: u32 },
    /// Source streaming; `next_seq` is the next data flit to emit.
    Streaming { next_seq: u32, ff_emitted: bool },
    /// Refused; the Nack is tearing hops down tail-first.
    NackReturning { freed: usize },
    /// Final flit consumed; the Fack is tearing hops down tail-first.
    FackReturning { freed: usize },
}

#[derive(Debug, Clone)]
struct Circuit {
    request: RequestId,
    spec: MessageSpec,
    requested_at: u64,
    refusals: u32,
    heights: Vec<BusIndex>,
    flits: VecDeque<FlitPos>,
    delivered_data: u32,
    circuit_at: u64,
    state: CircuitState,
}

impl Circuit {
    fn span(&self, ring: RingSize) -> u32 {
        ring.clockwise_distance(self.spec.source, self.spec.destination)
    }
    fn head_node(&self, ring: RingSize) -> NodeId {
        ring.advance(self.spec.source, self.heights.len() as u32)
    }
}

#[derive(Debug, Clone, Default)]
struct Node {
    pending: VecDeque<(RequestId, MessageSpec, u64, u32)>, // (req, spec, requested_at, refusals)
    sending: bool,
    receiving: bool,
}

/// The explicit flit-level RMB engine. See the module docs for scope.
#[derive(Debug)]
pub struct FlitLevelRmb {
    cfg: RmbConfig,
    now: u64,
    /// Output-port status registers, `[node][port]` — the Table 1 state.
    out_status: Vec<Vec<PortStatus>>,
    /// Segment occupancy, `[hop][bus]`.
    seg_owner: Vec<Vec<Option<VirtualBusId>>>,
    /// Live circuits, keyed by `VirtualBusId::get` (ids are monotone, so
    /// every phase walks them in creation order).
    circuits: BTreeMap<u64, Circuit>,
    nodes: Vec<Node>,
    next_request: u64,
    next_circuit: u64,
    delivered: Vec<DeliveredMessage>,
    refusals: u64,
    moves: u64,
    /// Reusable compaction plan buffer (no per-tick allocation).
    scratch_plan: Vec<(VirtualBusId, usize, BusIndex, BusIndex)>,
}

impl FlitLevelRmb {
    /// Creates an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration uses features outside this engine's
    /// scope (see module docs): non-default insertion, head timeout,
    /// multi-send/receive, or disabled compaction is allowed but
    /// early-compaction off is not.
    pub fn new(cfg: RmbConfig) -> Self {
        assert_eq!(
            cfg.insertion,
            rmb_types::InsertionPolicy::TopBusOnly,
            "microsim scope: top-bus insertion only"
        );
        assert!(
            cfg.head_timeout.is_none(),
            "microsim scope: no head timeout"
        );
        assert_eq!(
            cfg.node.max_concurrent_sends, 1,
            "microsim scope: single send"
        );
        assert_eq!(
            cfg.node.max_concurrent_receives, 1,
            "microsim scope: single receive"
        );
        assert!(cfg.early_compaction, "microsim scope: early compaction on");
        let n = cfg.nodes().as_usize();
        let k = cfg.buses() as usize;
        FlitLevelRmb {
            cfg,
            now: 0,
            out_status: vec![vec![PortStatus::UNUSED; k]; n],
            seg_owner: vec![vec![None; k]; n],
            circuits: BTreeMap::new(),
            nodes: vec![Node::default(); n],
            next_request: 0,
            next_circuit: 0,
            delivered: Vec::new(),
            refusals: 0,
            moves: 0,
            scratch_plan: Vec::new(),
        }
    }

    /// Submits a message.
    ///
    /// # Errors
    ///
    /// Mirrors [`RmbNetwork::submit`](crate::RmbNetwork::submit).
    pub fn submit(&mut self, spec: MessageSpec) -> Result<RequestId, ProtocolError> {
        let ring = self.cfg.nodes();
        if !ring.contains(spec.source) {
            return Err(ProtocolError::unknown_node(spec.source));
        }
        if !ring.contains(spec.destination) {
            return Err(ProtocolError::unknown_node(spec.destination));
        }
        if spec.source == spec.destination {
            return Err(ProtocolError::self_message(spec.source));
        }
        let request = RequestId::new(self.next_request);
        self.next_request += 1;
        self.nodes[spec.source.as_usize()]
            .pending
            .push_back((request, spec, spec.inject_at, 0));
        Ok(request)
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> &[DeliveredMessage] {
        &self.delivered
    }

    /// Total compaction moves performed.
    pub const fn compaction_moves(&self) -> u64 {
        self.moves
    }

    /// Total refusals issued.
    pub const fn refusals(&self) -> u64 {
        self.refusals
    }

    /// `true` when nothing is in flight or waiting.
    pub fn is_quiescent(&self) -> bool {
        self.circuits.is_empty() && self.nodes.iter().all(|n| n.pending.is_empty())
    }

    /// Runs until quiescent or `max_ticks`.
    pub fn run_to_quiescence(&mut self, max_ticks: u64) {
        while !self.is_quiescent() && self.now < max_ticks {
            self.tick();
        }
    }

    /// Advances one tick, mirroring `RmbNetwork::tick`'s phase order:
    /// acks/flits, destination decisions, head extension, injection,
    /// compaction.
    pub fn tick(&mut self) {
        self.move_acks_and_flits();
        self.decide();
        self.extend();
        self.inject();
        self.compact();
        self.now += 1;
        self.check_registers();
    }

    // ---------------------------------------------------------------

    fn move_acks_and_flits(&mut self) {
        let ring = self.cfg.nodes();
        let now = self.now;
        // The only phase that removes circuits: detach the map so each
        // circuit mutates in place while the node and register state stays
        // freely borrowable. No phase inserts while it walks.
        let mut circuits = std::mem::take(&mut self.circuits);
        circuits.retain(|&id, c| {
            let id = VirtualBusId::new(id);
            let span = c.span(ring) as usize;
            let mut remove = false;
            match c.state {
                CircuitState::Establishing => {}
                CircuitState::HackReturning { ref mut pos } => {
                    // The Hack object crosses one segment per tick.
                    *pos += 1;
                    if *pos as usize == span {
                        c.circuit_at = now;
                        c.state = CircuitState::Streaming {
                            next_seq: 0,
                            ff_emitted: false,
                        };
                    }
                }
                CircuitState::Streaming { .. } => {
                    // Advance every in-flight flit one segment; consume at
                    // the destination (in place, preserving flit order).
                    let data_flits = c.spec.data_flits;
                    let total = data_flits + 1; // data + FF (header long gone)
                    let mut completed = false;
                    let mut arrived_data = 0;
                    c.flits.retain_mut(|f| {
                        f.hop += 1;
                        if f.hop == span {
                            if f.seq <= data_flits && f.seq >= 1 {
                                arrived_data += 1;
                            }
                            if f.seq == total {
                                completed = true;
                            }
                            false
                        } else {
                            true
                        }
                    });
                    c.delivered_data += arrived_data;
                    if completed {
                        self.delivered.push(DeliveredMessage {
                            request: c.request,
                            spec: c.spec,
                            requested_at: c.requested_at,
                            circuit_at: c.circuit_at,
                            delivered_at: now,
                            refusals: c.refusals,
                        });
                        self.nodes[c.spec.destination.as_usize()].receiving = false;
                        c.state = CircuitState::FackReturning { freed: 0 };
                    } else {
                        // Source emits the next flit into hop 0.
                        if let CircuitState::Streaming {
                            ref mut next_seq,
                            ref mut ff_emitted,
                        } = c.state
                        {
                            if *next_seq < c.spec.data_flits {
                                *next_seq += 1;
                                c.flits.push_back(FlitPos {
                                    seq: *next_seq,
                                    hop: 0,
                                });
                            } else if !*ff_emitted {
                                *ff_emitted = true;
                                c.flits.push_back(FlitPos {
                                    seq: c.spec.data_flits + 1,
                                    hop: 0,
                                });
                            }
                        }
                    }
                }
                CircuitState::NackReturning { freed } | CircuitState::FackReturning { freed } => {
                    // The teardown ack releases the tail hop: clear the
                    // segment and the upstream INC's register.
                    let idx = c.heights.len() - 1 - freed;
                    let node = ring.advance(c.spec.source, idx as u32);
                    let l = c.heights[idx];
                    self.release_segment(node.as_usize(), l, id);
                    self.clear_port(node.as_usize(), idx, c);
                    let new_freed = freed + 1;
                    match &mut c.state {
                        CircuitState::NackReturning { freed }
                        | CircuitState::FackReturning { freed } => *freed = new_freed,
                        _ => unreachable!(),
                    }
                    if new_freed == c.heights.len() {
                        remove = true;
                    }
                }
            }
            if remove {
                let source = c.spec.source;
                self.nodes[source.as_usize()].sending = false;
                if matches!(c.state, CircuitState::NackReturning { .. }) {
                    let refusals = c.refusals + 1;
                    let backoff = self.cfg.node.retry_backoff * u64::from(refusals);
                    // Mirror RmbNetwork: the retry waits `backoff` ticks but
                    // keeps the original request time for latency stats.
                    self.nodes[source.as_usize()].pending.push_back((
                        c.request,
                        c.spec.at(now + backoff),
                        c.requested_at,
                        refusals,
                    ));
                }
            }
            !remove
        });
        self.circuits = circuits;
    }

    fn decide(&mut self) {
        let ring = self.cfg.nodes();
        for c in self.circuits.values_mut() {
            if !matches!(c.state, CircuitState::Establishing) {
                continue;
            }
            let dst = c.spec.destination;
            if c.head_node(ring) != dst {
                continue;
            }
            if !self.nodes[dst.as_usize()].receiving {
                self.nodes[dst.as_usize()].receiving = true;
                c.state = CircuitState::HackReturning { pos: 0 };
                // The header flit is consumed at the destination.
                c.flits.clear();
            } else {
                c.state = CircuitState::NackReturning { freed: 0 };
                self.refusals += 1;
            }
        }
    }

    fn extend(&mut self) {
        let ring = self.cfg.nodes();
        let top = self.cfg.top_bus();
        for (&id, c) in &mut self.circuits {
            if !matches!(c.state, CircuitState::Establishing) {
                continue;
            }
            let head = c.head_node(ring);
            if head == c.spec.destination {
                continue;
            }
            let hop = head.as_usize();
            if self.seg_owner[hop][top.as_usize()].is_some() {
                continue;
            }
            // Claim the segment; wire the INC register: the new output at
            // `top` receives from the trail (straight or from below) — or
            // from the PE at the source.
            self.seg_owner[hop][top.as_usize()] = Some(VirtualBusId::new(id));
            let prev = *c.heights.last().expect("has hops");
            c.heights.push(top);
            let offset = i32::from(prev.index()) - i32::from(top.index());
            let dir = SourceDir::from_offset(offset)
                .expect("trail stays within switching reach of the top");
            let status = &mut self.out_status[hop][top.as_usize()];
            assert!(status.is_unused(), "claiming a driven port");
            *status = status.with(dir);
        }
    }

    fn inject(&mut self) {
        let ring = self.cfg.nodes();
        let now = self.now;
        let n = ring.as_usize();
        let top = self.cfg.top_bus();
        let start = (now % n as u64) as usize;
        for off in 0..n {
            let s = (start + off) % n;
            if self.nodes[s].sending {
                continue;
            }
            let Some(&(_, spec, _, _)) = self.nodes[s].pending.front() else {
                continue;
            };
            if spec.inject_at > now {
                continue;
            }
            if self.seg_owner[s][top.as_usize()].is_some() {
                continue;
            }
            let (request, spec, requested_at, refusals) =
                self.nodes[s].pending.pop_front().expect("front");
            let id = VirtualBusId::new(self.next_circuit);
            self.next_circuit += 1;
            self.seg_owner[s][top.as_usize()] = Some(id);
            // Source port is PE-driven: the Table 1 register stays UNUSED
            // (the PE interface is a separate attachment).
            self.nodes[s].sending = true;
            self.circuits.insert(
                id.get(),
                Circuit {
                    request,
                    spec,
                    requested_at,
                    refusals,
                    heights: vec![top],
                    flits: VecDeque::from([FlitPos { seq: 0, hop: 0 }]),
                    delivered_data: 0,
                    circuit_at: 0,
                    state: CircuitState::Establishing,
                },
            );
        }
    }

    fn compact(&mut self) {
        if !self.cfg.compaction {
            return;
        }
        let ring = self.cfg.nodes();
        let phase = Phase::of_tick(self.now);
        // Decide on the phase-start snapshot, then apply with explicit
        // make-before-break register sequences. The plan buffer is owned by
        // the sim and reused tick over tick, so steady state allocates
        // nothing here.
        let mut plan = std::mem::take(&mut self.scratch_plan);
        plan.clear();
        for (&id, c) in &self.circuits {
            if matches!(
                c.state,
                CircuitState::NackReturning { .. } | CircuitState::FackReturning { .. }
            ) {
                continue;
            }
            for j in 0..c.heights.len() {
                let node = ring.advance(c.spec.source, j as u32);
                let height = c.heights[j];
                if !assessed_in_phase(node, height, phase) {
                    continue;
                }
                let ctx = self.hop_context(c, j, ring);
                if ctx.switchable_down().is_some() {
                    plan.push((
                        VirtualBusId::new(id),
                        j,
                        height,
                        height.lower().expect("not bottom"),
                    ));
                }
            }
        }
        for &(id, j, from, to) in &plan {
            self.apply_move(id, j, from, to);
        }
        plan.clear();
        self.scratch_plan = plan;
    }

    fn hop_context(&self, c: &Circuit, j: usize, ring: RingSize) -> HopContext {
        let height = c.heights[j];
        let upstream = if j == 0 {
            EndpointHeight::Pe
        } else {
            EndpointHeight::At(c.heights[j - 1])
        };
        let downstream = if j + 1 == c.heights.len() {
            match c.state {
                CircuitState::Establishing if c.head_node(ring) != c.spec.destination => {
                    EndpointHeight::ParkedHead
                }
                _ => EndpointHeight::Pe,
            }
        } else {
            EndpointHeight::At(c.heights[j + 1])
        };
        let hop = ring.advance(c.spec.source, j as u32).as_usize();
        let below_free = height
            .lower()
            .map(|lo| self.seg_owner[hop][lo.as_usize()].is_none())
            .unwrap_or(false);
        HopContext {
            height,
            top: self.cfg.top_bus(),
            upstream,
            downstream,
            below_free,
        }
    }

    /// Applies one downward move with the full make-before-break register
    /// choreography, asserting Table 1 legality at every micro-step.
    fn apply_move(&mut self, id: VirtualBusId, j: usize, from: BusIndex, to: BusIndex) {
        let ring = self.cfg.nodes();
        // Only three facts about the circuit matter for the register
        // choreography; copy them out instead of cloning the whole circuit.
        let (source, up_in, down_out) = {
            let c = &self.circuits[&id.get()];
            (
                c.spec.source,
                if j == 0 { None } else { Some(c.heights[j - 1]) },
                if j + 1 < c.heights.len() {
                    Some(c.heights[j + 1])
                } else {
                    None
                },
            )
        };
        let node = ring.advance(source, j as u32).as_usize();
        let next = ring.advance(source, j as u32 + 1).as_usize();

        // Upstream INC (output side): make the new connection before
        // breaking the old one.
        if let Some(inp) = up_in {
            let into_new = SourceDir::from_offset(i32::from(inp.index()) - i32::from(to.index()))
                .expect("switchable move keeps the input in reach");
            // make
            let made = self.out_status[node][to.as_usize()].with(into_new);
            assert!(made.is_allowed());
            self.out_status[node][to.as_usize()] = made;
            // break
            let old = self.out_status[node][from.as_usize()];
            assert!(!old.is_unused(), "old port must have been driven");
            self.out_status[node][from.as_usize()] = PortStatus::UNUSED;
        }
        // Downstream INC (input side): its consuming output port briefly
        // receives from both the old and the new input.
        if let Some(out) = down_out {
            let old_in = SourceDir::from_offset(i32::from(from.index()) - i32::from(out.index()))
                .expect("current connection is legal");
            let new_in = SourceDir::from_offset(i32::from(to.index()) - i32::from(out.index()))
                .expect("switchable move keeps the output in reach");
            let both = self.out_status[next][out.as_usize()].with(new_in);
            assert!(both.is_allowed(), "MBB overlap must be a legal code");
            self.out_status[next][out.as_usize()] = both;
            let after = both.without(old_in);
            assert!(after.is_allowed());
            self.out_status[next][out.as_usize()] = after;
        }
        // Move the segment occupancy and the circuit's height.
        assert_eq!(self.seg_owner[node][from.as_usize()], Some(id));
        assert!(self.seg_owner[node][to.as_usize()].is_none());
        self.seg_owner[node][from.as_usize()] = None;
        self.seg_owner[node][to.as_usize()] = Some(id);
        self.circuits.get_mut(&id.get()).expect("live").heights[j] = to;
        self.moves += 1;
    }

    fn release_segment(&mut self, hop: usize, l: BusIndex, id: VirtualBusId) {
        assert_eq!(self.seg_owner[hop][l.as_usize()], Some(id));
        self.seg_owner[hop][l.as_usize()] = None;
    }

    /// Clears the upstream register of hop `idx` during teardown.
    fn clear_port(&mut self, node: usize, idx: usize, c: &Circuit) {
        if idx == 0 {
            return; // PE-driven; register was never set
        }
        let l = c.heights[idx];
        self.out_status[node][l.as_usize()] = PortStatus::UNUSED;
    }

    /// Global register sanity: every driven port corresponds to an owned
    /// segment, and every code is Table 1-legal and steady between ticks.
    fn check_registers(&self) {
        for (node, ports) in self.out_status.iter().enumerate() {
            for (l, status) in ports.iter().enumerate() {
                assert!(status.is_allowed(), "INC {node} out{l}: {status}");
                assert!(
                    status.is_steady(),
                    "INC {node} out{l} left in MBB overlap: {status}"
                );
                if !status.is_unused() {
                    assert!(
                        self.seg_owner[node][l].is_some(),
                        "INC {node} drives out{l} but the segment is free"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u32, k: u16) -> RmbConfig {
        RmbConfig::new(n, k).unwrap()
    }

    #[test]
    fn single_message_matches_hand_timeline() {
        let mut sim = FlitLevelRmb::new(cfg(8, 2));
        sim.submit(MessageSpec::new(NodeId::new(0), NodeId::new(4), 4))
            .unwrap();
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.delivered().len(), 1);
        let d = &sim.delivered()[0];
        // Same hand-derived timeline as the arithmetic engine's test:
        // circuit at 2L = 8, done at 2L + m + 1 + L = 17.
        assert_eq!(d.circuit_at, 8);
        assert_eq!(d.delivered_at, 17);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn registers_are_clean_after_quiescence() {
        let mut sim = FlitLevelRmb::new(cfg(10, 3));
        for s in 0..5 {
            sim.submit(
                MessageSpec::new(NodeId::new(s), NodeId::new(s + 5), 8).at(u64::from(s) * 3),
            )
            .unwrap();
        }
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.delivered().len(), 5);
        // All registers unused, all segments free.
        for ports in &sim.out_status {
            assert!(ports.iter().all(|p| p.is_unused()));
        }
        for row in &sim.seg_owner {
            assert!(row.iter().all(|s| s.is_none()));
        }
        assert!(sim.compaction_moves() > 0);
    }

    #[test]
    #[should_panic(expected = "microsim scope")]
    fn rejects_out_of_scope_configs() {
        let cfg = RmbConfig::builder(8, 2).head_timeout(10).build().unwrap();
        let _ = FlitLevelRmb::new(cfg);
    }
}
