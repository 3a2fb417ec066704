//! A flit-level wormhole-switching engine over a channel graph.
//!
//! This models the classic wormhole routing of Dally (the paper's
//! reference \[10\]): the header flit reserves channels one hop per tick;
//! body flits pipeline behind it through single-flit channel buffers; the
//! tail flit releases each channel as it leaves it. A blocked header holds
//! its acquired channels in place — deadlock freedom is the routing
//! function's responsibility (e-cube, XY and fat-tree up/down all provide
//! acyclic channel dependencies).
//!
//! The engine comes in two shapes: [`WormholeEngine`] is incremental
//! (submit messages at any time, advance one tick at a time, poll
//! completions through a cursor) so open-loop serving drivers can stream
//! load through it; [`run_wormhole`] is the batch wrapper that feeds a
//! fixed message list and runs to completion, preserving the original
//! closed-loop semantics bit for bit.

use crate::graph::{Graph, Vertex};
use rmb_types::{DeliveredMessage, MessageSpec, RequestId};
use std::collections::HashMap;

/// Routing oracle: which channels may the header take next?
pub trait RoutingFn {
    /// Ordered candidate channels from `at` toward `dst`. The engine takes
    /// the first free one. `salt` lets adaptive routers spread load
    /// deterministically (it varies per worm and per retry tick).
    fn candidates(&self, graph: &Graph, at: Vertex, dst: Vertex, salt: u64) -> Vec<usize>;
}

impl<F> RoutingFn for F
where
    F: Fn(&Graph, Vertex, Vertex, u64) -> Vec<usize>,
{
    fn candidates(&self, graph: &Graph, at: Vertex, dst: Vertex, salt: u64) -> Vec<usize> {
        self(graph, at, dst, salt)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlitSlot {
    /// Flit `seq` sits in the buffer of `path[idx]`, having entered the
    /// channel at tick `entered`. It may leave once it has dwelt the
    /// channel's wire latency.
    InChannel { seq: u32, idx: usize, entered: u64 },
}

#[derive(Debug, Clone)]
struct Worm {
    request: RequestId,
    spec: MessageSpec,
    dst: Vertex,
    /// Channels acquired so far, source side first.
    path: Vec<usize>,
    /// In-flight flits, header first (ordered by decreasing path index).
    flits: Vec<FlitSlot>,
    /// Next flit sequence number to inject at the source (0 = header).
    next_inject: u32,
    /// Total flits: header + data + tail.
    total: u32,
    /// Header has been consumed at the destination.
    arrived_at: Option<u64>,
    /// All flits consumed; worm is complete.
    done_at: Option<u64>,
    /// Index of the last channel the tail has not yet released.
    released_up_to: usize,
}

impl Worm {
    fn header_vertex(&self, graph: &Graph) -> Vertex {
        match self.flits.first() {
            Some(FlitSlot::InChannel { idx, .. }) => graph.channel(self.path[*idx]).to,
            None => match self.path.last() {
                Some(&c) => graph.channel(c).to,
                None => usize::MAX,
            },
        }
    }
}

/// Outcome statistics of a wormhole run (see also
/// [`Network`](crate::Network) for the topology-level wrapper).
#[derive(Debug, Clone)]
pub struct WormholeReport {
    /// Completed messages.
    pub delivered: Vec<DeliveredMessage>,
    /// Ticks simulated.
    pub ticks: u64,
    /// `true` if progress ceased while worms were still live.
    pub stalled: bool,
    /// Peak number of simultaneously busy channels.
    pub peak_busy_channels: usize,
}

/// Incremental wormhole simulator: the tick-at-a-time, submit-any-time
/// core that both the batch [`run_wormhole`] wrapper and the open-loop
/// serving driver share.
///
/// # Examples
///
/// ```
/// use rmb_baselines::{Graph, Vertex};
/// use rmb_baselines::wormhole::WormholeEngine;
/// use rmb_types::{MessageSpec, NodeId};
///
/// let mut g = Graph::new(4);
/// for i in 0..4 {
///     g.add_channel(i, (i + 1) % 4);
/// }
/// let route = |g: &Graph, at: Vertex, _d: Vertex, _s: u64| g.channels_between(at, (at + 1) % 4);
/// let mut eng = WormholeEngine::new(g, route, |n| n as Vertex);
/// eng.submit(MessageSpec::new(NodeId::new(0), NodeId::new(2), 3));
/// while eng.live_count() > 0 && eng.now() < 1_000 {
///     eng.tick();
/// }
/// assert_eq!(eng.delivered().len(), 1);
/// ```
pub struct WormholeEngine<'a> {
    graph: Graph,
    route: Box<dyn RoutingFn + 'a>,
    terminal: Box<dyn Fn(u32) -> Vertex + 'a>,
    worms: Vec<Worm>,
    owner: Vec<Option<usize>>,
    busy_buffer: Vec<bool>,
    /// Physical-link multiplexing: one flit per group per tick. Maps a
    /// group id to the last tick a flit entered one of its channels.
    group_last: HashMap<usize, u64>,
    delivered: Vec<DeliveredMessage>,
    now: u64,
    last_progress: u64,
    peak_busy: usize,
    max_wire: u64,
    /// Largest data-flit count submitted so far (stall-window input).
    max_flits_seen: u64,
    stalled: bool,
}

impl std::fmt::Debug for WormholeEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WormholeEngine")
            .field("now", &self.now)
            .field("worms", &self.worms.len())
            .field("delivered", &self.delivered.len())
            .field("stalled", &self.stalled)
            .finish_non_exhaustive()
    }
}

impl<'a> WormholeEngine<'a> {
    /// Creates an idle engine over `graph`. `terminal` maps message node
    /// ids to graph vertices.
    pub fn new(
        graph: Graph,
        route: impl RoutingFn + 'a,
        terminal: impl Fn(u32) -> Vertex + 'a,
    ) -> Self {
        let channels = graph.channel_count();
        let max_wire = (0..channels)
            .map(|c| u64::from(graph.channel(c).latency))
            .max()
            .unwrap_or(1);
        WormholeEngine {
            graph,
            route: Box::new(route),
            terminal: Box::new(terminal),
            worms: Vec::new(),
            owner: vec![None; channels],
            busy_buffer: vec![false; channels],
            group_last: HashMap::new(),
            delivered: Vec::new(),
            now: 0,
            last_progress: 0,
            peak_busy: 0,
            max_wire,
            max_flits_seen: 0,
            stalled: false,
        }
    }

    /// Submits a message; it starts injecting at `spec.inject_at` (or the
    /// current tick if that is already past). Returns the worm's request
    /// id, which reappears in its [`DeliveredMessage`].
    pub fn submit(&mut self, spec: MessageSpec) -> RequestId {
        let request = RequestId::new(self.worms.len() as u64);
        self.max_flits_seen = self.max_flits_seen.max(u64::from(spec.data_flits));
        self.worms.push(Worm {
            request,
            spec,
            dst: (self.terminal)(spec.destination.index()),
            path: Vec::new(),
            flits: Vec::new(),
            next_inject: 0,
            total: spec.data_flits + 2,
            arrived_at: None,
            done_at: None,
            released_up_to: 0,
        });
        request
    }

    /// The current tick.
    pub const fn now(&self) -> u64 {
        self.now
    }

    /// Worms submitted but not yet fully delivered.
    pub fn live_count(&self) -> usize {
        self.worms.iter().filter(|w| w.done_at.is_none()).count()
    }

    /// `true` once a stall (no progress for a full stall window while
    /// work was due) has been detected. Latches.
    pub const fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Channels currently owned by some worm.
    pub fn busy_channels(&self) -> usize {
        self.owner.iter().filter(|o| o.is_some()).count()
    }

    /// Total channels in the graph.
    pub fn channel_count(&self) -> usize {
        self.graph.channel_count()
    }

    /// Peak simultaneous busy channels so far.
    pub const fn peak_busy_channels(&self) -> usize {
        self.peak_busy
    }

    /// All completions so far, in completion order. Use
    /// [`delivered_since`](Self::delivered_since) for incremental polling.
    pub fn delivered(&self) -> &[DeliveredMessage] {
        &self.delivered
    }

    /// Completions from `cursor` onward; pass the previous `delivered().len()`.
    pub fn delivered_since(&self, cursor: usize) -> &[DeliveredMessage] {
        &self.delivered[cursor.min(self.delivered.len())..]
    }

    /// Ticks of no progress while work is due before declaring a stall.
    fn stall_window(&self) -> u64 {
        4 * self.graph.vertex_count() as u64 * self.max_wire + self.max_flits_seen + 64
    }

    /// Consumes the engine into a batch-style report.
    fn into_report(self) -> WormholeReport {
        WormholeReport {
            delivered: self.delivered,
            ticks: self.now,
            stalled: self.stalled,
            peak_busy_channels: self.peak_busy,
        }
    }

    /// Advances the simulation by one tick: every worm gets a chance to
    /// move its flits one buffer and inject one new flit, in an order
    /// rotated by the tick number for fairness.
    pub fn tick(&mut self) {
        let order_start = (self.now as usize) % self.worms.len().max(1);
        for off in 0..self.worms.len() {
            let wi = (order_start + off) % self.worms.len();
            if self.worms[wi].done_at.is_some() || self.worms[wi].spec.inject_at > self.now {
                continue;
            }
            let progressed = self.step_worm(wi);
            if progressed {
                self.last_progress = self.now;
            }
            if self.worms[wi].done_at == Some(self.now) {
                let w = &self.worms[wi];
                self.delivered.push(DeliveredMessage {
                    request: w.request,
                    spec: w.spec,
                    requested_at: w.spec.inject_at,
                    circuit_at: w.arrived_at.unwrap_or(self.now),
                    delivered_at: self.now,
                    refusals: 0,
                });
            }
        }

        self.peak_busy = self.peak_busy.max(self.busy_channels());
        self.now += 1;
        let due = self
            .worms
            .iter()
            .any(|w| w.done_at.is_none() && w.spec.inject_at <= self.now);
        if due && self.now - self.last_progress > self.stall_window() {
            self.stalled = true;
        }
        if !due {
            self.last_progress = self.now;
        }
    }

    /// One worm's turn: advance/consume its in-flight flits, then inject
    /// the next flit at the source. Returns `true` if anything moved.
    fn step_worm(&mut self, wi: usize) -> bool {
        let now = self.now;
        let mut progressed = false;

        // 1. Advance or deliver existing flits, header first. A flit
        //    moves into the next channel buffer when it is free.
        let flit_count = self.worms[wi].flits.len();
        let mut consumed_head = false;
        for f in 0..flit_count {
            let FlitSlot::InChannel { seq, idx, entered } = self.worms[wi].flits[f];
            let dwelt =
                now >= entered + u64::from(self.graph.channel(self.worms[wi].path[idx]).latency);
            if !dwelt {
                continue; // still travelling along the wire
            }
            let at_path_end = idx + 1 == self.worms[wi].path.len();
            let header_arrived = self.worms[wi].arrived_at.is_some();
            if f == 0 && !header_arrived && seq == 0 {
                // Header: extend the path or arrive.
                let here = self.worms[wi].header_vertex(&self.graph);
                if here == self.worms[wi].dst {
                    self.worms[wi].arrived_at = Some(now);
                    self.busy_buffer[self.worms[wi].path[idx]] = false;
                    consumed_head = true;
                    progressed = true;
                    continue;
                }
                let salt = wi as u64 * 7919 + now;
                let cands = self
                    .route
                    .candidates(&self.graph, here, self.worms[wi].dst, salt);
                debug_assert!(
                    !cands.is_empty(),
                    "routing function returned no candidates at vertex {here}"
                );
                if let Some(&c) = cands.iter().find(|&&c| {
                    self.owner[c].is_none()
                        && self.group_last.get(&self.graph.channel(c).group) != Some(&now)
                }) {
                    self.owner[c] = Some(wi);
                    self.busy_buffer[self.worms[wi].path[idx]] = false;
                    self.worms[wi].path.push(c);
                    self.busy_buffer[c] = true;
                    self.group_last.insert(self.graph.channel(c).group, now);
                    self.worms[wi].flits[f] = FlitSlot::InChannel {
                        seq,
                        idx: idx + 1,
                        entered: now,
                    };
                    progressed = true;
                }
                continue;
            }
            // Body / tail flit (or header already arrived for f == 0 —
            // cannot happen because arrival consumes it).
            if at_path_end {
                if header_arrived {
                    // Consume at the destination.
                    self.busy_buffer[self.worms[wi].path[idx]] = false;
                    self.worms[wi].flits[f] = FlitSlot::InChannel {
                        seq,
                        idx: usize::MAX, // mark consumed; filtered below
                        entered: now,
                    };
                    if seq + 1 == self.worms[wi].total {
                        self.worms[wi].done_at = Some(now);
                    }
                    progressed = true;
                    // Tail passed the last channel: release it.
                    if seq + 1 == self.worms[wi].total {
                        let upto = self.worms[wi].released_up_to;
                        for &c in &self.worms[wi].path[upto..] {
                            self.owner[c] = None;
                        }
                        self.worms[wi].released_up_to = self.worms[wi].path.len();
                    }
                }
                continue;
            }
            let next_channel = self.worms[wi].path[idx + 1];
            if !self.busy_buffer[next_channel]
                && self.group_last.get(&self.graph.channel(next_channel).group) != Some(&now)
            {
                self.busy_buffer[self.worms[wi].path[idx]] = false;
                self.busy_buffer[next_channel] = true;
                self.group_last
                    .insert(self.graph.channel(next_channel).group, now);
                self.worms[wi].flits[f] = FlitSlot::InChannel {
                    seq,
                    idx: idx + 1,
                    entered: now,
                };
                progressed = true;
                // If this is the tail flit, release the channel left.
                if seq + 1 == self.worms[wi].total {
                    self.owner[self.worms[wi].path[idx]] = None;
                    self.worms[wi].released_up_to = idx + 1;
                }
            }
        }
        if consumed_head {
            self.worms[wi].flits.remove(0);
        }
        self.worms[wi].flits.retain(|f| {
            let FlitSlot::InChannel { idx, .. } = f;
            *idx != usize::MAX
        });

        // 2. Inject the next flit at the source, one per tick.
        let w = &self.worms[wi];
        if w.next_inject < w.total {
            if w.next_inject == 0 {
                // Header injection: acquire the first channel.
                let src = (self.terminal)(w.spec.source.index());
                let salt = wi as u64 * 7919 + now;
                let cands = self.route.candidates(&self.graph, src, w.dst, salt);
                if let Some(&c) = cands.iter().find(|&&c| {
                    self.owner[c].is_none()
                        && self.group_last.get(&self.graph.channel(c).group) != Some(&now)
                }) {
                    self.owner[c] = Some(wi);
                    self.busy_buffer[c] = true;
                    self.group_last.insert(self.graph.channel(c).group, now);
                    let w = &mut self.worms[wi];
                    w.path.push(c);
                    w.flits.push(FlitSlot::InChannel {
                        seq: 0,
                        idx: 0,
                        entered: now,
                    });
                    w.next_inject = 1;
                    progressed = true;
                }
            } else {
                // Body/tail: enter channel 0 when its buffer is free.
                let first = w.path[0];
                let first_still_owned = self.owner[first] == Some(wi);
                if first_still_owned
                    && !self.busy_buffer[first]
                    && self.group_last.get(&self.graph.channel(first).group) != Some(&now)
                {
                    self.busy_buffer[first] = true;
                    self.group_last.insert(self.graph.channel(first).group, now);
                    let seq = w.next_inject;
                    let w = &mut self.worms[wi];
                    w.flits.push(FlitSlot::InChannel {
                        seq,
                        idx: 0,
                        entered: now,
                    });
                    w.next_inject += 1;
                    progressed = true;
                }
            }
        }

        progressed
    }
}

/// Runs a batch of messages through a graph under a routing function.
///
/// `terminal` maps message node ids to graph vertices. Runs until all
/// worms complete, progress stalls, or `max_ticks` elapses.
pub fn run_wormhole(
    graph: &Graph,
    route: &dyn RoutingFn,
    terminal: &dyn Fn(u32) -> Vertex,
    messages: &[MessageSpec],
    max_ticks: u64,
) -> WormholeReport {
    let mut engine = WormholeEngine::new(
        graph.clone(),
        |g: &Graph, at: Vertex, dst: Vertex, salt: u64| route.candidates(g, at, dst, salt),
        terminal,
    );
    for &m in messages {
        engine.submit(m);
    }
    while engine.live_count() > 0 && engine.now() < max_ticks {
        engine.tick();
        if engine.is_stalled() {
            break;
        }
    }
    engine.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmb_types::NodeId;

    /// A 4-node directed ring with shortest-path (clockwise) routing.
    fn ring4() -> Graph {
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.add_channel(i, (i + 1) % 4);
        }
        g
    }

    fn ring_route(g: &Graph, at: Vertex, _dst: Vertex, _salt: u64) -> Vec<usize> {
        g.channels_between(at, (at + 1) % 4)
    }

    #[test]
    fn single_message_traverses_ring() {
        let g = ring4();
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(2), 3)];
        let report = run_wormhole(&g, &ring_route, &|n| n as Vertex, &msgs, 1_000);
        assert_eq!(report.delivered.len(), 1);
        assert!(!report.stalled);
        let d = &report.delivered[0];
        // Header: injected t0 (ch0), t1 -> ch1, t2 arrives at vertex 2.
        assert_eq!(d.circuit_at, 2);
        // Tail (flit 4 of 5) injected t4, crosses 2 channels, consumed t7.
        assert!(d.delivered_at >= d.circuit_at + 3);
    }

    #[test]
    fn contention_serialises_on_shared_channel() {
        let g = ring4();
        let msgs = vec![
            MessageSpec::new(NodeId::new(0), NodeId::new(2), 8),
            MessageSpec::new(NodeId::new(3), NodeId::new(2), 8),
        ];
        let report = run_wormhole(&g, &ring_route, &|n| n as Vertex, &msgs, 10_000);
        assert_eq!(report.delivered.len(), 2);
        // Channel 1->2 is shared; the second worm must wait for the tail
        // of whichever got it first.
        let t: Vec<u64> = report.delivered.iter().map(|d| d.delivered_at).collect();
        assert!(
            t[0].abs_diff(t[1]) >= 4,
            "worms cannot fully overlap: {t:?}"
        );
    }

    #[test]
    fn channels_are_released_after_completion() {
        let g = ring4();
        let msgs = vec![
            MessageSpec::new(NodeId::new(0), NodeId::new(1), 2),
            MessageSpec::new(NodeId::new(0), NodeId::new(1), 2).at(40),
        ];
        let report = run_wormhole(&g, &ring_route, &|n| n as Vertex, &msgs, 10_000);
        assert_eq!(report.delivered.len(), 2, "channel 0 must be reusable");
    }

    #[test]
    fn zero_data_flit_message_completes() {
        let g = ring4();
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(3), 0)];
        let report = run_wormhole(&g, &ring_route, &|n| n as Vertex, &msgs, 1_000);
        assert_eq!(report.delivered.len(), 1);
    }

    #[test]
    fn deferred_injection_waits() {
        let g = ring4();
        let msgs = vec![MessageSpec::new(NodeId::new(0), NodeId::new(1), 1).at(100)];
        let report = run_wormhole(&g, &ring_route, &|n| n as Vertex, &msgs, 10_000);
        assert_eq!(report.delivered.len(), 1);
        assert!(report.delivered[0].circuit_at >= 100);
        assert!(!report.stalled);
    }

    #[test]
    fn incremental_submission_matches_batch() {
        // Submitting everything up front through the engine and then
        // ticking by hand must equal run_wormhole exactly.
        let g = ring4();
        let msgs = vec![
            MessageSpec::new(NodeId::new(0), NodeId::new(2), 8),
            MessageSpec::new(NodeId::new(3), NodeId::new(1), 5).at(7),
            MessageSpec::new(NodeId::new(1), NodeId::new(3), 3).at(20),
        ];
        let batch = run_wormhole(&g, &ring_route, &|n| n as Vertex, &msgs, 10_000);

        let mut eng = WormholeEngine::new(g.clone(), ring_route, |n| n as Vertex);
        for &m in &msgs {
            eng.submit(m);
        }
        while eng.live_count() > 0 && eng.now() < 10_000 {
            eng.tick();
        }
        let inc = eng.into_report();
        assert_eq!(inc.delivered, batch.delivered);
        assert_eq!(inc.ticks, batch.ticks);
        assert_eq!(inc.peak_busy_channels, batch.peak_busy_channels);
    }

    #[test]
    fn streaming_polls_see_every_completion() {
        let g = ring4();
        let mut eng = WormholeEngine::new(g, ring_route, |n| n as Vertex);
        let mut cursor = 0usize;
        let mut seen = 0usize;
        // Trickle 30 messages in while the engine runs.
        for i in 0..30u64 {
            eng.submit(
                MessageSpec::new(
                    NodeId::new((i % 4) as u32),
                    NodeId::new(((i + 2) % 4) as u32),
                    4,
                )
                .at(i * 9),
            );
        }
        while eng.live_count() > 0 && eng.now() < 100_000 {
            eng.tick();
            seen += eng.delivered_since(cursor).len();
            cursor = eng.delivered().len();
        }
        assert_eq!(seen, 30);
        assert!(!eng.is_stalled());
        assert!(eng.peak_busy_channels() >= 1);
    }

    #[test]
    fn busy_channel_gauge_tracks_occupancy() {
        let g = ring4();
        let mut eng = WormholeEngine::new(g, ring_route, |n| n as Vertex);
        assert_eq!(eng.busy_channels(), 0);
        assert_eq!(eng.channel_count(), 4);
        eng.submit(MessageSpec::new(NodeId::new(0), NodeId::new(2), 16));
        eng.tick();
        eng.tick();
        assert!(eng.busy_channels() >= 1);
        while eng.live_count() > 0 && eng.now() < 1_000 {
            eng.tick();
        }
        assert_eq!(eng.busy_channels(), 0, "tail must release all channels");
    }
}
