//! Batch routing over compositions of independent rings joined at
//! unbounded corners: the lattice of rings and the dual ring.
//!
//! A [`LegMap`] says which carrier ring takes each leg of a message.
//! [`route`] runs the legs on the composition engine, the one the
//! hierarchy uses: a message launches its first leg at its injection
//! tick and each further leg on the tick after the previous one's last
//! flit lands (the corner buffers without bound, unlike the hierarchy's
//! bridge queues).

use crate::engine::{Core, Engine, Router};
use rmb_core::RmbNetwork;
use rmb_types::{AbortedMessage, DeliveredMessage, MessageSpec, NodeId, RequestId, RmbConfig};

/// One circuit leg of a routed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// The carrier ring, by index into [`LegMap::carriers`].
    pub carrier: u32,
    /// Source node in the carrier's own numbering.
    pub from: NodeId,
    /// Destination node in the carrier's own numbering.
    pub to: NodeId,
    /// The composition-wide node the message reaches when the leg lands.
    pub reaches: NodeId,
}

/// A composition of carrier rings and the rule that splits a message,
/// addressed by composition-wide node ids, into ring legs.
pub trait LegMap {
    /// Each carrier ring's configuration, by carrier index.
    fn carriers(&self) -> Vec<RmbConfig>;

    /// The next leg of `msg`, which sits at `at` (never its destination).
    /// `from` and `to` must be distinct nodes of the carrier.
    fn next_leg(&self, msg: &MessageSpec, at: NodeId) -> Leg;

    /// Ticks without progress (a launch, a landing, or a flit, header or
    /// compaction step inside any carrier) after which a run of
    /// `messages` counts as stalled. [`route`] counts every tick of a
    /// replayed lone leg as progress; its ticks pause at most the leg's
    /// span plus one tick, so a window at least the longest carrier span
    /// plus one makes [`route`] stall exactly where [`route_checked`]
    /// does.
    fn stall_window(&self, messages: &[MessageSpec]) -> u64;
}

/// What [`route`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routed {
    /// One record per delivered message, ordered by delivery tick and
    /// then input index. `request` is the message's index in the input,
    /// `spec` the message itself and `requested_at` its injection tick;
    /// `circuit_at` and `refusals` come from its final leg.
    pub delivered: Vec<DeliveredMessage>,
    /// Ticks simulated.
    pub ticks: u64,
    /// `true` when the run ended on the tick budget or a stall.
    pub stalled: bool,
    /// Peak live circuits, summed over the carriers.
    pub peak_circuits: usize,
    /// Carrier ticks replayed from memoised lone-circuit lives instead
    /// of ticked (see [`RmbNetwork::run_window`]); 0 under
    /// [`route_checked`].
    pub jumped_ticks: u64,
}

/// Routes `messages` over the composition `map` describes, until all are
/// delivered, `max_ticks` pass, or the map's stall window passes without
/// progress. A message whose source is its destination is delivered at
/// its injection tick without a leg.
///
/// # Panics
///
/// Panics when the map returns a leg its carrier rejects.
pub fn route<M: LegMap>(map: &M, messages: &[MessageSpec], max_ticks: u64) -> Routed {
    route_with(map, messages, max_ticks, false)
}

/// [`route`] with every carrier checked: protocol invariants after each
/// tick it simulates. A checked carrier ticks every circuit, so this is
/// also the tick-by-tick oracle for [`route`]'s replayed lone circuits:
/// the two agree in every field but [`Routed::jumped_ticks`].
///
/// # Panics
///
/// As [`route`], and on the first invariant violation.
pub fn route_checked<M: LegMap>(map: &M, messages: &[MessageSpec], max_ticks: u64) -> Routed {
    route_with(map, messages, max_ticks, true)
}

fn route_with<M: LegMap>(
    map: &M,
    messages: &[MessageSpec],
    max_ticks: u64,
    checked: bool,
) -> Routed {
    let carriers = map
        .carriers()
        .into_iter()
        .map(|cfg| RmbNetwork::builder(cfg).checked(checked).build())
        .collect();
    let mut engine = Engine {
        core: Core::new(carriers, checked, false),
        router: Corners {
            map,
            messages,
            at: messages.iter().map(|m| m.source).collect(),
            delivered: Vec::with_capacity(messages.len()),
        },
    };
    for (id, m) in (0u64..).zip(messages) {
        if m.source == m.destination {
            engine.router.delivered.push(DeliveredMessage {
                request: RequestId::new(id),
                spec: *m,
                requested_at: m.inject_at,
                circuit_at: m.inject_at,
                delivered_at: m.inject_at,
                refusals: 0,
            });
        } else {
            engine.core.admit(id, m.inject_at);
        }
    }
    let stalled = engine.run(max_ticks);
    let mut delivered = engine.router.delivered;
    delivered.sort_unstable_by_key(|d| (d.delivered_at, d.request.get()));
    Routed {
        delivered,
        ticks: engine.core.now,
        stalled,
        peak_circuits: engine
            .core
            .carriers
            .iter()
            .map(|net| net.report().peak_virtual_buses)
            .sum(),
        jumped_ticks: engine.core.memo.jumped_ticks(),
    }
}

/// The corner router: legs in [`LegMap`] order, each launched when due.
struct Corners<'a, M> {
    map: &'a M,
    messages: &'a [MessageSpec],
    /// Where each message is, or will be once its leg in flight lands.
    at: Vec<NodeId>,
    delivered: Vec<DeliveredMessage>,
}

impl<M: LegMap> Router for Corners<'_, M> {
    fn launch(&mut self, core: &mut Core, id: u64) {
        let i = id as usize;
        let msg = &self.messages[i];
        let leg = self.map.next_leg(msg, self.at[i]);
        self.at[i] = leg.reaches;
        core.launch(id, leg.carrier, leg.from, leg.to, msg.data_flits);
    }

    fn delivered(&mut self, core: &mut Core, id: u64, _c: u32, d: &DeliveredMessage) {
        let msg = self.messages[id as usize];
        if self.at[id as usize] != msg.destination {
            core.schedule(id, d.delivered_at + 1);
            return;
        }
        core.live -= 1;
        self.delivered.push(DeliveredMessage {
            request: RequestId::new(id),
            spec: msg,
            requested_at: msg.inject_at,
            ..*d
        });
    }

    fn aborted(&mut self, core: &mut Core, _id: u64, _c: u32, _a: &AbortedMessage) {
        core.live -= 1;
    }

    fn stall_window(&self) -> u64 {
        self.map.stall_window(self.messages)
    }

    const CARRIER_PROGRESS: bool = true;
}
