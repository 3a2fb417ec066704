//! The [`ServeTarget`] abstraction and its three adapters.
//!
//! A serving target is any network engine that can accept one message at
//! a time *while running* and report completions incrementally. The
//! open-loop driver in [`crate::driver`] is written against this trait
//! alone, which is what lets one experiment sweep the flat RMB ring, the
//! bridged hierarchy and a wormhole torus over the same offered-load axis.

use rmb_baselines::{Graph, KAryNCube, Network, Vertex, WormholeEngine};
use rmb_core::{LogRetention, RmbNetwork};
use rmb_hier::HierNetwork;
use rmb_types::{HierMessageSpec, MessageSpec, NodeAddr, NodeId};

/// One finished message, as surfaced by [`ServeTarget::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Serving-node index of the source (dense `0..node_count`).
    pub source: u32,
    /// Ticks from submission to the terminal event.
    pub latency: u64,
    /// Tick of the terminal event.
    pub finished_at: u64,
    /// `true` when the engine gave up on the message (retry budget
    /// exhausted) instead of delivering it.
    pub aborted: bool,
}

/// Lifetime counters of a target, independent of any log retention the
/// underlying engine applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TargetTotals {
    /// Messages accepted by [`ServeTarget::submit`].
    pub submitted: u64,
    /// Messages delivered in full.
    pub delivered: u64,
    /// Messages aborted by the engine.
    pub aborted: u64,
}

impl TargetTotals {
    /// Messages submitted but not yet terminal.
    pub const fn in_flight(&self) -> u64 {
        self.submitted - self.delivered - self.aborted
    }
}

/// A network engine the open-loop driver can stream load through.
///
/// Node indices are dense `0..node_count()` serving positions; adapters
/// translate them to whatever addressing the engine uses (the hierarchy
/// adapter, for instance, skips bridge positions). `submit` always
/// injects at the engine's current tick — admission control happens in
/// the driver *before* submission, so an accepted message is never
/// silently dropped by the target.
pub trait ServeTarget {
    /// Human-readable topology label for reports.
    fn label(&self) -> String;

    /// Number of serving positions (valid `submit` indices).
    fn node_count(&self) -> u32;

    /// The engine's current tick.
    fn now(&self) -> u64;

    /// Injects a `flits`-flit message from `source` to `dest` at the
    /// current tick. Both are serving-node indices and must differ.
    fn submit(&mut self, source: u32, dest: u32, flits: u32);

    /// Advances the engine by one tick.
    fn tick(&mut self);

    /// Appends completions since the previous poll to `out`. Every
    /// terminal event is reported exactly once; adapters panic rather
    /// than skip records if the engine's retention window was outrun.
    fn poll(&mut self, out: &mut Vec<Completion>);

    /// Instantaneous fraction of busy transport resources.
    fn utilization(&self) -> f64;

    /// Lifetime counters (submitted / delivered / aborted).
    fn totals(&self) -> TargetTotals;

    /// Connection refusals issued inside the engine so far (Nacks,
    /// bridge refusals), when tracked.
    fn refusals(&self) -> u64 {
        0
    }

    /// Engine-side latency percentile estimate, when the engine keeps an
    /// online sketch of its own (used by counters-only soaks where the
    /// driver cannot see individual completions).
    fn latency_quantile(&self, _phi: f64) -> Option<u64> {
        None
    }

    /// `true` once the engine has detected a routing stall / deadlock.
    fn is_stalled(&self) -> bool {
        false
    }

    /// Worker threads the engine advances on (1 for every target in this
    /// crate). Reported in [`crate::ServeReport`]'s perf record.
    fn threads(&self) -> usize {
        1
    }
}

/// [`ServeTarget`] over the flat RMB ring ([`RmbNetwork`]).
///
/// Works under every [`rmb_core::LogRetention`] policy: completions are
/// drained through the network's absolute-sequence cursors, so a
/// `Window` big enough for one tick's churn loses nothing (and panics
/// loudly if outrun), while `CountersOnly` reports totals and leaves
/// per-completion polling empty — pair it with the network's built-in
/// latency sketch for percentiles.
#[derive(Debug)]
pub struct FlatTarget {
    net: RmbNetwork,
    submitted: u64,
    dcur: usize,
    acur: usize,
}

impl FlatTarget {
    /// Wraps a (typically freshly built) network.
    pub fn new(net: RmbNetwork) -> Self {
        FlatTarget {
            net,
            submitted: 0,
            dcur: 0,
            acur: 0,
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &RmbNetwork {
        &self.net
    }
}

impl ServeTarget for FlatTarget {
    fn label(&self) -> String {
        format!(
            "rmb-flat(n={},k={})",
            self.net.ring().get(),
            self.net.config().buses()
        )
    }

    fn node_count(&self) -> u32 {
        self.net.ring().get()
    }

    fn now(&self) -> u64 {
        self.net.now().get()
    }

    fn submit(&mut self, source: u32, dest: u32, flits: u32) {
        let spec = MessageSpec::new(NodeId::new(source), NodeId::new(dest), flits)
            .at(self.net.now().get());
        self.net
            .submit(spec)
            .expect("driver submits valid messages");
        self.submitted += 1;
    }

    fn tick(&mut self) {
        self.net.tick();
    }

    fn poll(&mut self, out: &mut Vec<Completion>) {
        // Counters-only retention keeps no records by contract, so there
        // is nothing to surface (and nothing was lost: totals() still
        // sees every completion). Any *other* policy that drops records
        // before we read them panics inside `delivered_since` — outrun
        // windows fail loudly, never silently.
        if self.net.options().log_retention == LogRetention::CountersOnly {
            return;
        }
        for d in self.net.delivered_since(self.dcur) {
            out.push(Completion {
                source: d.spec.source.index(),
                latency: d.latency(),
                finished_at: d.delivered_at,
                aborted: false,
            });
        }
        self.dcur = self.net.delivered_total() as usize;
        for a in self.net.aborted_since(self.acur) {
            out.push(Completion {
                source: a.spec.source.index(),
                latency: a.aborted_at.saturating_sub(a.spec.inject_at),
                finished_at: a.aborted_at,
                aborted: true,
            });
        }
        self.acur = self.net.aborted_records() as usize;
    }

    fn utilization(&self) -> f64 {
        self.net.utilization()
    }

    fn totals(&self) -> TargetTotals {
        TargetTotals {
            submitted: self.submitted,
            delivered: self.net.delivered_total(),
            aborted: self.net.aborted_records(),
        }
    }

    fn refusals(&self) -> u64 {
        self.net.report().refusals
    }

    fn latency_quantile(&self, phi: f64) -> Option<u64> {
        self.net.latency_quantile(phi)
    }
}

/// [`ServeTarget`] over the bridged multi-ring hierarchy
/// ([`HierNetwork`]).
///
/// Serving index `u` maps to compute position `1 + u % (m-1)` on ring
/// `u / (m-1)`, where `m` is nodes per ring — position 0 of every ring
/// is its bridge and carries no PE.
#[derive(Debug)]
pub struct HierTarget {
    net: HierNetwork,
    submitted: u64,
    dcur: usize,
    acur: usize,
}

impl HierTarget {
    /// Wraps a (typically freshly built) hierarchy.
    pub fn new(net: HierNetwork) -> Self {
        HierTarget {
            net,
            submitted: 0,
            dcur: 0,
            acur: 0,
        }
    }

    /// The wrapped hierarchy.
    pub fn network(&self) -> &HierNetwork {
        &self.net
    }

    fn addr(&self, u: u32) -> NodeAddr {
        let per_ring = self.net.config().local().nodes().get() - 1;
        NodeAddr::new(u / per_ring, NodeId::new(1 + u % per_ring))
    }

    fn index_of(&self, addr: NodeAddr) -> u32 {
        let per_ring = self.net.config().local().nodes().get() - 1;
        addr.ring * per_ring + (addr.node.index() - 1)
    }
}

impl ServeTarget for HierTarget {
    fn label(&self) -> String {
        let cfg = self.net.config();
        format!(
            "rmb-hier(rings={},m={},k={})",
            cfg.rings(),
            cfg.local().nodes().get(),
            cfg.local().buses()
        )
    }

    fn node_count(&self) -> u32 {
        self.net.config().compute_nodes()
    }

    fn now(&self) -> u64 {
        self.net.now()
    }

    fn submit(&mut self, source: u32, dest: u32, flits: u32) {
        let spec =
            HierMessageSpec::new(self.addr(source), self.addr(dest), flits).at(self.net.now());
        self.net
            .submit(spec)
            .expect("driver submits valid messages");
        self.submitted += 1;
    }

    fn tick(&mut self) {
        self.net.tick();
    }

    fn poll(&mut self, out: &mut Vec<Completion>) {
        let delivered = self.net.delivered_log();
        for d in &delivered[self.dcur..] {
            out.push(Completion {
                source: self.index_of(d.spec.source),
                latency: d.delivered_at.saturating_sub(d.spec.inject_at),
                finished_at: d.delivered_at,
                aborted: false,
            });
        }
        self.dcur = delivered.len();
        let aborted = self.net.aborted_log();
        for a in &aborted[self.acur..] {
            out.push(Completion {
                source: self.index_of(a.spec.source),
                latency: a.aborted_at.saturating_sub(a.spec.inject_at),
                finished_at: a.aborted_at,
                aborted: true,
            });
        }
        self.acur = aborted.len();
    }

    fn utilization(&self) -> f64 {
        let rings = self.net.config().rings();
        let mut acc = self.net.global_ring().utilization();
        for r in 0..rings {
            acc += self.net.local(r).utilization();
        }
        acc / f64::from(rings + 1)
    }

    fn totals(&self) -> TargetTotals {
        TargetTotals {
            submitted: self.submitted,
            delivered: self.net.delivered_log().len() as u64,
            aborted: self.net.aborted_log().len() as u64,
        }
    }

    fn refusals(&self) -> u64 {
        let r = self.net.report();
        r.bridge_refusals + r.leg_refusals
    }
}

/// [`ServeTarget`] over a wormhole-routed k-ary n-cube (torus), the
/// conventional point-to-point baseline.
///
/// Uses the exact dimension-ordered dateline-VC routing of
/// [`KAryNCube::route_messages`], but drives the flit engine
/// incrementally so arrivals can stream in. Wormhole switching never
/// aborts — a blocked worm waits — so `aborted` is always 0 and
/// saturation shows up as latency growth plus driver-side shedding.
pub struct WormholeTarget {
    engine: WormholeEngine<'static>,
    label: String,
    nodes: u32,
    submitted: u64,
    dcur: usize,
}

impl std::fmt::Debug for WormholeTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WormholeTarget")
            .field("label", &self.label)
            .field("nodes", &self.nodes)
            .field("submitted", &self.submitted)
            .finish_non_exhaustive()
    }
}

impl WormholeTarget {
    /// Builds a torus target with `radix^dims` nodes.
    pub fn torus(radix: u32, dims: u32) -> Self {
        let torus = KAryNCube::new(radix, dims);
        let label = torus.label();
        let nodes = torus.node_count();
        let graph = torus.graph().clone();
        let engine = WormholeEngine::new(
            graph,
            move |_g: &Graph, at: Vertex, dst: Vertex, salt: u64| torus.candidates(at, dst, salt),
            |n| n as Vertex,
        );
        WormholeTarget {
            engine,
            label,
            nodes,
            submitted: 0,
            dcur: 0,
        }
    }
}

impl ServeTarget for WormholeTarget {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn node_count(&self) -> u32 {
        self.nodes
    }

    fn now(&self) -> u64 {
        self.engine.now()
    }

    fn submit(&mut self, source: u32, dest: u32, flits: u32) {
        let spec =
            MessageSpec::new(NodeId::new(source), NodeId::new(dest), flits).at(self.engine.now());
        self.engine.submit(spec);
        self.submitted += 1;
    }

    fn tick(&mut self) {
        self.engine.tick();
    }

    fn poll(&mut self, out: &mut Vec<Completion>) {
        for d in self.engine.delivered_since(self.dcur) {
            out.push(Completion {
                source: d.spec.source.index(),
                latency: d.latency(),
                finished_at: d.delivered_at,
                aborted: false,
            });
        }
        self.dcur = self.engine.delivered().len();
    }

    fn utilization(&self) -> f64 {
        self.engine.busy_channels() as f64 / self.engine.channel_count().max(1) as f64
    }

    fn totals(&self) -> TargetTotals {
        TargetTotals {
            submitted: self.submitted,
            delivered: self.engine.delivered().len() as u64,
            aborted: 0,
        }
    }

    fn is_stalled(&self) -> bool {
        self.engine.is_stalled()
    }
}
