//! The typed scenario schema: decoding and validation.
//!
//! [`parse_scenario`] turns TOML text into a fully validated [`Scenario`];
//! every rejection names the offending key and source line.

use crate::toml::{parse_toml, ScenarioError, Spanned, TomlTable, TomlValue};
use rmb_core::LogRetention;
use rmb_serve::AdmissionMode;
use rmb_types::{BusIndex, FaultPlan, NodeId};
use std::fmt::Display;

/// Default batch tick budget when `max-ticks` is omitted.
pub const DEFAULT_MAX_TICKS: u64 = 8_000_000;

/// Largest topology a scenario may build, in nodes.
const MAX_NODES: u64 = 1 << 20;

/// Largest ring wiring a scenario may build: nodes x buses, per carrier
/// ring and summed over them. A segment costs about 20 bytes of ring
/// state, so this is about 100 MB.
const MAX_SEGMENTS: u64 = 1 << 22;

/// Most carrier rings a scenario may build; an idle ring costs about
/// 8 KB.
const MAX_RINGS: u64 = 1 << 14;

/// Most messages a batch workload may generate. A message costs 24
/// bytes, so this is about 100 MB, the budget [`MAX_SEGMENTS`] gives
/// ring state.
const MAX_MESSAGES: u64 = 1 << 22;

/// Longest head timeout, retry backoff or stagger a scenario may set, in
/// ticks. The engines scale these by small factors and by round counts,
/// which stays far inside 64 bits below this cap.
const MAX_INTERVAL: u64 = 1 << 32;

/// A fully validated scenario, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in report rows).
    pub name: String,
    /// Deterministic seed for workload generation and the engines.
    pub seed: u64,
    /// Batch tick budget (ignored in serve mode, which uses
    /// `warmup + duration`).
    pub max_ticks: u64,
    /// The simulated network.
    pub topology: Topology,
    /// Engine options (retention, retry budget, checking).
    pub engine: Engine,
    /// What traffic to offer.
    pub workload: Workload,
    /// Open-loop serving options; `None` = batch run to quiescence.
    pub serve: Option<ServeOptions>,
    /// Scheduled fault events.
    pub faults: Vec<FaultSpec>,
    /// Path (relative to the scenario file) to write the delivered trace
    /// to after a batch run.
    pub record: Option<String>,
}

/// Which network a scenario drives.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// A single flat RMB ring (`RmbNetwork`).
    Flat {
        /// Node count (>= 2).
        nodes: u32,
        /// Buses per hop (>= 1).
        buses: u16,
        /// Circuit head timeout override (default `16 * nodes`).
        head_timeout: Option<u64>,
        /// Retry backoff override (default `nodes`).
        retry_backoff: Option<u64>,
    },
    /// Bridged multi-ring hierarchy (`HierNetwork`).
    Hier {
        /// Local ring count (>= 2).
        rings: u32,
        /// Nodes per local ring, bridge included (>= 3).
        nodes_per_ring: u32,
        /// Buses per hop on the local rings.
        buses: u16,
        /// Buses per hop on the global ring (defaults to `buses`).
        global_buses: Option<u16>,
        /// Bridge queue depth override.
        bridge_queue_depth: Option<u32>,
        /// Head timeout override (default `16 * nodes_per_ring`).
        head_timeout: Option<u64>,
        /// Retry backoff override (default `nodes_per_ring`).
        retry_backoff: Option<u64>,
    },
    /// Row/column RMB grid: the 2-D `RmbLattice` `[cols, rows]` (batch only).
    Grid {
        /// Rows (>= 2).
        rows: u32,
        /// Columns (>= 2).
        cols: u32,
        /// Buses per hop on each row/column ring.
        buses: u16,
    },
    /// Multi-dimensional RMB lattice (`RmbLattice`, batch only).
    Lattice {
        /// Nodes per dimension (each >= 2, at least two dimensions).
        dims: Vec<u32>,
        /// Buses per hop on each dimension ring.
        buses: u16,
    },
    /// Wormhole k-ary n-cube baseline (`KAryNCube` / `WormholeTarget`).
    Torus {
        /// Radix (>= 3).
        radix: u32,
        /// Dimensions (>= 1).
        dims: u32,
    },
}

impl Topology {
    /// Schema name of the topology kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Topology::Flat { .. } => "flat",
            Topology::Hier { .. } => "hier",
            Topology::Grid { .. } => "grid",
            Topology::Lattice { .. } => "lattice",
            Topology::Torus { .. } => "torus",
        }
    }

    /// Human-readable label used in report rows.
    pub fn label(&self) -> String {
        match self {
            Topology::Flat { nodes, buses, .. } => format!("flat(n={nodes},k={buses})"),
            Topology::Hier {
                rings,
                nodes_per_ring,
                buses,
                ..
            } => format!("hier({rings}x{nodes_per_ring},k={buses})"),
            Topology::Grid { rows, cols, buses } => format!("grid({rows}x{cols},k={buses})"),
            Topology::Lattice { dims, buses } => {
                let dims: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
                format!("lattice({},k={buses})", dims.join("x"))
            }
            Topology::Torus { radix, dims } => format!("torus(radix={radix},dims={dims})"),
        }
    }

    /// Number of message endpoints (compute nodes) the topology offers.
    pub fn endpoints(&self) -> u64 {
        match self {
            Topology::Flat { nodes, .. } => u64::from(*nodes),
            Topology::Hier {
                rings,
                nodes_per_ring,
                ..
            } => u64::from(*rings) * u64::from(nodes_per_ring - 1),
            Topology::Grid { rows, cols, .. } => u64::from(*rows) * u64::from(*cols),
            Topology::Lattice { dims, .. } => dims.iter().map(|&d| u64::from(d)).product(),
            Topology::Torus { radix, dims } => u64::from(radix.pow(*dims)),
        }
    }
}

/// Engine options; the default value matches every builder default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Engine {
    /// Delivered-log retention (flat ring only).
    pub retention: LogRetention,
    /// Per-message retry budget (`None` = retry forever).
    pub max_retries: Option<u32>,
    /// Run per-tick invariant checks.
    pub checked: bool,
}

/// Offered traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Uniform random pairs spread over a window of ticks (batch).
    Uniform {
        /// Message count.
        messages: u32,
        /// Injection times are drawn from `0..spread`.
        spread: u64,
        /// Data flits per message.
        flits: u32,
    },
    /// Locality-parameterized hierarchical traffic (batch, hier only).
    Locality {
        /// Message count.
        messages: u32,
        /// Injection times are drawn from `0..spread`.
        spread: u64,
        /// Data flits per message.
        flits: u32,
        /// Fraction of messages staying on their source ring.
        locality: f64,
    },
    /// All-to-all personalized exchange (batch).
    AllToAll {
        /// Data flits per message.
        flits: u32,
        /// Ticks between successive rounds.
        stagger: u64,
    },
    /// Nearest-neighbour (halo) exchange (batch).
    NearestNeighbour {
        /// Data flits per message.
        flits: u32,
        /// Exchange rounds.
        rounds: u32,
        /// Ticks between successive rounds.
        stagger: u64,
    },
    /// Memoryless streaming arrivals (serve mode).
    Poisson {
        /// Per-node per-tick arrival rate.
        rate: f64,
        /// Data flits per message.
        flits: u32,
        /// Optional hot-spot destination bias.
        hotspot: Option<Hotspot>,
    },
    /// Bursty streaming arrivals (serve mode).
    Bursty {
        /// Per-node per-tick mean arrival rate.
        rate: f64,
        /// Mean burst length.
        burst: u32,
        /// Data flits per message.
        flits: u32,
        /// Optional hot-spot destination bias.
        hotspot: Option<Hotspot>,
    },
    /// Deterministic fixed-period arrivals (serve mode, BSP-style).
    Exchange {
        /// Ticks between successive arrivals at each node.
        period: u64,
        /// Data flits per message.
        flits: u32,
    },
    /// Replay a recorded delivered trace (batch).
    Trace {
        /// Trace file path, relative to the scenario file.
        path: String,
    },
}

impl Workload {
    /// Schema name of the workload kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Workload::Uniform { .. } => "uniform",
            Workload::Locality { .. } => "locality",
            Workload::AllToAll { .. } => "all-to-all",
            Workload::NearestNeighbour { .. } => "nearest-neighbour",
            Workload::Poisson { .. } => "poisson",
            Workload::Bursty { .. } => "bursty",
            Workload::Exchange { .. } => "exchange",
            Workload::Trace { .. } => "trace",
        }
    }

    /// Whether this workload streams arrivals (needs a `[serve]` section).
    fn is_streaming(&self) -> bool {
        matches!(
            self,
            Workload::Poisson { .. } | Workload::Bursty { .. } | Workload::Exchange { .. }
        )
    }

    /// Human-readable label used in report rows.
    pub fn label(&self) -> String {
        match self {
            Workload::Uniform {
                messages,
                spread,
                flits,
            } => format!("uniform(messages={messages},spread={spread},flits={flits})"),
            Workload::Locality {
                messages,
                spread,
                flits,
                locality,
            } => format!(
                "locality(messages={messages},spread={spread},flits={flits},locality={locality:?})"
            ),
            Workload::AllToAll { flits, stagger } => {
                format!("all-to-all(flits={flits},stagger={stagger})")
            }
            Workload::NearestNeighbour {
                flits,
                rounds,
                stagger,
            } => format!("nearest-neighbour(flits={flits},rounds={rounds},stagger={stagger})"),
            Workload::Poisson {
                rate,
                flits,
                hotspot,
            } => match hotspot {
                Some(h) => format!(
                    "poisson(rate={rate:?},flits={flits},hotspot={}@{:?})",
                    h.node, h.fraction
                ),
                None => format!("poisson(rate={rate:?},flits={flits})"),
            },
            Workload::Bursty {
                rate,
                burst,
                flits,
                hotspot,
            } => match hotspot {
                Some(h) => format!(
                    "bursty(rate={rate:?},burst={burst},flits={flits},hotspot={}@{:?})",
                    h.node, h.fraction
                ),
                None => format!("bursty(rate={rate:?},burst={burst},flits={flits})"),
            },
            Workload::Exchange { period, flits } => {
                format!("exchange(period={period},flits={flits})")
            }
            Workload::Trace { path } => format!("trace({path})"),
        }
    }
}

/// Hot-spot destination bias for streaming workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Serving index of the hot node.
    pub node: u32,
    /// Probability a message is redirected to the hot node.
    pub fraction: f64,
}

/// Open-loop serving options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Warmup ticks excluded from statistics.
    pub warmup: u64,
    /// Measured ticks after warmup.
    pub duration: u64,
    /// Admission policy.
    pub admission: AdmissionMode,
}

/// Which carrier ring a hierarchical fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingSel {
    /// A local ring by index.
    Local(u32),
    /// The global bridge ring.
    Global,
}

/// What breaks in a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKindSpec {
    /// One bus segment sticks at a hop.
    SegmentStuck {
        /// Hop index.
        hop: u32,
        /// Bus index at that hop.
        bus: u16,
    },
    /// All buses at a hop go down.
    LinkCut {
        /// Hop index.
        hop: u32,
    },
    /// A node's INC dies (refuses everything through it).
    IncDead {
        /// Node index.
        node: u32,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What breaks.
    pub kind: FaultKindSpec,
    /// Tick the fault activates.
    pub at: u64,
    /// Optional repair tick (must be strictly after `at`).
    pub repair_at: Option<u64>,
    /// Target carrier; `None` for the flat ring.
    pub ring: Option<RingSel>,
}

impl FaultSpec {
    /// Appends this fault to a [`FaultPlan`].
    pub fn apply_to(&self, plan: FaultPlan) -> FaultPlan {
        match self.kind {
            FaultKindSpec::SegmentStuck { hop, bus } => plan.segment_stuck(
                self.at,
                NodeId::new(hop),
                BusIndex::new(bus),
                self.repair_at,
            ),
            FaultKindSpec::LinkCut { hop } => {
                plan.link_cut(self.at, NodeId::new(hop), self.repair_at)
            }
            FaultKindSpec::IncDead { node } => {
                plan.inc_dead(self.at, NodeId::new(node), self.repair_at)
            }
        }
    }
}

/// Parses and validates a scenario from TOML text.
pub fn parse_scenario(text: &str) -> Result<Scenario, ScenarioError> {
    let root = parse_toml(text)?;
    decode_scenario(&root)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A value type a scenario key can hold.
trait Key<'a>: Sized {
    /// The type name a value of another type is reported against.
    const TYPE: &'static str;

    /// Reads `value`: `None` when it has another type, `Err` with the
    /// range text when it does not fit this one.
    fn read(value: &'a TomlValue) -> Option<Result<Self, &'static str>>;
}

/// Implements [`Key`] for a type read from one [`TomlValue`] variant.
macro_rules! key {
    ($ty:ty, $name:literal, $variant:ident($v:ident) => $read:expr) => {
        impl<'a> Key<'a> for $ty {
            const TYPE: &'static str = $name;
            fn read(value: &'a TomlValue) -> Option<Result<Self, &'static str>> {
                match value {
                    TomlValue::$variant($v) => Some($read),
                    _ => None,
                }
            }
        }
    };
}

key!(u16, "integer", Int(i) => u16::try_from(*i).map_err(|_| "out of range (expected 0..=65535)"));
key!(u32, "integer", Int(i) => u32::try_from(*i)
    .map_err(|_| "out of range (expected 0..=4294967295)"));
key!(u64, "integer", Int(i) => u64::try_from(*i).map_err(|_| "must be non-negative"));
key!(bool, "boolean", Bool(b) => Ok(*b));
key!(String, "string", Str(s) => Ok(s.clone()));
key!(&'a TomlTable, "table", Table(t) => Ok(t));
key!(&'a [TomlTable], "array of tables (`[[fault]]`)", TableArray(ts) => Ok(ts));
key!(&'a [Spanned], "array of integers", Array(items) => Ok(items));

/// Integers read as floats too.
impl<'a> Key<'a> for f64 {
    const TYPE: &'static str = "float";
    fn read(value: &'a TomlValue) -> Option<Result<Self, &'static str>> {
        match *value {
            TomlValue::Float(f) => Some(Ok(f)),
            TomlValue::Int(i) => Some(Ok(i as f64)),
            _ => None,
        }
    }
}

/// A table being decoded: tracks which keys were consumed so leftovers
/// become "unknown key" errors, and prefixes key names with the section
/// path for error messages.
struct Section<'a> {
    table: &'a TomlTable,
    path: &'static str,
    used: Vec<bool>,
}

impl<'a> Section<'a> {
    fn new(table: &'a TomlTable, path: &'static str) -> Self {
        Section {
            used: vec![false; table.entries.len()],
            table,
            path,
        }
    }

    fn key_name(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a Spanned> {
        let i = self.table.entries.iter().position(|(k, _)| k == key)?;
        self.used[i] = true;
        Some(&self.table.entries[i].1)
    }

    /// An error about `key` at `line`.
    fn err(&self, key: &str, line: usize, what: &str) -> ScenarioError {
        ScenarioError::at(line, format!("key `{}`: {what}", self.key_name(key)))
    }

    /// The error for `got`, an unknown `what` in `key` at `line`.
    fn unknown(&self, key: &str, line: usize, what: &str, got: &str, list: &str) -> ScenarioError {
        self.err(
            key,
            line,
            &format!("unknown {what} `{got}` (expected {list})"),
        )
    }

    /// Reads `key` and its line, if present.
    fn opt<T: Key<'a>>(&mut self, key: &str) -> Result<Option<(T, usize)>, ScenarioError> {
        let Some(s) = self.take(key) else {
            return Ok(None);
        };
        match T::read(&s.value) {
            Some(Ok(v)) => Ok(Some((v, s.line))),
            Some(Err(range)) => Err(self.err(key, s.line, range)),
            None => {
                let got = s.value.type_name();
                Err(self.err(key, s.line, &format!("expected {}, got {got}", T::TYPE)))
            }
        }
    }

    /// Reads required `key` and its line.
    fn req<T: Key<'a>>(&mut self, key: &str) -> Result<(T, usize), ScenarioError> {
        self.opt(key)?.ok_or_else(|| {
            let key = self.key_name(key);
            ScenarioError::at(self.table.line, format!("missing required key `{key}`"))
        })
    }

    /// Refuses `value` of `key` at `line` below `min`.
    fn at_least<T: PartialOrd + Display>(
        &self,
        key: &str,
        (value, line): (T, usize),
        min: T,
    ) -> Result<(T, usize), ScenarioError> {
        if value < min {
            return Err(self.err(key, line, &format!("must be at least {min}")));
        }
        Ok((value, line))
    }

    /// Refuses `value` of `key` at `line` above `max`, a power of two.
    fn at_most<T: Copy + Into<u64>>(
        &self,
        key: &str,
        (value, line): (T, usize),
        max: u64,
    ) -> Result<(T, usize), ScenarioError> {
        if value.into() > max {
            return Err(self.err(key, line, &format!("must be at most 2^{}", max.ilog2())));
        }
        Ok((value, line))
    }

    /// Reads `key` and its line if present, refusing a value below `min`.
    fn opt_min<T: Key<'a> + PartialOrd + Display>(
        &mut self,
        key: &str,
        min: T,
    ) -> Result<Option<(T, usize)>, ScenarioError> {
        self.opt(key)?
            .map(|v| self.at_least(key, v, min))
            .transpose()
    }

    /// Reads required `key` and its line, refusing a value below `min`.
    fn req_min<T: Key<'a> + PartialOrd + Display>(
        &mut self,
        key: &str,
        min: T,
    ) -> Result<(T, usize), ScenarioError> {
        let value = self.req(key)?;
        self.at_least(key, value, min)
    }

    /// Refuses `value` of `key` at `line` outside `0.0..=1.0`.
    fn fraction(&self, key: &str, (value, line): (f64, usize)) -> Result<f64, ScenarioError> {
        if !(0.0..=1.0).contains(&value) {
            return Err(self.err(key, line, "must lie in 0.0..=1.0"));
        }
        Ok(value)
    }

    /// Reads required string `key`, refusing an empty one.
    fn req_nonempty(&mut self, key: &str) -> Result<String, ScenarioError> {
        let (s, line) = self.req::<String>(key)?;
        if s.is_empty() {
            return Err(self.err(key, line, "must not be empty"));
        }
        Ok(s)
    }

    /// Errors on the first key no decoder consumed.
    fn finish(&self) -> Result<(), ScenarioError> {
        let mut entries = self.table.entries.iter().zip(&self.used);
        match entries.find(|(_, &used)| !used) {
            Some(((k, v), _)) => Err(ScenarioError::at(
                v.line,
                format!("unknown key `{}`", self.key_name(k)),
            )),
            None => Ok(()),
        }
    }
}

fn decode_scenario(root: &TomlTable) -> Result<Scenario, ScenarioError> {
    let mut sec = Section::new(root, "");

    let name = sec.req_nonempty("name")?;
    let seed = sec.req("seed")?.0;
    let max_ticks = sec
        .opt_min("max-ticks", 1)?
        .map_or(DEFAULT_MAX_TICKS, |(t, _)| t);

    let topology = decode_topology(sec.req("topology")?.0)?;
    let engine = match sec.opt("engine")? {
        Some((t, _)) => decode_engine(t, &topology)?,
        None => Engine::default(),
    };
    let (workload_table, _) = sec.req("workload")?;
    let workload = decode_workload(workload_table, &topology)?;
    let serve_table: Option<(&TomlTable, _)> = sec.opt("serve")?;
    let serve = serve_table.map(|(t, _)| decode_serve(t)).transpose()?;
    let fault_tables = sec.opt("fault")?.map_or(&[][..], |(t, _)| t);
    let record_table: Option<(&TomlTable, _)> = sec.opt("record")?;
    let record = record_table.map(|(t, _)| decode_record(t)).transpose()?;
    sec.finish()?;

    // Streaming workloads need a [serve] section; batch workloads must
    // not have one.
    let workload_line = workload_table
        .get("kind")
        .map_or(workload_table.line, |s| s.line);
    let kind = workload.kind_name();
    if workload.is_streaming() && serve.is_none() {
        return Err(sec.err(
            "workload.kind",
            workload_line,
            &format!("streaming workload `{kind}` needs a [serve] section"),
        ));
    }
    let serve_line = serve_table.map_or(0, |(_, line)| line);
    if !workload.is_streaming() && serve.is_some() {
        return Err(ScenarioError::at(
            serve_line,
            format!(
                "[serve] requires a streaming workload (poisson, bursty or exchange), got `{kind}`"
            ),
        ));
    }
    if workload.is_streaming()
        && !matches!(
            topology,
            Topology::Flat { .. } | Topology::Hier { .. } | Topology::Torus { .. }
        )
    {
        return Err(sec.err(
            "workload.kind",
            workload_line,
            &format!(
                "serving supports flat, hier and torus topologies, not `{}`",
                topology.kind_name()
            ),
        ));
    }

    // Per-source admission polls completion records; counters-only
    // retention drops them.
    if let Some(ServeOptions {
        admission: AdmissionMode::PerSource { .. },
        ..
    }) = serve
    {
        if engine.retention == LogRetention::CountersOnly {
            return Err(sec.err(
                "serve.admission",
                serve_line,
                "per-source admission needs completion records; \
                 use `retention = \"full\"` or `\"window\"`, or aggregate admission",
            ));
        }
    }

    // Hot-spot node must be a valid serving endpoint.
    if let Workload::Poisson {
        hotspot: Some(h), ..
    }
    | Workload::Bursty {
        hotspot: Some(h), ..
    } = &workload
    {
        let endpoints = topology.endpoints();
        if u64::from(h.node) >= endpoints {
            return Err(sec.err(
                "workload.hotspot-node",
                workload_line,
                &format!(
                    "node {} is outside the {endpoints} serving endpoints",
                    h.node
                ),
            ));
        }
    }

    let faults = decode_faults(fault_tables, &topology)?;

    if let (Some(path), Some((_, line))) = (&record, record_table) {
        let err = |what: &str| Err(sec.err("record.trace", line, what));
        if !matches!(topology, Topology::Flat { .. }) {
            return err(&format!(
                "trace recording needs the flat topology (got `{}`)",
                topology.kind_name()
            ));
        }
        if serve.is_some() {
            return err("trace recording works in batch mode only");
        }
        if engine.retention != LogRetention::Full {
            return err(
                "trace recording needs `retention = \"full\"` (the delivered log is the trace)",
            );
        }
        if path.is_empty() {
            return err("must not be empty");
        }
    }

    Ok(Scenario {
        name,
        seed,
        max_ticks,
        topology,
        engine,
        workload,
        serve,
        faults,
        record,
    })
}

fn decode_topology(table: &TomlTable) -> Result<Topology, ScenarioError> {
    let mut sec = Section::new(table, "topology");
    let (kind, kind_line) = sec.req::<String>("kind")?;
    let topo = match kind.as_str() {
        "flat" => {
            let nodes = sec.req_min("nodes", 2u32)?;
            let (nodes, _) = sec.at_most("nodes", nodes, MAX_NODES)?;
            let (buses, bl) = sec.req_min("buses", 1u16)?;
            check_wiring(&sec, "buses", bl, &[(nodes, 1, buses)])?;
            Topology::Flat {
                nodes,
                buses,
                head_timeout: decode_interval(&mut sec, "head-timeout", 1)?,
                retry_backoff: decode_interval(&mut sec, "retry-backoff", 1)?,
            }
        }
        "hier" => {
            let (rings, rl) = sec.req_min("rings", 2u32)?;
            let (nodes_per_ring, nl) = sec.req::<u32>("nodes-per-ring")?;
            if nodes_per_ring < 3 {
                return Err(sec.err(
                    "nodes-per-ring",
                    nl,
                    "must be at least 3 (a bridge plus two compute nodes)",
                ));
            }
            let (buses, bl) = sec.req_min("buses", 1u16)?;
            if u64::from(rings) * u64::from(nodes_per_ring) > MAX_NODES {
                return Err(sec.err(
                    "nodes-per-ring",
                    nl,
                    "hierarchy too large (rings x nodes-per-ring must stay within 2^20 nodes)",
                ));
            }
            let rings_total = u64::from(rings) + 1;
            check_count(&sec, "rings", rl, rings_total, MAX_RINGS, "carrier rings")?;
            let global_buses = sec.opt_min("global-buses", 1u16)?;
            let local = (nodes_per_ring, u64::from(rings), buses);
            check_wiring(&sec, "buses", bl, &[local])?;
            let (gk, gkey, gline) =
                global_buses.map_or((buses, "buses", bl), |(g, gl)| (g, "global-buses", gl));
            check_wiring(&sec, gkey, gline, &[local, (rings, 1, gk)])?;
            Topology::Hier {
                rings,
                nodes_per_ring,
                buses,
                global_buses: global_buses.map(|(g, _)| g),
                bridge_queue_depth: sec.opt_min("bridge-queue-depth", 1)?.map(|(q, _)| q),
                head_timeout: decode_interval(&mut sec, "head-timeout", 1)?,
                retry_backoff: decode_interval(&mut sec, "retry-backoff", 1)?,
            }
        }
        "grid" => {
            let (rows, _) = sec.req_min("rows", 2u32)?;
            let (cols, cl) = sec.req_min("cols", 2u32)?;
            if u64::from(rows) * u64::from(cols) > MAX_NODES {
                return Err(sec.err(
                    "cols",
                    cl,
                    "grid too large (rows x cols must stay within 2^20 nodes)",
                ));
            }
            let rings = u64::from(rows) + u64::from(cols);
            check_count(&sec, "cols", cl, rings, MAX_RINGS, "carrier rings")?;
            let (buses, bl) = sec.req_min("buses", 1u16)?;
            // A row ring per row over its columns, a column ring per column.
            let wiring = [
                (cols, u64::from(rows), buses),
                (rows, u64::from(cols), buses),
            ];
            check_wiring(&sec, "buses", bl, &wiring)?;
            Topology::Grid { rows, cols, buses }
        }
        "lattice" => {
            let (items, dl) = sec.req::<&[Spanned]>("dims")?;
            let mut dims = Vec::with_capacity(items.len());
            for item in items {
                match item.value {
                    TomlValue::Int(i) if (2..=i64::from(u32::MAX)).contains(&i) => {
                        dims.push(i as u32)
                    }
                    _ => {
                        let what = "every dimension must be an integer >= 2";
                        return Err(sec.err("dims", item.line, what));
                    }
                }
            }
            if dims.len() < 2 {
                return Err(sec.err("dims", dl, "needs at least two dimensions"));
            }
            let nodes = dims.iter().try_fold(1u64, |n, &d| {
                Some(n * u64::from(d)).filter(|&n| n <= MAX_NODES)
            });
            let Some(nodes) = nodes else {
                return Err(sec.err(
                    "dims",
                    dl,
                    "lattice too large (the product of dims must stay within 2^20 nodes)",
                ));
            };
            // One ring along each dimension per line of the lattice.
            let lines = |d: u32| nodes / u64::from(d);
            let rings = dims.iter().map(|&d| lines(d)).sum();
            check_count(&sec, "dims", dl, rings, MAX_RINGS, "carrier rings")?;
            let (buses, bl) = sec.req_min("buses", 1u16)?;
            let wiring: Vec<_> = dims.iter().map(|&d| (d, lines(d), buses)).collect();
            check_wiring(&sec, "buses", bl, &wiring)?;
            Topology::Lattice { dims, buses }
        }
        "torus" => {
            let (radix, _) = sec.req_min("radix", 3u32)?;
            let (dims, dl) = sec.req_min("dims", 1u32)?;
            let nodes = (0..dims).try_fold(1u64, |n, _| {
                Some(n * u64::from(radix)).filter(|&n| n <= MAX_NODES)
            });
            if nodes.is_none() {
                return Err(sec.err(
                    "dims",
                    dl,
                    "torus too large (radix^dims must stay within 2^20 nodes)",
                ));
            }
            Topology::Torus { radix, dims }
        }
        other => {
            let expected = "flat, hier, grid, lattice or torus";
            return Err(sec.unknown("kind", kind_line, "topology", other, expected));
        }
    };
    sec.finish()?;
    Ok(topo)
}

/// Refuses more than `max` (a power of two) `what`, naming `key` at
/// `line`.
fn check_count(
    sec: &Section<'_>,
    key: &str,
    line: usize,
    count: u64,
    max: u64,
    what: &str,
) -> Result<(), ScenarioError> {
    if count > max {
        let what = format!("too many {what} ({count}; at most 2^{})", max.ilog2());
        return Err(sec.err(key, line, &what));
    }
    Ok(())
}

/// Rejects ring wiring beyond [`MAX_SEGMENTS`], naming `key` at `line`.
/// `rings` lists the carrier rings as `(nodes, count, buses)`.
fn check_wiring(
    sec: &Section<'_>,
    key: &str,
    line: usize,
    rings: &[(u32, u64, u16)],
) -> Result<(), ScenarioError> {
    let segments = rings.iter().fold(0u64, |sum, &(nodes, count, buses)| {
        sum.saturating_add(
            u64::from(nodes)
                .saturating_mul(count)
                .saturating_mul(u64::from(buses)),
        )
    });
    if segments > MAX_SEGMENTS {
        return Err(sec.err(
            key,
            line,
            "too many bus segments (nodes x buses over the carrier rings must stay within 2^22)",
        ));
    }
    Ok(())
}

/// Reads tick interval `key` if present: at least `min`, at most
/// [`MAX_INTERVAL`].
fn decode_interval(
    sec: &mut Section<'_>,
    key: &str,
    min: u64,
) -> Result<Option<u64>, ScenarioError> {
    let Some(t) = sec.opt_min(key, min)? else {
        return Ok(None);
    };
    Ok(Some(sec.at_most(key, t, MAX_INTERVAL)?.0))
}

fn decode_engine(table: &TomlTable, topology: &Topology) -> Result<Engine, ScenarioError> {
    let mut sec = Section::new(table, "engine");
    if !matches!(topology, Topology::Flat { .. } | Topology::Hier { .. }) {
        return Err(ScenarioError::at(
            table.line,
            format!(
                "[engine] is only supported for the flat and hier topologies (got `{}`)",
                topology.kind_name()
            ),
        ));
    }

    let is_hier = matches!(topology, Topology::Hier { .. });
    let retention = match (sec.opt::<String>("retention")?, sec.opt::<u32>("window")?) {
        (Some((_, line)), _) if is_hier => {
            let what = "only the flat topology exposes log retention";
            return Err(sec.err("retention", line, what));
        }
        (Some((s, _)), Some(w)) if s == "window" => {
            LogRetention::Window(sec.at_least("window", w, 1)?.0 as usize)
        }
        (Some((s, line)), None) if s == "window" => {
            let what = "windowed retention needs a `window` key (>= 1)";
            return Err(sec.err("retention", line, what));
        }
        (Some((s, line)), _) if s != "full" && s != "counters-only" => {
            let list = "full, window or counters-only";
            return Err(sec.unknown("retention", line, "retention", &s, list));
        }
        (_, Some((_, line))) => {
            let what = "only meaningful with `retention = \"window\"`";
            return Err(sec.err("window", line, what));
        }
        (Some((s, _)), None) if s == "counters-only" => LogRetention::CountersOnly,
        _ => LogRetention::Full,
    };

    let max_retries = sec.opt("max-retries")?.map(|(v, _)| v);
    let checked = sec.opt("checked")?.is_some_and(|(v, _)| v);
    sec.finish()?;
    Ok(Engine {
        retention,
        max_retries,
        checked,
    })
}

fn decode_workload(table: &TomlTable, topology: &Topology) -> Result<Workload, ScenarioError> {
    let mut sec = Section::new(table, "workload");
    let (kind, kind_line) = sec.req::<String>("kind")?;
    let is_hier = matches!(topology, Topology::Hier { .. });
    let flat_family = ["uniform", "all-to-all", "nearest-neighbour", "trace"];
    if is_hier && flat_family.contains(&kind.as_str()) {
        let what = format!(
            "workload `{kind}` addresses flat node indices; use `locality` for the hier topology"
        );
        return Err(sec.err("kind", kind_line, &what));
    }
    if !is_hier && kind == "locality" {
        let what = format!(
            "`locality` drives the hier topology, not `{}`",
            topology.kind_name()
        );
        return Err(sec.err("kind", kind_line, &what));
    }

    let workload = match kind.as_str() {
        "uniform" => Workload::Uniform {
            messages: decode_messages(&mut sec)?,
            spread: sec.opt_min("spread", 1)?.map_or(64, |(s, _)| s),
            flits: sec.req_min("flits", 1)?.0,
        },
        "locality" => {
            let messages = decode_messages(&mut sec)?;
            let spread = sec.opt_min("spread", 1)?.map_or(64, |(s, _)| s);
            let locality = sec.req("locality")?;
            Workload::Locality {
                messages,
                spread,
                locality: sec.fraction("locality", locality)?,
                flits: sec.req_min("flits", 1)?.0,
            }
        }
        "all-to-all" => {
            // Every ordered pair of endpoints once.
            let n = topology.endpoints();
            let messages = n * (n - 1);
            check_count(&sec, "kind", kind_line, messages, MAX_MESSAGES, "messages")?;
            Workload::AllToAll {
                flits: sec.req_min("flits", 1)?.0,
                stagger: decode_interval(&mut sec, "stagger", 0)?.unwrap_or(0),
            }
        }
        "nearest-neighbour" => {
            let (rounds, rl) = sec.opt_min("rounds", 1u32)?.unwrap_or((1, kind_line));
            // Each round sends to both ring neighbours, which coincide on
            // two nodes.
            let n = topology.endpoints();
            let messages = u64::from(rounds) * n * if n == 2 { 1 } else { 2 };
            check_count(&sec, "rounds", rl, messages, MAX_MESSAGES, "messages")?;
            Workload::NearestNeighbour {
                flits: sec.req_min("flits", 1)?.0,
                rounds,
                stagger: decode_interval(&mut sec, "stagger", 0)?.unwrap_or(0),
            }
        }
        "poisson" => Workload::Poisson {
            rate: decode_rate(&mut sec)?,
            flits: sec.req_min("flits", 1)?.0,
            hotspot: decode_hotspot(&mut sec)?,
        },
        "bursty" => Workload::Bursty {
            rate: decode_rate(&mut sec)?,
            burst: sec.req_min("burst", 1)?.0,
            flits: sec.req_min("flits", 1)?.0,
            hotspot: decode_hotspot(&mut sec)?,
        },
        "exchange" => Workload::Exchange {
            period: sec.req_min("period", 1)?.0,
            flits: sec.req_min("flits", 1)?.0,
        },
        "trace" => Workload::Trace {
            path: sec.req_nonempty("path")?,
        },
        other => {
            let expected = "uniform, locality, all-to-all, nearest-neighbour, poisson, bursty, \
                            exchange or trace";
            return Err(sec.unknown("kind", kind_line, "workload", other, expected));
        }
    };
    sec.finish()?;
    Ok(workload)
}

/// Reads the required `messages` count: at least 1, at most
/// [`MAX_MESSAGES`].
fn decode_messages(sec: &mut Section<'_>) -> Result<u32, ScenarioError> {
    let messages = sec.req_min("messages", 1u32)?;
    Ok(sec.at_most("messages", messages, MAX_MESSAGES)?.0)
}

fn decode_rate(sec: &mut Section<'_>) -> Result<f64, ScenarioError> {
    let (rate, rl) = sec.req::<f64>("rate")?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(sec.err("rate", rl, "must lie in (0.0, 1.0]"));
    }
    Ok(rate)
}

fn decode_hotspot(sec: &mut Section<'_>) -> Result<Option<Hotspot>, ScenarioError> {
    let node = sec.opt("hotspot-node")?;
    let fraction = sec.opt("hotspot-fraction")?;
    match (node, fraction) {
        (None, None) => Ok(None),
        (Some((node, _)), Some(f)) => Ok(Some(Hotspot {
            node,
            fraction: sec.fraction("hotspot-fraction", f)?,
        })),
        (Some((_, nl)), None) => Err(sec.err(
            "hotspot-node",
            nl,
            "needs a matching `hotspot-fraction` key",
        )),
        (None, Some((_, fl))) => Err(sec.err(
            "hotspot-fraction",
            fl,
            "needs a matching `hotspot-node` key",
        )),
    }
}

fn decode_serve(table: &TomlTable) -> Result<ServeOptions, ScenarioError> {
    let mut sec = Section::new(table, "serve");
    let warmup = sec.opt("warmup")?.map_or(2_000, |(w, _)| w);
    let duration = sec.req_min("duration", 1)?.0;
    let depth = sec.opt_min("depth", 1)?.map_or(4, |(d, _)| d);
    let admission = match sec.opt::<String>("admission")? {
        None => AdmissionMode::PerSource { depth },
        Some((s, _)) if s == "per-source" => AdmissionMode::PerSource { depth },
        Some((s, _)) if s == "aggregate" => AdmissionMode::Aggregate { depth },
        Some((other, line)) => {
            let expected = "per-source or aggregate";
            return Err(sec.unknown("admission", line, "admission", &other, expected));
        }
    };
    sec.finish()?;
    Ok(ServeOptions {
        warmup,
        duration,
        admission,
    })
}

fn decode_record(table: &TomlTable) -> Result<String, ScenarioError> {
    let mut sec = Section::new(table, "record");
    let (path, _) = sec.req("trace")?;
    sec.finish()?;
    Ok(path)
}

fn decode_faults(
    tables: &[TomlTable],
    topology: &Topology,
) -> Result<Vec<FaultSpec>, ScenarioError> {
    match (tables.first(), topology) {
        (None, _) | (_, Topology::Flat { .. } | Topology::Hier { .. }) => {}
        (Some(first), _) => {
            return Err(ScenarioError::at(
                first.line,
                format!(
                    "[[fault]] is only supported for the flat and hier topologies (got `{}`)",
                    topology.kind_name()
                ),
            ))
        }
    }
    tables.iter().map(|t| decode_fault(t, topology)).collect()
}

fn decode_fault(table: &TomlTable, topology: &Topology) -> Result<FaultSpec, ScenarioError> {
    let mut sec = Section::new(table, "fault");
    let (kind, kind_line) = sec.req::<String>("kind")?;
    let kind = match kind.as_str() {
        "segment-stuck" => FaultKindSpec::SegmentStuck {
            hop: sec.req("hop")?.0,
            bus: sec.req("bus")?.0,
        },
        "link-cut" => FaultKindSpec::LinkCut {
            hop: sec.req("hop")?.0,
        },
        "inc-dead" => FaultKindSpec::IncDead {
            node: sec.req("node")?.0,
        },
        other => {
            let expected = "segment-stuck, link-cut or inc-dead";
            return Err(sec.unknown("kind", kind_line, "fault", other, expected));
        }
    };
    let (at, _) = sec.req::<u64>("at")?;
    let repair_at = match sec.opt("repair-at")? {
        Some((r, rl)) if r <= at => {
            let what = "must be strictly after the fault's `at` tick";
            return Err(sec.err("repair-at", rl, what));
        }
        r => r.map(|(r, _)| r),
    };
    // The carrier the fault targets, whose size bounds its indices.
    let (ring, n, k) = match (sec.take("ring"), topology) {
        (None, &Topology::Flat { nodes, buses, .. }) => (None, nodes, buses),
        (None, _) => {
            let what = "hier faults must name a carrier (a ring index or \"global\")";
            return Err(sec.err("ring", table.line, what));
        }
        (Some(s), Topology::Flat { .. }) => {
            return Err(sec.err("ring", s.line, "only meaningful for the hier topology"))
        }
        (
            Some(s),
            &Topology::Hier {
                rings,
                nodes_per_ring,
                buses,
                global_buses,
                ..
            },
        ) => match s.value {
            TomlValue::Int(i) => match u32::try_from(i).ok().filter(|&r| r < rings) {
                Some(r) => (Some(RingSel::Local(r)), nodes_per_ring, buses),
                None => {
                    let what = format!("ring index {i} is outside 0..{rings}");
                    return Err(sec.err("ring", s.line, &what));
                }
            },
            TomlValue::Str(ref txt) if txt == "global" => {
                (Some(RingSel::Global), rings, global_buses.unwrap_or(buses))
            }
            ref other => {
                let got = other.type_name();
                let what = format!("expected a ring index or \"global\", got {got}");
                return Err(sec.err("ring", s.line, &what));
            }
        },
        (Some(_), _) => unreachable!("decode_faults admits flat and hier topologies only"),
    };
    sec.finish()?;
    let spec = FaultSpec {
        kind,
        at,
        repair_at,
        ring,
    };
    // Range-check hop/bus/node indices by building a throwaway plan and
    // reusing FaultPlan::validate.
    if let Err(e) = spec.apply_to(FaultPlan::new()).validate(n, k) {
        return Err(ScenarioError::at(
            table.line,
            format!("[[fault]] invalid for its target carrier (n={n}, k={k}): {e}"),
        ));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAT: &str = r#"
name = "flat-demo"
seed = 7

[topology]
kind = "flat"
nodes = 16
buses = 4

[workload]
kind = "uniform"
messages = 32
flits = 8
"#;

    #[test]
    fn decodes_a_minimal_flat_scenario() {
        let s = parse_scenario(FLAT).expect("valid");
        assert_eq!(s.name, "flat-demo");
        assert_eq!(s.seed, 7);
        assert_eq!(s.max_ticks, DEFAULT_MAX_TICKS);
        assert_eq!(
            s.topology,
            Topology::Flat {
                nodes: 16,
                buses: 4,
                head_timeout: None,
                retry_backoff: None
            }
        );
        assert_eq!(
            s.workload,
            Workload::Uniform {
                messages: 32,
                spread: 64,
                flits: 8
            }
        );
        assert_eq!(s.engine, Engine::default());
        assert!(s.serve.is_none() && s.faults.is_empty() && s.record.is_none());
    }

    #[test]
    fn unknown_key_names_key_and_line() {
        let bad = FLAT.replace("nodes = 16", "nodes = 16\nnoodles = 7");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(
            err.message.contains("unknown key `topology.noodles`"),
            "{err}"
        );
        assert_eq!(err.line, 8);
    }
}
