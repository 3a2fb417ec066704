//! The typed scenario schema: decoding, validation and serialization.
//!
//! [`parse_scenario`] turns TOML text into a fully validated [`Scenario`];
//! every rejection names the offending key and source line. The inverse,
//! [`Scenario::to_toml`], emits canonical TOML that parses back to an
//! equal value (property-tested in `tests/roundtrip.rs`).

use crate::toml::{escape_str, parse_toml, ScenarioError, Spanned, TomlTable, TomlValue};
use rmb_types::{BusIndex, FaultPlan, NodeId};
use std::fmt::Write as _;

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

/// Delivered-log retention of the flat ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every record (the default).
    #[default]
    Full,
    /// Keep a sliding window of this many records.
    Window(u32),
    /// Keep aggregate counters only.
    CountersOnly,
}

/// Engine options; the default value matches every builder default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Engine {
    /// Delivered-log retention (flat ring only).
    pub retention: Retention,
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

/// Admission policy of the serving driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Bound each source's outstanding messages.
    PerSource {
        /// Maximum outstanding messages per source.
        depth: u32,
    },
    /// Bound the aggregate in-flight count at `depth * nodes`.
    Aggregate {
        /// Maximum in-flight messages per node, in aggregate.
        depth: u32,
    },
}

/// Open-loop serving options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Warmup ticks excluded from statistics.
    pub warmup: u64,
    /// Measured ticks after warmup.
    pub duration: u64,
    /// Admission policy.
    pub admission: Admission,
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
        for (i, (k, v)) in self.table.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn req(&mut self, key: &str) -> Result<&'a Spanned, ScenarioError> {
        self.take(key).ok_or_else(|| {
            ScenarioError::at(
                self.table.line,
                format!("missing required key `{}`", self.key_name(key)),
            )
        })
    }

    fn type_err(&self, key: &str, spanned: &Spanned, expected: &str) -> ScenarioError {
        ScenarioError::at(
            spanned.line,
            format!(
                "key `{}`: expected {expected}, got {}",
                self.key_name(key),
                spanned.value.type_name()
            ),
        )
    }

    fn range_err(&self, key: &str, line: usize, what: &str) -> ScenarioError {
        ScenarioError::at(line, format!("key `{}`: {what}", self.key_name(key)))
    }

    fn str_of(&self, key: &str, spanned: &Spanned) -> Result<String, ScenarioError> {
        match &spanned.value {
            TomlValue::Str(s) => Ok(s.clone()),
            _ => Err(self.type_err(key, spanned, "string")),
        }
    }

    fn int_of(&self, key: &str, spanned: &Spanned) -> Result<i64, ScenarioError> {
        match spanned.value {
            TomlValue::Int(i) => Ok(i),
            _ => Err(self.type_err(key, spanned, "integer")),
        }
    }

    fn u64_of(&self, key: &str, spanned: &Spanned) -> Result<u64, ScenarioError> {
        let i = self.int_of(key, spanned)?;
        u64::try_from(i).map_err(|_| self.range_err(key, spanned.line, "must be non-negative"))
    }

    fn u32_of(&self, key: &str, spanned: &Spanned) -> Result<u32, ScenarioError> {
        let i = self.int_of(key, spanned)?;
        u32::try_from(i).map_err(|_| {
            self.range_err(key, spanned.line, "out of range (expected 0..=4294967295)")
        })
    }

    fn u16_of(&self, key: &str, spanned: &Spanned) -> Result<u16, ScenarioError> {
        let i = self.int_of(key, spanned)?;
        u16::try_from(i)
            .map_err(|_| self.range_err(key, spanned.line, "out of range (expected 0..=65535)"))
    }

    fn f64_of(&self, key: &str, spanned: &Spanned) -> Result<f64, ScenarioError> {
        match spanned.value {
            TomlValue::Float(f) => Ok(f),
            TomlValue::Int(i) => Ok(i as f64),
            _ => Err(self.type_err(key, spanned, "float")),
        }
    }

    fn req_str(&mut self, key: &str) -> Result<(String, usize), ScenarioError> {
        let s = self.req(key)?;
        Ok((self.str_of(key, s)?, s.line))
    }

    fn req_u64(&mut self, key: &str) -> Result<(u64, usize), ScenarioError> {
        let s = self.req(key)?;
        Ok((self.u64_of(key, s)?, s.line))
    }

    fn req_u32(&mut self, key: &str) -> Result<(u32, usize), ScenarioError> {
        let s = self.req(key)?;
        Ok((self.u32_of(key, s)?, s.line))
    }

    fn req_u16(&mut self, key: &str) -> Result<(u16, usize), ScenarioError> {
        let s = self.req(key)?;
        Ok((self.u16_of(key, s)?, s.line))
    }

    fn req_f64(&mut self, key: &str) -> Result<(f64, usize), ScenarioError> {
        let s = self.req(key)?;
        Ok((self.f64_of(key, s)?, s.line))
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<(String, usize)>, ScenarioError> {
        match self.take(key) {
            Some(s) => Ok(Some((self.str_of(key, s)?, s.line))),
            None => Ok(None),
        }
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<(u64, usize)>, ScenarioError> {
        match self.take(key) {
            Some(s) => Ok(Some((self.u64_of(key, s)?, s.line))),
            None => Ok(None),
        }
    }

    fn opt_u32(&mut self, key: &str) -> Result<Option<(u32, usize)>, ScenarioError> {
        match self.take(key) {
            Some(s) => Ok(Some((self.u32_of(key, s)?, s.line))),
            None => Ok(None),
        }
    }

    fn opt_u16(&mut self, key: &str) -> Result<Option<(u16, usize)>, ScenarioError> {
        match self.take(key) {
            Some(s) => Ok(Some((self.u16_of(key, s)?, s.line))),
            None => Ok(None),
        }
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<(f64, usize)>, ScenarioError> {
        match self.take(key) {
            Some(s) => Ok(Some((self.f64_of(key, s)?, s.line))),
            None => Ok(None),
        }
    }

    fn opt_bool(&mut self, key: &str) -> Result<Option<(bool, usize)>, ScenarioError> {
        match self.take(key) {
            Some(s) => match s.value {
                TomlValue::Bool(b) => Ok(Some((b, s.line))),
                _ => Err(self.type_err(key, s, "boolean")),
            },
            None => Ok(None),
        }
    }

    fn opt_table(&mut self, key: &str) -> Result<Option<&'a TomlTable>, ScenarioError> {
        match self.take(key) {
            Some(s) => match &s.value {
                TomlValue::Table(t) => Ok(Some(t)),
                _ => Err(self.type_err(key, s, "table")),
            },
            None => Ok(None),
        }
    }

    fn req_table(&mut self, key: &str) -> Result<&'a TomlTable, ScenarioError> {
        let s = self.req(key)?;
        match &s.value {
            TomlValue::Table(t) => Ok(t),
            _ => Err(self.type_err(key, s, "table")),
        }
    }

    fn opt_table_array(&mut self, key: &str) -> Result<&'a [TomlTable], ScenarioError> {
        match self.take(key) {
            Some(s) => match &s.value {
                TomlValue::TableArray(ts) => Ok(ts),
                _ => Err(self.type_err(key, s, "array of tables (`[[fault]]`)")),
            },
            None => Ok(&[]),
        }
    }

    /// Errors on the first key no decoder consumed.
    fn finish(self) -> Result<(), ScenarioError> {
        for (i, (k, v)) in self.table.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(ScenarioError::at(
                    v.line,
                    format!("unknown key `{}`", self.key_name(k)),
                ));
            }
        }
        Ok(())
    }
}

fn decode_scenario(root: &TomlTable) -> Result<Scenario, ScenarioError> {
    let mut sec = Section::new(root, "");

    let (name, name_line) = sec.req_str("name")?;
    if name.is_empty() {
        return Err(sec.range_err("name", name_line, "must not be empty"));
    }
    let (seed, _) = sec.req_u64("seed")?;
    let max_ticks = match sec.opt_u64("max-ticks")? {
        Some((0, line)) => return Err(sec.range_err("max-ticks", line, "must be at least 1")),
        Some((t, _)) => t,
        None => DEFAULT_MAX_TICKS,
    };

    let topology = decode_topology(sec.req_table("topology")?)?;
    let engine = match sec.opt_table("engine")? {
        Some(t) => Some(decode_engine(t, &topology)?),
        None => None,
    };
    let workload = decode_workload(sec.req_table("workload")?, &topology)?;
    let serve = match sec.opt_table("serve")? {
        Some(t) => Some(decode_serve(t)?),
        None => None,
    };
    let fault_tables = sec.opt_table_array("fault")?;
    let record = match sec.opt_table("record")? {
        Some(t) => Some(decode_record(t)?),
        None => None,
    };
    sec.finish()?;

    let engine = engine.unwrap_or_default();

    // Streaming workloads need a [serve] section; batch workloads must
    // not have one.
    let workload_line = root.get("workload").map_or(0, |s| match &s.value {
        TomlValue::Table(t) => t.line_of_kind(),
        _ => s.line,
    });
    if workload.is_streaming() && serve.is_none() {
        return Err(ScenarioError::at(
            workload_line,
            format!(
                "key `workload.kind`: streaming workload `{}` needs a [serve] section",
                workload.kind_name()
            ),
        ));
    }
    if !workload.is_streaming() {
        if let Some(serve_line) = root.get("serve").map(|s| s.line) {
            return Err(ScenarioError::at(
                serve_line,
                format!(
                    "[serve] requires a streaming workload (poisson, bursty or exchange), \
                     got `{}`",
                    workload.kind_name()
                ),
            ));
        }
    }
    if workload.is_streaming()
        && !matches!(
            topology,
            Topology::Flat { .. } | Topology::Hier { .. } | Topology::Torus { .. }
        )
    {
        return Err(ScenarioError::at(
            workload_line,
            format!(
                "key `workload.kind`: serving supports flat, hier and torus topologies, \
                 not `{}`",
                topology.kind_name()
            ),
        ));
    }

    // Per-source admission polls completion records; counters-only
    // retention drops them.
    if let Some(s) = &serve {
        if matches!(s.admission, Admission::PerSource { .. })
            && matches!(engine.retention, Retention::CountersOnly)
        {
            let line = root.get("serve").map_or(0, |t| t.line);
            return Err(ScenarioError::at(
                line,
                "key `serve.admission`: per-source admission needs completion records; \
                 use `retention = \"full\"` or `\"window\"`, or aggregate admission"
                    .to_string(),
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
        if u64::from(h.node) >= topology.endpoints() {
            return Err(ScenarioError::at(
                workload_line,
                format!(
                    "key `workload.hotspot-node`: node {} is outside the {} serving endpoints",
                    h.node,
                    topology.endpoints()
                ),
            ));
        }
    }

    let faults = decode_faults(fault_tables, &topology)?;

    if let Some(path) = &record {
        let line = root.get("record").map_or(0, |t| t.line);
        if !matches!(topology, Topology::Flat { .. }) {
            return Err(ScenarioError::at(
                line,
                format!(
                    "key `record.trace`: trace recording needs the flat topology \
                     (got `{}`)",
                    topology.kind_name()
                ),
            ));
        }
        if serve.is_some() {
            return Err(ScenarioError::at(
                line,
                "key `record.trace`: trace recording works in batch mode only".to_string(),
            ));
        }
        if !matches!(engine.retention, Retention::Full) {
            return Err(ScenarioError::at(
                line,
                "key `record.trace`: trace recording needs `retention = \"full\"` \
                 (the delivered log is the trace)"
                    .to_string(),
            ));
        }
        if path.is_empty() {
            return Err(ScenarioError::at(
                line,
                "key `record.trace`: must not be empty".to_string(),
            ));
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

impl TomlTable {
    /// Line of the `kind` key if present, else the table header line.
    fn line_of_kind(&self) -> usize {
        self.get("kind").map_or(self.line, |s| s.line)
    }
}

fn decode_topology(table: &TomlTable) -> Result<Topology, ScenarioError> {
    let mut sec = Section::new(table, "topology");
    let (kind, kind_line) = sec.req_str("kind")?;
    let topo = match kind.as_str() {
        "flat" => {
            let (nodes, nl) = sec.req_u32("nodes")?;
            if nodes < 2 {
                return Err(sec.range_err("nodes", nl, "must be at least 2"));
            }
            if u64::from(nodes) > MAX_NODES {
                return Err(sec.range_err("nodes", nl, "must be at most 2^20"));
            }
            let (buses, bl) = sec.req_u16("buses")?;
            if buses == 0 {
                return Err(sec.range_err("buses", bl, "must be at least 1"));
            }
            check_wiring(&sec, "buses", bl, &[(nodes, 1, buses)])?;
            Topology::Flat {
                nodes,
                buses,
                head_timeout: decode_timeout(&mut sec, "head-timeout")?,
                retry_backoff: decode_timeout(&mut sec, "retry-backoff")?,
            }
        }
        "hier" => {
            let (rings, rl) = sec.req_u32("rings")?;
            if rings < 2 {
                return Err(sec.range_err("rings", rl, "must be at least 2"));
            }
            let (nodes_per_ring, nl) = sec.req_u32("nodes-per-ring")?;
            if nodes_per_ring < 3 {
                return Err(sec.range_err(
                    "nodes-per-ring",
                    nl,
                    "must be at least 3 (a bridge plus two compute nodes)",
                ));
            }
            let (buses, bl) = sec.req_u16("buses")?;
            if buses == 0 {
                return Err(sec.range_err("buses", bl, "must be at least 1"));
            }
            if u64::from(rings) * u64::from(nodes_per_ring) > MAX_NODES {
                return Err(sec.range_err(
                    "nodes-per-ring",
                    nl,
                    "hierarchy too large (rings x nodes-per-ring must stay within 2^20 nodes)",
                ));
            }
            check_rings(&sec, "rings", rl, u64::from(rings) + 1)?;
            let global_buses = match sec.opt_u16("global-buses")? {
                Some((0, gl)) => {
                    return Err(sec.range_err("global-buses", gl, "must be at least 1"))
                }
                other => other,
            };
            let local = (nodes_per_ring, u64::from(rings), buses);
            check_wiring(&sec, "buses", bl, &[local])?;
            let (gk, gkey, gline) =
                global_buses.map_or((buses, "buses", bl), |(g, gl)| (g, "global-buses", gl));
            check_wiring(&sec, gkey, gline, &[local, (rings, 1, gk)])?;
            let bridge_queue_depth = match sec.opt_u32("bridge-queue-depth")? {
                Some((0, ql)) => {
                    return Err(sec.range_err("bridge-queue-depth", ql, "must be at least 1"))
                }
                Some((q, _)) => Some(q),
                None => None,
            };
            Topology::Hier {
                rings,
                nodes_per_ring,
                buses,
                global_buses: global_buses.map(|(g, _)| g),
                bridge_queue_depth,
                head_timeout: decode_timeout(&mut sec, "head-timeout")?,
                retry_backoff: decode_timeout(&mut sec, "retry-backoff")?,
            }
        }
        "grid" => {
            let (rows, rl) = sec.req_u32("rows")?;
            if rows < 2 {
                return Err(sec.range_err("rows", rl, "must be at least 2"));
            }
            let (cols, cl) = sec.req_u32("cols")?;
            if cols < 2 {
                return Err(sec.range_err("cols", cl, "must be at least 2"));
            }
            if u64::from(rows) * u64::from(cols) > MAX_NODES {
                return Err(sec.range_err(
                    "cols",
                    cl,
                    "grid too large (rows x cols must stay within 2^20 nodes)",
                ));
            }
            check_rings(&sec, "cols", cl, u64::from(rows) + u64::from(cols))?;
            let (buses, bl) = sec.req_u16("buses")?;
            if buses == 0 {
                return Err(sec.range_err("buses", bl, "must be at least 1"));
            }
            // A row ring per row over its columns, a column ring per column.
            let wiring = [
                (cols, u64::from(rows), buses),
                (rows, u64::from(cols), buses),
            ];
            check_wiring(&sec, "buses", bl, &wiring)?;
            Topology::Grid { rows, cols, buses }
        }
        "lattice" => {
            let dims_spanned = sec.req("dims")?;
            let dims = match &dims_spanned.value {
                TomlValue::Array(items) => {
                    let mut dims = Vec::with_capacity(items.len());
                    for item in items {
                        match item.value {
                            TomlValue::Int(i) if (2..=u32::MAX as i64).contains(&i) => {
                                dims.push(i as u32)
                            }
                            _ => {
                                return Err(sec.range_err(
                                    "dims",
                                    item.line,
                                    "every dimension must be an integer >= 2",
                                ))
                            }
                        }
                    }
                    dims
                }
                _ => return Err(sec.type_err("dims", dims_spanned, "array of integers")),
            };
            if dims.len() < 2 {
                return Err(sec.range_err(
                    "dims",
                    dims_spanned.line,
                    "needs at least two dimensions",
                ));
            }
            let nodes = dims.iter().try_fold(1u64, |n, &d| {
                Some(n * u64::from(d)).filter(|&n| n <= MAX_NODES)
            });
            let Some(nodes) = nodes else {
                return Err(sec.range_err(
                    "dims",
                    dims_spanned.line,
                    "lattice too large (the product of dims must stay within 2^20 nodes)",
                ));
            };
            // One ring along each dimension per line of the lattice.
            let lines = |d: u32| nodes / u64::from(d);
            let rings = dims.iter().map(|&d| lines(d)).sum();
            check_rings(&sec, "dims", dims_spanned.line, rings)?;
            let (buses, bl) = sec.req_u16("buses")?;
            if buses == 0 {
                return Err(sec.range_err("buses", bl, "must be at least 1"));
            }
            let wiring: Vec<_> = dims.iter().map(|&d| (d, lines(d), buses)).collect();
            check_wiring(&sec, "buses", bl, &wiring)?;
            Topology::Lattice { dims, buses }
        }
        "torus" => {
            let (radix, rl) = sec.req_u32("radix")?;
            if radix < 3 {
                return Err(sec.range_err("radix", rl, "must be at least 3"));
            }
            let (dims, dl) = sec.req_u32("dims")?;
            if dims == 0 {
                return Err(sec.range_err("dims", dl, "must be at least 1"));
            }
            if u64::from(radix).pow(dims.min(16)) > 1 << 20 || dims > 16 {
                return Err(sec.range_err(
                    "dims",
                    dl,
                    "torus too large (radix^dims must stay within 2^20 nodes)",
                ));
            }
            Topology::Torus { radix, dims }
        }
        other => {
            return Err(ScenarioError::at(
                kind_line,
                format!(
                    "key `topology.kind`: unknown topology `{other}` \
                     (expected flat, hier, grid, lattice or torus)"
                ),
            ))
        }
    };
    sec.finish()?;
    Ok(topo)
}

/// Rejects more than [`MAX_RINGS`] carrier rings, naming `key` at `line`.
fn check_rings(sec: &Section<'_>, key: &str, line: usize, rings: u64) -> Result<(), ScenarioError> {
    if rings > MAX_RINGS {
        return Err(sec.range_err(
            key,
            line,
            &format!("too many carrier rings ({rings}; at most 2^14)"),
        ));
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
        return Err(sec.range_err(
            key,
            line,
            "too many bus segments (nodes x buses over the carrier rings must stay within 2^22)",
        ));
    }
    Ok(())
}

fn decode_timeout(sec: &mut Section<'_>, key: &str) -> Result<Option<u64>, ScenarioError> {
    match sec.opt_u64(key)? {
        Some((0, line)) => Err(sec.range_err(key, line, "must be at least 1")),
        Some((t, _)) => Ok(Some(t)),
        None => Ok(None),
    }
}

fn decode_engine(table: &TomlTable, topology: &Topology) -> Result<Engine, ScenarioError> {
    let mut sec = Section::new(table, "engine");
    if matches!(
        topology,
        Topology::Grid { .. } | Topology::Lattice { .. } | Topology::Torus { .. }
    ) {
        return Err(ScenarioError::at(
            table.line,
            format!(
                "[engine] is only supported for the flat and hier topologies \
                 (got `{}`)",
                topology.kind_name()
            ),
        ));
    }
    let is_hier = matches!(topology, Topology::Hier { .. });

    let retention_choice = sec.opt_str("retention")?;
    let window = sec.opt_u32("window")?;
    let retention = match retention_choice {
        None => {
            if let Some((_, line)) = window {
                return Err(sec.range_err(
                    "window",
                    line,
                    "only meaningful with `retention = \"window\"`",
                ));
            }
            Retention::Full
        }
        Some((s, line)) => {
            if is_hier {
                return Err(sec.range_err(
                    "retention",
                    line,
                    "only the flat topology exposes log retention",
                ));
            }
            match s.as_str() {
                "full" => {
                    if let Some((_, wl)) = window {
                        return Err(sec.range_err(
                            "window",
                            wl,
                            "only meaningful with `retention = \"window\"`",
                        ));
                    }
                    Retention::Full
                }
                "window" => match window {
                    Some((w, _)) if w >= 1 => Retention::Window(w),
                    Some((_, wl)) => return Err(sec.range_err("window", wl, "must be at least 1")),
                    None => {
                        return Err(sec.range_err(
                            "retention",
                            line,
                            "windowed retention needs a `window` key (>= 1)",
                        ))
                    }
                },
                "counters-only" => {
                    if let Some((_, wl)) = window {
                        return Err(sec.range_err(
                            "window",
                            wl,
                            "only meaningful with `retention = \"window\"`",
                        ));
                    }
                    Retention::CountersOnly
                }
                other => {
                    return Err(sec.range_err(
                        "retention",
                        line,
                        &format!(
                            "unknown retention `{other}` (expected full, window or counters-only)"
                        ),
                    ))
                }
            }
        }
    };

    let max_retries = sec.opt_u32("max-retries")?.map(|(v, _)| v);
    let checked = sec.opt_bool("checked")?.map(|(v, _)| v).unwrap_or(false);
    sec.finish()?;

    Ok(Engine {
        retention,
        max_retries,
        checked,
    })
}

fn decode_workload(table: &TomlTable, topology: &Topology) -> Result<Workload, ScenarioError> {
    let mut sec = Section::new(table, "workload");
    let (kind, kind_line) = sec.req_str("kind")?;
    let is_hier = matches!(topology, Topology::Hier { .. });

    let require_flat_family = |sec: &Section<'_>| -> Result<(), ScenarioError> {
        if is_hier {
            Err(ScenarioError::at(
                kind_line,
                format!(
                    "key `{}`: workload `{kind}` addresses flat node indices; \
                     use `locality` for the hier topology",
                    sec.key_name("kind")
                ),
            ))
        } else {
            Ok(())
        }
    };

    let req_flits = |sec: &mut Section<'_>| -> Result<u32, ScenarioError> {
        let (flits, fl) = sec.req_u32("flits")?;
        if flits == 0 {
            return Err(sec.range_err("flits", fl, "must be at least 1"));
        }
        Ok(flits)
    };

    let workload = match kind.as_str() {
        "uniform" => {
            require_flat_family(&sec)?;
            let (messages, ml) = sec.req_u32("messages")?;
            if messages == 0 {
                return Err(sec.range_err("messages", ml, "must be at least 1"));
            }
            let spread = match sec.opt_u64("spread")? {
                Some((0, sl)) => return Err(sec.range_err("spread", sl, "must be at least 1")),
                Some((s, _)) => s,
                None => 64,
            };
            Workload::Uniform {
                messages,
                spread,
                flits: req_flits(&mut sec)?,
            }
        }
        "locality" => {
            if !is_hier {
                return Err(ScenarioError::at(
                    kind_line,
                    format!(
                        "key `workload.kind`: `locality` drives the hier topology, \
                         not `{}`",
                        topology.kind_name()
                    ),
                ));
            }
            let (messages, ml) = sec.req_u32("messages")?;
            if messages == 0 {
                return Err(sec.range_err("messages", ml, "must be at least 1"));
            }
            let spread = match sec.opt_u64("spread")? {
                Some((0, sl)) => return Err(sec.range_err("spread", sl, "must be at least 1")),
                Some((s, _)) => s,
                None => 64,
            };
            let (locality, ll) = sec.req_f64("locality")?;
            if !(0.0..=1.0).contains(&locality) {
                return Err(sec.range_err("locality", ll, "must lie in 0.0..=1.0"));
            }
            Workload::Locality {
                messages,
                spread,
                flits: req_flits(&mut sec)?,
                locality,
            }
        }
        "all-to-all" => {
            require_flat_family(&sec)?;
            Workload::AllToAll {
                flits: req_flits(&mut sec)?,
                stagger: sec.opt_u64("stagger")?.map(|(v, _)| v).unwrap_or(0),
            }
        }
        "nearest-neighbour" => {
            require_flat_family(&sec)?;
            let rounds = match sec.opt_u32("rounds")? {
                Some((0, rl)) => return Err(sec.range_err("rounds", rl, "must be at least 1")),
                Some((r, _)) => r,
                None => 1,
            };
            Workload::NearestNeighbour {
                flits: req_flits(&mut sec)?,
                rounds,
                stagger: sec.opt_u64("stagger")?.map(|(v, _)| v).unwrap_or(0),
            }
        }
        "poisson" => Workload::Poisson {
            rate: decode_rate(&mut sec)?,
            flits: req_flits(&mut sec)?,
            hotspot: decode_hotspot(&mut sec)?,
        },
        "bursty" => {
            let rate = decode_rate(&mut sec)?;
            let (burst, bl) = sec.req_u32("burst")?;
            if burst == 0 {
                return Err(sec.range_err("burst", bl, "must be at least 1"));
            }
            Workload::Bursty {
                rate,
                burst,
                flits: req_flits(&mut sec)?,
                hotspot: decode_hotspot(&mut sec)?,
            }
        }
        "exchange" => {
            let (period, pl) = sec.req_u64("period")?;
            if period == 0 {
                return Err(sec.range_err("period", pl, "must be at least 1"));
            }
            Workload::Exchange {
                period,
                flits: req_flits(&mut sec)?,
            }
        }
        "trace" => {
            require_flat_family(&sec)?;
            let (path, pl) = sec.req_str("path")?;
            if path.is_empty() {
                return Err(sec.range_err("path", pl, "must not be empty"));
            }
            Workload::Trace { path }
        }
        other => {
            return Err(ScenarioError::at(
                kind_line,
                format!(
                    "key `workload.kind`: unknown workload `{other}` (expected uniform, \
                     locality, all-to-all, nearest-neighbour, poisson, bursty, exchange \
                     or trace)"
                ),
            ))
        }
    };
    sec.finish()?;
    Ok(workload)
}

fn decode_rate(sec: &mut Section<'_>) -> Result<f64, ScenarioError> {
    let (rate, rl) = sec.req_f64("rate")?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(sec.range_err("rate", rl, "must lie in (0.0, 1.0]"));
    }
    Ok(rate)
}

fn decode_hotspot(sec: &mut Section<'_>) -> Result<Option<Hotspot>, ScenarioError> {
    let node = sec.opt_u32("hotspot-node")?;
    let fraction = sec.opt_f64("hotspot-fraction")?;
    match (node, fraction) {
        (None, None) => Ok(None),
        (Some((node, _)), Some((fraction, fl))) => {
            if !(0.0..=1.0).contains(&fraction) {
                return Err(sec.range_err("hotspot-fraction", fl, "must lie in 0.0..=1.0"));
            }
            Ok(Some(Hotspot { node, fraction }))
        }
        (Some((_, nl)), None) => Err(sec.range_err(
            "hotspot-node",
            nl,
            "needs a matching `hotspot-fraction` key",
        )),
        (None, Some((_, fl))) => Err(sec.range_err(
            "hotspot-fraction",
            fl,
            "needs a matching `hotspot-node` key",
        )),
    }
}

fn decode_serve(table: &TomlTable) -> Result<ServeOptions, ScenarioError> {
    let mut sec = Section::new(table, "serve");
    let warmup = sec.opt_u64("warmup")?.map(|(v, _)| v).unwrap_or(2_000);
    let (duration, dl) = sec.req_u64("duration")?;
    if duration == 0 {
        return Err(sec.range_err("duration", dl, "must be at least 1"));
    }
    let depth = match sec.opt_u32("depth")? {
        Some((0, dl)) => return Err(sec.range_err("depth", dl, "must be at least 1")),
        Some((d, _)) => d,
        None => 4,
    };
    let admission = match sec.opt_str("admission")? {
        None => Admission::PerSource { depth },
        Some((s, line)) => match s.as_str() {
            "per-source" => Admission::PerSource { depth },
            "aggregate" => Admission::Aggregate { depth },
            other => {
                return Err(sec.range_err(
                    "admission",
                    line,
                    &format!("unknown admission `{other}` (expected per-source or aggregate)"),
                ))
            }
        },
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
    let (path, _) = sec.req_str("trace")?;
    sec.finish()?;
    Ok(path)
}

fn decode_faults(
    tables: &[TomlTable],
    topology: &Topology,
) -> Result<Vec<FaultSpec>, ScenarioError> {
    if tables.is_empty() {
        return Ok(Vec::new());
    }
    let (is_flat, is_hier) = (
        matches!(topology, Topology::Flat { .. }),
        matches!(topology, Topology::Hier { .. }),
    );
    if !is_flat && !is_hier {
        return Err(ScenarioError::at(
            tables[0].line,
            format!(
                "[[fault]] is only supported for the flat and hier topologies (got `{}`)",
                topology.kind_name()
            ),
        ));
    }

    let mut faults = Vec::with_capacity(tables.len());
    for table in tables {
        let mut sec = Section::new(table, "fault");
        let (kind, kind_line) = sec.req_str("kind")?;
        let fault_kind = match kind.as_str() {
            "segment-stuck" => FaultKindSpec::SegmentStuck {
                hop: sec.req_u32("hop")?.0,
                bus: sec.req_u16("bus")?.0,
            },
            "link-cut" => FaultKindSpec::LinkCut {
                hop: sec.req_u32("hop")?.0,
            },
            "inc-dead" => FaultKindSpec::IncDead {
                node: sec.req_u32("node")?.0,
            },
            other => {
                return Err(ScenarioError::at(
                    kind_line,
                    format!(
                        "key `fault.kind`: unknown fault `{other}` (expected segment-stuck, \
                         link-cut or inc-dead)"
                    ),
                ))
            }
        };
        let (at, _) = sec.req_u64("at")?;
        let repair_at = match sec.opt_u64("repair-at")? {
            Some((r, rl)) => {
                if r <= at {
                    return Err(sec.range_err(
                        "repair-at",
                        rl,
                        "must be strictly after the fault's `at` tick",
                    ));
                }
                Some(r)
            }
            None => None,
        };
        let ring = match sec.take("ring") {
            None => {
                if is_hier {
                    return Err(ScenarioError::at(
                        table.line,
                        "key `fault.ring`: hier faults must name a carrier \
                         (a ring index or \"global\")"
                            .to_string(),
                    ));
                }
                None
            }
            Some(s) => {
                if is_flat {
                    return Err(ScenarioError::at(
                        s.line,
                        "key `fault.ring`: only meaningful for the hier topology".to_string(),
                    ));
                }
                match &s.value {
                    TomlValue::Int(i) => {
                        let rings = match topology {
                            Topology::Hier { rings, .. } => *rings,
                            _ => unreachable!("is_hier checked"),
                        };
                        let r = u32::try_from(*i)
                            .ok()
                            .filter(|r| *r < rings)
                            .ok_or_else(|| {
                                ScenarioError::at(
                                    s.line,
                                    format!(
                                        "key `fault.ring`: ring index {i} is outside 0..{rings}"
                                    ),
                                )
                            })?;
                        Some(RingSel::Local(r))
                    }
                    TomlValue::Str(txt) if txt == "global" => Some(RingSel::Global),
                    other => {
                        return Err(ScenarioError::at(
                            s.line,
                            format!(
                                "key `fault.ring`: expected a ring index or \"global\", got {}",
                                other.type_name()
                            ),
                        ))
                    }
                }
            }
        };
        sec.finish()?;
        let spec = FaultSpec {
            kind: fault_kind,
            at,
            repair_at,
            ring,
        };
        // Range-check hop/bus/node indices against the target carrier by
        // building a throwaway plan and reusing FaultPlan::validate.
        let (n, k) = match (topology, spec.ring) {
            (Topology::Flat { nodes, buses, .. }, None) => (*nodes, *buses),
            (
                Topology::Hier {
                    nodes_per_ring,
                    buses,
                    ..
                },
                Some(RingSel::Local(_)),
            ) => (*nodes_per_ring, *buses),
            (
                Topology::Hier {
                    rings,
                    buses,
                    global_buses,
                    ..
                },
                Some(RingSel::Global),
            ) => (*rings, global_buses.unwrap_or(*buses)),
            _ => unreachable!("ring selector validated against topology"),
        };
        if let Err(e) = spec.apply_to(FaultPlan::new()).validate(n, k) {
            return Err(ScenarioError::at(
                table.line,
                format!("[[fault]] invalid for its target carrier (n={n}, k={k}): {e}"),
            ));
        }
        faults.push(spec);
    }
    Ok(faults)
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

impl Scenario {
    /// Emits canonical TOML that [`parse_scenario`] decodes back to an
    /// equal value.
    pub fn to_toml(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "name = \"{}\"", escape_str(&self.name));
        let _ = writeln!(out, "seed = {}", self.seed);
        if self.max_ticks != DEFAULT_MAX_TICKS {
            let _ = writeln!(out, "max-ticks = {}", self.max_ticks);
        }

        out.push_str("\n[topology]\n");
        match &self.topology {
            Topology::Flat {
                nodes,
                buses,
                head_timeout,
                retry_backoff,
            } => {
                out.push_str("kind = \"flat\"\n");
                let _ = writeln!(out, "nodes = {nodes}");
                let _ = writeln!(out, "buses = {buses}");
                if let Some(t) = head_timeout {
                    let _ = writeln!(out, "head-timeout = {t}");
                }
                if let Some(t) = retry_backoff {
                    let _ = writeln!(out, "retry-backoff = {t}");
                }
            }
            Topology::Hier {
                rings,
                nodes_per_ring,
                buses,
                global_buses,
                bridge_queue_depth,
                head_timeout,
                retry_backoff,
            } => {
                out.push_str("kind = \"hier\"\n");
                let _ = writeln!(out, "rings = {rings}");
                let _ = writeln!(out, "nodes-per-ring = {nodes_per_ring}");
                let _ = writeln!(out, "buses = {buses}");
                if let Some(g) = global_buses {
                    let _ = writeln!(out, "global-buses = {g}");
                }
                if let Some(q) = bridge_queue_depth {
                    let _ = writeln!(out, "bridge-queue-depth = {q}");
                }
                if let Some(t) = head_timeout {
                    let _ = writeln!(out, "head-timeout = {t}");
                }
                if let Some(t) = retry_backoff {
                    let _ = writeln!(out, "retry-backoff = {t}");
                }
            }
            Topology::Grid { rows, cols, buses } => {
                out.push_str("kind = \"grid\"\n");
                let _ = writeln!(out, "rows = {rows}");
                let _ = writeln!(out, "cols = {cols}");
                let _ = writeln!(out, "buses = {buses}");
            }
            Topology::Lattice { dims, buses } => {
                out.push_str("kind = \"lattice\"\n");
                let dims: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
                let _ = writeln!(out, "dims = [{}]", dims.join(", "));
                let _ = writeln!(out, "buses = {buses}");
            }
            Topology::Torus { radix, dims } => {
                out.push_str("kind = \"torus\"\n");
                let _ = writeln!(out, "radix = {radix}");
                let _ = writeln!(out, "dims = {dims}");
            }
        }

        if self.engine != Engine::default() {
            out.push_str("\n[engine]\n");
            match self.engine.retention {
                Retention::Full => {}
                Retention::Window(w) => {
                    out.push_str("retention = \"window\"\n");
                    let _ = writeln!(out, "window = {w}");
                }
                Retention::CountersOnly => out.push_str("retention = \"counters-only\"\n"),
            }
            if let Some(r) = self.engine.max_retries {
                let _ = writeln!(out, "max-retries = {r}");
            }
            if self.engine.checked {
                out.push_str("checked = true\n");
            }
        }

        out.push_str("\n[workload]\n");
        match &self.workload {
            Workload::Uniform {
                messages,
                spread,
                flits,
            } => {
                out.push_str("kind = \"uniform\"\n");
                let _ = writeln!(out, "messages = {messages}");
                let _ = writeln!(out, "spread = {spread}");
                let _ = writeln!(out, "flits = {flits}");
            }
            Workload::Locality {
                messages,
                spread,
                flits,
                locality,
            } => {
                out.push_str("kind = \"locality\"\n");
                let _ = writeln!(out, "messages = {messages}");
                let _ = writeln!(out, "spread = {spread}");
                let _ = writeln!(out, "locality = {}", toml_float(*locality));
                let _ = writeln!(out, "flits = {flits}");
            }
            Workload::AllToAll { flits, stagger } => {
                out.push_str("kind = \"all-to-all\"\n");
                let _ = writeln!(out, "flits = {flits}");
                let _ = writeln!(out, "stagger = {stagger}");
            }
            Workload::NearestNeighbour {
                flits,
                rounds,
                stagger,
            } => {
                out.push_str("kind = \"nearest-neighbour\"\n");
                let _ = writeln!(out, "flits = {flits}");
                let _ = writeln!(out, "rounds = {rounds}");
                let _ = writeln!(out, "stagger = {stagger}");
            }
            Workload::Poisson {
                rate,
                flits,
                hotspot,
            } => {
                out.push_str("kind = \"poisson\"\n");
                let _ = writeln!(out, "rate = {}", toml_float(*rate));
                let _ = writeln!(out, "flits = {flits}");
                if let Some(h) = hotspot {
                    let _ = writeln!(out, "hotspot-node = {}", h.node);
                    let _ = writeln!(out, "hotspot-fraction = {}", toml_float(h.fraction));
                }
            }
            Workload::Bursty {
                rate,
                burst,
                flits,
                hotspot,
            } => {
                out.push_str("kind = \"bursty\"\n");
                let _ = writeln!(out, "rate = {}", toml_float(*rate));
                let _ = writeln!(out, "burst = {burst}");
                let _ = writeln!(out, "flits = {flits}");
                if let Some(h) = hotspot {
                    let _ = writeln!(out, "hotspot-node = {}", h.node);
                    let _ = writeln!(out, "hotspot-fraction = {}", toml_float(h.fraction));
                }
            }
            Workload::Exchange { period, flits } => {
                out.push_str("kind = \"exchange\"\n");
                let _ = writeln!(out, "period = {period}");
                let _ = writeln!(out, "flits = {flits}");
            }
            Workload::Trace { path } => {
                out.push_str("kind = \"trace\"\n");
                let _ = writeln!(out, "path = \"{}\"", escape_str(path));
            }
        }

        if let Some(s) = &self.serve {
            out.push_str("\n[serve]\n");
            let _ = writeln!(out, "warmup = {}", s.warmup);
            let _ = writeln!(out, "duration = {}", s.duration);
            match s.admission {
                Admission::PerSource { depth } => {
                    out.push_str("admission = \"per-source\"\n");
                    let _ = writeln!(out, "depth = {depth}");
                }
                Admission::Aggregate { depth } => {
                    out.push_str("admission = \"aggregate\"\n");
                    let _ = writeln!(out, "depth = {depth}");
                }
            }
        }

        for f in &self.faults {
            out.push_str("\n[[fault]]\n");
            match f.kind {
                FaultKindSpec::SegmentStuck { hop, bus } => {
                    out.push_str("kind = \"segment-stuck\"\n");
                    let _ = writeln!(out, "hop = {hop}");
                    let _ = writeln!(out, "bus = {bus}");
                }
                FaultKindSpec::LinkCut { hop } => {
                    out.push_str("kind = \"link-cut\"\n");
                    let _ = writeln!(out, "hop = {hop}");
                }
                FaultKindSpec::IncDead { node } => {
                    out.push_str("kind = \"inc-dead\"\n");
                    let _ = writeln!(out, "node = {node}");
                }
            }
            let _ = writeln!(out, "at = {}", f.at);
            if let Some(r) = f.repair_at {
                let _ = writeln!(out, "repair-at = {r}");
            }
            match f.ring {
                None => {}
                Some(RingSel::Local(r)) => {
                    let _ = writeln!(out, "ring = {r}");
                }
                Some(RingSel::Global) => out.push_str("ring = \"global\"\n"),
            }
        }

        if let Some(path) = &self.record {
            out.push_str("\n[record]\n");
            let _ = writeln!(out, "trace = \"{}\"", escape_str(path));
        }
        out
    }
}

/// Formats a float so the TOML parser reads it back as a float (always
/// keeps a decimal point or exponent) and bit-exactly (shortest
/// round-trip formatting).
fn toml_float(f: f64) -> String {
    let s = format!("{f:?}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
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

    #[test]
    fn minimal_round_trips() {
        let s = parse_scenario(FLAT).expect("valid");
        let emitted = s.to_toml();
        assert_eq!(parse_scenario(&emitted).expect("round-trips"), s);
    }

    #[test]
    fn toml_float_always_reparses_as_float() {
        for f in [0.5, 1.0, 1e-9, 123.456, 0.07] {
            let s = toml_float(f);
            assert!(s.contains('.') || s.contains('e'), "{s}");
            assert_eq!(s.parse::<f64>().unwrap(), f);
        }
    }
}
