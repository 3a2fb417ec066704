//! Schema fidelity tests.
//!
//! The property half generates random *valid* scenarios — every topology,
//! engine combination, workload family, serve block, fault plan and
//! record block the schema admits — writing each key's TOML where it
//! draws the value, and proves the parser reconstructs the drawn
//! scenario exactly. The table half feeds known-bad files through
//! [`parse_scenario`] and asserts the error names the offending key *and*
//! the line it sits on.

use proptest::prelude::*;
use proptest::{Strategy, TestRng};
use rmb_core::LogRetention;
use rmb_scenario::{
    parse_scenario, Engine, FaultKindSpec, FaultSpec, Hotspot, RingSel, Scenario, ServeOptions,
    Topology, Workload,
};
use rmb_serve::AdmissionMode;
use std::fmt::{Debug, Write as _};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn below(rng: &mut TestRng, n: u64) -> u64 {
    (0u64..n.max(1)).generate(rng)
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    below(rng, 100) < percent
}

/// Scenario text, written one key at a time as the generators draw.
#[derive(Default)]
struct Text(String);

impl Text {
    fn table(&mut self, header: &str) {
        writeln!(self.0, "\n{header}").unwrap();
    }

    /// Writes `key = value` and returns `value`. `Debug` formats every
    /// value drawn here as TOML does: integers and arrays of them, floats
    /// exactly and with a point or an exponent, and strings quoted with
    /// the escapes the two share.
    fn key<T: Debug>(&mut self, key: &str, value: T) -> T {
        writeln!(self.0, "{key} = {value:?}").unwrap();
        value
    }

    fn opt<T: Debug>(&mut self, key: &str, value: Option<T>) -> Option<T> {
        value.map(|v| self.key(key, v))
    }
}

/// Draws an optional key: one time in ten its `default`, left out for the
/// parser to supply, one time in ten the default written out, and
/// otherwise a value from `draw`.
fn defaulted<T: Debug>(
    rng: &mut TestRng,
    t: &mut Text,
    key: &str,
    default: T,
    draw: impl FnOnce(&mut TestRng) -> T,
) -> T {
    match below(rng, 10) {
        0 => default,
        1 => t.key(key, default),
        _ => t.key(key, draw(rng)),
    }
}

/// Names exercise string escapes: quotes, backslashes, hashes and
/// TOML punctuation must all survive the round trip.
fn gen_name(rng: &mut TestRng) -> String {
    let alphabet: Vec<char> = "abcXYZ019-_ \"\\#=[]".chars().collect();
    let len = 1 + below(rng, 12) as usize;
    (0..len)
        .map(|_| alphabet[below(rng, alphabet.len() as u64) as usize])
        .collect()
}

/// An exactly-representable fraction in `[0, 1]`.
fn gen_fraction(rng: &mut TestRng) -> f64 {
    below(rng, 101) as f64 / 100.0
}

/// An `[engine]` section for a flat or hier ring, or none. Per-source
/// admission, which serving runs mostly use, needs completion records, so
/// a serving flat ring keeps them.
fn gen_engine(rng: &mut TestRng, t: &mut Text, flat: bool, serve: bool) -> Engine {
    if chance(rng, 30) {
        return Engine::default();
    }
    t.table("[engine]");
    let retention = match below(rng, 3) {
        1 if flat => {
            t.key("retention", "window");
            LogRetention::Window(t.key("window", 1 + below(rng, 64) as usize))
        }
        2 if flat && !serve => {
            t.key("retention", "counters-only");
            LogRetention::CountersOnly
        }
        _ => {
            // The default, written out or left for the parser to supply.
            if flat && chance(rng, 50) {
                t.key("retention", "full");
            }
            LogRetention::Full
        }
    };
    Engine {
        retention,
        max_retries: t.opt(
            "max-retries",
            chance(rng, 30).then(|| below(rng, 64) as u32),
        ),
        checked: defaulted(rng, t, "checked", false, |rng| chance(rng, 20)),
    }
}

fn gen_flat_topology(rng: &mut TestRng, t: &mut Text) -> Topology {
    t.table("[topology]");
    t.key("kind", "flat");
    Topology::Flat {
        nodes: t.key("nodes", 2 + below(rng, 31) as u32),
        buses: t.key("buses", 1 + below(rng, 8) as u16),
        head_timeout: t.opt(
            "head-timeout",
            chance(rng, 30).then(|| 1 + below(rng, 1_000)),
        ),
        retry_backoff: t.opt(
            "retry-backoff",
            chance(rng, 30).then(|| 1 + below(rng, 100)),
        ),
    }
}

fn gen_hier_topology(rng: &mut TestRng, t: &mut Text) -> Topology {
    t.table("[topology]");
    t.key("kind", "hier");
    Topology::Hier {
        rings: t.key("rings", 2 + below(rng, 7) as u32),
        nodes_per_ring: t.key("nodes-per-ring", 3 + below(rng, 7) as u32),
        buses: t.key("buses", 1 + below(rng, 4) as u16),
        global_buses: t.opt(
            "global-buses",
            chance(rng, 40).then(|| 1 + below(rng, 4) as u16),
        ),
        bridge_queue_depth: t.opt(
            "bridge-queue-depth",
            chance(rng, 30).then(|| 1 + below(rng, 8) as u32),
        ),
        head_timeout: t.opt(
            "head-timeout",
            chance(rng, 30).then(|| 1 + below(rng, 1_000)),
        ),
        retry_backoff: t.opt(
            "retry-backoff",
            chance(rng, 30).then(|| 1 + below(rng, 100)),
        ),
    }
}

fn gen_batch_workload(rng: &mut TestRng, t: &mut Text) -> Workload {
    t.table("[workload]");
    let flits = 1 + below(rng, 32) as u32;
    match below(rng, 4) {
        0 => {
            t.key("kind", "uniform");
            Workload::Uniform {
                messages: t.key("messages", 1 + below(rng, 200) as u32),
                spread: defaulted(rng, t, "spread", 64, |rng| 1 + below(rng, 500)),
                flits: t.key("flits", flits),
            }
        }
        1 => {
            t.key("kind", "all-to-all");
            Workload::AllToAll {
                flits: t.key("flits", flits),
                stagger: defaulted(rng, t, "stagger", 0, |rng| below(rng, 100)),
            }
        }
        2 => {
            t.key("kind", "nearest-neighbour");
            Workload::NearestNeighbour {
                flits: t.key("flits", flits),
                rounds: defaulted(rng, t, "rounds", 1, |rng| 1 + below(rng, 5) as u32),
                stagger: defaulted(rng, t, "stagger", 0, |rng| below(rng, 100)),
            }
        }
        _ => {
            t.key("kind", "trace");
            let stem = gen_name(rng).replace(['"', '\\'], "q");
            Workload::Trace {
                path: t.key("path", format!("traces/{stem}.trace.json")),
            }
        }
    }
}

fn gen_streaming_workload(rng: &mut TestRng, t: &mut Text, endpoints: u64) -> Workload {
    t.table("[workload]");
    let flits = 1 + below(rng, 32) as u32;
    let rate = (1 + below(rng, 1_000)) as f64 / 1_000.0;
    let hotspot = |rng: &mut TestRng, t: &mut Text| {
        chance(rng, 40).then(|| Hotspot {
            node: t.key("hotspot-node", below(rng, endpoints) as u32),
            fraction: t.key("hotspot-fraction", gen_fraction(rng)),
        })
    };
    match below(rng, 3) {
        0 => {
            t.key("kind", "poisson");
            Workload::Poisson {
                rate: t.key("rate", rate),
                flits: t.key("flits", flits),
                hotspot: hotspot(rng, t),
            }
        }
        1 => {
            t.key("kind", "bursty");
            Workload::Bursty {
                rate: t.key("rate", rate),
                burst: t.key("burst", 1 + below(rng, 10) as u32),
                flits: t.key("flits", flits),
                hotspot: hotspot(rng, t),
            }
        }
        _ => {
            t.key("kind", "exchange");
            Workload::Exchange {
                period: t.key("period", 1 + below(rng, 50)),
                flits: t.key("flits", flits),
            }
        }
    }
}

fn gen_serve(rng: &mut TestRng, t: &mut Text, counters_only: bool) -> ServeOptions {
    t.table("[serve]");
    let warmup = defaulted(rng, t, "warmup", 2_000, |rng| below(rng, 5_000));
    let duration = t.key("duration", 1 + below(rng, 10_000));
    let depth = defaulted(rng, t, "depth", 4, |rng| 1 + below(rng, 10) as u32);
    let admission = if counters_only || chance(rng, 30) {
        t.key("admission", "aggregate");
        AdmissionMode::Aggregate { depth }
    } else {
        if chance(rng, 50) {
            t.key("admission", "per-source");
        }
        AdmissionMode::PerSource { depth }
    };
    ServeOptions {
        warmup,
        duration,
        admission,
    }
}

fn gen_fault(rng: &mut TestRng, t: &mut Text, n: u32, k: u16, ring: Option<RingSel>) -> FaultSpec {
    t.table("[[fault]]");
    let kind = match below(rng, 3) {
        0 => {
            t.key("kind", "segment-stuck");
            FaultKindSpec::SegmentStuck {
                hop: t.key("hop", below(rng, u64::from(n)) as u32),
                bus: t.key("bus", below(rng, u64::from(k)) as u16),
            }
        }
        1 => {
            t.key("kind", "link-cut");
            FaultKindSpec::LinkCut {
                hop: t.key("hop", below(rng, u64::from(n)) as u32),
            }
        }
        _ => {
            t.key("kind", "inc-dead");
            FaultKindSpec::IncDead {
                node: t.key("node", below(rng, u64::from(n)) as u32),
            }
        }
    };
    let at = t.key("at", below(rng, 1_000));
    let repair_at = t.opt(
        "repair-at",
        chance(rng, 50).then(|| at + 1 + below(rng, 500)),
    );
    match ring {
        Some(RingSel::Local(r)) => {
            t.key("ring", r);
        }
        Some(RingSel::Global) => {
            t.key("ring", "global");
        }
        None => {}
    }
    FaultSpec {
        kind,
        at,
        repair_at,
        ring,
    }
}

/// A random valid scenario and the text it was written as.
fn gen_scenario(rng: &mut TestRng) -> (Scenario, String) {
    let t = &mut Text::default();
    let mut s = Scenario {
        name: t.key("name", gen_name(rng)),
        seed: t.key("seed", below(rng, i64::MAX as u64)),
        max_ticks: defaulted(rng, t, "max-ticks", 8_000_000, |rng| {
            1 + below(rng, 10_000_000)
        }),
        topology: Topology::Flat {
            nodes: 2,
            buses: 1,
            head_timeout: None,
            retry_backoff: None,
        },
        engine: Engine::default(),
        workload: Workload::AllToAll {
            flits: 1,
            stagger: 0,
        },
        serve: None,
        faults: Vec::new(),
        record: None,
    };

    match below(rng, 8) {
        // Flat, batch.
        0 => {
            s.topology = gen_flat_topology(rng, t);
            s.engine = gen_engine(rng, t, true, false);
            s.workload = gen_batch_workload(rng, t);
            let Topology::Flat { nodes, buses, .. } = s.topology else {
                unreachable!()
            };
            for _ in 0..below(rng, 3) {
                s.faults.push(gen_fault(rng, t, nodes, buses, None));
            }
            if s.engine.retention == LogRetention::Full && chance(rng, 30) {
                t.table("[record]");
                s.record = Some(t.key("trace", "traces/prop.trace.json".to_string()));
            }
        }
        // Flat, serving.
        1 => {
            s.topology = gen_flat_topology(rng, t);
            s.engine = gen_engine(rng, t, true, true);
            s.workload = gen_streaming_workload(rng, t, s.topology.endpoints());
            let counters = s.engine.retention == LogRetention::CountersOnly;
            s.serve = Some(gen_serve(rng, t, counters));
        }
        // Hier, batch.
        2 => {
            s.topology = gen_hier_topology(rng, t);
            s.engine = gen_engine(rng, t, false, false);
            let Topology::Hier {
                rings,
                nodes_per_ring,
                buses,
                global_buses,
                ..
            } = s.topology
            else {
                unreachable!()
            };
            t.table("[workload]");
            t.key("kind", "locality");
            s.workload = Workload::Locality {
                messages: t.key("messages", 1 + below(rng, 200) as u32),
                spread: defaulted(rng, t, "spread", 64, |rng| 1 + below(rng, 500)),
                flits: t.key("flits", 1 + below(rng, 32) as u32),
                locality: t.key("locality", gen_fraction(rng)),
            };
            for _ in 0..below(rng, 3) {
                let fault = if chance(rng, 70) {
                    let r = below(rng, u64::from(rings)) as u32;
                    gen_fault(rng, t, nodes_per_ring, buses, Some(RingSel::Local(r)))
                } else {
                    let gk = global_buses.unwrap_or(buses);
                    gen_fault(rng, t, rings, gk, Some(RingSel::Global))
                };
                s.faults.push(fault);
            }
        }
        // Hier, serving.
        3 => {
            s.topology = gen_hier_topology(rng, t);
            s.engine = gen_engine(rng, t, false, true);
            s.workload = gen_streaming_workload(rng, t, s.topology.endpoints());
            s.serve = Some(gen_serve(rng, t, false));
        }
        // Grid, lattice and torus run with the default engine only.
        4 => {
            t.table("[topology]");
            t.key("kind", "grid");
            s.topology = Topology::Grid {
                rows: t.key("rows", 2 + below(rng, 5) as u32),
                cols: t.key("cols", 2 + below(rng, 5) as u32),
                buses: t.key("buses", 1 + below(rng, 4) as u16),
            };
            s.workload = gen_batch_workload(rng, t);
        }
        5 => {
            t.table("[topology]");
            t.key("kind", "lattice");
            let dims: Vec<u32> = (0..2 + below(rng, 2))
                .map(|_| 2 + below(rng, 4) as u32)
                .collect();
            s.topology = Topology::Lattice {
                dims: t.key("dims", dims),
                buses: t.key("buses", 1 + below(rng, 4) as u16),
            };
            s.workload = gen_batch_workload(rng, t);
        }
        torus => {
            t.table("[topology]");
            t.key("kind", "torus");
            s.topology = Topology::Torus {
                radix: t.key("radix", 3 + below(rng, 5) as u32),
                dims: t.key("dims", 1 + below(rng, 3) as u32),
            };
            if torus == 6 {
                s.workload = gen_batch_workload(rng, t);
            } else {
                s.workload = gen_streaming_workload(rng, t, s.topology.endpoints());
                s.serve = Some(gen_serve(rng, t, false));
            }
        }
    }
    (s, std::mem::take(&mut t.0))
}

#[derive(Clone, Copy)]
struct AnyScenario;

impl Strategy for AnyScenario {
    type Value = (Scenario, String);
    fn generate(&self, rng: &mut TestRng) -> (Scenario, String) {
        gen_scenario(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_valid_scenario_round_trips(case in AnyScenario) {
        let (s, toml) = case;
        match parse_scenario(&toml) {
            Ok(back) => prop_assert_eq!(back, s),
            Err(e) => prop_assert!(false, "parse failed: {e}\n--- generated TOML ---\n{toml}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Rejection table
// ---------------------------------------------------------------------------

/// `(file, expected message fragment, expected 1-based line)`.
const REJECTIONS: &[(&str, &str, usize)] = &[
    // Unknown key, named with its section path.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         bogus = 3\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "unknown key `topology.bogus`",
        7,
    ),
    // Wrong type.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = \"eight\"\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.nodes`: expected integer, got string",
        5,
    ),
    // Out of range.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 1.5\nflits = 2\n",
        "key `workload.rate`: must lie in (0.0, 1.0]",
        9,
    ),
    // Streaming workload without a [serve] section.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n",
        "streaming workload `poisson` needs a [serve] section",
        8,
    ),
    // There is one execution mode, so `threads` is no key.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nthreads = 4\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "unknown key `engine.threads`",
        8,
    ),
    // Fault ring selector is hier-only.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n\
         [[fault]]\nkind = \"link-cut\"\nhop = 3\nat = 5\nring = 0\n",
        "key `fault.ring`: only meaningful for the hier topology",
        15,
    ),
    // Repair must follow the fault.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n\
         [[fault]]\nkind = \"link-cut\"\nhop = 3\nat = 50\nrepair-at = 50\n",
        "key `fault.repair-at`: must be strictly after",
        15,
    ),
    // Hot-spot node outside the endpoint range.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n\
         hotspot-node = 8\nhotspot-fraction = 0.5\n[serve]\nduration = 100\n",
        "key `workload.hotspot-node`: node 8 is outside the 8 serving endpoints",
        8,
    ),
    // Nor is `exec`, on any topology: a scenario that asks for the
    // removed sharded engine is refused, not run serially.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nexec = \"sharded\"\nthreads = 2\n[workload]\nkind = \"uniform\"\n\
         messages = 4\nflits = 2\n",
        "unknown key `engine.exec`",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[engine]\nexec = \"sharded\"\nthreads = 2\n\
         [workload]\nkind = \"locality\"\nmessages = 16\nspread = 16\nflits = 8\n\
         locality = 0.8\n",
        "unknown key `engine.exec`",
        9,
    ),
    // Nor are the test-only oracles: the event scheduler and the
    // occupancy bitmaps are the one engine a scenario runs.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nscheduler = \"dense\"\n[workload]\nkind = \"uniform\"\n\
         messages = 4\nflits = 2\n",
        "unknown key `engine.scheduler`",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[engine]\nscheduler = \"event\"\n\
         [workload]\nkind = \"locality\"\nmessages = 16\nspread = 16\nflits = 8\n\
         locality = 0.8\n",
        "unknown key `engine.scheduler`",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nfeasibility = \"slab-walk\"\n[workload]\nkind = \"uniform\"\n\
         messages = 4\nflits = 2\n",
        "unknown key `engine.feasibility`",
        8,
    ),
    // Oversized topologies: every kind stays within 2^20 nodes, so none
    // overflows a node count or exhausts memory building its rings.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\ndims = [65536, 65536]\n\
         buses = 2\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: lattice too large",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\n\
         dims = [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, \
         2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]\n\
         buses = 2\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: lattice too large",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 70000\ncols = 70000\n\
         buses = 2\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.cols`: grid too large",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 70000\n\
         nodes-per-ring = 70000\nbuses = 2\n[workload]\nkind = \"locality\"\n\
         messages = 16\nspread = 16\nflits = 8\nlocality = 0.8\n",
        "key `topology.nodes-per-ring`: hierarchy too large",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 2000000\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.nodes`: must be at most 2^20",
        5,
    ),
    // Within the node cap, buses still bound the wiring...
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 1024\nbuses = 65535\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.buses`: too many bus segments",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 128\n\
         nodes-per-ring = 8\nbuses = 2\nglobal-buses = 65535\n[workload]\n\
         kind = \"locality\"\nmessages = 16\nspread = 16\nflits = 8\nlocality = 0.8\n",
        "key `topology.global-buses`: too many bus segments",
        8,
    ),
    // ...and small dimensions the number of carrier rings.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\n\
         dims = [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]\nbuses = 1\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: too many carrier rings",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 16384\n\
         nodes-per-ring = 3\nbuses = 1\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n",
        "key `topology.rings`: too many carrier rings (16385; at most 2^14)",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 16383\n\
         buses = 1\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.cols`: too many carrier rings (16385; at most 2^14)",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 1024\ncols = 1024\n\
         buses = 3\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.buses`: too many bus segments \
         (nodes x buses over the carrier rings must stay within 2^22)",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\ndims = [1024, 1024]\n\
         buses = 3\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.buses`: too many bus segments \
         (nodes x buses over the carrier rings must stay within 2^22)",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 128\n\
         nodes-per-ring = 8\nbuses = 5000\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n",
        "key `topology.buses`: too many bus segments \
         (nodes x buses over the carrier rings must stay within 2^22)",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"torus\"\nradix = 1025\ndims = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: torus too large (radix^dims must stay within 2^20 nodes)",
        6,
    ),
    // radix^dims overflows 64 bits: bounded before it is computed.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"torus\"\nradix = 256\ndims = 8\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: torus too large (radix^dims must stay within 2^20 nodes)",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"torus\"\nradix = 65536\ndims = 4\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: torus too large (radix^dims must stay within 2^20 nodes)",
        6,
    ),
    // Tick intervals stay within 2^32, so no engine overflows scaling them.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         head-timeout = 4294967297\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.head-timeout`: must be at most 2^32",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         retry-backoff = 4294967297\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.retry-backoff`: must be at most 2^32",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"all-to-all\"\nflits = 2\nstagger = 4294967297\n",
        "key `workload.stagger`: must be at most 2^32",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"nearest-neighbour\"\nflits = 2\nstagger = 4294967297\n",
        "key `workload.stagger`: must be at most 2^32",
        10,
    ),
    // Batch workloads generate at most 2^22 messages.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4194305\nflits = 2\n",
        "key `workload.messages`: must be at most 2^22",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\n\
         messages = 4194305\nflits = 8\nlocality = 0.8\n",
        "key `workload.messages`: must be at most 2^22",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 2049\nbuses = 1\n\
         [workload]\nkind = \"all-to-all\"\nflits = 2\n",
        "key `workload.kind`: too many messages (4196352; at most 2^22)",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"nearest-neighbour\"\nflits = 2\nrounds = 262145\n",
        "key `workload.rounds`: too many messages (4194320; at most 2^22)",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 2\nbuses = 2\n\
         [workload]\nkind = \"nearest-neighbour\"\nflits = 2\nrounds = 2097153\n",
        "key `workload.rounds`: too many messages (4194306; at most 2^22)",
        10,
    ),
    // A required key missing from its table names the table's header line.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "missing required key `topology.nodes`",
        3,
    ),
    // Every value type a key can expect.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = \"fast\"\nflits = 2\n[serve]\nduration = 100\n",
        "key `workload.rate`: expected float, got string",
        9,
    ),
    (
        "name = 5\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `name`: expected string, got integer",
        1,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nchecked = 1\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `engine.checked`: expected boolean, got integer",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\ntopology = 3\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology`: expected table, got integer",
        3,
    ),
    (
        "name = \"x\"\nseed = 1\nfault = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `fault`: expected array of tables (`[[fault]]`), got integer",
        3,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\ndims = 4\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: expected array of integers, got integer",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\ndims = [4, 1]\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: every dimension must be an integer >= 2",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\ndims = [4]\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: needs at least two dimensions",
        5,
    ),
    // Each integer width's range.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 65536\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.buses`: out of range (expected 0..=65535)",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 4294967296\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.nodes`: out of range (expected 0..=4294967295)",
        5,
    ),
    (
        "name = \"x\"\nseed = -1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `seed`: must be non-negative",
        2,
    ),
    // Every lower bound, on every path that checks one.
    (
        "name = \"x\"\nseed = 1\nmax-ticks = 0\n[topology]\nkind = \"flat\"\nnodes = 8\n\
         buses = 2\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `max-ticks`: must be at least 1",
        3,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 1\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.nodes`: must be at least 2",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 0\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.buses`: must be at least 1",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         head-timeout = 0\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.head-timeout`: must be at least 1",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         retry-backoff = 0\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.retry-backoff`: must be at least 1",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 1\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n",
        "key `topology.rings`: must be at least 2",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 2\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n",
        "key `topology.nodes-per-ring`: must be at least 3 (a bridge plus two compute nodes)",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 0\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n",
        "key `topology.buses`: must be at least 1",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\nglobal-buses = 0\n[workload]\nkind = \"locality\"\n\
         messages = 16\nflits = 8\nlocality = 0.8\n",
        "key `topology.global-buses`: must be at least 1",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\nbridge-queue-depth = 0\n[workload]\n\
         kind = \"locality\"\nmessages = 16\nflits = 8\nlocality = 0.8\n",
        "key `topology.bridge-queue-depth`: must be at least 1",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\nhead-timeout = 0\n[workload]\nkind = \"locality\"\n\
         messages = 16\nflits = 8\nlocality = 0.8\n",
        "key `topology.head-timeout`: must be at least 1",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\nretry-backoff = 0\n[workload]\nkind = \"locality\"\n\
         messages = 16\nflits = 8\nlocality = 0.8\n",
        "key `topology.retry-backoff`: must be at least 1",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 1\ncols = 4\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.rows`: must be at least 2",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 4\ncols = 1\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.cols`: must be at least 2",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 4\ncols = 4\nbuses = 0\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.buses`: must be at least 1",
        7,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\ndims = [4, 4]\nbuses = 0\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.buses`: must be at least 1",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"torus\"\nradix = 2\ndims = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.radix`: must be at least 3",
        5,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"torus\"\nradix = 4\ndims = 0\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.dims`: must be at least 1",
        6,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nretention = \"window\"\nwindow = 0\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `engine.window`: must be at least 1",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 0\n",
        "key `workload.flits`: must be at least 1",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 0\nflits = 2\n",
        "key `workload.messages`: must be at least 1",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nspread = 0\nflits = 2\n",
        "key `workload.spread`: must be at least 1",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 0\n\
         flits = 8\nlocality = 0.8\n",
        "key `workload.messages`: must be at least 1",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         spread = 0\nflits = 8\nlocality = 0.8\n",
        "key `workload.spread`: must be at least 1",
        11,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"nearest-neighbour\"\nflits = 2\nrounds = 0\n",
        "key `workload.rounds`: must be at least 1",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"bursty\"\nrate = 0.1\nburst = 0\nflits = 2\n\
         [serve]\nduration = 100\n",
        "key `workload.burst`: must be at least 1",
        10,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"exchange\"\nperiod = 0\nflits = 2\n[serve]\nduration = 100\n",
        "key `workload.period`: must be at least 1",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n[serve]\nduration = 0\n",
        "key `serve.duration`: must be at least 1",
        12,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n[serve]\nduration = 100\n\
         depth = 0\n",
        "key `serve.depth`: must be at least 1",
        13,
    ),
    // Every unknown `kind`, and the two other closed choices.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"ring\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `topology.kind`: unknown topology `ring` \
         (expected flat, hier, grid, lattice or torus)",
        4,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"random\"\nmessages = 4\nflits = 2\n",
        "key `workload.kind`: unknown workload `random` (expected uniform, locality, \
         all-to-all, nearest-neighbour, poisson, bursty, exchange or trace)",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n\
         [[fault]]\nkind = \"meteor\"\nat = 5\n",
        "key `fault.kind`: unknown fault `meteor` (expected segment-stuck, link-cut or inc-dead)",
        12,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nretention = \"some\"\n[workload]\nkind = \"uniform\"\nmessages = 4\n\
         flits = 2\n",
        "key `engine.retention`: unknown retention `some` \
         (expected full, window or counters-only)",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n[serve]\nduration = 100\n\
         admission = \"none\"\n",
        "key `serve.admission`: unknown admission `none` (expected per-source or aggregate)",
        13,
    ),
    // Cross-field rules: retention and its window.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nwindow = 8\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `engine.window`: only meaningful with `retention = \"window\"`",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nretention = \"full\"\nwindow = 8\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `engine.window`: only meaningful with `retention = \"window\"`",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nretention = \"counters-only\"\nwindow = 8\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `engine.window`: only meaningful with `retention = \"window\"`",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nretention = \"window\"\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `engine.retention`: windowed retention needs a `window` key (>= 1)",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[engine]\nretention = \"full\"\n[workload]\n\
         kind = \"locality\"\nmessages = 16\nflits = 8\nlocality = 0.8\n",
        "key `engine.retention`: only the flat topology exposes log retention",
        9,
    ),
    // The hot-spot pair, and the fractions.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\nhotspot-node = 1\n\
         [serve]\nduration = 100\n",
        "key `workload.hotspot-node`: needs a matching `hotspot-fraction` key",
        11,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\nhotspot-fraction = 0.5\n\
         [serve]\nduration = 100\n",
        "key `workload.hotspot-fraction`: needs a matching `hotspot-node` key",
        11,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\nhotspot-node = 1\n\
         hotspot-fraction = 1.5\n[serve]\nduration = 100\n",
        "key `workload.hotspot-fraction`: must lie in 0.0..=1.0",
        12,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 1.5\n",
        "key `workload.locality`: must lie in 0.0..=1.0",
        12,
    ),
    // Workloads and the topologies they address.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"uniform\"\nmessages = 4\n\
         flits = 2\n",
        "key `workload.kind`: workload `uniform` addresses flat node indices; \
         use `locality` for the hier topology",
        9,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"locality\"\nmessages = 4\nflits = 2\nlocality = 0.5\n",
        "key `workload.kind`: `locality` drives the hier topology, not `flat`",
        8,
    ),
    (
        "name = \"\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "key `name`: must not be empty",
        1,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"trace\"\npath = \"\"\n",
        "key `workload.path`: must not be empty",
        9,
    ),
    // [serve] pairs with a streaming workload on a serving topology...
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n[serve]\nduration = 100\n",
        "[serve] requires a streaming workload (poisson, bursty or exchange), got `uniform`",
        11,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\nbuses = 1\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n[serve]\nduration = 100\n",
        "key `workload.kind`: serving supports flat, hier and torus topologies, not `grid`",
        9,
    ),
    // ...and per-source admission with completion records.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nretention = \"counters-only\"\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n[serve]\nduration = 100\n",
        "key `serve.admission`: per-source admission needs completion records; \
         use `retention = \"full\"` or `\"window\"`, or aggregate admission",
        13,
    ),
    // [record] needs a flat batch run with full retention and a path.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n[record]\ntrace = \"t.json\"\n",
        "key `record.trace`: trace recording needs the flat topology (got `hier`)",
        13,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"poisson\"\nrate = 0.1\nflits = 2\n[serve]\nduration = 100\n\
         [record]\ntrace = \"t.json\"\n",
        "key `record.trace`: trace recording works in batch mode only",
        13,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [engine]\nretention = \"window\"\nwindow = 4\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n\
         [record]\ntrace = \"t.json\"\n",
        "key `record.trace`: trace recording needs `retention = \"full\"` \
         (the delivered log is the trace)",
        14,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n[record]\ntrace = \"\"\n",
        "key `record.trace`: must not be empty",
        11,
    ),
    // [engine] and [[fault]] need a flat or hier topology.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\nbuses = 1\n\
         [engine]\nchecked = true\n[workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n",
        "[engine] is only supported for the flat and hier topologies (got `grid`)",
        8,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"lattice\"\ndims = [4, 4]\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n\
         [[fault]]\nkind = \"link-cut\"\nhop = 1\nat = 5\n",
        "[[fault]] is only supported for the flat and hier topologies (got `lattice`)",
        11,
    ),
    // A hier fault names its carrier ring, by a valid index or "global".
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n[[fault]]\nkind = \"link-cut\"\nhop = 1\nat = 5\n",
        "key `fault.ring`: hier faults must name a carrier (a ring index or \"global\")",
        13,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n[[fault]]\nkind = \"link-cut\"\nhop = 1\nat = 5\n\
         ring = \"local\"\n",
        "key `fault.ring`: expected a ring index or \"global\", got string",
        17,
    ),
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"hier\"\nrings = 4\n\
         nodes-per-ring = 8\nbuses = 2\n[workload]\nkind = \"locality\"\nmessages = 16\n\
         flits = 8\nlocality = 0.8\n[[fault]]\nkind = \"link-cut\"\nhop = 1\nat = 5\n\
         ring = 4\n",
        "key `fault.ring`: ring index 4 is outside 0..4",
        17,
    ),
    // Indices are checked against the carrier the fault targets.
    (
        "name = \"x\"\nseed = 1\n[topology]\nkind = \"flat\"\nnodes = 8\nbuses = 2\n\
         [workload]\nkind = \"uniform\"\nmessages = 4\nflits = 2\n\
         [[fault]]\nkind = \"link-cut\"\nhop = 8\nat = 5\n",
        "[[fault]] invalid for its target carrier (n=8, k=2): \
         fault event 0 names n8, which is outside the ring",
        11,
    ),
];

#[test]
fn rejections_name_the_key_and_line() {
    for (i, (toml, needle, line)) in REJECTIONS.iter().enumerate() {
        let err = parse_scenario(toml)
            .expect_err(&format!("rejection case {i} unexpectedly parsed:\n{toml}"));
        assert!(
            err.message.contains(needle),
            "case {i}: error `{}` does not mention `{needle}`",
            err.message
        );
        assert_eq!(
            err.line, *line,
            "case {i}: error `{}` points at line {} (wanted {line})",
            err.message, err.line
        );
        // The rendered form carries the line too.
        assert!(err.to_string().contains(&format!("(line {line})")));
    }
}
