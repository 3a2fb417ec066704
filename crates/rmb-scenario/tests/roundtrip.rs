//! Schema fidelity tests.
//!
//! The property half generates random *valid* scenarios — every topology,
//! engine combination, workload family, serve block, fault plan and
//! record block the schema admits — prints each with
//! [`Scenario::to_toml`] and proves the parser reconstructs it exactly.
//! The table half feeds known-bad files through [`parse_scenario`] and
//! asserts the error names the offending key *and* the line it sits on.

use proptest::prelude::*;
use proptest::{Strategy, TestRng};
use rmb_scenario::{
    parse_scenario, Admission, Engine, FaultKindSpec, FaultSpec, Hotspot, Retention, RingSel,
    Scenario, ServeOptions, Topology, Workload,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn below(rng: &mut TestRng, n: u64) -> u64 {
    (0u64..n.max(1)).generate(rng)
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    below(rng, 100) < percent
}

/// Names exercise the string escaper: quotes, backslashes, hashes and
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

fn gen_engine_flat(rng: &mut TestRng, serve: bool) -> Engine {
    let retention = match below(rng, 3) {
        0 => Retention::Full,
        1 => Retention::Window(1 + below(rng, 64) as u32),
        _ => Retention::CountersOnly,
    };
    Engine {
        // Per-source admission needs completion records; the serve
        // generator defaults to per-source, so avoid the invalid pair
        // unless the caller opts into aggregate admission separately.
        retention: if serve && matches!(retention, Retention::CountersOnly) {
            Retention::Full
        } else {
            retention
        },
        max_retries: chance(rng, 30).then(|| below(rng, 64) as u32),
        checked: chance(rng, 20),
    }
}

fn gen_engine_hier(rng: &mut TestRng) -> Engine {
    Engine {
        retention: Retention::Full,
        max_retries: chance(rng, 30).then(|| below(rng, 64) as u32),
        checked: chance(rng, 20),
    }
}

fn gen_flat_topology(rng: &mut TestRng) -> Topology {
    Topology::Flat {
        nodes: 2 + below(rng, 31) as u32,
        buses: 1 + below(rng, 8) as u16,
        head_timeout: chance(rng, 30).then(|| 1 + below(rng, 1_000)),
        retry_backoff: chance(rng, 30).then(|| 1 + below(rng, 100)),
    }
}

fn gen_hier_topology(rng: &mut TestRng) -> Topology {
    Topology::Hier {
        rings: 2 + below(rng, 7) as u32,
        nodes_per_ring: 3 + below(rng, 7) as u32,
        buses: 1 + below(rng, 4) as u16,
        global_buses: chance(rng, 40).then(|| 1 + below(rng, 4) as u16),
        bridge_queue_depth: chance(rng, 30).then(|| 1 + below(rng, 8) as u32),
        head_timeout: chance(rng, 30).then(|| 1 + below(rng, 1_000)),
        retry_backoff: chance(rng, 30).then(|| 1 + below(rng, 100)),
    }
}

fn gen_batch_workload(rng: &mut TestRng) -> Workload {
    let flits = 1 + below(rng, 32) as u32;
    match below(rng, 4) {
        0 => Workload::Uniform {
            messages: 1 + below(rng, 200) as u32,
            spread: 1 + below(rng, 500),
            flits,
        },
        1 => Workload::AllToAll {
            flits,
            stagger: below(rng, 100),
        },
        2 => Workload::NearestNeighbour {
            flits,
            rounds: 1 + below(rng, 5) as u32,
            stagger: below(rng, 100),
        },
        _ => Workload::Trace {
            path: format!(
                "traces/{}.trace.json",
                gen_name(rng).replace(['"', '\\'], "q")
            ),
        },
    }
}

fn gen_streaming_workload(rng: &mut TestRng, endpoints: u64) -> Workload {
    let flits = 1 + below(rng, 32) as u32;
    let rate = (1 + below(rng, 1_000)) as f64 / 1_000.0;
    let hotspot = chance(rng, 40).then(|| Hotspot {
        node: below(rng, endpoints) as u32,
        fraction: gen_fraction(rng),
    });
    match below(rng, 3) {
        0 => Workload::Poisson {
            rate,
            flits,
            hotspot,
        },
        1 => Workload::Bursty {
            rate,
            burst: 1 + below(rng, 10) as u32,
            flits,
            hotspot,
        },
        _ => Workload::Exchange {
            period: 1 + below(rng, 50),
            flits,
        },
    }
}

fn gen_serve(rng: &mut TestRng, counters_only: bool) -> ServeOptions {
    let depth = 1 + below(rng, 10) as u32;
    ServeOptions {
        warmup: below(rng, 5_000),
        duration: 1 + below(rng, 10_000),
        admission: if counters_only || chance(rng, 30) {
            Admission::Aggregate { depth }
        } else {
            Admission::PerSource { depth }
        },
    }
}

fn gen_fault(rng: &mut TestRng, n: u32, k: u16, ring: Option<RingSel>) -> FaultSpec {
    let at = below(rng, 1_000);
    FaultSpec {
        kind: match below(rng, 3) {
            0 => FaultKindSpec::SegmentStuck {
                hop: below(rng, u64::from(n)) as u32,
                bus: below(rng, u64::from(k)) as u16,
            },
            1 => FaultKindSpec::LinkCut {
                hop: below(rng, u64::from(n)) as u32,
            },
            _ => FaultKindSpec::IncDead {
                node: below(rng, u64::from(n)) as u32,
            },
        },
        at,
        repair_at: chance(rng, 50).then(|| at + 1 + below(rng, 500)),
        ring,
    }
}

fn gen_scenario(rng: &mut TestRng) -> Scenario {
    let mut s = Scenario {
        name: gen_name(rng),
        seed: below(rng, i64::MAX as u64),
        max_ticks: if chance(rng, 30) {
            1 + below(rng, 10_000_000)
        } else {
            8_000_000 // the schema default: exercises the omit-if-default path
        },
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
            s.topology = gen_flat_topology(rng);
            s.engine = gen_engine_flat(rng, false);
            s.workload = gen_batch_workload(rng);
            let (n, k) = match s.topology {
                Topology::Flat { nodes, buses, .. } => (nodes, buses),
                _ => unreachable!(),
            };
            for _ in 0..below(rng, 3) {
                s.faults.push(gen_fault(rng, n, k, None));
            }
            if matches!(s.engine.retention, Retention::Full) && chance(rng, 30) {
                s.record = Some("traces/prop.trace.json".to_string());
            }
        }
        // Flat, serving.
        1 => {
            s.topology = gen_flat_topology(rng);
            s.engine = gen_engine_flat(rng, true);
            s.workload = gen_streaming_workload(rng, s.topology.endpoints());
            let counters = matches!(s.engine.retention, Retention::CountersOnly);
            s.serve = Some(gen_serve(rng, counters));
        }
        // Hier, batch.
        2 => {
            s.topology = gen_hier_topology(rng);
            s.engine = gen_engine_hier(rng);
            let (rings, npr, buses, global) = match s.topology {
                Topology::Hier {
                    rings,
                    nodes_per_ring,
                    buses,
                    global_buses,
                    ..
                } => (rings, nodes_per_ring, buses, global_buses),
                _ => unreachable!(),
            };
            s.workload = Workload::Locality {
                messages: 1 + below(rng, 200) as u32,
                spread: 1 + below(rng, 500),
                flits: 1 + below(rng, 32) as u32,
                locality: gen_fraction(rng),
            };
            for _ in 0..below(rng, 3) {
                if chance(rng, 70) {
                    let r = below(rng, u64::from(rings)) as u32;
                    s.faults
                        .push(gen_fault(rng, npr, buses, Some(RingSel::Local(r))));
                } else {
                    let gk = global.unwrap_or(buses);
                    s.faults
                        .push(gen_fault(rng, rings, gk, Some(RingSel::Global)));
                }
            }
        }
        // Hier, serving.
        3 => {
            s.topology = gen_hier_topology(rng);
            s.engine = gen_engine_hier(rng);
            s.workload = gen_streaming_workload(rng, s.topology.endpoints());
            s.serve = Some(gen_serve(rng, false));
        }
        // Grid, lattice and torus run with the default engine only.
        4 => {
            s.topology = Topology::Grid {
                rows: 2 + below(rng, 5) as u32,
                cols: 2 + below(rng, 5) as u32,
                buses: 1 + below(rng, 4) as u16,
            };
            s.workload = gen_batch_workload(rng);
        }
        5 => {
            let dims: Vec<u32> = (0..2 + below(rng, 2))
                .map(|_| 2 + below(rng, 4) as u32)
                .collect();
            s.topology = Topology::Lattice {
                dims,
                buses: 1 + below(rng, 4) as u16,
            };
            s.workload = gen_batch_workload(rng);
        }
        6 => {
            s.topology = Topology::Torus {
                radix: 3 + below(rng, 5) as u32,
                dims: 1 + below(rng, 3) as u32,
            };
            s.workload = gen_batch_workload(rng);
        }
        _ => {
            s.topology = Topology::Torus {
                radix: 3 + below(rng, 5) as u32,
                dims: 1 + below(rng, 3) as u32,
            };
            s.workload = gen_streaming_workload(rng, s.topology.endpoints());
            s.serve = Some(gen_serve(rng, false));
        }
    }
    s
}

#[derive(Clone, Copy)]
struct AnyScenario;

impl Strategy for AnyScenario {
    type Value = Scenario;
    fn generate(&self, rng: &mut TestRng) -> Scenario {
        gen_scenario(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_valid_scenario_round_trips(s in AnyScenario) {
        let toml = s.to_toml();
        match parse_scenario(&toml) {
            Ok(back) => prop_assert_eq!(back, s),
            Err(e) => prop_assert!(false, "reparse failed: {e}\n--- emitted TOML ---\n{toml}"),
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
