//! No scenario text panics the parser or the validator.
//!
//! [`parse_scenario`] reads files a user wrote, so every input must come
//! back as `Ok` or as an `Err` that points at a line. The inputs here are
//! arbitrary bytes and mutated copies of every `scenarios/*.toml` and of
//! the in-file [`SEEDS`]: byte deletions, inserted TOML tokens, numbers
//! replaced by extreme values, and splices of one scenario into another.
//! The generator is seeded, so every run feeds the same inputs, and a
//! failure prints the input.
//!
//! Only a missing required top-level key has no line to name: the error
//! belongs to the file, not to a line of it.

use proptest::TestRng;
use rmb_scenario::parse_scenario;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Mutated copies of each checked-in scenario.
const MUTANTS_PER_SCENARIO: usize = 2_500;

/// Inputs of arbitrary bytes.
const RANDOM_INPUTS: usize = 2_000;

/// Fragments of TOML syntax inserted at random offsets.
const TOKENS: &[&str] = &[
    "=",
    "\"",
    "'",
    "[",
    "]",
    "[[",
    "]]",
    "{",
    "}",
    ",",
    ".",
    "#",
    "\n",
    "\\",
    "\"\"\"",
    " ",
    "true",
    "false",
    "inf",
    "nan",
    "-",
    "+",
    "_",
    "e",
    "[engine]",
    "[serve]",
    "[[fault]]",
    "[record]",
    "kind = ",
    "nodes = ",
    "buses = ",
    "x = 1\n",
    "\u{0}",
    "\u{ff}",
    "é",
];

/// Numbers at and past the edges of every integer width the schema reads,
/// plus floats that overflow, underflow or are not numbers at all.
const NUMBERS: &[&str] = &[
    "0",
    "-1",
    "1",
    "255",
    "256",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "1e308",
    "1e309",
    "-1e309",
    "5e-324",
    "1.7976931348623157e308",
    "0.0",
    "-0.0",
    "1.5",
    "1_000",
    "0x10",
];

/// The bytes most arbitrary inputs are drawn from.
const PRINTABLE: &[u8] = b" =\"[]#.\n0123456789abcdefghijklmnopqrstuvwxyz-_";

/// Valid scenarios that reach what no checked-in scenario does: an
/// `[engine]` section, hier faults on a local and the global ring, the
/// grid and torus topologies, the nearest-neighbour, bursty and exchange
/// workloads, and every optional key of each.
const SEEDS: &[&str] = &[
    r#"name = "seed-flat-engine"
seed = 5
max-ticks = 50000

[topology]
kind = "flat"
nodes = 12
buses = 3
head-timeout = 200
retry-backoff = 12

[engine]
retention = "window"
window = 64
max-retries = 8
checked = true

[workload]
kind = "nearest-neighbour"
flits = 4
rounds = 3
stagger = 40

[[fault]]
kind = "inc-dead"
node = 7
at = 30
repair-at = 90
"#,
    r#"name = "seed-hier-faults"
seed = 9

[topology]
kind = "hier"
rings = 3
nodes-per-ring = 6
buses = 2
global-buses = 3
bridge-queue-depth = 4
head-timeout = 96
retry-backoff = 6

[engine]
max-retries = 16
checked = true

[workload]
kind = "locality"
messages = 48
spread = 64
flits = 4
locality = 0.5

[[fault]]
kind = "segment-stuck"
hop = 2
bus = 1
at = 10
ring = 1

[[fault]]
kind = "link-cut"
hop = 1
at = 20
repair-at = 80
ring = "global"
"#,
    r#"name = "seed-flat-bursty"
seed = 11

[topology]
kind = "flat"
nodes = 16
buses = 4

[engine]
retention = "counters-only"

[workload]
kind = "bursty"
rate = 0.01
burst = 4
flits = 4
hotspot-node = 5
hotspot-fraction = 0.25

[serve]
warmup = 200
duration = 2000
admission = "aggregate"
depth = 2
"#,
    r#"name = "seed-hier-exchange"
seed = 17

[topology]
kind = "hier"
rings = 2
nodes-per-ring = 5
buses = 2

[workload]
kind = "exchange"
period = 50
flits = 2

[serve]
duration = 1000
admission = "per-source"
depth = 3
"#,
    r#"name = "seed-grid"
seed = 21

[topology]
kind = "grid"
rows = 3
cols = 4
buses = 2

[workload]
kind = "all-to-all"
flits = 2
stagger = 16
"#,
    r#"name = "seed-torus-batch"
seed = 23

[topology]
kind = "torus"
radix = 3
dims = 5

[workload]
kind = "uniform"
messages = 32
spread = 16
flits = 2
"#,
    r#"name = "seed-torus-serve"
seed = 29

[topology]
kind = "torus"
radix = 3
dims = 3

[workload]
kind = "poisson"
rate = 0.02
flits = 2
hotspot-node = 4
hotspot-fraction = 0.1

[serve]
warmup = 100
duration = 500
"#,
];

fn scenarios() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<(String, String)> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| (p.display().to_string(), fs::read_to_string(&p).unwrap()))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenarios under {}", dir.display());
    files
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// Applies one random mutation to `bytes`; `donor` supplies splices.
fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>, donor: &[u8]) {
    let at = rng.below(bytes.len() as u64 + 1) as usize;
    match rng.below(5) {
        0 if !bytes.is_empty() => {
            let end = (at + 1 + rng.below(8) as usize).min(bytes.len());
            bytes.drain(at.min(end)..end);
        }
        1 => {
            let token = pick(rng, TOKENS).as_bytes();
            bytes.splice(at..at, token.iter().copied());
        }
        2 => {
            // Replace the digit run at or after `at`, if any, so the
            // number lands where the schema reads one.
            let start = bytes[at..]
                .iter()
                .position(u8::is_ascii_digit)
                .map(|i| at + i);
            let number = pick(rng, NUMBERS).as_bytes();
            match start {
                Some(s) => {
                    let len = bytes[s..].iter().take_while(|b| b.is_ascii_digit()).count();
                    bytes.splice(s..s + len, number.iter().copied());
                }
                None => {
                    bytes.splice(at..at, number.iter().copied());
                }
            }
        }
        3 if !donor.is_empty() => {
            let from = rng.below(donor.len() as u64) as usize;
            let to = (from + 1 + rng.below(120) as usize).min(donor.len());
            bytes.splice(at..at, donor[from..to].iter().copied());
        }
        _ => {
            let byte = rng.below(256) as u8;
            bytes.insert(at, byte);
        }
    }
}

/// Parses `bytes` and requires a clean `Ok` or a positioned `Err`.
fn check(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let result = catch_unwind(AssertUnwindSafe(|| parse_scenario(&text)));
    match result {
        Err(_) => panic!("parse_scenario panicked on:\n{text}"),
        Ok(Ok(_)) => {}
        Ok(Err(e)) => {
            let file_level = ["name", "seed", "topology", "workload"]
                .iter()
                .any(|key| e.message == format!("missing required key `{key}`"));
            assert!(
                e.line > 0 || file_level,
                "error without a line ({}) on:\n{text}",
                e.message
            );
        }
    }
}

/// Checks that each of `files` parses, then parses mutated copies of it,
/// splicing from the others.
fn mutate_each(files: &[(String, String)]) {
    let mut rng = TestRng::new(0x5ce9_a710);
    for (path, text) in files {
        if let Err(e) = parse_scenario(text) {
            panic!("{path} must parse unmutated: {e}");
        }
        for _ in 0..MUTANTS_PER_SCENARIO {
            let mut bytes = text.as_bytes().to_vec();
            let donor = pick(&mut rng, files).1.as_bytes();
            for _ in 0..1 + rng.below(4) {
                mutate(&mut rng, &mut bytes, donor);
            }
            check(&bytes);
        }
    }
}

#[test]
fn mutated_scenarios_never_panic() {
    mutate_each(&scenarios());
}

#[test]
fn mutated_seed_scenarios_never_panic() {
    let seeds: Vec<(String, String)> = SEEDS
        .iter()
        .enumerate()
        .map(|(i, text)| (format!("SEEDS[{i}]"), text.to_string()))
        .collect();
    mutate_each(&seeds);
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = TestRng::new(0xb17e_5eed);
    for _ in 0..RANDOM_INPUTS {
        let len = rng.below(200) as usize;
        // Mostly printable ASCII, so some inputs get past the lexer.
        let bytes: Vec<u8> = (0..len)
            .map(|_| match rng.below(4) {
                0 => rng.below(256) as u8,
                _ => *pick(&mut rng, PRINTABLE),
            })
            .collect();
        check(&bytes);
    }
}
