//! No scenario text panics the parser or the validator.
//!
//! [`parse_scenario`] reads files a user wrote, so every input must come
//! back as `Ok` or as an `Err` that points at a line. The inputs here are
//! arbitrary bytes and mutated copies of every `scenarios/*.toml`: byte
//! deletions, inserted TOML tokens, numbers replaced by extreme values,
//! and splices of one scenario into another. The generator is seeded, so
//! every run feeds the same inputs, and a failure prints the input.
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

#[test]
fn mutated_scenarios_never_panic() {
    let files = scenarios();
    let mut rng = TestRng::new(0x5ce9_a710);
    for (path, text) in &files {
        assert!(parse_scenario(text).is_ok(), "{path} must parse unmutated");
        for _ in 0..MUTANTS_PER_SCENARIO {
            let mut bytes = text.as_bytes().to_vec();
            let donor = pick(&mut rng, &files).1.as_bytes();
            for _ in 0..1 + rng.below(4) {
                mutate(&mut rng, &mut bytes, donor);
            }
            check(&bytes);
        }
    }
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
