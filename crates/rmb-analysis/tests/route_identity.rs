//! Identity pin for the corner router: seeded lattices of rings (2-D and
//! 3-D) and dual rings routed with `route`, every field of each
//! [`Routed`] folded into a digest recorded from the composition engine
//! that scanned every carrier's wake on every step. Any change to how the
//! engine schedules, advances or harvests carriers must reproduce these
//! digests exactly.
//!
//! The scenarios mix sparse traffic, whose legs mostly run alone and
//! replay memoised lives, with bursts that contend, and some carry
//! zero-leg messages (source equals destination). The last two are
//! fixed: a dual ring whose reverse ring deadlocks, so the run ends on the
//! stall detector, and a lattice cut by its tick budget.

use rmb_analysis::{DualRmbRing, RmbLattice};
use rmb_hier::{route, Routed};
use rmb_sim::SimRng;
use rmb_types::{MessageSpec, NodeId, RmbConfig};
use std::fmt::Write;

/// Number of seeded scenarios; the two fixed ones follow them.
const SEEDED: u64 = 30;

/// Tick budget of the seeded scenarios; far above their makespans.
const MAX_TICKS: u64 = 2_000_000;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of `out`, the delivery records in full.
fn digest(out: &Routed) -> u64 {
    let Routed {
        delivered,
        ticks,
        stalled,
        peak_circuits,
        jumped_ticks,
    } = out;
    let mut text = String::new();
    writeln!(
        text,
        "ticks={ticks} stalled={stalled} peak={peak_circuits} jumped={jumped_ticks}"
    )
    .unwrap();
    for d in delivered {
        writeln!(text, "{d:?}").unwrap();
    }
    fnv1a(&text)
}

fn ring_cfg(rng: &mut SimRng, nodes: u32) -> RmbConfig {
    let k = 1 + rng.index(3).unwrap() as u16;
    RmbConfig::builder(nodes, k)
        .head_timeout(16 * u64::from(nodes) + rng.index(64).unwrap() as u64)
        .retry_backoff(1 + rng.index(16).unwrap() as u64)
        .build()
        .unwrap()
}

/// `count` messages over `nodes` nodes, injected over `spread` ticks; one
/// in `zero_legs` (when nonzero) is addressed to its own source.
fn traffic(
    rng: &mut SimRng,
    nodes: u32,
    count: usize,
    spread: u64,
    zero_legs: usize,
) -> Vec<MessageSpec> {
    (0..count)
        .map(|i| {
            let src = rng.index(nodes as usize).unwrap() as u32;
            let dst = if zero_legs != 0 && i % zero_legs == 0 {
                src
            } else {
                (src + 1 + rng.index(nodes as usize - 1).unwrap() as u32) % nodes
            };
            let flits = 1 + rng.index(12).unwrap() as u32;
            let at = rng.index(spread as usize).unwrap() as u64;
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits).at(at)
        })
        .collect()
}

/// Seeded scenario `i`: a 2-D lattice, a 3-D lattice or a dual ring.
fn seeded(i: u64) -> Routed {
    let mut rng = SimRng::seed(0x7a7e_0000 + i);
    let count = 8 + rng.index(160).unwrap();
    // Every third scenario is a burst; the rest are spread out, so most
    // legs run alone.
    let spread = if i % 3 == 2 {
        8
    } else {
        200 + rng.index(4_000).unwrap() as u64
    };
    let zero_legs = if i % 4 == 1 { 5 } else { 0 };
    match i % 3 {
        0 => {
            let dims = vec![
                2 + rng.index(7).unwrap() as u32,
                2 + rng.index(7).unwrap() as u32,
            ];
            let nodes = dims.iter().product();
            let lattice = RmbLattice::new(dims, ring_cfg(&mut rng, 4));
            let msgs = traffic(&mut rng, nodes, count, spread, zero_legs);
            route(&lattice, &msgs, MAX_TICKS)
        }
        1 => {
            let dims: Vec<u32> = (0..3).map(|_| 2 + rng.index(4).unwrap() as u32).collect();
            let nodes = dims.iter().product();
            let lattice = RmbLattice::new(dims, ring_cfg(&mut rng, 4));
            let msgs = traffic(&mut rng, nodes, count, spread, zero_legs);
            route(&lattice, &msgs, MAX_TICKS)
        }
        _ => {
            let nodes = 4 + rng.index(21).unwrap() as u32;
            let dual = DualRmbRing::new(ring_cfg(&mut rng, nodes));
            let msgs = traffic(&mut rng, nodes, count, spread, zero_legs);
            route(&dual, &msgs, MAX_TICKS)
        }
    }
}

/// A dual ring with k = 1 and no head timeout: every node sends two hops
/// counter-clockwise at once and the headers pin one another, while two
/// identical long legs run alone on the primary ring. A zero-leg message
/// is delivered at its injection tick.
fn stalled_dual() -> Routed {
    let n = 8;
    let dual = DualRmbRing::new(RmbConfig::new(n, 1).unwrap());
    let mut msgs: Vec<MessageSpec> = (0..n)
        .map(|i| MessageSpec::new(NodeId::new(i), NodeId::new((i + n - 2) % n), 4))
        .collect();
    for at in [0, 300] {
        msgs.push(MessageSpec::new(NodeId::new(0), NodeId::new(3), 200).at(at));
    }
    msgs.push(MessageSpec::new(NodeId::new(5), NodeId::new(5), 7).at(40));
    route(&dual, &msgs, MAX_TICKS)
}

/// A 3x3 lattice whose injections outlast the tick budget.
fn budget_cut() -> Routed {
    let cfg = RmbConfig::builder(3, 1)
        .head_timeout(32)
        .retry_backoff(4)
        .build()
        .unwrap();
    let lattice = RmbLattice::new(vec![3, 3], cfg);
    let mut rng = SimRng::seed(0x7a7e_cafe);
    let msgs = traffic(&mut rng, 9, 90, 200, 0);
    route(&lattice, &msgs, 120)
}

fn observe() -> Vec<Routed> {
    (0..SEEDED)
        .map(seeded)
        .chain([stalled_dual(), budget_cut()])
        .collect()
}

#[test]
fn route_reproduces_the_pinned_scenarios() {
    let runs = observe();
    let observed: Vec<u64> = runs.iter().map(digest).collect();
    if observed != EXPECTED {
        let mut table = String::new();
        for d in &observed {
            writeln!(table, "    {d:#018x},").unwrap();
        }
        panic!(
            "digests moved ({} pinned); observed table:\n{table}",
            EXPECTED.len()
        );
    }
}

/// The pins cover what they claim to: replayed lone legs, a stall on the
/// detector, a run cut by its budget, and zero-leg deliveries.
#[test]
fn the_pins_cover_replay_stalls_and_zero_leg_messages() {
    let runs = observe();
    let seeded = &runs[..SEEDED as usize];
    assert!(
        seeded.iter().all(|r| !r.stalled),
        "a seeded scenario stalled"
    );
    assert!(seeded.iter().filter(|r| r.jumped_ticks > 0).count() * 2 >= seeded.len());
    let zero_legs = seeded
        .iter()
        .flat_map(|r| &r.delivered)
        .filter(|d| d.spec.source == d.spec.destination)
        .count();
    assert!(zero_legs > 0);
    let dual = &runs[SEEDED as usize];
    assert!(dual.stalled && dual.jumped_ticks > 200, "{dual:?}");
    assert!(dual
        .delivered
        .iter()
        .any(|d| d.spec.source == d.spec.destination && d.delivered_at == 40));
    let cut = &runs[SEEDED as usize + 1];
    assert!(cut.stalled && cut.ticks == 120, "{cut:?}");
}

/// Digest of each scenario's [`Routed`], in order: the seeded scenarios,
/// then the stalled dual ring and the budget-cut lattice.
#[rustfmt::skip]
const EXPECTED: &[u64] = &[
    0x5c219f0af577ff77,
    0x8a8f3cbf8f529769,
    0x7c44a7c9d60ca42c,
    0xab61ffc67bcc248e,
    0xcd9e665ff72182de,
    0x63456d6466a220c0,
    0x968d95e28f103f3f,
    0xa993e19436680f54,
    0x7123423889d899ff,
    0x4e2e40addb0fe085,
    0x5fdfd5047b106ab9,
    0x9272a1b51f9428bc,
    0x508eea604d98b81c,
    0x605f227aab90e564,
    0x49bbca648a44452b,
    0x5e24a3b101b01efb,
    0xa28b8e2b1ffbe83a,
    0xb1ea0adbac929da9,
    0xf5d3cb760c0e6779,
    0xda7a775c70d83e9a,
    0x055ca3c957b0bc4e,
    0xed067a6b55620907,
    0xc8b8f6c8d9025994,
    0xc359516fb0221061,
    0x4c5da78c39c762be,
    0x9dfbd9c252db2c0a,
    0x48c3db73488b2963,
    0xcdf6913347c74a69,
    0xd65dc797ca1531fa,
    0x930eec3c624bd6b4,
    0xd3b8c31fd77cbc39,
    0x872a9a4875cca9df,
];
