//! Identity pin for the hierarchy coordinator: forty fixed scenarios whose
//! every observable is folded into a digest recorded from the coordinator
//! that advanced every carrier on every tick. Any change to how carriers
//! are scheduled must reproduce these digests exactly.
//!
//! The scenarios sweep rings 2–6, N 4–12, k 1–3 and bridge depth 1–3 at
//! random locality, with some depth-1 bursts that overflow the bridges.
//! Every carrier gets a fault plan, including carriers no message uses,
//! so a carrier that is advanced lazily must still apply its fault events
//! on the right tick. Most scenarios bound leg retries to produce aborts.
//! Half run `run_to_quiescence` (twice, the first call cut by a tick
//! budget), half a `tick()` loop; both submit a second batch mid-run,
//! half of it dated in the past.
//!
//! Unchecked carriers replay memoised lone circuits instead of ticking
//! them; checked carriers never do. Every scenario is therefore also
//! rerun with `checked` flipped, which must reproduce the same pins, and
//! the replays are counted to show that the pins cover them.

use rmb_hier::{HierNetwork, HierReport};
use rmb_sim::SimRng;
use rmb_types::{HierConfig, HierMessageSpec, NodeId, StatsReport};
use rmb_workloads::{FaultScenario, LocalityTraffic};
use std::fmt::Write;

/// Number of pinned scenarios.
const SCENARIOS: u64 = 40;

/// Upper bound on any scenario's clock.
const MAX_TICKS: u64 = 200_000;

struct Case {
    cfg: HierConfig,
    locality: f64,
    faults: FaultScenario,
    retry_budget: bool,
    count: usize,
    spread: u64,
    tick_loop: bool,
    checked: bool,
    seed: u64,
}

fn case(i: u64) -> Case {
    let mut rng = SimRng::seed(0x1de7_0000 + i);
    let pick = |rng: &mut SimRng, lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo + 1);
    // Every fifth scenario is a depth-1 burst: mostly inter-ring traffic
    // injected within a few ticks, so bridge queues overflow.
    let burst = i % 5 == 4;
    // Every tenth scenario is sparse: gaps between injections outlast the
    // stall window, which the clock must cover as progress.
    let sparse = i % 10 == 8;
    let rings = pick(&mut rng, 2, 6) as u32;
    let nodes = pick(&mut rng, 4, 12) as u32;
    let k = pick(&mut rng, 1, 3) as u16;
    let depth = if burst {
        1
    } else {
        pick(&mut rng, 1, 3) as u32
    };
    let mut cfg = HierConfig::builder(rings, nodes, k)
        .bridge_queue_depth(depth)
        .bridge_backoff(pick(&mut rng, 1, 8))
        .retry_backoff(u64::from(nodes));
    // Without a head timeout, parked headers can deadlock a ring (a
    // symmetric burst does), and the run ends on the stall detector.
    if i % 8 != 6 {
        cfg = cfg.head_timeout(8 * u64::from(nodes));
    }
    let cfg = cfg.build().expect("valid hierarchy");
    let locality = if burst { 0.1 } else { rng.next_f64() };
    // Retrying forever only under transient faults: a permanent fault
    // with no budget never quiesces.
    let retry_budget = i % 4 != 1;
    let permanent = retry_budget && i.is_multiple_of(3);
    let faults = FaultScenario {
        fraction: rng.next_f64() * 0.3,
        horizon: pick(&mut rng, 500, 3_000),
        outage: if permanent {
            None
        } else {
            Some(pick(&mut rng, 100, 800))
        },
    };
    Case {
        cfg,
        locality,
        faults,
        retry_budget,
        count: pick(&mut rng, 4, 48) as usize,
        spread: match (burst, sparse) {
            (true, _) => 4,
            (false, true) => 20 * pick(&mut rng, 1_000, 3_000),
            (false, false) => pick(&mut rng, 200, 2_500),
        },
        tick_loop: i % 2 == 1,
        checked: i % 3 == 2,
        seed: rng.next_u64(),
    }
}

fn traffic(c: &Case, count: usize, rng: &mut SimRng) -> Vec<HierMessageSpec> {
    LocalityTraffic {
        rings: c.cfg.rings(),
        nodes: c.cfg.local().nodes().get(),
        bridge: NodeId::new(0),
        locality: c.locality,
        flits: 1 + (c.seed % 8) as u32,
    }
    .generate(count, c.spread, rng)
}

/// The batch submitted at tick `now`: even entries are shifted to start
/// at `now`; odd ones keep their original injection tick, usually already
/// past, so they come due at once beside messages that came due on time.
fn late(batch: &[HierMessageSpec], now: u64) -> Vec<HierMessageSpec> {
    batch
        .iter()
        .enumerate()
        .map(|(j, m)| {
            if j % 2 == 0 {
                m.at(now + m.inject_at)
            } else {
                *m
            }
        })
        .collect()
}

/// The simulated fields of a returned report; `perf` is wall-clock time.
fn report_fields(r: &HierReport) -> String {
    format!(
        "ticks={} submitted={} delivered={} aborted={} undelivered={} stalled={} \
         bridge_refusals={} leg_refusals={} leg_retries={} fault_kills={} makespan={} \
         latency_sum={}",
        r.ticks,
        r.submitted,
        r.delivered,
        r.aborted,
        r.undelivered,
        r.stalled,
        r.bridge_refusals,
        r.leg_refusals,
        r.leg_retries,
        r.fault_kills,
        r.makespan,
        r.latency_sum,
    )
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs scenario `i`, with `checked` flipped when `flip`, and returns its
/// digest, every carrier's mean utilisation (locals, then the global
/// ring) and the carrier ticks it replayed from memoised lone circuits.
fn observe(i: u64, flip: bool) -> (u64, Vec<f64>, u64) {
    let mut c = case(i);
    c.checked ^= flip;
    let rings = c.cfg.rings();
    let mut rng = SimRng::seed(c.seed);
    let mut builder = HierNetwork::builder(c.cfg)
        .recording(true)
        .checked(c.checked)
        .fault_seed(c.seed);
    if c.retry_budget {
        builder = builder.leg_max_retries(4);
    }
    let nodes = c.cfg.local().nodes().get();
    let k = c.cfg.local().buses();
    for r in 0..rings {
        builder = builder.local_fault_plan(r, c.faults.draw(nodes, k, &mut rng));
    }
    builder = builder.global_fault_plan(c.faults.draw(rings, c.cfg.global().buses(), &mut rng));
    let mut net = builder.build();
    let first = traffic(&c, c.count, &mut rng);
    let second = traffic(&c, c.count / 2 + 1, &mut rng);
    net.submit_all(first).unwrap();

    let mut text = String::new();
    let cut = c.spread / 2 + 1;
    if c.tick_loop {
        while net.now() < cut {
            net.tick();
        }
        net.submit_all(late(&second, net.now())).unwrap();
        while !net.is_quiescent() && net.now() < MAX_TICKS {
            net.tick();
        }
    } else {
        // The first call ends on its tick budget, usually mid-run.
        let r = net.run_to_quiescence(cut);
        writeln!(text, "{}", report_fields(&r)).unwrap();
        net.submit_all(late(&second, net.now())).unwrap();
        let r = net.run_to_quiescence(MAX_TICKS);
        writeln!(text, "{}", report_fields(&r)).unwrap();
    }

    writeln!(text, "{}", net.report().to_json_object()).unwrap();
    writeln!(text, "{:?}", net.delivered_log()).unwrap();
    writeln!(text, "{:?}", net.aborted_log()).unwrap();
    writeln!(text, "{:?}", net.take_events()).unwrap();
    let mut utilization = Vec::new();
    for r in 0..=rings {
        let ring = if r < rings {
            net.local(r)
        } else {
            net.global_ring()
        };
        let mut report = ring.report();
        utilization.push(report.mean_utilization);
        report.mean_utilization = 0.0;
        writeln!(text, "carrier {r} now={}", ring.now()).unwrap();
        writeln!(text, "{:?}", ring.delivered_log()).unwrap();
        writeln!(text, "{:?}", ring.aborted_log()).unwrap();
        writeln!(text, "{report:?}").unwrap();
    }
    (fnv1a(&text), utilization, net.lone_memo().jumped_ticks())
}

/// `mean_utilization` is compared to 1e-9 relative rather than folded into
/// the digest: an engine that skips idle ticks accounts for a multi-tick
/// skip with `OnlineStats::record_repeated`, whose batch merge rounds
/// differently from the same number of `record(0.0)` calls (measured at
/// most 5.2e-13 relative). The flat ring's idle fast-forward already
/// accepts the same rounding.
fn utilization_matches(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * got.abs().max(want.abs())
}

/// Checks every scenario, run with `checked` flipped when `flip`,
/// against its pins; returns the ticks each replayed.
fn reproduce(flip: bool) -> Vec<u64> {
    let runs: Vec<(u64, Vec<f64>, u64)> = (0..SCENARIOS).map(|i| observe(i, flip)).collect();
    let observed: Vec<(u64, Vec<f64>)> = runs.iter().map(|(d, u, _)| (*d, u.clone())).collect();
    let mut failures = Vec::new();
    if observed.len() != EXPECTED.len() {
        failures.push(format!(
            "{} scenarios, {} pinned",
            observed.len(),
            EXPECTED.len()
        ));
    }
    for (i, ((digest, util), (want_digest, want_util))) in
        observed.iter().zip(EXPECTED.iter()).enumerate()
    {
        if digest != want_digest {
            failures.push(format!(
                "scenario {i}: digest {digest:#018x}, pinned {want_digest:#018x}"
            ));
        }
        if util.len() != want_util.len()
            || util
                .iter()
                .zip(want_util.iter())
                .any(|(&g, &w)| !utilization_matches(g, w))
        {
            failures.push(format!(
                "scenario {i}: utilisation {util:?}, pinned {want_util:?}"
            ));
        }
    }
    if !failures.is_empty() {
        let mut table = String::new();
        for (digest, util) in &observed {
            writeln!(table, "    ({digest:#018x}, &{util:?}),").unwrap();
        }
        panic!("{}\n\nobserved table:\n{table}", failures.join("\n"));
    }
    runs.iter().map(|r| r.2).collect()
}

#[test]
fn hierarchy_reproduces_the_pinned_scenarios() {
    reproduce(false);
}

/// Flipping `checked` turns lone-circuit replay off in the scenarios that
/// had it and on in those that did not; the pins must not move. Only
/// unchecked carriers replay, and most of the scenarios that run them to
/// quiescence do (a `tick()` loop catches every carrier up on every tick,
/// so it leaves nothing to replay).
#[test]
fn checked_flip_reproduces_the_pinned_scenarios() {
    let plain = reproduce(false);
    let flipped = reproduce(true);
    let (mut candidates, mut replaying) = (0, 0);
    for i in 0..SCENARIOS {
        let c = case(i);
        for (checked, jumped) in [
            (c.checked, plain[i as usize]),
            (!c.checked, flipped[i as usize]),
        ] {
            if checked {
                assert_eq!(jumped, 0, "scenario {i} (checked {checked}) replayed");
            } else if !c.tick_loop {
                candidates += 1;
                replaying += usize::from(jumped > 0);
            }
        }
    }
    assert!(
        2 * replaying >= candidates,
        "{replaying} of {candidates} unchecked runs replayed"
    );
}

/// Digest and per-carrier mean utilisation of each scenario, in order.
#[rustfmt::skip]
const EXPECTED: &[(u64, &[f64])] = &[
    (0x7b8980364324abaf, &[0.10220318237454082, 0.08608731130150966, 0.030599755201958647]),
    (0xde6c25746771ab3d, &[0.00826142080078525, 0.008997587010756218, 0.018935830845364245, 0.007688847081918931, 0.009283873870189377, 0.01067441004457898, 0.02008779463689279]),
    (0x315120898dffa1e2, &[0.0012043356081894835, 0.016803349199977075, 0.013247691690084305, 0.0012043356081894827]),
    (0x4df07c80877bc252, &[0.01730205278592378, 0.018572825024437925, 0.01969696969696969, 0.022613229064841988]),
    (0xc35a1af4ed9bd365, &[0.4623050847457627, 0.3610169491525433, 0.15423728813559343]),
    (0x9ec33d7d40ee1a99, &[0.04722557297949335, 0.028528347406513895, 0.046743063932448724, 0.010454362685967018]),
    (0xe2c549fee6e844f8, &[0.0156643860280879, 0.05820129636298186, 0.053384947785379784, 0.028537990637378427, 0.005581562837594537]),
    (0xfed7f56ed003d06e, &[0.0399643320363165, 0.02710224816255943, 0.05196173800259412, 0.0250756593169044, 0.041274859489840054, 0.01076523994811933]),
    (0xc3ab00f7a4657349, &[0.001060186103745941, 0.001113629637646164, 0.0011911227618015064, 0.0007889601692022167, 0.0012739602393468802, 0.0011309987861637374, 0.0006122624852445726]),
    (0x3b686d837c7f1259, &[0.026772641706755855, 0.038918935070367755, 0.0344966683598769, 0.030238742642005514, 0.04557101024890189]),
    (0x23c89ace502c45c7, &[0.18181818181818213, 0.2783997611583815, 0.03761755485893411]),
    (0x45de8990472fb3b6, &[0.01536295752234056, 0.01909658464928388, 0.0089974293059126]),
    (0xe47cd37d874db5b0, &[0.02952788560432636, 0.008957897879964193, 0.012209283036395568, 0.012939185826614978, 0.031783948774095065, 0.040277363060283365, 0.12038419428685151]),
    (0x72992b61b0784f1d, &[0.015428380187416327, 0.011746987951807224, 0.01606425702811244, 0.02406291834002679, 0.006827309236947803]),
    (0x0edb226cca944e50, &[0.22985197368421043, 0.04687500000000001, 0.0, 0.11554276315789468, 0.0419407894736842, 0.02343749999999999, 0.16337719298245618]),
    (0xf5a7b2bebd4a7337, &[0.01855385920271416, 0.006149279050042421, 0.016539440203562353, 0.021151399491094156, 0.02560432569974552, 0.030195080576759965]),
    (0x4ab08b54c0136c40, &[0.045441950678858464, 0.04136484186359497, 0.020702212722162855, 0.021375133594584924, 0.03598147488421802, 0.06248664054150329]),
    (0xc82811b5f405b65a, &[0.007227332457293033, 0.01530637075972162, 0.017228792524456124, 0.014381661556431594, 0.013554290164014205, 0.014710176668126778, 0.027254587044337253]),
    (0x52f9e523e3696155, &[0.0026036170325031637, 0.002662977522161252, 0.0022095293372731075, 0.0010728858871535067]),
    (0xd2cafe1bad28474e, &[0.12386156648451731, 0.04553734061930779, 0.036429872495446255, 0.06739526411657554, 0.04462659380692163, 0.086520947176685, 0.5068306010928957]),
    (0xb7c31e97854e3c6e, &[0.05426642111724976, 0.09048496009821967, 0.08581952117863724, 0.09183548189073058, 0.03793738489871084, 0.0558624923265807, 0.16472273378350705]),
    (0x795d5aee4b0ecf7b, &[0.9531423546834499, 0.36713254350240665, 0.014253980007404651]),
    (0xd3eb08367ab98784, &[0.03422421425409485, 0.004565073041168666, 0.005588756086764051, 0.0, 0.009462151394422325, 0.005976095617529873]),
    (0x5a4787eca4416a57, &[0.03296849087893861, 0.04457711442786072, 0.007164179104477603]),
    (0x13860f0a89f54cee, &[0.009938289322617661, 0.018297933409873703, 0.018692594718714164, 0.008861940298507483, 0.020163605051664802]),
    (0x2880815e53d23165, &[0.023366368544033476, 0.046289581822576614, 0.04844492788655225, 0.041032148900169346, 0.04475868181451935, 0.04328821206993777, 0.07976794778825233]),
    (0x77b27a5d63e7265c, &[0.24954769736842095, 0.2552220394736844, 0.06537828947368425]),
    (0x3f607ade9d0efab7, &[0.5725388601036262, 0.6993338267949667, 0.2109548482605478]),
    (0x81cc3d922c079174, &[0.001556629092860976, 0.0009968560693198434, 0.0004945939728548406, 0.0008741660915573959, 0.0]),
    (0xd5eb2ec91eed25de, &[0.05612453419882201, 0.03464358696958773, 0.06385382858516643, 0.032375686180230005]),
    (0x083d259d07014db4, &[0.00026440214010202894, 0.00589461241756875, 0.0, 0.009129650367052388, 0.0027528928704740577]),
    (0x52e32b3b1407f039, &[0.020652280050776295, 0.03110047846889946, 0.03407870325163561, 0.004475474400286429]),
    (0xfe874e1cb4dadd7b, &[0.0018867924528301867, 0.0034591194968553503, 0.0015723270440251597, 0.0003354297693920339]),
    (0xd02cfb21c99b7795, &[0.3531172069825435, 0.29788029925187004, 0.26259351620947663, 0.08728179551122185]),
    (0x8912b10c069b756e, &[0.2223739756642664, 0.07077228706232935, 0.08190547140137401, 0.08649946196506905]),
    (0x5536425a99637529, &[0.41935723298448774, 0.36465523639872344, 0.10420841683366733]),
    (0x383964a80c5e7612, &[0.02544414333032214, 0.03270099367660339, 0.010840108401084058]),
    (0x679b43df2868dfc1, &[0.12566299469604275, 0.0488854270984014, 0.13404547309076079, 0.019175846593227235]),
    (0x7903f825a571a1d3, &[0.005281817314999129, 0.006596492850187607, 0.004403440693686383, 0.003660865721063388, 0.0018029835911156848, 0.007555772581358206, 0.002193052156501268]),
    (0x771c0eb59d5b16ff, &[0.13585237258347982, 0.10284710017574691, 0.13768014059753972, 0.1258347978910369, 0.26362038664323384]),
];
