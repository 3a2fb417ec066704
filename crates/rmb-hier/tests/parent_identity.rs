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
                .any(|(g, w)| g.to_bits() != w.to_bits())
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
    (0x7b8980364324abaf, &[0.102203182374541, 0.0860873113015096, 0.030599755201958383]),
    (0xde6c25746771ab3d, &[0.008261420800785244, 0.008997587010756206, 0.0189358308453642, 0.00768884708191894, 0.009283873870189358, 0.010674410044578954, 0.020087794636892833]),
    (0x315120898dffa1e2, &[0.0012043356081894822, 0.01680334919997706, 0.013247691690084303, 0.0012043356081894822]),
    (0x4df07c80877bc252, &[0.017302052785923755, 0.01857282502443793, 0.019696969696969695, 0.022613229064841967]),
    (0xc35a1af4ed9bd365, &[0.4623050847457627, 0.3610169491525424, 0.15423728813559323]),
    (0x9ec33d7d40ee1a99, &[0.04722557297949337, 0.028528347406513874, 0.04674306393244873, 0.010454362685967028]),
    (0xe2c549fee6e844f8, &[0.015664386028087864, 0.05820129636298164, 0.05338494778537991, 0.028537990637378465, 0.005581562837594527]),
    (0xfed7f56ed003d06e, &[0.03996433203631647, 0.027102248162559447, 0.051961738002594036, 0.025075659316904454, 0.041274859489840034, 0.010765239948119325]),
    (0xc3ab00f7a4657349, &[0.001060186103745924, 0.0011136296376461597, 0.0011911227618015014, 0.0007889601692022283, 0.0012739602393468665, 0.0011309987861637364, 0.0006122624852445743]),
    (0x3b686d837c7f1259, &[0.02677264170675591, 0.038918935070367824, 0.03449666835987689, 0.03023874264200556, 0.0455710102489019]),
    (0x23c89ace502c45c7, &[0.18181818181818182, 0.27839976115838183, 0.03761755485893417]),
    (0x45de8990472fb3b6, &[0.015362957522340556, 0.019096584649283876, 0.008997429305912597]),
    (0xe47cd37d874db5b0, &[0.029527885604326332, 0.008957897879964169, 0.012209283036395607, 0.012939185826614909, 0.031783948774095086, 0.04027736306028334, 0.12038419428685179]),
    (0x72992b61b0784f1d, &[0.015428380187416333, 0.011746987951807229, 0.01606425702811245, 0.024062918340026773, 0.006827309236947791]),
    (0x0edb226cca944e50, &[0.22985197368421054, 0.046875, 0.0, 0.11554276315789473, 0.04194078947368421, 0.0234375, 0.16337719298245615]),
    (0xf5a7b2bebd4a7337, &[0.018553859202714164, 0.006149279050042409, 0.01653944020356234, 0.02115139949109415, 0.025604325699745547, 0.030195080576759965]),
    (0x4ab08b54c0136c40, &[0.04544195067885841, 0.04136484186359498, 0.020702212722162848, 0.021375133594584966, 0.035981474884218025, 0.06248664054150339]),
    (0xc82811b5f405b65a, &[0.007227332457293035, 0.015306370759721613, 0.017228792524456124, 0.014381661556431596, 0.013554290164014212, 0.014710176668126735, 0.027254587044337374]),
    (0x52f9e523e3696155, &[0.002603617032503166, 0.0026629775221612495, 0.002209529337273111, 0.0010728858871535106]),
    (0xd2cafe1bad28474e, &[0.12386156648451731, 0.04553734061930783, 0.03642987249544627, 0.06739526411657559, 0.044626593806921674, 0.08652094717668488, 0.5068306010928961]),
    (0xb7c31e97854e3c6e, &[0.054266421117249844, 0.09048496009821977, 0.0858195211786372, 0.09183548189073051, 0.03793738489871087, 0.05586249232658073, 0.16472273378350727]),
    (0x795d5aee4b0ecf7b, &[0.9531423546834505, 0.36713254350240654, 0.014253980007404665]),
    (0xd3eb08367ab98784, &[0.034224214254094734, 0.004565073041168659, 0.0055887560867640546, 0.0, 0.009462151394422311, 0.00597609561752988]),
    (0x5a4787eca4416a57, &[0.03296849087893864, 0.0445771144278607, 0.007164179104477612]),
    (0x13860f0a89f54cee, &[0.00993828932261768, 0.018297933409873707, 0.018692594718714123, 0.008861940298507462, 0.020163605051664753]),
    (0x2880815e53d23165, &[0.023366368544033518, 0.046289581822576746, 0.048444927886552254, 0.04103214890016921, 0.04475868181451938, 0.04328821206993796, 0.07976794778825236]),
    (0x77b27a5d63e7265c, &[0.24954769736842106, 0.2552220394736842, 0.06537828947368421]),
    (0x3f607ade9d0efab7, &[0.572538860103627, 0.6993338267949667, 0.21095484826054775]),
    (0x81cc3d922c079174, &[0.0015566290928609768, 0.0009968560693198374, 0.0004945939728548425, 0.0008741660915573959, 0.0]),
    (0xd5eb2ec91eed25de, &[0.056124534198821976, 0.03464358696958769, 0.06385382858516649, 0.03237568618023]),
    (0x083d259d07014db4, &[0.00026440214010202813, 0.005894612417568745, 0.0, 0.009129650367052383, 0.0027528928704740577]),
    (0x52e32b3b1407f039, &[0.02065228005077629, 0.03110047846889952, 0.03407870325163558, 0.00447547440028643]),
    (0xfe874e1cb4dadd7b, &[0.0018867924528301887, 0.003459119496855346, 0.0015723270440251573, 0.0003354297693920335]),
    (0xd02cfb21c99b7795, &[0.3531172069825436, 0.2978802992518703, 0.2625935162094763, 0.08728179551122195]),
    (0x8912b10c069b756e, &[0.2223739756642662, 0.07077228706232928, 0.08190547140137405, 0.08649946196506912]),
    (0x5536425a99637529, &[0.4193572329844875, 0.3646552363987234, 0.10420841683366733]),
    (0x383964a80c5e7612, &[0.025444143330322192, 0.03270099367660343, 0.01084010840108401]),
    (0x679b43df2868dfc1, &[0.12566299469604242, 0.04888542709840139, 0.13404547309076073, 0.019175846593227255]),
    (0x7903f825a571a1d3, &[0.005281817314999148, 0.006596492850187667, 0.004403440693686379, 0.0036608657210634135, 0.0018029835911156829, 0.0075557725813581895, 0.002193052156501287]),
    (0x771c0eb59d5b16ff, &[0.1358523725834798, 0.10284710017574693, 0.13768014059753955, 0.1258347978910369, 0.26362038664323373]),
];
