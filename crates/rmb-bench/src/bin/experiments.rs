//! Runs the measured experiments of the reproduction.
//!
//! ```text
//! experiments [--exp NAME] [--n N] [--k K] [--flits F] [--seed S]
//!             [--rate R] [--ticks T] [--scenario FILE]
//!             [--json] [--list]
//! ```
//!
//! `--json` emits one machine-readable JSON object per experiment instead
//! of text tables (for plotting or regression tracking). `--list` prints
//! the registered experiment names with descriptions and exits. `--rate`
//! and `--ticks` override the offered rate / tick budget of the open-loop
//! serving experiments. `--scenario FILE` runs a declarative TOML
//! scenario (see the `rmb-scenario` crate and `scenarios/`) through the
//! same envelope; it implies `--exp scenario`.
//!
//! Experiments come from [`rmb_bench::registry::registry`]; `--exp all`
//! (the default) runs the whole suite. Sizes default to N = 64 (clamped
//! per experiment; `permutation` uses N = 16 under `all` because it needs
//! a square power of two and simulates five networks), k = 8, 16-flit
//! bodies, seed 1996.

use rmb_bench::registry::{registry, ExpContext};

#[derive(Debug, Clone)]
struct Options {
    exp: String,
    n: u32,
    k: u16,
    flits: u32,
    seed: u64,
    ticks: Option<u64>,
    rate: Option<f64>,
    scenario: Option<String>,
    json: bool,
    list: bool,
}

fn usage() -> String {
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    format!(
        "usage: experiments [--exp {}|all] [--n N] [--k K] [--flits F] \
         [--seed S] [--rate R] [--ticks T] [--scenario FILE] \
         [--json] [--list]",
        names.join("|")
    )
}

fn parse() -> Options {
    let mut opt = Options {
        exp: "all".into(),
        n: 64,
        k: 8,
        flits: 16,
        seed: 1996,
        ticks: None,
        rate: None,
        scenario: None,
        json: false,
        list: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--exp" => opt.exp = value("--exp"),
            "--n" => opt.n = value("--n").parse().expect("numeric --n"),
            "--k" => opt.k = value("--k").parse().expect("numeric --k"),
            "--flits" => opt.flits = value("--flits").parse().expect("numeric --flits"),
            "--seed" => opt.seed = value("--seed").parse().expect("numeric --seed"),
            "--ticks" => opt.ticks = Some(value("--ticks").parse().expect("numeric --ticks")),
            "--rate" => opt.rate = Some(value("--rate").parse().expect("numeric --rate")),
            "--scenario" => opt.scenario = Some(value("--scenario")),
            "--json" => opt.json = true,
            "--list" => opt.list = true,
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("{}", usage());
                std::process::exit(2);
            }
        }
    }
    opt
}

fn main() {
    let mut opt = parse();
    if opt.scenario.is_some() && opt.exp == "all" {
        opt.exp = "scenario".into();
    }
    let reg = registry();

    if opt.list {
        for e in &reg {
            println!("{:<18} {}", e.name(), e.description());
        }
        return;
    }

    let all = opt.exp == "all";
    if !all && !reg.iter().any(|e| e.name() == opt.exp) {
        eprintln!("unknown experiment '{}'", opt.exp);
        eprintln!("{}", usage());
        std::process::exit(2);
    }

    let cx = ExpContext {
        n: opt.n,
        k: opt.k,
        flits: opt.flits,
        seed: opt.seed,
        all,
        ticks: opt.ticks,
        rate: opt.rate,
        scenario: opt.scenario.clone(),
    };

    for e in &reg {
        if !all && e.name() != opt.exp {
            continue;
        }
        for out in e.run(&cx) {
            if opt.json {
                println!(
                    "{{\"experiment\": \"{}\", \"rows\": {}}}",
                    out.name, out.rows_json
                );
            } else {
                if !out.heading.is_empty() {
                    println!("{}\n", out.heading);
                }
                println!("{}", out.table);
                if !out.footer.is_empty() {
                    println!("{}\n", out.footer);
                }
            }
        }
    }
}
