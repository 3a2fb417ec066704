//! Regeneration of the paper's Figures 1–11 as text, each produced by
//! driving the *live* implementation rather than by printing canned
//! strings (except for captions).

use rmb_analysis::Table;
use rmb_baselines::FatTree;
use rmb_core::{
    assessed_in_phase, mbb_stages_downstream, mbb_stages_upstream, render_occupancy,
    render_virtual_buses, CycleController, CycleFlags, Phase, RmbNetwork, SourceDir,
};
use rmb_types::{BusIndex, MessageSpec, NodeId, RmbConfig};
use std::fmt::Write as _;

/// Renders one figure by number (1–11). Figures 9 and 10 share the cycle
/// state machine and both map to the same walk.
///
/// # Panics
///
/// Panics for numbers outside 1..=11.
pub fn figure(n: u32) -> String {
    match n {
        1 => fig1_multiple_bus_system(),
        2 => fig2_physical_vs_virtual(),
        3 => fig3_compaction_process(),
        4 => fig4_make_before_break(),
        5 => fig5_two_cycle_move(),
        6 => fig6_port_mapping(),
        7 => fig7_four_conditions(),
        8 => fig8_assessment_pattern(),
        9 | 10 => fig10_state_machine_walk(),
        11 => fig11_fat_tree(),
        _ => panic!("the paper has figures 1 through 11"),
    }
}

fn fig1_multiple_bus_system() -> String {
    let net = RmbNetwork::new(RmbConfig::new(8, 4).expect("valid"));
    format!(
        "Figure 1 — A multiple bus system (N = 8 nodes, k = 4 bus segments\n\
         between each pair of adjacent INCs; column i is the segment array\n\
         between INC i and INC i+1, data flows clockwise):\n\n{}",
        render_occupancy(&net)
    )
}

fn fig2_physical_vs_virtual() -> String {
    let mut net = RmbNetwork::new(RmbConfig::new(10, 4).expect("valid"));
    net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(6), 200))
        .expect("valid");
    net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(8), 200))
        .expect("valid");
    net.submit(MessageSpec::new(NodeId::new(4), NodeId::new(9), 200))
        .expect("valid");
    net.run(40);
    format!(
        "Figure 2 — Physical bus segments and virtual buses: three live\n\
         circuits after compaction; each letter marks the physical segments\n\
         one virtual bus currently occupies.\n\n{}\n{}",
        render_occupancy(&net),
        render_virtual_buses(&net)
    )
}

fn fig3_compaction_process() -> String {
    let mut net = RmbNetwork::new(RmbConfig::new(10, 4).expect("valid"));
    net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(7), 300))
        .expect("valid");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3 — Buses and the compaction process: a request enters on\n\
         the top bus and is moved down to the lowest free segments while it\n\
         keeps running.\n"
    );
    for checkpoint in [3u64, 6, 10, 24] {
        while net.now().get() < checkpoint {
            net.tick();
        }
        let _ = writeln!(out, "t = {checkpoint}:");
        let _ = writeln!(out, "{}", render_occupancy(&net));
    }
    out
}

fn fig4_make_before_break() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4 — Make-Before-Break connection strategy. Moving one hop\n\
         from bus l to bus l-1: the upstream INC first drives both output\n\
         ports with the same data (make), then drops the old one (break).\n\
         Status-register codes per Table 1 (old port at l / new port at l-1):\n"
    );
    let stages = mbb_stages_upstream(SourceDir::Straight).expect("straight input is movable");
    for s in stages {
        let _ = writeln!(
            out,
            "  {:<10} old-port={} new-port={}",
            s.label, s.old_port, s.new_port
        );
    }
    let _ = writeln!(
        out,
        "\nDownstream INC (its consuming output port, old input l then both\n\
         then only the new input l-1):\n"
    );
    for s in mbb_stages_downstream(SourceDir::Below).expect("down output is movable") {
        let _ = writeln!(out, "  {:<10} port={}", s.label, s.old_port);
    }
    out
}

fn fig5_two_cycle_move() -> String {
    // One established circuit parked at the top with everything below
    // free: one even plus one odd cycle move the whole bus down a level.
    let mut net = RmbNetwork::new(RmbConfig::new(8, 4).expect("valid"));
    net.submit(MessageSpec::new(NodeId::new(1), NodeId::new(6), 300))
        .expect("valid");
    // Let the circuit establish without compacting: run with compaction
    // off first is not configurable post-hoc, so instead capture right
    // after establishment and show the next two phases.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5 — Moving an entire virtual bus down in two cycles: the\n\
         odd/even assessment rule moves alternating hops in one cycle and\n\
         the remaining hops in the next.\n"
    );
    net.run(6);
    let _ = writeln!(out, "after establishment (t = {}):", net.now());
    let _ = writeln!(out, "{}", render_occupancy(&net));
    net.tick();
    let _ = writeln!(out, "after one further cycle (t = {}):", net.now());
    let _ = writeln!(out, "{}", render_occupancy(&net));
    net.tick();
    let _ = writeln!(out, "after the second cycle (t = {}):", net.now());
    let _ = writeln!(out, "{}", render_occupancy(&net));
    out
}

fn fig6_port_mapping() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6 — Mapping between I/O ports of an INC (k = 4): each\n\
         output port l may receive from input ports {{l-1, l, l+1}}:\n"
    );
    let k = 4u16;
    for l in (0..k).rev() {
        let inputs: Vec<String> = SourceDir::ALL
            .iter()
            .filter_map(|d| {
                let inp = i32::from(l) + d.offset();
                (inp >= 0 && inp < i32::from(k)).then(|| format!("in{inp} ({d})"))
            })
            .collect();
        let _ = writeln!(out, "  out{l} <- {}", inputs.join(", "));
    }
    out
}

fn fig7_four_conditions() -> String {
    use rmb_core::{EndpointHeight, HopContext};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7 — The four conditions for moving a transaction from bus l\n\
         to bus l-1 (l = 2 shown). 'up' is the neighbouring hop on the\n\
         upstream side, 'down' on the downstream side; exactly the four\n\
         combinations with both neighbours at l or l-1 are switchable:\n"
    );
    let l = BusIndex::new(2);
    for up in [1u16, 2, 3] {
        for down in [1u16, 2, 3] {
            let ctx = HopContext {
                height: l,
                top: BusIndex::new(3),
                upstream: EndpointHeight::At(BusIndex::new(up)),
                downstream: EndpointHeight::At(BusIndex::new(down)),
                below_free: true,
            };
            match ctx.switchable_down() {
                Some(cond) => {
                    let _ = writeln!(
                        out,
                        "  up=b{up} down=b{down}: condition {} ({cond})",
                        cond.number()
                    );
                }
                None => {
                    let _ = writeln!(out, "  up=b{up} down=b{down}: not switchable");
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "\nUpstream register sequences (old port / new port), per Table 1:"
    );
    for (name, dir) in [
        ("straight in", SourceDir::Straight),
        ("low in", SourceDir::Below),
    ] {
        if let Some(stages) = mbb_stages_upstream(dir) {
            let seq_old: Vec<String> = stages.iter().map(|s| s.old_port.to_string()).collect();
            let seq_new: Vec<String> = stages.iter().map(|s| s.new_port.to_string()).collect();
            let _ = writeln!(
                out,
                "  {name:<12} old: {}   new: {}",
                seq_old.join(" -> "),
                seq_new.join(" -> ")
            );
        }
    }
    let _ = writeln!(out, "Downstream register sequences:");
    for (name, dir) in [
        ("straight out", SourceDir::Straight),
        ("down out", SourceDir::Below),
    ] {
        if let Some(stages) = mbb_stages_downstream(dir) {
            let seq: Vec<String> = stages.iter().map(|s| s.old_port.to_string()).collect();
            let _ = writeln!(out, "  {name:<12} {}", seq.join(" -> "));
        }
    }
    out
}

fn fig8_assessment_pattern() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8 — Which (INC, segment) pairs are assessed for compaction\n\
         in each cycle ('E' = assessed in even cycles, 'O' = in odd):\n"
    );
    let (n, k) = (8u32, 4u16);
    for l in (0..k).rev() {
        let _ = write!(out, "  b{l} |");
        for i in 0..n {
            let c = if assessed_in_phase(NodeId::new(i), BusIndex::new(l), Phase::Even) {
                'E'
            } else {
                'O'
            };
            let _ = write!(out, " {c}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "      {}",
        (0..n).map(|i| format!("{i} ")).collect::<String>()
    );
    out
}

fn fig10_state_machine_walk() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figures 9/10 — The four switching states of each INC and the\n\
         odd/even transition rules, walked on a live controller with both\n\
         neighbours mirroring the same protocol:\n"
    );
    let mut ctl = CycleController::new(Phase::Even);
    ctl.set_internal_done(true);
    let steps: [(&str, CycleFlags); 4] = [
        (
            "neighbours idle (LD=LC=RD=RC=0)",
            CycleFlags {
                data: false,
                cycle: false,
            },
        ),
        (
            "neighbours' datapaths done (LD=RD=1)",
            CycleFlags {
                data: true,
                cycle: false,
            },
        ),
        (
            "neighbours' cycles changed (LC=RC=1)",
            CycleFlags {
                data: true,
                cycle: true,
            },
        ),
        (
            "neighbours' data flags low (LD=RD=0)",
            CycleFlags {
                data: false,
                cycle: true,
            },
        ),
    ];
    for (label, nb) in steps {
        let before = ctl.state();
        let step = ctl.step(nb, nb);
        let _ = writeln!(
            out,
            "  {before:<20} --[{label}]--> {:<20} ({step:?}, phase {})",
            ctl.state().to_string(),
            ctl.phase()
        );
    }
    let _ = writeln!(
        out,
        "\nRules: OD<-1 if ID & !LC & !RC;  OC<-1 if OD & LD & RD;\n\
         OD<-0 if OD & LC & RC;  OC<-0 if OC & !LD & !RD."
    );
    out
}

fn fig11_fat_tree() -> String {
    let tree = FatTree::new(16, 4);
    let mut t = Table::new(vec!["level (subtree leaves)", "edges", "capacity each"]);
    let mut s = 1u32;
    while s < 16 {
        t.row(vec![
            format!("{s}"),
            format!("{}", 16 / s),
            format!("{}", tree.capacity_above_subtree(s)),
        ]);
        s *= 2;
    }
    format!(
        "Figure 11 — A fat tree supporting a k-permutation (N = 16, k = 4):\n\
         channel capacities double going up and are capped at k.\n\n{t}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_render_nonempty() {
        for n in 1..=11 {
            let s = figure(n);
            assert!(s.len() > 80, "figure {n} too short:\n{s}");
            assert!(s.contains("Figure"), "figure {n} missing caption");
        }
    }

    #[test]
    #[should_panic(expected = "figures 1 through 11")]
    fn figure_zero_panics() {
        let _ = figure(0);
    }

    #[test]
    fn fig7_names_exactly_four_conditions() {
        let s = figure(7);
        assert_eq!(s.matches(": condition").count(), 4);
        assert_eq!(s.matches("not switchable").count(), 5);
        // The emblematic downstream sequence from the paper.
        assert!(s.contains("100 -> 110 -> 010"));
    }

    #[test]
    fn fig8_alternates_by_parity() {
        let s = figure(8);
        assert!(s.contains("E O") || s.contains("O E"));
    }

    #[test]
    fn fig5_shows_descent() {
        let s = figure(5);
        // Occupancy art at three checkpoints.
        assert_eq!(s.matches("b3 |").count(), 3);
    }

    #[test]
    fn fig10_walks_all_four_states() {
        let s = figure(10);
        for state in [
            "ready-for-datapath",
            "datapath-switched",
            "cycle-switched",
            "preparing-next",
        ] {
            assert!(s.contains(state), "missing {state}:\n{s}");
        }
    }
}
