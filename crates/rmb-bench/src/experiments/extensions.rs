//! Experiments on the paper's named-but-unevaluated extensions:
//! multicast (§1), wire-length effects (§3.2's constant-wire argument),
//! the 2-D grid of rings (§4), and multiple concurrent sends per node
//! (§4).

use rmb_analysis::{RmbLattice, RmbRing, Table};
use rmb_baselines::{FatTree, Hypercube, Mesh2D, Network};
use rmb_core::RmbNetwork;
use rmb_types::{MessageSpec, NodeId, RmbConfig};
use rmb_workloads::{PermutationKind, SizeDistribution, WorkloadConfig, WorkloadSuite};

/// One row of the hot-spot / multi-receive experiment.
#[derive(Debug, Clone)]
pub struct HotspotRow {
    /// Concurrent receives allowed at the hot node.
    pub receives: u32,
    /// Messages delivered in the run window.
    pub delivered: usize,
    /// Mean latency of messages addressed to the hot node.
    pub hot_latency: f64,
    /// Total refusals (Nacks at the hot receive port).
    pub refusals: u64,
}

/// §4's multiple-receives extension under hot-spot traffic: a biased
/// Bernoulli stream concentrates on one node; the receive-port limit is
/// swept over 1, 2 and 4.
pub fn hotspot_experiment(n: u32, k: u16, rate: f64, bias: f64, seed: u64) -> Vec<HotspotRow> {
    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, seed).with_sizes(SizeDistribution::Fixed(8)));
    let hot = NodeId::new(0);
    let msgs = suite.hotspot(rate, 3_000, hot, bias);
    let mut rows = Vec::new();
    for receives in [1u32, 2, 4] {
        let cfg = RmbConfig::builder(n, k)
            .max_concurrent_receives(receives)
            .head_timeout(16 * u64::from(n))
            .retry_backoff(u64::from(n))
            .build()
            .expect("valid");
        let mut net = RmbNetwork::new(cfg);
        net.submit_all(msgs.iter().copied())
            .expect("valid workload");
        let report = net.run_to_quiescence(2_000_000);
        let hot_msgs: Vec<_> = net
            .delivered_log()
            .iter()
            .filter(|d| d.spec.destination == hot)
            .collect();
        let hot_latency = if hot_msgs.is_empty() {
            0.0
        } else {
            hot_msgs.iter().map(|d| d.latency() as f64).sum::<f64>() / hot_msgs.len() as f64
        };
        rows.push(HotspotRow {
            receives,
            delivered: report.delivered,
            hot_latency,
            refusals: report.refusals,
        });
    }
    rows
}

/// Renders hot-spot rows.
pub fn hotspot_table(rows: &[HotspotRow]) -> Table {
    let mut t = Table::new(vec![
        "receive slots (hot node)",
        "delivered",
        "hot-node mean latency",
        "refusals",
    ]);
    for r in rows {
        t.row(vec![
            r.receives.to_string(),
            r.delivered.to_string(),
            format!("{:.1}", r.hot_latency),
            r.refusals.to_string(),
        ]);
    }
    t
}

/// One row of the multicast experiment: a group size, with multicast and
/// repeated-unicast makespans.
#[derive(Debug, Clone)]
pub struct MulticastRow {
    /// Number of destinations.
    pub group: u32,
    /// Makespan of one multicast circuit.
    pub multicast: u64,
    /// Makespan of the equivalent unicast series.
    pub unicast_series: u64,
}

/// Measures multicast against repeated unicast for growing group sizes on
/// an `n`-node, `k`-bus ring.
pub fn multicast_experiment(n: u32, k: u16, flits: u32) -> Vec<MulticastRow> {
    let mut rows = Vec::new();
    let max_group = n - 2;
    let mut group = 2;
    while group <= max_group {
        let destinations: Vec<NodeId> = (1..=group)
            .map(|i| NodeId::new(i * (n / (group + 1))))
            .collect();
        let destinations: Vec<NodeId> = destinations
            .into_iter()
            .filter(|d| d.index() != 0)
            .collect();

        let mut mc = RmbNetwork::new(RmbConfig::new(n, k).expect("valid"));
        mc.submit_multicast(NodeId::new(0), &destinations, flits, 0)
            .expect("valid multicast");
        let mc_report = mc.run_to_quiescence(1_000_000);

        let mut uc = RmbNetwork::new(RmbConfig::new(n, k).expect("valid"));
        for d in &destinations {
            uc.submit(MessageSpec::new(NodeId::new(0), *d, flits))
                .expect("valid unicast");
        }
        let uc_report = uc.run_to_quiescence(1_000_000);

        rows.push(MulticastRow {
            group: destinations.len() as u32,
            multicast: mc_report.makespan(),
            unicast_series: uc_report.makespan(),
        });
        group *= 2;
    }
    rows
}

/// Renders multicast rows.
pub fn multicast_table(rows: &[MulticastRow]) -> Table {
    let mut t = Table::new(vec!["destinations", "multicast makespan", "unicast series"]);
    for r in rows {
        t.row(vec![
            r.group.to_string(),
            r.multicast.to_string(),
            r.unicast_series.to_string(),
        ]);
    }
    t
}

/// One row of the wire-delay experiment.
#[derive(Debug, Clone)]
pub struct WireDelayRow {
    /// Network label (without the wire annotation).
    pub network: String,
    /// Makespan with unit wires everywhere.
    pub unit_wires: u64,
    /// Makespan with layout-model wire lengths.
    pub layout_wires: u64,
}

impl WireDelayRow {
    /// Layout/unit slowdown factor.
    pub fn slowdown(&self) -> f64 {
        if self.unit_wires == 0 {
            return 0.0;
        }
        self.layout_wires as f64 / self.unit_wires as f64
    }
}

/// The §3.2 constant-wire-length argument, measured: route one random
/// permutation with unit wires and with layout wires. The RMB and the
/// mesh use unit wires by construction; the hypercube and fat tree pay
/// for their long wires.
pub fn wire_delay_experiment(n: u32, k: u16, flits: u32, seed: u64) -> Vec<WireDelayRow> {
    let suite =
        WorkloadSuite::new(WorkloadConfig::new(n, seed).with_sizes(SizeDistribution::Fixed(flits)));
    let msgs = suite.permutation(PermutationKind::Random);
    let max_ticks = 4_000_000;
    let run = |net: &mut dyn Network| {
        let out = net.route_messages(&msgs, max_ticks);
        assert_eq!(out.delivered.len(), msgs.len(), "{} stalled", net.label());
        out.makespan()
    };
    let rmb_cfg = RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .expect("valid");
    let mut rows = Vec::new();
    let rmb = run(&mut RmbRing::new(rmb_cfg));
    rows.push(WireDelayRow {
        network: "rmb".into(),
        unit_wires: rmb,
        layout_wires: rmb, // constant unit wires by construction (§3.2)
    });
    rows.push(WireDelayRow {
        network: "hypercube".into(),
        unit_wires: run(&mut Hypercube::new(n)),
        layout_wires: run(&mut Hypercube::new_with_layout_wires(n)),
    });
    rows.push(WireDelayRow {
        network: "fat-tree".into(),
        unit_wires: run(&mut FatTree::new(n, k)),
        layout_wires: run(&mut FatTree::new_with_layout_wires(n, k)),
    });
    let mesh = run(&mut Mesh2D::square(n));
    rows.push(WireDelayRow {
        network: "mesh".into(),
        unit_wires: mesh,
        layout_wires: mesh, // unit wires by construction
    });
    rows
}

/// Renders wire-delay rows.
pub fn wire_delay_table(rows: &[WireDelayRow]) -> Table {
    let mut t = Table::new(vec!["network", "unit wires", "layout wires", "slowdown"]);
    for r in rows {
        t.row(vec![
            r.network.clone(),
            r.unit_wires.to_string(),
            r.layout_wires.to_string(),
            format!("{:.2}x", r.slowdown()),
        ]);
    }
    t
}

/// One row of the grid-composition experiment.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// Network label.
    pub network: String,
    /// Total bus segments (the wiring budget).
    pub segments: u64,
    /// Makespan (0 = incomplete).
    pub makespan: u64,
}

/// Compares one big ring against the 2-D grid of rings at equal wiring on
/// far traffic. `side` must be at least 2; the system has `side²` nodes.
pub fn grid_experiment(side: u32, k: u16, flits: u32) -> Vec<GridRow> {
    let n = side * side;
    let msgs: Vec<MessageSpec> = (0..n)
        .map(|s| {
            MessageSpec::new(NodeId::new(s), NodeId::new((s + n / 2 + 1) % n), flits)
                .at(u64::from(s) * 24)
        })
        .filter(|m| m.source != m.destination)
        .collect();
    let ring_cfg = RmbConfig::builder(n, 2 * k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .expect("valid");
    let grid_cfg = RmbConfig::builder(side.max(2), k)
        .head_timeout(16 * u64::from(side))
        .retry_backoff(u64::from(side))
        .build()
        .expect("valid");
    let mut out = Vec::new();
    let mut ring = RmbRing::new(ring_cfg);
    let r = ring.route_messages(&msgs, 8_000_000);
    out.push(GridRow {
        network: ring.label(),
        segments: ring.link_count(),
        makespan: if r.delivered.len() == msgs.len() {
            r.makespan()
        } else {
            0
        },
    });
    let mut grid = RmbLattice::new(vec![side, side], grid_cfg);
    let g = grid.route_messages(&msgs, 8_000_000);
    out.push(GridRow {
        network: grid.label(),
        segments: grid.link_count(),
        makespan: if g.delivered.len() == msgs.len() {
            g.makespan()
        } else {
            0
        },
    });
    // A 3-D lattice over the same node count, when N is a perfect cube
    // (§4 names 3-D grids explicitly). Wiring is higher (three rings per
    // node); the segments column keeps the comparison honest.
    let cbrt = (n as f64).cbrt().round() as u32;
    if cbrt >= 2 && cbrt * cbrt * cbrt == n {
        let lat_cfg = RmbConfig::builder(cbrt.max(2), k)
            .head_timeout(16 * u64::from(cbrt))
            .retry_backoff(u64::from(cbrt))
            .build()
            .expect("valid");
        let mut lat = RmbLattice::new(vec![cbrt, cbrt, cbrt], lat_cfg);
        let l = lat.route_messages(&msgs, 8_000_000);
        out.push(GridRow {
            network: lat.label(),
            segments: lat.link_count(),
            makespan: if l.delivered.len() == msgs.len() {
                l.makespan()
            } else {
                0
            },
        });
    }
    out
}

/// Renders grid rows.
pub fn grid_table(rows: &[GridRow]) -> Table {
    let mut t = Table::new(vec!["network", "segments", "makespan"]);
    for r in rows {
        t.row(vec![
            r.network.clone(),
            r.segments.to_string(),
            if r.makespan == 0 {
                "incomplete".into()
            } else {
                r.makespan.to_string()
            },
        ]);
    }
    t
}

/// One row of the multi-send experiment.
#[derive(Debug, Clone)]
pub struct MultiSendRow {
    /// Concurrent sends allowed per PE.
    pub sends: u32,
    /// Makespan of the shared workload.
    pub makespan: u64,
}

/// The §4 multiple-sends extension: one hot source fanning out messages
/// to many receivers, with 1, 2 and 4 concurrent send slots.
pub fn multi_send_experiment(n: u32, k: u16, flits: u32) -> Vec<MultiSendRow> {
    let mut rows = Vec::new();
    for sends in [1u32, 2, 4] {
        let cfg = RmbConfig::builder(n, k)
            .max_concurrent_sends(sends)
            .head_timeout(16 * u64::from(n))
            .build()
            .expect("valid");
        let mut net = RmbNetwork::new(cfg);
        for i in 1..n {
            net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(i), flits))
                .expect("valid");
        }
        let report = net.run_to_quiescence(4_000_000);
        assert_eq!(report.delivered, (n - 1) as usize);
        rows.push(MultiSendRow {
            sends,
            makespan: report.makespan(),
        });
    }
    rows
}

/// Renders multi-send rows.
pub fn multi_send_table(rows: &[MultiSendRow]) -> Table {
    let mut t = Table::new(vec!["send slots per PE", "makespan"]);
    for r in rows {
        t.row(vec![r.sends.to_string(), r.makespan.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_beats_unicast_series() {
        let rows = multicast_experiment(16, 2, 32);
        assert!(rows.len() >= 3);
        for r in &rows {
            assert!(
                r.multicast < r.unicast_series,
                "group {}: multicast {} vs series {}",
                r.group,
                r.multicast,
                r.unicast_series
            );
        }
        // The advantage grows with the group size.
        let first = &rows[0];
        let last = rows.last().unwrap();
        let gain_first = first.unicast_series as f64 / first.multicast as f64;
        let gain_last = last.unicast_series as f64 / last.multicast as f64;
        assert!(gain_last > gain_first);
        assert_eq!(multicast_table(&rows).len(), rows.len());
    }

    #[test]
    fn layout_wires_hurt_cube_and_tree_but_not_rmb() {
        let rows = wire_delay_experiment(16, 4, 8, 31);
        let get = |name: &str| rows.iter().find(|r| r.network == name).unwrap();
        assert_eq!(get("rmb").slowdown(), 1.0);
        assert_eq!(get("mesh").slowdown(), 1.0);
        assert!(get("hypercube").slowdown() > 1.1);
        assert!(get("fat-tree").slowdown() > 1.1);
        assert_eq!(wire_delay_table(&rows).len(), 4);
    }

    #[test]
    fn grid_composition_scales_past_one_ring() {
        let rows = grid_experiment(5, 2, 8);
        assert_eq!(rows.len(), 2, "25 nodes: no cube row");
        assert_eq!(rows[0].segments, rows[1].segments, "equal wiring budget");
        assert!(rows[0].makespan > 0, "ring incomplete");
        assert!(rows[1].makespan > 0, "grid incomplete");
        assert!(
            rows[1].makespan < rows[0].makespan,
            "grid {} vs ring {}",
            rows[1].makespan,
            rows[0].makespan
        );
        assert_eq!(grid_table(&rows).len(), 2);
    }

    #[test]
    fn cube_sizes_add_a_lattice_row() {
        // 64 = 8^2 = 4^3: ring, grid and 3-D lattice all present.
        let rows = grid_experiment(8, 2, 4);
        assert_eq!(rows.len(), 3);
        let lat = rows.iter().find(|r| r.network.contains("4x4x4")).unwrap();
        assert!(lat.makespan > 0, "lattice incomplete");
        // Diameter 3 * (4/2) = 6 vs the grid's 8: the lattice is at least
        // competitive on far traffic.
        let grid = rows.iter().find(|r| r.network.contains("8x8")).unwrap();
        assert!(lat.makespan <= 2 * grid.makespan);
    }

    #[test]
    fn more_receive_slots_relieve_a_hot_spot() {
        let rows = hotspot_experiment(16, 4, 0.004, 0.6, 41);
        assert_eq!(rows.len(), 3);
        // Everything eventually delivers in every configuration.
        let total = rows[0].delivered;
        assert!(rows.iter().all(|r| r.delivered == total));
        // More receive slots -> fewer refusals and lower hot latency.
        assert!(rows[2].refusals <= rows[0].refusals, "{rows:?}");
        assert!(
            rows[2].hot_latency <= rows[0].hot_latency * 1.05,
            "{rows:?}"
        );
        assert_eq!(hotspot_table(&rows).len(), 3);
    }

    #[test]
    fn more_send_slots_speed_up_a_hot_source() {
        let rows = multi_send_experiment(12, 4, 16);
        assert_eq!(rows.len(), 3);
        assert!(rows[1].makespan < rows[0].makespan, "{rows:?}");
        assert!(rows[2].makespan <= rows[1].makespan, "{rows:?}");
        assert_eq!(multi_send_table(&rows).len(), 3);
    }
}
