//! Figure 5: Totoro's scalability and load balance.
//!
//! * **5a** — edge zones formed from an EUA-shaped topology by distributed
//!   binning (reports zone sizes/diameters instead of a map).
//! * **5b** — masters-per-node distribution when 500 dataflow trees run on
//!   a 1000-node zone (the paper reports "99.5% of the nodes are the roots
//!   of 3 trees or less").
//! * **5c** — masters per zone under workloads proportional to zone size.
//! * **5d** — branch (per-level) distribution of 17 trees with fanout 8,
//!   showing balanced roots/forwarders/leaves.

use crate::report::{csv_block, f2, markdown_table, stats};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{build_tree, echo_overlay_sink, eua_topology, root_of, topic};
use totoro::{masters_per_node, quantile, role_census};
use totoro_simnet::{
    assign_zones, sub_rng, BinningConfig, NoopSink, SimTime, TraceRecord, TraceSink,
};

/// Figure 5 scenario (`fig5`).
pub struct Fig5;

impl Scenario for Fig5 {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn description(&self) -> &'static str {
        "Fig. 5a-d: zones, master distribution, branch balance"
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 1_000,
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["trees"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let trees = params.num("trees")?.unwrap_or(500);
        Ok(vec![
            Trial::new("zones", params.seed),
            Trial::new("masters", params.seed)
                .with("n", params.nodes as u64)
                .with("trees", trees),
            Trial::new("masters_per_zone", params.seed),
            Trial::new("branches", params.seed),
        ])
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        if let Some(rec) = sink.recording() {
            // "zones" runs no simulator — nothing to trace; fall through.
            match trial.setup.as_str() {
                "masters" => return run_masters(trial, rec),
                "masters_per_zone" => return run_masters_per_zone(trial, rec),
                "branches" => return run_branches(trial, rec),
                _ => {}
            }
        }
        match trial.setup.as_str() {
            "zones" => (run_zones(trial), None),
            "masters" => run_masters(trial, NoopSink),
            "masters_per_zone" => run_masters_per_zone(trial, NoopSink),
            "branches" => run_branches(trial, NoopSink),
            other => panic!("fig5 has no setup {other:?}"),
        }
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let trees: usize = checked(params.num("trees")).unwrap_or(500);
        let mut out = format!(
            "# Figure 5: scalability & load balance (n={}, trees={}, seed={})\n",
            params.nodes, trees, params.seed
        );
        let [zones, masters, per_zone, branches] = reports else {
            panic!("fig5 expects 4 reports, got {}", reports.len());
        };

        // 5a: zone table straight from the trial's rows.
        out.push_str(&markdown_table(
            "Fig 5a: edge zones from distributed binning (EUA-shaped topology)",
            &["zone", "nodes", "diameter (ms RTT)"],
            &zones.rows,
        ));
        out.push_str(&csv_block(
            "fig5a",
            &["zone", "nodes", "diameter_ms"],
            &zones.rows,
        ));

        // 5b: summary table rebuilt from metrics; histogram from rows.
        let n = masters.metric("n") as usize;
        let frac3 = masters.metric("frac_le3_pct");
        let rows = vec![
            vec![
                "trees rooted".into(),
                format!("{}", masters.metric("trees_rooted") as u64),
            ],
            vec![
                "max masters on one node".into(),
                format!("{}", masters.metric("max_masters") as u64),
            ],
            vec![
                "p50 masters".into(),
                format!("{}", masters.metric("p50_masters") as u64),
            ],
            vec![
                "p99 masters".into(),
                format!("{}", masters.metric("p99_masters") as u64),
            ],
            vec!["frac nodes with <=3 masters".into(), f2(frac3) + "%"],
        ];
        out.push_str(&markdown_table(
            &format!("Fig 5b: master distribution ({trees} trees on {n} nodes)"),
            &["metric", "value"],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig5b_hist",
            &["masters_per_node", "num_nodes"],
            &masters.rows,
        ));
        out.push_str(&format!(
            "\npaper check: 99.5% of nodes are roots of 3 trees or less -> measured {frac3:.1}%\n"
        ));

        // 5c: per-zone workload/masters table.
        out.push_str(&markdown_table(
            "Fig 5c: masters scale with zone workload",
            &["zone", "nodes", "apps submitted", "masters hosted"],
            &per_zone.rows,
        ));
        out.push_str(&csv_block(
            "fig5c",
            &["zone", "nodes", "apps", "masters"],
            &per_zone.rows,
        ));

        // 5d: per-tree level census plus the forwarder-load check.
        out.push_str(&markdown_table(
            "Fig 5d: per-level node counts of 17 fanout-8 trees",
            &["tree", "depth", "nodes per level (root..leaves)"],
            &branches.rows,
        ));
        out.push_str(&csv_block(
            "fig5d",
            &["tree", "depth", "levels"],
            &branches.rows,
        ));
        out.push_str(&format!(
            "\nforwarder load: mean {:.2}, sd {:.2}, max {:.0} across {} nodes\n",
            branches.metric("fwd_mean"),
            branches.metric("fwd_sd"),
            branches.metric("fwd_max"),
            branches.metric("n") as usize,
        ));
        out
    }
}

/// 5a: distributed binning of the EUA topology into edge zones.
fn run_zones(trial: &Trial) -> TrialReport {
    let seed = trial.seed;
    let topology = eua_topology(4_000, seed);
    let mut rng = sub_rng(seed, "binning");
    let config = BinningConfig {
        num_landmarks: 5,
        level_boundaries_us: vec![4_000, 12_000, 30_000],
        max_zones: 12,
    };
    let zones = assign_zones(&topology, &config, &mut rng);
    let diam = totoro_simnet::binning::zone_diameters_us(&topology, &zones, 128, &mut rng);
    let sizes = zones.zone_sizes();
    let summary = zones.summary();
    let mut report = TrialReport::for_trial(trial);
    for z in 0..zones.num_zones {
        report.push_row(vec![
            z.to_string(),
            sizes[z].to_string(),
            f2(diam[z] as f64 / 1_000.0),
        ]);
    }
    report.push_metric("num_zones", summary.num_zones as f64);
    report.push_metric("largest_zone", summary.largest as f64);
    report
}

/// 5b: masters-per-node distribution for many trees on one zone.
fn run_masters<S: TraceSink>(trial: &Trial, sink: S) -> (TrialReport, Option<Vec<TraceRecord>>) {
    let seed = trial.seed;
    let trees = trial.get("trees");
    let topology = eua_topology(trial.get_usize("n"), seed + 1);
    let n = topology.len(); // Region rounding can add a few nodes.
    let mut sim = echo_overlay_sink(topology, seed + 1, 16, sink);
    let members: Vec<usize> = (0..n).collect();
    // Each tree gets a random subset of subscribers (64 each) — creating a
    // tree only requires joins, so this scales to 500 trees comfortably.
    let mut rng = sub_rng(seed, "tree-members");
    let mut topics = Vec::new();
    for k in 0..trees {
        let t = topic("fig5b", k);
        let subset: Vec<usize> =
            rand::seq::SliceRandom::choose_multiple(&members[..], &mut rng, 64)
                .copied()
                .collect();
        build_tree(&mut sim, t, &subset, SimTime::ZERO);
        topics.push(t);
    }
    sim.run_until(SimTime::from_secs(120));

    let masters = masters_per_node(&sim, &topics);
    let total: usize = masters.iter().sum();
    let at_most = |k: usize| masters.iter().filter(|&&m| m <= k).count() as f64 / n as f64;
    assert_eq!(
        total, trees as usize,
        "every tree must have exactly one root"
    );

    let mut report = TrialReport::for_trial(trial);
    report.sim = totoro_simnet::TrialReport::capture(&sim);
    report.push_metric("n", n as f64);
    report.push_metric("trees_rooted", total as f64);
    report.push_metric("max_masters", *masters.iter().max().unwrap() as f64);
    report.push_metric("p50_masters", quantile(&masters, 0.5) as f64);
    report.push_metric("p99_masters", quantile(&masters, 0.99) as f64);
    report.push_metric("frac_le3_pct", at_most(3) * 100.0);
    // Histogram for the normal-probability plot.
    let max = *masters.iter().max().unwrap();
    for k in 0..=max {
        report.push_row(vec![
            k.to_string(),
            masters.iter().filter(|&&m| m == k).count().to_string(),
        ]);
    }
    let records = sim.sink_mut().drain_records();
    (report, records)
}

/// 5c: masters per zone with workload proportional to zone density.
fn run_masters_per_zone<S: TraceSink>(
    trial: &Trial,
    sink: S,
) -> (TrialReport, Option<Vec<TraceRecord>>) {
    let seed = trial.seed;
    let topology = eua_topology(1_200, seed + 2);
    let mut rng = sub_rng(seed + 2, "binning");
    let zones = assign_zones(
        &topology,
        &BinningConfig {
            num_landmarks: 4,
            level_boundaries_us: vec![4_000, 12_000, 30_000],
            max_zones: 6,
        },
        &mut rng,
    );
    let mut sim = echo_overlay_sink(topology, seed + 2, 16, sink);

    // Dense zones submit proportionally more applications.
    let sizes = zones.zone_sizes();
    let mut topics_by_zone: Vec<Vec<totoro_dht::Id>> = vec![Vec::new(); zones.num_zones];
    let mut all_topics = Vec::new();
    let mut rng = sub_rng(seed + 2, "apps");
    for (z, &size) in sizes.iter().enumerate() {
        let apps = (size / 40).max(1);
        let members = zones.members(z as u16);
        for k in 0..apps {
            let t = topic(&format!("fig5c-z{z}"), k as u64);
            let subset: Vec<usize> = rand::seq::SliceRandom::choose_multiple(
                &members[..],
                &mut rng,
                members.len().min(32),
            )
            .copied()
            .collect();
            build_tree(&mut sim, t, &subset, SimTime::ZERO);
            topics_by_zone[z].push(t);
            all_topics.push(t);
        }
    }
    sim.run_until(SimTime::from_secs(120));

    let mut report = TrialReport::for_trial(trial);
    report.sim = totoro_simnet::TrialReport::capture(&sim);
    for z in 0..zones.num_zones {
        // Count masters that landed on nodes of each zone.
        let masters_here: usize = all_topics
            .iter()
            .filter_map(|&t| root_of(&sim, t))
            .filter(|&root| zones.zone_of[root] == z as u16)
            .count();
        report.push_row(vec![
            z.to_string(),
            sizes[z].to_string(),
            topics_by_zone[z].len().to_string(),
            masters_here.to_string(),
        ]);
    }
    let records = sim.sink_mut().drain_records();
    (report, records)
}

/// 5d: branch distribution of 17 fanout-8 trees.
fn run_branches<S: TraceSink>(trial: &Trial, sink: S) -> (TrialReport, Option<Vec<TraceRecord>>) {
    let seed = trial.seed;
    let topology = eua_topology(1_946, seed + 3); // The paper's node count.
    let n = topology.len();
    let mut sim = echo_overlay_sink(topology, seed + 3, 8, sink);
    let mut rng = sub_rng(seed + 3, "members");
    let members: Vec<usize> = (0..n).collect();
    let mut topics = Vec::new();
    for k in 0..17 {
        let t = topic("fig5d", k);
        // Random membership sizes spread tree depths across levels 1-6.
        let size = [60, 120, 250, 500, 900][k as usize % 5];
        let subset: Vec<usize> =
            rand::seq::SliceRandom::choose_multiple(&members[..], &mut rng, size)
                .copied()
                .collect();
        build_tree(&mut sim, t, &subset, SimTime::ZERO);
        topics.push(t);
    }
    sim.run_until(SimTime::from_secs(180));

    let mut report = TrialReport::for_trial(trial);
    report.sim = totoro_simnet::TrialReport::capture(&sim);
    for (k, &t) in topics.iter().enumerate() {
        let levels = totoro::level_census(&sim, t);
        report.push_row(vec![
            k.to_string(),
            levels.len().saturating_sub(1).to_string(),
            levels
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("/"),
        ]);
    }

    // Load-balance check over interior load: how concentrated are
    // forwarder duties?
    let roles = role_census(&sim, &topics);
    let agg_loads: Vec<f64> = roles.iter().map(|r| r.aggregator as f64).collect();
    let s = stats(&agg_loads);
    report.push_metric("n", n as f64);
    report.push_metric("fwd_mean", s.mean);
    report.push_metric("fwd_sd", s.sd);
    report.push_metric("fwd_max", s.max);
    let records = sim.sink_mut().drain_records();
    (report, records)
}
