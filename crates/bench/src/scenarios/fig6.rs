//! Figure 6: model dissemination and gradient aggregation times for an
//! exponentially increasing number of edge nodes, plus the fanout sweep
//! (Fig. 6c) and the §7.3 O(log N) hop-count claim.
//!
//! The paper's claim: as tree size grows *exponentially* (20 → 5120), the
//! dissemination and aggregation times grow only *linearly*, because both
//! are bounded by tree depth = O(log N).

use crate::report::{csv_block, f2, f3, markdown_table};
use crate::scenario::{Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{broadcast_from_root, build_tree, echo_overlay, eua_topology, root_of, topic};
use totoro_dht::{implicit_route_hops, random_ids, Id};
use totoro_simnet::{sub_rng, SimDuration, SimTime, TraceRecord};

/// Figure 6 scenario (`fig6`).
pub struct Fig6;

impl Scenario for Fig6 {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "Fig. 6a-c: dissemination/aggregation time vs N, fanout; O(log N) hops"
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 5_120, // Maximum tree size of the exponential sweep.
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["model-kb"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let model_bytes = params.num::<u64>("model-kb")?.unwrap_or(96) * 1024;
        let mut trials = Vec::new();
        let mut n = 20;
        while n <= params.nodes {
            trials.push(
                Trial::new("scale", params.seed)
                    .with("n", n as u64)
                    .with("fanout", 16)
                    .with("model_bytes", model_bytes),
            );
            n *= 2;
        }
        let n_fixed = (params.nodes / 2).max(640) as u64;
        for fanout in [8u64, 16, 32] {
            trials.push(
                Trial::new("fanout", params.seed + 7)
                    .with("n", n_fixed)
                    .with("fanout", fanout)
                    .with("model_bytes", model_bytes),
            );
        }
        for n in [1_000u64, 10_000, 100_000, 1_000_000] {
            trials.push(Trial::new("hops", params.seed).with("n", n));
        }
        Ok(trials)
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        _sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let report = match trial.setup.as_str() {
            "scale" | "fanout" => run_measure(trial),
            "hops" => run_hops(trial),
            other => panic!("fig6 has no setup {other:?}"),
        };
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let mut out = format!(
            "# Figure 6: dissemination & aggregation scaling (seed={})\n",
            params.seed
        );

        // 6a + 6b: N sweep at fanout 16.
        let scale: Vec<&TrialReport> = reports.iter().filter(|r| r.setup == "scale").collect();
        let mut rows = Vec::new();
        for r in &scale {
            let n = r.metric("requested_n") as usize;
            let (diss_ms, agg_ms) = (r.metric("diss_ms"), r.metric("agg_ms"));
            let depth = r.metric("depth") as u16;
            rows.push(vec![
                n.to_string(),
                f2(diss_ms),
                f2(agg_ms),
                depth.to_string(),
            ]);
            out.push_str(&format!(
                "  n={n}: dissemination {diss_ms:.1} ms, aggregation {agg_ms:.1} ms, depth {depth}\n"
            ));
        }
        out.push_str(&markdown_table(
            "Fig 6a/6b: time vs #nodes (fanout 16)",
            &[
                "nodes",
                "dissemination (ms)",
                "aggregation (ms)",
                "tree depth",
            ],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig6ab",
            &["nodes", "diss_ms", "agg_ms", "depth"],
            &rows,
        ));

        // Linearity check: time at max N vs time at min N should scale like
        // depth (log), not like N.
        let first = scale.first().expect("scale sweep is non-empty");
        let last = scale.last().expect("scale sweep is non-empty");
        out.push_str(&format!(
            "\npaper check: x{} nodes -> only x{:.1} dissemination time (log-bounded)\n",
            last.metric("requested_n") as usize / first.metric("requested_n") as usize,
            last.metric("diss_ms") / first.metric("diss_ms").max(1e-9),
        ));

        // 6c: fanout sweep at a fixed size.
        let fanout: Vec<&TrialReport> = reports.iter().filter(|r| r.setup == "fanout").collect();
        let n_fixed = fanout
            .first()
            .map(|r| r.metric("requested_n") as usize)
            .unwrap_or(0);
        let rows: Vec<Vec<String>> = fanout
            .iter()
            .map(|r| {
                vec![
                    (r.metric("fanout") as usize).to_string(),
                    f2(r.metric("diss_ms")),
                    f2(r.metric("agg_ms")),
                    (r.metric("depth") as u16).to_string(),
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &format!("Fig 6c: dissemination time vs tree fanout ({n_fixed} nodes)"),
            &["fanout", "dissemination (ms)", "aggregation (ms)", "depth"],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig6c",
            &["fanout", "diss_ms", "agg_ms", "depth"],
            &rows,
        ));

        // §7.3: O(log N) routing hops up to millions of nodes.
        let mut rows = Vec::new();
        for r in reports.iter().filter(|r| r.setup == "hops") {
            let n = r.metric("n") as usize;
            let mean = r.metric("mean_hops");
            let max = r.metric("max_hops") as u32;
            let bound = (n as f64).log(16.0).ceil();
            rows.push(vec![n.to_string(), f3(mean), max.to_string(), f2(bound)]);
            out.push_str(&format!(
                "  n={n}: mean hops {mean:.2}, max {max}, ceil(log16 N)={bound}\n"
            ));
        }
        out.push_str(&markdown_table(
            "§7.3: routing hops vs N (b=4, implicit perfect overlay)",
            &["nodes", "mean hops", "max hops", "ceil(log_16 N)"],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig6_hops",
            &["nodes", "mean_hops", "max_hops", "log16"],
            &rows,
        ));
        out
    }
}

/// Builds one n-node tree, broadcasts one model, waits for the aggregation
/// wave, and records dissemination/aggregation makespans plus max depth.
fn run_measure(trial: &Trial) -> TrialReport {
    let seed = trial.seed;
    let requested_n = trial.get_usize("n");
    let fanout = trial.get_usize("fanout");
    let model_bytes = trial.get_usize("model_bytes");
    let topology = eua_topology(requested_n, seed);
    let n = topology.len();
    let mut sim = echo_overlay(topology, seed, fanout);
    let t = topic("fig6", seed ^ n as u64 ^ fanout as u64);
    let members: Vec<usize> = (0..n).collect();
    build_tree(&mut sim, t, &members, SimTime::from_secs(60));

    // Reset logs; broadcast once.
    let start = sim.now();
    broadcast_from_root(&mut sim, t, 1, model_bytes);
    sim.run_until(start + SimDuration::from_secs(600));

    // Dissemination makespan: last broadcast receipt among subscribers.
    let mut last_receipt = start;
    let mut max_depth = 0;
    for i in 0..n {
        let forest = &sim.app(i).upper;
        for ev in &forest.state.broadcast_log {
            if ev.topic == t && ev.round == 1 {
                last_receipt = last_receipt.max(ev.at);
                max_depth = max_depth.max(ev.depth);
            }
        }
    }
    // Aggregation completion at the root.
    let root = root_of(&sim, t).expect("root exists");
    let agg_at = sim
        .app(root)
        .upper
        .state
        .agg_log
        .iter()
        .find(|e| e.topic == t && e.round == 1)
        .map(|e| e.at)
        .expect("aggregation completed");

    let diss_ms = last_receipt.saturating_since(start).as_secs_f64() * 1_000.0;
    let agg_ms = agg_at.saturating_since(last_receipt).as_secs_f64() * 1_000.0;

    let mut report = TrialReport::for_trial(trial);
    report.sim = totoro_simnet::TrialReport::capture(&sim);
    report.push_metric("requested_n", requested_n as f64);
    report.push_metric("n", n as f64);
    report.push_metric("fanout", fanout as f64);
    report.push_metric("diss_ms", diss_ms);
    report.push_metric("agg_ms", agg_ms);
    report.push_metric("depth", f64::from(max_depth));
    report
}

/// Mean routing hops over an implicit perfect overlay at one size.
///
/// Each size gets its own RNG stream (labelled by `n`), so hop trials are
/// independent of sweep order and can run on any worker.
fn run_hops(trial: &Trial) -> TrialReport {
    let n = trial.get_usize("n");
    let mut rng = sub_rng(trial.seed, &format!("hops-{n}"));
    let ids = random_ids(n, &mut rng);
    let trials = 200;
    let mut total = 0u64;
    let mut max = 0u32;
    for t in 0..trials {
        let key = Id::new(rand::Rng::gen::<u128>(&mut rng));
        let hops = implicit_route_hops(&ids, (t * 131) % n, key, 4);
        total += u64::from(hops);
        max = max.max(hops);
    }
    let mean = total as f64 / f64::from(trials as u32);

    let mut report = TrialReport::for_trial(trial);
    report.push_metric("n", n as f64);
    report.push_metric("mean_hops", mean);
    report.push_metric("max_hops", f64::from(max));
    report
}
