//! Ablation: what does in-network aggregation buy?
//!
//! DESIGN.md calls out the forest's in-network combining as a core design
//! choice (§4.3: interior nodes progressively aggregate, so the master
//! receives O(fanout) messages instead of O(N)). This ablation sweeps the
//! tree fanout cap (4 / 8 / uncapped JOIN-path tree) and contrasts the
//! measured master-side load with the analytic star reference (a
//! centralized server receiving every worker's update directly — the §3
//! SplitStream discussion's failure mode). Deeper trees trade a longer
//! aggregation makespan for an O(N/fanout)-fold cut in master load.

use crate::report::{csv_block, f2, markdown_table};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{
    broadcast_from_root, build_tree, echo_overlay_with, eua_topology, root_of, topic,
};
use totoro_simnet::{SimDuration, SimTime, TraceRecord};

const SIZES: [usize; 3] = [64, 256, 1024];
const SHAPES: [(&str, usize); 3] = [("tree-f4", 4), ("tree-f8", 8), ("uncapped", 0)];

/// In-network aggregation ablation scenario (`ablation`).
pub struct Ablation;

impl Scenario for Ablation {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn description(&self) -> &'static str {
        "Ablation: in-network aggregation (tree) vs none (star)"
    }

    fn default_params(&self) -> Params {
        Params {
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["update-kb"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let update_bytes = params.num::<u64>("update-kb")?.unwrap_or(64) * 1024;
        let mut trials = Vec::new();
        for &n in &SIZES {
            for (_, fanout) in SHAPES {
                trials.push(
                    Trial::new("wave", params.seed)
                        .with("n", n as u64)
                        .with("fanout", fanout as u64)
                        .with("update_bytes", update_bytes),
                );
            }
        }
        Ok(trials)
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        _sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let n = trial.get_usize("n");
        let fanout = trial.get_usize("fanout");
        let update_bytes = trial.get_usize("update_bytes");
        let seed = trial.seed;

        let topology = eua_topology(n, seed);
        let n = topology.len();
        // DHT base stays 16; only the tree fanout cap varies.
        let fconfig = totoro_pubsub::ForestConfig {
            fanout_cap: fanout, // 0 = uncapped JOIN-path tree.
            agg_timeout: SimDuration::from_secs(120),
            ..totoro_pubsub::ForestConfig::default()
        };
        let mut sim = echo_overlay_with(topology, seed, 16, fconfig);

        let t = topic("ablation", n as u64 ^ fanout as u64);
        build_tree(
            &mut sim,
            t,
            &(0..n).collect::<Vec<_>>(),
            SimTime::from_secs(60),
        );
        let root = root_of(&sim, t).expect("root exists");

        // Measure only the wave: step in 50 ms slices until the aggregation
        // completes at the root, so maintenance chatter stays negligible.
        sim.traffic_mut().reset();
        let start = sim.now();
        broadcast_from_root(&mut sim, t, 1, update_bytes);
        let deadline = start + SimDuration::from_secs(600);
        let agg_at = loop {
            let done = sim
                .app(root)
                .upper
                .state
                .agg_log
                .iter()
                .find(|e| e.topic == t && e.round == 1)
                .map(|e| e.at);
            if let Some(at) = done {
                break at;
            }
            assert!(sim.now() < deadline, "aggregation never completed");
            sim.run_until(sim.now() + SimDuration::from_millis(50));
        };
        let traffic = sim.traffic().node(root);

        let mut report = TrialReport::for_trial(trial);
        report.sim = totoro_simnet::TrialReport::capture(&sim);
        report.push_metric("root_msgs", traffic.msgs_recv as f64);
        report.push_metric("root_bytes", traffic.payload_recv as f64);
        report.push_metric(
            "makespan_ms",
            agg_at.saturating_since(start).as_secs_f64() * 1_000.0,
        );
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let update_kb: usize = checked(params.num("update-kb")).unwrap_or(64);
        let mut out = String::from("# Ablation: in-network aggregation (tree) vs none (star)\n");
        let mut rows = Vec::new();
        let mut next = reports.iter();
        for &n in &SIZES {
            for (label, _) in SHAPES {
                let r = next.next().expect("ablation report count matches trials");
                let root_msgs = r.metric("root_msgs") as u64;
                let root_bytes = r.metric("root_bytes");
                let makespan_ms = r.metric("makespan_ms");
                rows.push(vec![
                    n.to_string(),
                    label.to_string(),
                    root_msgs.to_string(),
                    f2(root_bytes / 1024.0),
                    f2(makespan_ms),
                ]);
                out.push_str(&format!(
                    "  n={n} {label}: master received {root_msgs} msgs / {:.0} KiB, round makespan {makespan_ms:.0} ms\n",
                    root_bytes / 1024.0
                ));
            }
            // Analytic star reference: a central server ingests one update
            // per worker with no in-network help.
            let star_msgs = n as u64 - 1;
            let star_kib = (n - 1) as f64 * (update_kb as f64);
            rows.push(vec![
                n.to_string(),
                "star (analytic)".into(),
                star_msgs.to_string(),
                f2(star_kib),
                "-".into(),
            ]);
            out.push_str(&format!(
                "  n={n} star (analytic): master would receive {star_msgs} msgs / {star_kib:.0} KiB\n"
            ));
        }
        out.push_str(&markdown_table(
            "Master-side load per aggregation round",
            &[
                "nodes",
                "shape",
                "msgs at master",
                "KiB at master",
                "round makespan (ms)",
            ],
            &rows,
        ));
        out.push_str(&csv_block(
            "ablation_aggregation",
            &["nodes", "shape", "msgs", "kib", "makespan_ms"],
            &rows,
        ));
        out
    }
}
