//! Figure 13: CPU and memory overhead of Totoro vs an OpenFL-like
//! centralized engine, training a feed-forward text-classification model
//! with a single 10-node dataflow tree (§7.6).
//!
//! * **13a (CPU)** — simulated CPU time split into FL-related tasks
//!   (training, aggregation, serialization, evaluation) and DHT-related
//!   tasks (overlay maintenance, routing, tree upkeep). The paper's
//!   finding: Totoro uses less FL CPU than OpenFL and its DHT housekeeping
//!   is negligible.
//! * **13b (memory)** — bytes of engine state (routing tables, leaf sets,
//!   trees, models, shards) per node over time; Totoro stays flat after
//!   overlay construction.

use totoro::TotoroDeployment;
use totoro_baselines::{CentralizedEngine, ServerProfile};
use totoro_dht::DhtConfig;
use totoro_ml::{text_classification_like, TaskGenerator};
use totoro_pubsub::ForestConfig;
use totoro_simnet::{sub_rng, Application, SimDuration, SimTime, Topology, TraceRecord};

use crate::report::{csv_block, f2, markdown_table};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{fl_app_config, to_central_spec};

/// Figure 13 scenario (`fig13`).
pub struct Fig13;

impl Scenario for Fig13 {
    fn name(&self) -> &'static str {
        "fig13"
    }

    fn description(&self) -> &'static str {
        "Fig. 13a-b: CPU and memory overhead vs OpenFL"
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 10,
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["samples", "rounds"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let samples = params.num("samples")?.unwrap_or(40);
        let rounds = params.num("rounds")?.unwrap_or(8);
        Ok(["totoro", "openfl"]
            .iter()
            .map(|engine| {
                Trial::new(engine, params.seed)
                    .with("n", params.nodes as u64)
                    .with("samples", samples)
                    .with("rounds", rounds)
            })
            .collect())
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        _sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let n = trial.get_usize("n");
        let samples = trial.get_usize("samples");
        let rounds = trial.get("rounds");
        let seed = trial.seed;
        let step = SimDuration::from_secs(5);

        let mut gen_rng = sub_rng(seed, "task");
        let generator = TaskGenerator::new(text_classification_like(), &mut gen_rng);
        let mut report = TrialReport::for_trial(trial);

        if trial.setup == "totoro" {
            let topology = Topology::uniform(n, 1_000, 5_000);
            let mut deploy = TotoroDeployment::new(
                topology,
                seed,
                DhtConfig::with_fanout(8),
                ForestConfig {
                    fanout_cap: 8,
                    ..ForestConfig::default()
                },
            );
            {
                let mut rng = sub_rng(seed, "shards");
                let shards = generator.client_shards(n, samples, 0.5, &mut rng);
                let mut cfg = fl_app_config("text-app", 0, &generator, 32, 1_000);
                cfg.target_accuracy = 2.0; // Run exactly `rounds` rounds.
                cfg.max_rounds = rounds;
                let participants: Vec<usize> = (0..n).collect();
                deploy.submit_app(cfg, &participants, shards);
            }
            let mut mem_series = Vec::new();
            let mut t = SimTime::ZERO + step;
            while !deploy.app_done(0) && t < SimTime::from_secs(3_600) {
                deploy.run(t);
                let mem: usize = (0..n).map(|i| deploy.sim().app(i).memory_bytes()).sum();
                mem_series.push((t.as_secs_f64(), mem as f64 / n as f64 / 1024.0));
                t += step;
            }
            report.sim = totoro_simnet::TrialReport::capture(deploy.sim());
            report.push_metric("fl_s", report.sim.fl_us as f64 / 1e6);
            report.push_metric("dht_s", report.sim.dht_us as f64 / 1e6);
            report.push_series("mem_kib", mem_series);
        } else {
            let topology = Topology::uniform(n + 1, 1_000, 5_000);
            let mut engine = CentralizedEngine::new(topology, ServerProfile::openfl_like(), seed);
            let participants: Vec<usize> = (1..=n).collect();
            let mut rng = sub_rng(seed, "shards");
            let shards = generator.client_shards(n, samples, 0.5, &mut rng);
            let mut cfg = fl_app_config("text-app", 0, &generator, 32, 1_000);
            cfg.target_accuracy = 2.0; // Run exactly `rounds` rounds.
            cfg.max_rounds = rounds;
            engine.submit_app(to_central_spec(&cfg), &participants, shards);
            let mut mem_series = Vec::new();
            let mut t = SimTime::ZERO + step;
            while !engine.server().is_done(0) && t < SimTime::from_secs(3_600) {
                engine.run(t);
                let mem: usize = (0..=n).map(|i| engine.sim().app(i).memory_bytes()).sum();
                mem_series.push((t.as_secs_f64(), mem as f64 / (n + 1) as f64 / 1024.0));
                t += step;
            }
            report.sim = totoro_simnet::TrialReport::capture(engine.sim());
            report.push_metric("fl_s", report.sim.fl_us as f64 / 1e6);
            report.push_metric("dht_s", report.sim.dht_us as f64 / 1e6);
            report.push_series("mem_kib", mem_series);
        }
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let rounds: usize = checked(params.num("rounds")).unwrap_or(8);
        let mut out = format!(
            "# Figure 13: overhead of Totoro vs OpenFL (text model, {}-node tree)\n",
            params.nodes
        );
        let [totoro, openfl] = reports else {
            panic!("fig13 expects 2 reports, got {}", reports.len());
        };

        // 13a: CPU.
        let (tot_fl, tot_dht) = (totoro.metric("fl_s"), totoro.metric("dht_s"));
        let (ofl_fl, ofl_dht) = (openfl.metric("fl_s"), openfl.metric("dht_s"));
        let rows = vec![
            vec![
                "totoro".into(),
                f2(tot_fl),
                f2(tot_dht),
                f2(tot_fl + tot_dht),
            ],
            vec![
                "openfl".into(),
                f2(ofl_fl),
                f2(ofl_dht),
                f2(ofl_fl + ofl_dht),
            ],
        ];
        out.push_str(&markdown_table(
            &format!("Fig 13a: total simulated CPU seconds over {rounds} rounds"),
            &["engine", "FL tasks (s)", "DHT tasks (s)", "total (s)"],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig13a",
            &["engine", "fl_s", "dht_s", "total_s"],
            &rows,
        ));
        out.push_str(&format!(
            "\npaper check: Totoro adds only negligible DHT CPU -> DHT share {:.1}% of Totoro total\n",
            100.0 * tot_dht / (tot_fl + tot_dht).max(1e-6)
        ));
        out.push_str(&format!(
            "paper check: Totoro uses less FL CPU than OpenFL -> totoro {tot_fl:.1}s vs openfl {ofl_fl:.1}s\n"
        ));

        // 13b: memory.
        let totoro_mem = totoro.series("mem_kib");
        let openfl_mem = openfl.series("mem_kib");
        let tail = *openfl_mem.last().unwrap_or(&(0.0, 0.0));
        let rows: Vec<Vec<String>> = totoro_mem
            .iter()
            .zip(openfl_mem.iter().chain(std::iter::repeat(&tail)))
            .map(|(&(t, tm), &(_, om))| vec![format!("{t:.0}"), f2(tm), f2(om)])
            .collect();
        out.push_str(&markdown_table(
            "Fig 13b: mean engine state per node (KiB) over time",
            &["time (s)", "totoro KiB/node", "openfl KiB/node"],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig13b",
            &["time_s", "totoro_kib", "openfl_kib"],
            &rows,
        ));

        if let (Some(first), Some(last)) = (totoro_mem.first(), totoro_mem.last()) {
            out.push_str(&format!(
                "\npaper check: after DHT construction no further memory growth -> totoro {:.1} KiB -> {:.1} KiB\n",
                first.1, last.1
            ));
        }
        out
    }
}
