//! Figures 8 and 9: time-to-accuracy curves of Totoro, OpenFL-like, and
//! FedScale-like engines when 1/5/10/20 applications train concurrently.
//!
//! Figure 8 uses the mid-scale "speech" task (paper: Google Speech), Figure
//! 9 the large-scale "femnist" task (paper: FEMNIST). The paper's
//! observations to reproduce: (1) Totoro's curves barely move as the app
//! count grows (§7.4 reports 15.41 h -> 15.47 h from 1 to 20 models);
//! (2) the centralized engines' curves stretch out with the app count.

use totoro_baselines::{CentralizedEngine, ServerProfile};
use totoro_ml::{AccuracyPoint, TaskGenerator};
use totoro_simnet::{sub_rng, SimTime, TraceRecord};

use crate::report::{csv_block, f3};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::scenarios::table3::{apply_device_class, fl_sizes, samples_for, samples_per_client};
use crate::setups::{
    eua_topology_exact, fl_app_config, target_for, task_by_name, to_central_spec, totoro_with_apps,
};

const MAX_SIM: SimTime = SimTime::from_secs(48 * 3_600);

/// Time-to-accuracy scenario: `fig8` (speech) or `fig9` (femnist).
pub struct Tta {
    figure: u8,
    dataset: &'static str,
}

/// Figure 8 (`fig8`): speech-task time-to-accuracy.
pub const FIG8: Tta = Tta {
    figure: 8,
    dataset: "speech",
};

/// Figure 9 (`fig9`): femnist-task time-to-accuracy.
pub const FIG9: Tta = Tta {
    figure: 9,
    dataset: "femnist",
};

fn apps_list(params: &Params) -> Result<Vec<usize>, String> {
    fl_sizes(params, params.list("apps", "1,5,10,20")?)
}

impl Scenario for Tta {
    fn name(&self) -> &'static str {
        match self.figure {
            8 => "fig8",
            _ => "fig9",
        }
    }

    fn description(&self) -> &'static str {
        match self.figure {
            8 => "Fig. 8: time-to-accuracy curves (speech task)",
            _ => "Fig. 9: time-to-accuracy curves (femnist task)",
        }
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 48,
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["samples", "fanout", "apps"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let samples = samples_for(self.dataset, samples_per_client(params)?) as u64;
        let fanout = params.fanout("fanout", 32)? as u64;
        let mut trials = Vec::new();
        for num_apps in apps_list(params)? {
            for engine in ["totoro", "openfl", "fedscale"] {
                trials.push(
                    Trial::new(engine, params.seed)
                        .with("n", params.nodes as u64)
                        .with("samples", samples)
                        .with("apps", num_apps as u64)
                        .with("fanout", fanout),
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
        let samples = trial.get_usize("samples");
        let num_apps = trial.get_usize("apps");
        let seed = trial.seed;
        let mut report = TrialReport::for_trial(trial);

        let mut gen_rng = sub_rng(seed, "task");
        let generator = TaskGenerator::new(task_by_name(self.dataset), &mut gen_rng);

        if trial.setup == "totoro" {
            let fanout = trial.get_usize("fanout");
            let mut topology = eua_topology_exact(n, seed);
            apply_device_class(&mut topology, self.dataset);
            let mut deploy =
                totoro_with_apps(topology, seed, fanout, num_apps, &generator, samples, 60);
            deploy.run(MAX_SIM);
            let total = (0..num_apps)
                .filter_map(|a| deploy.curve(a).last().map(|p| p.time_secs))
                .fold(0.0, f64::max);
            report.push_metric("total_s", total);
            curve_rows(&mut report, &deploy.curve(0));
        } else {
            let profile = match trial.setup.as_str() {
                "openfl" => ServerProfile::openfl_like(),
                "fedscale" => ServerProfile::fedscale_like(),
                other => panic!("tta has no engine {other:?}"),
            };
            let mut topology = eua_topology_exact(n + 1, seed);
            apply_device_class(&mut topology, self.dataset);
            let mut engine = CentralizedEngine::new(topology, profile, seed);
            let participants: Vec<usize> = (1..=n).collect();
            let mut rng = sub_rng(seed, "shards");
            for a in 0..num_apps {
                let shards = generator.client_shards(n, samples, 0.5, &mut rng);
                let cfg = fl_app_config(
                    &format!("{}-app-{a}", generator.spec.name),
                    a as u64,
                    &generator,
                    48,
                    1_000 + a as u64,
                );
                engine.submit_app(to_central_spec(&cfg), &participants, shards);
            }
            engine.run(MAX_SIM);
            let total = (0..num_apps)
                .filter_map(|a| engine.server().curve(a).last().map(|p| p.time_secs))
                .fold(0.0, f64::max);
            report.push_metric("total_s", total);
            curve_rows(&mut report, engine.server().curve(0));
        }
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let figure = self.figure;
        let task = task_by_name(self.dataset);
        let mut out = format!(
            "# Figure {figure}: time-to-accuracy, dataset {} (target {:.1}%)\n",
            self.dataset,
            target_for(&task) * 100.0
        );
        let mut next = reports.iter();
        for num_apps in checked(apps_list(params)) {
            out.push_str(&format!("\n== {num_apps} concurrent applications ==\n"));
            for label in ["totoro", "openfl", "fedscale"] {
                let r = next.next().expect("tta report count matches trials");
                out.push_str(&format!(
                    "{label}: all apps finished by {:.0}s\n",
                    r.metric("total_s")
                ));
                out.push_str(&csv_block(
                    &format!("fig{figure}_{label}_{num_apps}apps"),
                    &["time_s", "round", "accuracy"],
                    &r.rows,
                ));
            }
        }
        out
    }
}

/// Stores a (time, round, accuracy) curve as pre-formatted CSV rows.
fn curve_rows(report: &mut TrialReport, curve: &[AccuracyPoint]) {
    for p in curve {
        report.push_row(vec![
            format!("{:.1}", p.time_secs),
            p.round.to_string(),
            f3(p.accuracy),
        ]);
    }
}
