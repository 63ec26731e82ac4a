//! Table 3: time-to-accuracy speedup of Totoro over OpenFL-like and
//! FedScale-like centralized engines, for {speech, femnist} × {5, 10, 20}
//! concurrent applications × tree fanouts {8, 16, 32}.
//!
//! All engines train the *same* synthetic tasks with the same MLPs, shards,
//! hyperparameters, and compute-time model; only the system architecture
//! differs. "Total training time" is the simulated time until every
//! submitted application reaches the dataset's target accuracy (speech
//! 53.0%, femnist 75.5%) or its round cap.

use totoro_baselines::{CentralizedEngine, ServerProfile};
use totoro_ml::TaskGenerator;
use totoro_simnet::{sub_rng, SimTime, Topology, TraceRecord};

use crate::report::{csv_block, markdown_table, speedup};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{
    eua_topology_exact, fl_app_config, target_for, task_by_name, to_central_spec, totoro_with_apps,
};

const MAX_SIM: SimTime = SimTime::from_secs(48 * 3_600);

/// Table 3 scenario (`table3`).
pub struct Table3;

/// The sweep: datasets, app counts and fanouts.
struct Sweep {
    samples: usize,
    datasets: Vec<String>,
    apps: Vec<usize>,
    fanouts: Vec<usize>,
}

fn sweep(params: &Params) -> Result<Sweep, String> {
    Ok(Sweep {
        samples: samples_per_client(params)?,
        datasets: params.list_of("datasets", "speech,femnist", &["speech", "femnist"])?,
        apps: fl_sizes(params, params.list("apps", "5,10,20")?)?,
        fanouts: params.fanouts("fanouts", "8,16,32")?,
    })
}

/// `apps` once the sizes an FL comparison needs are checked: the
/// centralized engines need a server and at least one client, and every
/// sweep point at least one application.
pub(crate) fn fl_sizes(params: &Params, apps: Vec<usize>) -> Result<Vec<usize>, String> {
    if params.nodes < 2 {
        return Err("--nodes must be at least 2 (a server and one client)".into());
    }
    if apps.contains(&0) {
        return Err(params.reject("apps", "--apps: every entry must be at least 1"));
    }
    Ok(apps)
}

/// `--samples` (30 when absent): a client with none would never train.
pub(crate) fn samples_per_client(params: &Params) -> Result<usize, String> {
    Ok(params
        .bounded("samples", "at least 1", |s: usize| s >= 1)?
        .unwrap_or(30))
}

/// Per-dataset shard size: the large-scale task trains on bigger shards
/// (longer rounds, as in the paper, where FEMNIST speedups are smaller than
/// Speech ones because per-round compute amortizes the server overhead).
pub(crate) fn samples_for(dataset: &str, samples: usize) -> usize {
    if dataset == "femnist" {
        samples * 3
    } else {
        samples
    }
}

impl Scenario for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn description(&self) -> &'static str {
        "Table 3: time-to-accuracy speedups vs OpenFL/FedScale"
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 48,
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["samples", "datasets", "apps", "fanouts"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let Sweep {
            samples,
            datasets,
            apps,
            fanouts,
        } = sweep(params)?;
        let mut trials = Vec::new();
        for dataset in datasets {
            let samples = samples_for(&dataset, samples) as u64;
            for &num_apps in &apps {
                // Baselines first (shared across fanouts), matching render.
                for engine in ["openfl", "fedscale"] {
                    trials.push(
                        Trial::new(&format!("{engine}:{dataset}"), params.seed)
                            .with("n", params.nodes as u64)
                            .with("samples", samples)
                            .with("apps", num_apps as u64),
                    );
                }
                for &fanout in &fanouts {
                    trials.push(
                        Trial::new(&format!("totoro:{dataset}"), params.seed)
                            .with("n", params.nodes as u64)
                            .with("samples", samples)
                            .with("apps", num_apps as u64)
                            .with("fanout", fanout as u64),
                    );
                }
            }
        }
        Ok(trials)
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        _sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let (engine, dataset) = trial
            .setup
            .split_once(':')
            .expect("table3 setup is engine:dataset");
        let n = trial.get_usize("n");
        let samples = trial.get_usize("samples");
        let num_apps = trial.get_usize("apps");
        let total_s = match engine {
            "totoro" => totoro_total(
                dataset,
                n,
                samples,
                num_apps,
                trial.get_usize("fanout"),
                trial.seed,
            ),
            "openfl" => central_total(
                dataset,
                n,
                samples,
                num_apps,
                ServerProfile::openfl_like(),
                trial.seed,
            ),
            "fedscale" => central_total(
                dataset,
                n,
                samples,
                num_apps,
                ServerProfile::fedscale_like(),
                trial.seed,
            ),
            other => panic!("table3 has no engine {other:?}"),
        };
        let mut report = TrialReport::for_trial(trial);
        report.push_metric("total_s", total_s);
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let Sweep {
            samples,
            datasets,
            apps,
            fanouts,
        } = checked(sweep(params));
        let mut out = format!(
            "# Table 3: time-to-accuracy speedups (n={}, {samples} samples/client)\n",
            params.nodes
        );
        let mut next = reports.iter();
        let mut take = || next.next().expect("table3 report count matches trials");
        for dataset in datasets {
            let task = task_by_name(&dataset);
            let target = target_for(&task);
            out.push_str(&format!(
                "\n== dataset {dataset} (target accuracy {:.1}%) ==\n",
                target * 100.0
            ));
            let mut rows = Vec::new();
            for &num_apps in &apps {
                let openfl = take().metric("total_s");
                let fedscale = take().metric("total_s");
                out.push_str(&format!(
                    "  apps={num_apps}: openfl {openfl:.0}s, fedscale {fedscale:.0}s\n"
                ));
                for &fanout in &fanouts {
                    let totoro = take().metric("total_s");
                    out.push_str(&format!(
                        "  apps={num_apps} fanout={fanout}: totoro {totoro:.0}s -> {} vs OpenFL, {} vs FedScale\n",
                        speedup(openfl / totoro),
                        speedup(fedscale / totoro)
                    ));
                    rows.push(vec![
                        dataset.clone(),
                        num_apps.to_string(),
                        fanout.to_string(),
                        format!("{totoro:.0}"),
                        format!("{openfl:.0}"),
                        format!("{fedscale:.0}"),
                        speedup(openfl / totoro),
                        speedup(fedscale / totoro),
                    ]);
                }
            }
            out.push_str(&markdown_table(
                &format!("Table 3 [{dataset}]: total training time and speedups"),
                &[
                    "dataset",
                    "apps",
                    "fanout",
                    "totoro (s)",
                    "openfl (s)",
                    "fedscale (s)",
                    "speedup vs OpenFL",
                    "speedup vs FedScale",
                ],
                &rows,
            ));
            out.push_str(&csv_block(
                &format!("table3_{dataset}"),
                &[
                    "dataset",
                    "apps",
                    "fanout",
                    "totoro_s",
                    "openfl_s",
                    "fedscale_s",
                    "sp_openfl",
                    "sp_fedscale",
                ],
                &rows,
            ));
        }
        out
    }
}

/// Total simulated seconds for Totoro to finish `num_apps` apps.
fn totoro_total(
    dataset: &str,
    n: usize,
    samples: usize,
    num_apps: usize,
    fanout: usize,
    seed: u64,
) -> f64 {
    let task = task_by_name(dataset);
    let mut gen_rng = sub_rng(seed, "task");
    let generator = TaskGenerator::new(task, &mut gen_rng);
    let mut topology = eua_topology_exact(n, seed);
    apply_device_class(&mut topology, dataset);
    let mut deploy = totoro_with_apps(topology, seed, fanout, num_apps, &generator, samples, 60);
    deploy.run(MAX_SIM);
    // Finish time = when the last app's target was reached (or its cap).
    (0..num_apps)
        .map(|a| {
            deploy
                .time_to_target(a)
                .or_else(|| deploy.curve(a).last().map(|p| p.time_secs))
                .unwrap_or(MAX_SIM.as_secs_f64())
        })
        .fold(0.0, f64::max)
}

/// Total simulated seconds for a centralized engine to finish the same
/// workload (node 0 is the server; clients start at node 1).
fn central_total(
    dataset: &str,
    n: usize,
    samples: usize,
    num_apps: usize,
    profile: ServerProfile,
    seed: u64,
) -> f64 {
    let task = task_by_name(dataset);
    let mut gen_rng = sub_rng(seed, "task");
    let generator = TaskGenerator::new(task, &mut gen_rng);
    let mut topology = eua_topology_exact(n + 1, seed);
    apply_device_class(&mut topology, dataset);
    let mut engine = CentralizedEngine::new(topology, profile, seed);
    let participants: Vec<usize> = (1..=n).collect();
    let mut rng = sub_rng(seed, "shards");
    for a in 0..num_apps {
        // Identical shard/rng stream layout as the Totoro run.
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
    let server = engine.server();
    (0..num_apps)
        .map(|a| {
            server
                .time_to_target(a)
                .or_else(|| server.curve(a).last().map(|p| p.time_secs))
                .unwrap_or(MAX_SIM.as_secs_f64())
        })
        .fold(0.0, f64::max)
}

/// Device profile per dataset: the large-scale task's rounds are dominated
/// by on-device training (as in the paper, where FEMNIST trains far longer
/// per round than Speech), modeled by weaker edge devices.
pub(crate) fn apply_device_class(topology: &mut Topology, dataset: &str) {
    if dataset == "femnist" {
        for i in 0..topology.len() {
            let mut p = topology.profile(i);
            p.compute_speed *= 0.02;
            topology.set_profile(i, p);
        }
    }
}
