//! `totoro-bench deploy`: one Totoro deployment, with the four functions
//! the paper's Table 2 leaves to an application owner (client selection,
//! aggregation, compression, privacy) among its keys. Keys and defaults:
//! `--nodes 48`, `--seed 1`, `--apps 1`, `--dataset speech|femnist|text`,
//! `--fanout 16`, `--samples 40` (per client), `--alpha 0.5` (Dirichlet
//! non-IID concentration), `--rounds 60`, `--target` (the dataset's),
//! `--selection all|fraction:F|loss:FLOOR`, `--aggregation fedavg|fedprox:MU`,
//! `--compression none|int8|topk:K`, `--privacy none|dp:CLIP:SIGMA|secagg`,
//! `--quorum Q` (off), `--churn 0` (the fraction of nodes failing at
//! t = 20 s), `--topology uniform|geo`. Every value is checked before
//! anything is simulated: a bad one, or secure aggregation with any
//! selection but `all` or any compression but `none` (its pairwise masks
//! cancel only in a full, uncompressed sum), is a usage error. `--json`
//! prints the run as one [`TrialReport`].

use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use totoro::{FlAppConfig, RoundPolicy, SelectionPolicy, TotoroDeployment};
use totoro_dht::DhtConfig;
use totoro_ml::{AggregationRule, Compression, Privacy, TaskGenerator};
use totoro_pubsub::ForestConfig;
use totoro_simnet::json::ToJson;
use totoro_simnet::{sub_rng, ChurnSchedule, SimTime, Topology, TrialReport as SimAccounting};

use crate::report;
use crate::scenario::{Grammar, Params, Trial, TrialReport};
use crate::setups::{eua_topology_exact, target_for, task_by_name};

/// The command line `totoro-bench deploy` takes.
#[rustfmt::skip]
pub const GRAMMAR: Grammar<'static> = Grammar {
    name: "deploy",
    keys: &[
        "nodes", "seed", "apps", "dataset", "fanout", "samples", "alpha", "rounds", "target",
        "selection", "aggregation", "compression", "privacy", "quorum", "churn", "topology",
    ],
    shared: false,
    flags: &["json", "quiet", "verbose"],
    positionals: None,
};

/// The values `deploy` runs with when a key is not given.
pub fn defaults() -> Params {
    Params {
        nodes: 48,
        seed: 1,
        ..Params::default()
    }
}

/// `text` as a number that `ok` accepts (NaN passes no range test).
fn number<T: FromStr + Copy>(text: &str, ok: impl Fn(T) -> bool) -> Option<T> {
    text.parse().ok().filter(|&v| ok(v))
}

/// `--key`'s `FORM[:ARG...]` value (`default` when absent), split.
fn form<'a>(params: &'a Params, key: &str, default: &'a str) -> Vec<&'a str> {
    params.extra(key).unwrap_or(default).split(':').collect()
}

/// The usage error for a `--key` value that is none of `forms`.
fn bad(params: &Params, key: &str, forms: &str) -> String {
    let value = params.extra(key).unwrap_or_default();
    params.reject(key, format!("--{key}: bad value {value:?} (use {forms})"))
}

const SELECTION: &str = "all, fraction:F with 0 < F <= 1, loss:FLOOR with 0 <= FLOOR <= 1";
const PRIVACY: &str = "none, secagg, dp:CLIP:SIGMA with CLIP > 0 and SIGMA >= 0";

/// Runs the deployment `params` describes to completion (or a day of
/// simulated time) and returns its report: text, or the run's
/// [`TrialReport`] as JSON with `--json`. `Err` is a usage error, raised
/// before anything is simulated.
pub fn output(params: &Params) -> Result<String, String> {
    let unit_open = |x: f64| 0.0 < x && x <= 1.0;
    let unit_closed = |x: f64| (0.0..=1.0).contains(&x);
    let non_negative = |x: f32| x >= 0.0 && x.is_finite();
    let (nodes, seed) = (params.nodes, params.seed);
    if nodes < 2 {
        return Err(format!("--nodes must be at least 2, got {nodes}"));
    }
    let dataset = params.one_of("dataset", &["speech", "femnist", "text"])?;
    let task = task_by_name(dataset.unwrap_or("speech"));
    let apps = params
        .bounded("apps", "at least 1", |a: usize| a >= 1)?
        .unwrap_or(1);
    let fanout = params.fanout("fanout", 16)?;
    let samples = params
        .bounded("samples", "at least 1", |s: usize| s >= 1)?
        .unwrap_or(40);
    let alpha = params
        .bounded("alpha", "> 0", |a: f64| a > 0.0 && a.is_finite())?
        .unwrap_or(0.5);
    let rounds = params.num("rounds")?.unwrap_or(60);
    let target = params
        .bounded("target", "in [0, 1]", unit_closed)?
        .unwrap_or(target_for(&task));
    let selection = match form(params, "selection", "all")[..] {
        ["all"] => Some(SelectionPolicy::All),
        ["fraction", f] => number(f, unit_open).map(SelectionPolicy::Fraction),
        ["loss", f] => number(f, unit_closed).map(|floor| SelectionPolicy::LossAdaptive { floor }),
        _ => None,
    }
    .ok_or_else(|| bad(params, "selection", SELECTION))?;
    let aggregation = match form(params, "aggregation", "fedavg")[..] {
        ["fedavg"] => Some(AggregationRule::FedAvg),
        ["fedprox", mu] => number(mu, non_negative).map(|mu| AggregationRule::FedProx { mu }),
        _ => None,
    }
    .ok_or_else(|| bad(params, "aggregation", "fedavg, fedprox:MU with MU >= 0"))?;
    let compression = match form(params, "compression", "none")[..] {
        ["none"] => Some(Compression::None),
        ["int8"] => Some(Compression::Int8),
        ["topk", k] => number(k, |k: usize| k >= 1).map(|k| Compression::TopK { k }),
        _ => None,
    }
    .ok_or_else(|| bad(params, "compression", "none, int8, topk:K with K >= 1"))?;
    let privacy = match form(params, "privacy", "none")[..] {
        ["none"] => Some(Privacy::None),
        ["secagg"] => Some(Privacy::SecureAggregation),
        ["dp", clip, sigma] => number(clip, |c: f32| c > 0.0 && c.is_finite())
            .zip(number(sigma, non_negative))
            .map(|(clip, sigma)| Privacy::GaussianDp { clip, sigma }),
        _ => None,
    }
    .ok_or_else(|| bad(params, "privacy", PRIVACY))?;
    if privacy == Privacy::SecureAggregation
        && (selection != SelectionPolicy::All || compression != Compression::None)
    {
        let msg = "--privacy secagg needs --selection all and --compression none";
        return Err(params.reject("privacy", msg));
    }
    let quorum = params.bounded("quorum", "in (0, 1]", unit_open)?;
    let churn = params
        .bounded("churn", "in [0, 1]", unit_closed)?
        .unwrap_or(0.0);
    let topology = match params.one_of("topology", &["uniform", "geo"])? {
        Some("geo") => eua_topology_exact(nodes, seed),
        _ => Topology::uniform(nodes, 1_000, 5_000),
    };
    let n = topology.len();
    let forest = ForestConfig {
        fanout_cap: fanout,
        ..ForestConfig::default()
    };
    let mut deploy = TotoroDeployment::new(topology, seed, DhtConfig::with_fanout(fanout), forest);
    let mut rng = sub_rng(seed, "tasks");
    let generator = TaskGenerator::new(task.clone(), &mut rng);
    let participants: Vec<usize> = (0..n).collect();
    for a in 0..apps {
        let shards = generator.client_shards(n, samples, alpha, &mut rng);
        let mut cfg = FlAppConfig::new(
            &format!("{}-{a}", task.name),
            vec![task.dim, 48, task.classes],
            Arc::new(generator.test_set(300, &mut rng)),
        );
        cfg.salt = a as u64;
        cfg.seed = seed.wrapping_add(a as u64);
        cfg.target_accuracy = target;
        cfg.max_rounds = rounds;
        cfg.selection = selection;
        cfg.aggregation = aggregation;
        cfg.compression = compression;
        cfg.privacy = privacy;
        if let Some(quorum) = quorum {
            cfg.round_policy = RoundPolicy::SemiSynchronous { quorum };
        }
        deploy.submit_app(cfg, &participants, shards);
    }
    let (name, classes) = (task.name, task.classes);
    let mut out = format!(
        "deploy: {n} nodes, {apps} app(s), dataset {name} ({classes} classes), fanout {fanout}, seed {seed}\n"
    );
    let mut report = TrialReport::for_trial(&Trial::new("deploy", seed));
    if churn > 0.0 {
        let at = SimTime::from_secs(20);
        let schedule =
            ChurnSchedule::mass_failure(&participants, churn, at, &mut sub_rng(seed, "churn"));
        let killed = schedule.nodes_affected();
        let note = format!("churn: killing {killed} nodes at t=20s");
        out += &format!("{note}\n");
        report.push_note(note);
        schedule.apply(deploy.sim_mut());
    }
    let finished = deploy.run(SimTime::from_secs(24 * 3_600));
    out.push_str("\napp                  master  rounds  best acc  time-to-target\n");
    for a in 0..apps {
        let name = &deploy.config(a).name;
        let curve = deploy.curve(a);
        let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
        let rounds = curve.last().map_or(0, |p| p.round);
        let (master, ttt) = (deploy.master_of(a), deploy.time_to_target(a));
        let node = master.map_or(f64::NAN, |m| m as f64);
        report.push_metric(&format!("{name}.master"), node);
        report.push_metric(&format!("{name}.rounds"), rounds as f64);
        report.push_metric(&format!("{name}.best_accuracy"), best);
        report.push_metric(&format!("{name}.time_to_target_s"), ttt.unwrap_or(f64::NAN));
        let points = curve.iter().map(|p| (p.time_secs, p.accuracy)).collect();
        report.push_series(name, points);
        let master = master.map_or("-".into(), |m| m.to_string());
        let ttt = ttt.map_or("-".into(), |t| format!("{t:.1}s"));
        out += &format!("{name:<20} {master:>6}  {rounds:>6}  {best:>8.3}  {ttt:>14}\n");
    }
    report.push_metric("all_finished", f64::from(u8::from(finished)));
    report.sim = SimAccounting::capture(deploy.sim());
    if params.json {
        return Ok(report.to_json() + "\n");
    }
    let sim = &report.sim;
    let secs = SimTime::from_micros(sim.sim_end_us).as_secs_f64();
    let kib = sim.traffic.mean_per_node(sim.traffic.payload_sent, n) / 1024.0;
    Ok(out + &format!(
        "\nsimulated time: {secs:.1}s | events: {} | mean payload sent/node: {kib:.1} KiB | all finished: {finished}\n",
        sim.events
    ))
}

/// `totoro-bench deploy`: runs one deployment and prints its report.
pub fn run(params: &Params) -> Result<ExitCode, String> {
    report::emit(output(params)?);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parse_params;

    /// `--topology geo` deploys exactly `--nodes` nodes, as the uniform
    /// topology does, although the EUA generator keeps at least one node
    /// in every region (40 requested come out as 44 before the trim).
    #[test]
    fn geo_topology_deploys_the_requested_node_count() {
        let args = "--topology geo --nodes 40 --apps 1 --rounds 1";
        let args: Vec<String> = args.split(' ').map(String::from).collect();
        let params = parse_params(&GRAMMAR, defaults(), &args).expect("valid args");
        let out = output(&params).expect("valid args");
        assert!(out.starts_with("deploy: 40 nodes,"), "{out}");
    }
}
