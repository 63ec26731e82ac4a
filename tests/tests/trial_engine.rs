//! Cross-crate tests of the benchmark trial engine: the `Scenario` API must
//! produce byte-identical results no matter how trials are scheduled.
//!
//! These drive *real* scenarios (at deliberately tiny parameter points, so
//! they stay fast in debug builds) rather than synthetic ones — the point is
//! to catch nondeterminism anywhere in the stack underneath a scenario
//! (simulator, DHT, forest, ML), not just in the worker pool.

use totoro_bench::scenario::{execute, run_trials, Params, Scenario, SinkSpec, Trial};
use totoro_bench::scenarios;
use totoro_simnet::json::ToJson;

/// A tiny fig13 parameter point: two trials (totoro + openfl), each a full
/// deploy-train-report cycle, in well under a second.
fn tiny_fig13() -> (Box<dyn Scenario>, Params) {
    let scenario = scenarios::find("fig13").expect("fig13 registered");
    let mut params = scenario.default_params();
    params.nodes = 6;
    params.extra.push(("samples".into(), "20".into(), None));
    params.extra.push(("rounds".into(), "4".into(), None));
    (scenario, params)
}

/// A tiny fig11 parameter point: four path-planning trials.
fn tiny_fig11() -> (Box<dyn Scenario>, Params) {
    let scenario = scenarios::find("fig11").expect("fig11 registered");
    let mut params = scenario.default_params();
    params.extra.push(("packets".into(), "60".into(), None));
    params.extra.push(("runs".into(), "2".into(), None));
    (scenario, params)
}

#[test]
fn registry_names_are_unique_and_resolvable() {
    let all = scenarios::all();
    // Eleven evaluation artifacts plus the chaos sweep.
    assert_eq!(all.len(), 12, "all registered scenarios present");
    let mut names: Vec<&str> = all.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 12, "scenario names are unique");
    for name in names {
        assert!(scenarios::find(name).is_some(), "find({name}) resolves");
    }
    assert!(scenarios::find("no-such-figure").is_none());
}

#[test]
fn same_trial_run_twice_is_byte_identical() {
    let (scenario, params) = tiny_fig13();
    let run = |trial: &Trial| scenario.run_with_sink(trial, &SinkSpec::untraced()).0;
    for trial in scenario.trials(&params).unwrap() {
        let a = run(&trial).to_json();
        let b = run(&trial).to_json();
        assert_eq!(a, b, "trial {} reruns bit-identically", trial.label());
    }
}

#[test]
fn worker_count_does_not_change_rendered_output() {
    let (scenario, params) = tiny_fig13();
    let serial = execute(scenario.as_ref(), &params).unwrap();
    let mut parallel = params.clone();
    parallel.jobs = 4;
    let threaded = execute(scenario.as_ref(), &parallel).unwrap();
    assert_eq!(serial, threaded, "--jobs 1 and --jobs 4 render identically");
}

#[test]
fn worker_count_does_not_change_json_output() {
    let (scenario, params) = tiny_fig11();
    let mut serial = params.clone();
    serial.json = true;
    let mut parallel = serial.clone();
    parallel.jobs = 3;
    assert_eq!(
        execute(scenario.as_ref(), &serial).unwrap(),
        execute(scenario.as_ref(), &parallel).unwrap(),
        "serialized sweep is byte-identical across worker counts"
    );
}

#[test]
fn merged_sweep_preserves_trial_order() {
    let (scenario, params) = tiny_fig11();
    let trials = Trial::seal(scenario.trials(&params).unwrap());
    assert!(trials.len() >= 3, "sweep has enough trials to interleave");
    let reports = run_trials(scenario.as_ref(), &trials, 3);
    assert_eq!(reports.len(), trials.len());
    for (i, (report, trial)) in reports.iter().zip(&trials).enumerate() {
        assert_eq!(report.index, i, "report {i} sits at its trial's slot");
        assert_eq!(report.setup, trial.setup, "report {i} matches its trial");
    }
}
