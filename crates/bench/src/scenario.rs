//! The `Scenario` experiment API and its parallel trial engine.
//!
//! Every evaluation artifact (Figures 5–13, Table 3, the ablation) is a
//! [`Scenario`]: a named experiment that expands a [`Params`] bundle into a
//! list of independent [`Trial`] descriptors, runs each trial in its own
//! `Simulator` with RNG streams derived from the trial seed, and renders
//! the ordered list of [`TrialReport`]s into the figure's table/CSV text.
//!
//! Because trials are *values* — a setup name, a parameter point, and a
//! seed — they can execute on any worker thread in any order. The engine
//! ([`run_trials`]) collects results **by trial index, not arrival order**,
//! and `render` only ever sees that ordered slice, so the rendered output
//! is byte-identical for `--jobs 1`, `--jobs 8`, or any other worker count.
//!
//! The shared [`run_scenario`] driver owns CLI parsing (`--nodes`, `--seed`,
//! `--jobs`, `--json`, plus scenario-specific `--key value` overrides), so
//! individual scenarios never touch `std::env`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use totoro_simnet::TrialReport as SimAccounting;
use totoro_simnet::{chrome_trace_multi, jsonl_trace_multi, RecordingSink, TraceRecord};

/// Common experiment parameters, parsed once by the driver.
///
/// `nodes`/`seed` seed every scenario's sweep; `extra` carries
/// scenario-specific `--key value` overrides (e.g. `--dataset femnist`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Params {
    /// Base network size for the sweep (scenario-defined meaning).
    pub nodes: usize,
    /// Master seed; every trial derives its own streams from this.
    pub seed: u64,
    /// Worker threads for the trial engine (1 = serial).
    pub jobs: usize,
    /// Emit machine-readable JSON reports instead of rendered text.
    pub json: bool,
    /// Write an execution trace to this path (`.jsonl` → JSONL, anything
    /// else → Chrome `trace_event` JSON). `None` keeps the zero-cost
    /// [`totoro_simnet::NoopSink`] installed.
    pub trace: Option<String>,
    /// Restrict buffered trace records to this layer tag (metrics still
    /// aggregate over every layer). Validated against [`KNOWN_LAYERS`] at
    /// parse time.
    pub trace_filter: Option<String>,
    /// Suppress progress lines on stderr (`--quiet`).
    pub quiet: bool,
    /// Emit debug detail on stderr (`--verbose`).
    pub verbose: bool,
    /// Scenario-specific `--key value` overrides, in CLI order.
    pub extra: Vec<(String, String)>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            nodes: 300,
            seed: 42,
            jobs: 1,
            json: false,
            trace: None,
            trace_filter: None,
            quiet: false,
            verbose: false,
            extra: Vec::new(),
        }
    }
}

/// Layer tags a simulation can emit, and therefore the only values
/// `--trace-filter` accepts. A typo'd filter used to buffer zero records
/// silently; now it is rejected at parse time with this list.
pub const KNOWN_LAYERS: &[&str] = &["app", "central", "dht", "fl", "forest", "sim"];

/// Validates a `--trace-filter` value: one layer tag or a
/// comma-separated list (`forest,dht`), each element checked against
/// [`KNOWN_LAYERS`]. Returns the normalized (trimmed, comma-joined)
/// list; the caller maps `Err` to the usual exit-2 usage contract.
pub fn validate_trace_filter(value: &str) -> Result<String, String> {
    let mut layers = Vec::new();
    for raw in value.split(',') {
        let layer = raw.trim();
        if layer.is_empty() {
            return Err(format!(
                "--trace-filter: empty layer in {value:?}; expected a comma-separated list of: {}",
                KNOWN_LAYERS.join(", ")
            ));
        }
        if !KNOWN_LAYERS.contains(&layer) {
            return Err(format!(
                "--trace-filter: unknown layer {layer:?}; valid layers: {}",
                KNOWN_LAYERS.join(", ")
            ));
        }
        layers.push(layer);
    }
    Ok(layers.join(","))
}

impl Params {
    /// Returns the `extra` override for `key`, if present.
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Returns the `extra` override for `key` parsed as `usize`.
    pub fn extra_usize(&self, key: &str, default: usize) -> usize {
        self.extra(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Returns the `extra` override for `key` as a string, with a default.
    pub fn extra_str(&self, key: &str, default: &str) -> String {
        self.extra(key).unwrap_or(default).to_string()
    }
}

/// A self-contained unit of work: one simulation run.
///
/// A trial is pure data — setup name, ordered parameter point, seed — so the
/// engine can hand it to any worker thread. `Scenario::run_with_sink`
/// rebuilds the full experiment from these fields alone; nothing is shared
/// between trials except read-only scenario state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trial {
    /// Position in the sweep; render order is ascending `index`.
    pub index: usize,
    /// Sub-experiment this trial belongs to (e.g. `"zones"`, `"udp"`).
    pub setup: String,
    /// The parameter point, as ordered `key=value` pairs.
    pub point: Vec<(String, u64)>,
    /// Seed for this trial's RNG streams (`sub_rng(seed, label)`).
    pub seed: u64,
}

impl Trial {
    /// Creates a trial; `index` is assigned by [`Trial::seal`] or manually.
    pub fn new(setup: &str, seed: u64) -> Self {
        Trial {
            index: 0,
            setup: setup.to_string(),
            point: Vec::new(),
            seed,
        }
    }

    /// Adds one coordinate of the parameter point.
    pub fn with(mut self, key: &str, value: u64) -> Self {
        self.point.push((key.to_string(), value));
        self
    }

    /// Returns coordinate `key`, panicking if the trial lacks it — a trial
    /// descriptor and its scenario are built as a pair, so a miss is a bug.
    pub fn get(&self, key: &str) -> u64 {
        self.point
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| {
                panic!(
                    "trial {}/{} lacks point key {key:?}",
                    self.setup, self.index
                )
            })
    }

    /// [`Trial::get`] as a `usize`.
    pub fn get_usize(&self, key: &str) -> usize {
        self.get(key) as usize
    }

    /// Stable human-readable label, e.g. `zones[n=300,seed=42]#3`.
    pub fn label(&self) -> String {
        let point: Vec<String> = self.point.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}[{}]#{}", self.setup, point.join(","), self.index)
    }

    /// Assigns ascending indices to a freshly built sweep.
    pub fn seal(mut trials: Vec<Trial>) -> Vec<Trial> {
        for (i, t) in trials.iter_mut().enumerate() {
            t.index = i;
        }
        trials
    }
}

/// The result of one trial, returned by value.
///
/// `sim` carries the simulator's accounting (traffic, compute, memory,
/// event counts) when the trial ran one; `metrics` are the scenario's
/// derived scalars in a fixed order; `series` holds (x, y) curves such as
/// time-to-accuracy traces. All fields serialize deterministically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrialReport {
    /// Which trial produced this report (copied from [`Trial::index`]).
    pub index: usize,
    /// The trial's setup name.
    pub setup: String,
    /// Simulator accounting, summed if the trial ran several simulators.
    pub sim: SimAccounting,
    /// Ordered scalar results (`name`, value).
    pub metrics: Vec<(String, f64)>,
    /// Ordered curves (`name`, points).
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// Pre-formatted table rows contributed by this trial.
    pub rows: Vec<Vec<String>>,
    /// Free-form commentary lines (e.g. paper-claim checks).
    pub notes: Vec<String>,
}

impl TrialReport {
    /// Creates an empty report for a trial.
    pub fn for_trial(trial: &Trial) -> Self {
        TrialReport {
            index: trial.index,
            setup: trial.setup.clone(),
            ..TrialReport::default()
        }
    }

    /// Appends a scalar metric.
    pub fn push_metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Appends a named curve.
    pub fn push_series(&mut self, name: &str, points: Vec<(f64, f64)>) {
        self.series.push((name.to_string(), points));
    }

    /// Appends a pre-formatted table row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Appends a commentary line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Returns metric `name`, panicking on a miss (report/render are built
    /// as a pair; a miss is a bug, not an input error).
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("report {}#{} lacks metric {name:?}", self.setup, self.index))
    }

    /// Returns curve `name`, panicking on a miss.
    pub fn series(&self, name: &str) -> &[(f64, f64)] {
        self.series
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("report {}#{} lacks series {name:?}", self.setup, self.index))
    }

    /// Deterministic JSON rendering: fixed key order, `{:?}`-free float
    /// formatting via Rust's shortest-roundtrip `Display`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_f64(*v)))
            .collect();
        let series: Vec<String> = self
            .series
            .iter()
            .map(|(k, pts)| {
                let pts: Vec<String> = pts
                    .iter()
                    .map(|(x, y)| format!("[{},{}]", json_f64(*x), json_f64(*y)))
                    .collect();
                format!("{}:[{}]", json_str(k), pts.join(","))
            })
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| json_str(c)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        format!(
            "{{\"index\":{},\"setup\":{},\"sim\":{},\"metrics\":{{{}}},\"series\":{{{}}},\"rows\":[{}],\"notes\":[{}]}}",
            self.index,
            json_str(&self.setup),
            self.sim.to_json(),
            metrics.join(","),
            series.join(","),
            rows.join(","),
            notes.join(","),
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, so `Display` output is fine.
        s
    } else {
        "null".to_string()
    }
}

/// What a traced run ([`SinkSpec::traced`]) should record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// Buffer only records whose layer tag equals this (e.g. `"forest"`);
    /// `None` buffers everything.
    pub filter: Option<String>,
}

impl TraceOptions {
    /// Options derived from the driver's `--trace-filter` flag.
    pub fn from_params(params: &Params) -> Self {
        TraceOptions {
            filter: params.trace_filter.clone(),
        }
    }
}

/// Which trace sink a trial's simulators should run with.
///
/// The engine builds one spec per execution — untraced for plain runs,
/// traced when `--trace` was given — and passes it to every
/// [`Scenario::run_with_sink`] call. Scenarios that support tracing call
/// [`SinkSpec::recording`] per simulator; `None` means run with the
/// zero-cost [`totoro_simnet::NoopSink`]. Scenarios that never trace
/// simply ignore the spec.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SinkSpec {
    trace: Option<TraceOptions>,
}

impl SinkSpec {
    /// A spec requesting no tracing (the common case).
    pub fn untraced() -> Self {
        SinkSpec { trace: None }
    }

    /// A spec requesting record buffering with `opts`.
    pub fn traced(opts: TraceOptions) -> Self {
        SinkSpec { trace: Some(opts) }
    }

    /// Whether tracing was requested.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// A fresh [`RecordingSink`] honoring the requested layer filter, or
    /// `None` when the trial should run untraced. Every simulator needs
    /// its own sink; call this once per simulator built.
    pub fn recording(&self) -> Option<RecordingSink> {
        self.trace
            .as_ref()
            .map(|opts| RecordingSink::new(0).with_layer_filter(opts.filter.clone()))
    }
}

/// One registered experiment: expansion, execution, and rendering.
///
/// Implementations must be `Sync`: `run_with_sink` is called concurrently
/// from worker threads with only `&self`, and all trial state must come
/// from the [`Trial`] value.
pub trait Scenario: Sync {
    /// Registry name (also the CLI subcommand), e.g. `"fig7"`.
    fn name(&self) -> &'static str;

    /// One-line description shown by `totoro-bench --list`.
    fn description(&self) -> &'static str;

    /// Default parameters for this scenario's sweep.
    fn default_params(&self) -> Params {
        Params::default()
    }

    /// Expands parameters into the ordered trial list.
    fn trials(&self, params: &Params) -> Vec<Trial>;

    /// Runs one trial to completion under the requested sink — the single
    /// execution entry point. Plain runs receive [`SinkSpec::untraced`];
    /// traced runs receive a spec whose [`SinkSpec::recording`] yields a
    /// buffering sink per simulator, and the scenario returns the drained
    /// records alongside the report. Scenarios that never trace ignore
    /// `sink` and return `None` records (the driver reports an empty
    /// trace).
    ///
    /// Contract: the report must be byte-for-byte identical whether or
    /// not tracing was requested (sinks observe, never perturb), except
    /// for the optional `sim.obs` metrics section.
    fn run_with_sink(
        &self,
        trial: &Trial,
        sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>);

    /// Renders the ordered reports into the artifact text.
    ///
    /// `reports[i]` corresponds to `trials(params)[i]`; rendering must not
    /// depend on anything but `params` and the reports, so output is
    /// byte-identical across worker counts.
    fn render(&self, params: &Params, reports: &[TrialReport]) -> String;
}

/// Runs `trials` on `jobs` worker threads, returning reports in trial order.
///
/// Workers claim trials from a shared atomic counter (striding in submission
/// order) and write each report into its trial's slot, so the returned
/// `Vec` is ordered by [`Trial::index`] regardless of completion order.
/// Panics in any trial propagate after all workers stop.
pub fn run_trials(scenario: &dyn Scenario, trials: &[Trial], jobs: usize) -> Vec<TrialReport> {
    let untraced = SinkSpec::untraced();
    run_trials_with(trials.len(), jobs, |i| {
        scenario.run_with_sink(&trials[i], &untraced).0
    })
}

/// The generic trial engine behind [`run_trials`]: runs `run(0..count)` on
/// `jobs` worker threads and returns results **indexed by trial, not by
/// completion order** — the property every determinism guarantee in this
/// crate rests on. Generic over the result type so traced runs (report +
/// record buffer) use the same engine as plain runs.
pub fn run_trials_with<R: Send>(
    count: usize,
    jobs: usize,
    run: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.max(1).min(count.max(1));
    if jobs == 1 {
        return (0..count).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                // det: allow(ordering: work-stealing ticket counter; which worker runs trial i is invisible because results land in per-index slots merged in index order)
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = run(i);
                // det: allow(lock: per-trial result slot keyed by trial index; each slot is written once and read only after the scope joins, so lock order cannot reach the merged output)
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("trial {i} produced no result"))
        })
        .collect()
}

/// Parses driver-owned CLI flags over a scenario's defaults.
///
/// Recognized: `--nodes N`, `--seed S`, `--jobs J`, `--json`; every other
/// `--key value` pair lands in [`Params::extra`] for the scenario to
/// interpret. Returns an error string on malformed input.
pub fn parse_params(defaults: Params, args: &[String]) -> Result<Params, String> {
    let mut params = defaults;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {arg:?}"));
        };
        match key {
            "json" => {
                params.json = true;
                continue;
            }
            "quiet" => {
                params.quiet = true;
                continue;
            }
            "verbose" => {
                params.verbose = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} expects a value"));
        };
        match key {
            "nodes" => {
                params.nodes = value
                    .parse()
                    .map_err(|_| format!("--nodes expects an integer, got {value:?}"))?;
            }
            "seed" => {
                params.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {value:?}"))?;
            }
            "jobs" => {
                params.jobs = value
                    .parse()
                    .map_err(|_| format!("--jobs expects an integer, got {value:?}"))?;
                if params.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "trace" => params.trace = Some(value.clone()),
            "trace-filter" => {
                params.trace_filter = Some(validate_trace_filter(value)?);
            }
            _ => params.extra.push((key.to_string(), value.clone())),
        }
    }
    Ok(params)
}

/// Expands, executes, and renders a scenario; returns the output text.
///
/// This is the whole experiment pipeline behind one call, shared by the
/// `totoro-bench` CLI and the determinism tests (which compare its output
/// byte-for-byte across `jobs` settings).
pub fn execute(scenario: &dyn Scenario, params: &Params) -> String {
    execute_traced(scenario, params).0
}

/// [`execute`] plus the serialized trace, when `params.trace` is set.
///
/// Traced trials run through the same parallel engine; record buffers are
/// collected **by trial index**, so the serialized trace — like the
/// rendered output — is byte-identical across `--jobs` settings. The trace
/// format follows the target path: `.jsonl` → JSONL (one record per line,
/// each tagged with its trial index), anything else → Chrome `trace_event`
/// JSON with one `pid` per trial.
pub fn execute_traced(scenario: &dyn Scenario, params: &Params) -> (String, Option<String>) {
    let trials = Trial::seal(scenario.trials(params));
    let (reports, trace) = if params.trace.is_some() {
        let spec = SinkSpec::traced(TraceOptions::from_params(params));
        let results = run_trials_with(trials.len(), params.jobs, |i| {
            scenario.run_with_sink(&trials[i], &spec)
        });
        let mut reports = Vec::with_capacity(results.len());
        let mut groups: Vec<(u64, Vec<TraceRecord>)> = Vec::new();
        for (i, (report, records)) in results.into_iter().enumerate() {
            reports.push(report);
            if let Some(records) = records {
                groups.push((i as u64, records));
            }
        }
        if groups.is_empty() {
            // `run_with_sink` returned no records for any trial: this
            // scenario has not been wired for tracing (only the scenario
            // knows which simulator runs to record).
            crate::logging::info(format_args!(
                "note: scenario {:?} does not implement tracing; the trace will be empty",
                scenario.name()
            ));
        }
        let refs: Vec<(u64, &[TraceRecord])> = groups
            .iter()
            .map(|(pid, records)| (*pid, records.as_slice()))
            .collect();
        let jsonl = params
            .trace
            .as_deref()
            .is_some_and(|p| p.ends_with(".jsonl"));
        let trace = if jsonl {
            jsonl_trace_multi(&refs)
        } else {
            chrome_trace_multi(&refs)
        };
        (reports, Some(trace))
    } else {
        (run_trials(scenario, &trials, params.jobs), None)
    };
    let out = if params.json {
        let lines: Vec<String> = reports.iter().map(TrialReport::to_json).collect();
        format!("[{}]\n", lines.join(",\n "))
    } else {
        scenario.render(params, &reports)
    };
    (out, trace)
}

/// CLI driver: parses `args`, runs the scenario, prints the output.
///
/// Installs the stderr verbosity from `--quiet`/`--verbose`, writes the
/// trace file when `--trace PATH` was given, and exits the process with
/// status 2 on a malformed command line.
pub fn run_scenario(scenario: &dyn Scenario, args: &[String]) {
    match parse_params(scenario.default_params(), args) {
        Ok(params) => {
            crate::logging::set_level(crate::logging::level_from_flags(
                params.quiet,
                params.verbose,
            ));
            let (out, trace) = execute_traced(scenario, &params);
            if let (Some(path), Some(trace)) = (params.trace.as_deref(), trace) {
                match std::fs::write(path, &trace) {
                    Ok(()) => crate::logging::info(format_args!(
                        "{}: wrote {} trace bytes to {path}",
                        scenario.name(),
                        trace.len()
                    )),
                    Err(e) => {
                        crate::logging::error(format_args!("cannot write trace {path}: {e}"));
                        std::process::exit(1);
                    }
                }
            }
            crate::report::emit(&out);
        }
        Err(msg) => {
            crate::logging::error(format_args!("{}: {msg}", scenario.name()));
            crate::logging::info(format_args!(
                "usage: {} [--nodes N] [--seed S] [--jobs J] [--json] [--trace PATH] \
                 [--trace-filter L1,L2,...] [--quiet] [--verbose] \
                 [--key value ...]",
                scenario.name()
            ));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Scenario for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn description(&self) -> &'static str {
            "test scenario"
        }
        fn trials(&self, params: &Params) -> Vec<Trial> {
            Trial::seal(
                (0..params.nodes)
                    .map(|i| Trial::new("echo", params.seed).with("i", i as u64))
                    .collect(),
            )
        }
        fn run_with_sink(
            &self,
            trial: &Trial,
            _sink: &SinkSpec,
        ) -> (TrialReport, Option<Vec<TraceRecord>>) {
            let mut r = TrialReport::for_trial(trial);
            // Uneven work so completion order differs from trial order.
            let spins = (trial.index % 7) * 1_000;
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k as u64).rotate_left(1);
            }
            std::hint::black_box(acc);
            r.push_metric("i", trial.get("i") as f64);
            (r, None)
        }
        fn render(&self, _params: &Params, reports: &[TrialReport]) -> String {
            let vals: Vec<String> = reports
                .iter()
                .map(|r| format!("{}", r.metric("i")))
                .collect();
            vals.join(",")
        }
    }

    #[test]
    fn reports_come_back_in_trial_order() {
        let params = Params {
            nodes: 40,
            ..Params::default()
        };
        let trials = Trial::seal(Echo.trials(&params));
        let reports = run_trials(&Echo, &trials, 8);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.metric("i"), i as f64);
        }
    }

    #[test]
    fn jobs_do_not_change_output() {
        let mut p1 = Params {
            nodes: 25,
            ..Params::default()
        };
        let mut p8 = p1.clone();
        p1.jobs = 1;
        p8.jobs = 8;
        assert_eq!(execute(&Echo, &p1), execute(&Echo, &p8));
    }

    #[test]
    fn sink_spec_builds_recording_sinks_only_when_traced() {
        assert!(!SinkSpec::untraced().is_traced());
        assert!(SinkSpec::untraced().recording().is_none());
        let spec = SinkSpec::traced(TraceOptions {
            filter: Some("forest".into()),
        });
        assert!(spec.is_traced());
        assert!(spec.recording().is_some());
    }

    /// Two trials rendezvous at a barrier inside `run_with_sink`: this can
    /// only complete if the pool really executes them on distinct threads
    /// at the same time (a serial engine would deadlock and time out).
    #[test]
    fn workers_actually_run_concurrently() {
        struct Rendezvous(std::sync::Barrier);
        impl Scenario for Rendezvous {
            fn name(&self) -> &'static str {
                "rendezvous"
            }
            fn description(&self) -> &'static str {
                "test"
            }
            fn trials(&self, _params: &Params) -> Vec<Trial> {
                Trial::seal(vec![Trial::new("a", 0), Trial::new("b", 0)])
            }
            fn run_with_sink(
                &self,
                trial: &Trial,
                _sink: &SinkSpec,
            ) -> (TrialReport, Option<Vec<TraceRecord>>) {
                self.0.wait();
                (TrialReport::for_trial(trial), None)
            }
            fn render(&self, _params: &Params, reports: &[TrialReport]) -> String {
                format!("{}", reports.len())
            }
        }
        let scenario = Rendezvous(std::sync::Barrier::new(2));
        let trials = Trial::seal(scenario.trials(&Params::default()));
        let reports = run_trials(&scenario, &trials, 2);
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn parse_params_recognizes_driver_flags() {
        let args: Vec<String> = [
            "--nodes",
            "500",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--json",
            "--dataset",
            "femnist",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = parse_params(Params::default(), &args).unwrap();
        assert_eq!(p.nodes, 500);
        assert_eq!(p.seed, 7);
        assert_eq!(p.jobs, 4);
        assert!(p.json);
        assert_eq!(p.extra("dataset"), Some("femnist"));
        assert_eq!(p.extra_str("dataset", "speech"), "femnist");
        assert_eq!(p.extra_usize("missing", 9), 9);
    }

    #[test]
    fn parse_params_rejects_bad_input() {
        for bad in [
            vec!["positional"],
            vec!["--nodes"],
            vec!["--nodes", "abc"],
            vec!["--jobs", "0"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_params(Params::default(), &args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn trace_filter_validates_layer_names() {
        let ok: Vec<String> = ["--trace-filter", "dht"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_params(Params::default(), &ok).unwrap().trace_filter,
            Some("dht".to_string())
        );
        let bad: Vec<String> = ["--trace-filter", "dhtt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_params(Params::default(), &bad).unwrap_err();
        assert!(err.contains("unknown layer \"dhtt\""), "{err}");
        for layer in KNOWN_LAYERS {
            assert!(err.contains(layer), "error must list {layer}: {err}");
        }
    }

    #[test]
    fn trace_filter_accepts_comma_separated_lists_validated_per_element() {
        let ok: Vec<String> = ["--trace-filter", "forest, dht"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_params(Params::default(), &ok).unwrap().trace_filter,
            Some("forest,dht".to_string()),
            "elements are trimmed and re-joined normalized"
        );
        let bad: Vec<String> = ["--trace-filter", "forest,dhtt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_params(Params::default(), &bad).unwrap_err();
        assert!(err.contains("unknown layer \"dhtt\""), "{err}");
        let empty: Vec<String> = ["--trace-filter", "forest,,dht"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_params(Params::default(), &empty).unwrap_err();
        assert!(err.contains("empty layer"), "{err}");
    }

    #[test]
    fn trial_label_and_accessors() {
        let t = Trial::new("zones", 42).with("n", 300);
        assert_eq!(t.get("n"), 300);
        assert_eq!(t.get_usize("n"), 300);
        assert_eq!(t.label(), "zones[n=300]#0");
    }

    #[test]
    fn report_json_is_deterministic() {
        let mut r = TrialReport {
            setup: "s".into(),
            ..TrialReport::default()
        };
        r.push_metric("a", 1.5);
        r.push_series("curve", vec![(0.0, 1.0), (2.0, 3.5)]);
        assert_eq!(r.to_json(), r.clone().to_json());
        assert!(r.to_json().contains("\"metrics\":{\"a\":1.5}"));
        assert!(r.to_json().contains("\"curve\":[[0,1],[2,3.5]]"));
    }
}
