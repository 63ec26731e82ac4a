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
//! Every `totoro-bench` command line goes through one grammar,
//! [`parse_params`]: scenarios declare the keys they read
//! ([`Scenario::keys`]) and check their values with the typed getters on
//! [`Params`] before any trial runs, so a bad value is a usage error (exit
//! 2), never a panic. Scenarios never touch `std::env`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use totoro_simnet::json::{self, ToJson, Writer};
use totoro_simnet::TrialReport as SimAccounting;
use totoro_simnet::{chrome_trace_multi, jsonl_trace_multi, RecordingSink, TraceRecord};

/// One command's parsed command line.
///
/// `nodes`/`seed` seed every scenario's sweep; `extra` carries each
/// command's own `--key value` pairs, read through the typed getters.
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
    /// List what the command offers instead of running it (`--list`).
    pub list: bool,
    /// Bare arguments, for commands whose grammar takes them.
    pub positional: Vec<String>,
    /// The command's own `--key value` pairs, in CLI order.
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
            list: false,
            positional: Vec::new(),
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

fn check_choice(key: &str, value: &str, choices: &[&str]) -> Result<(), String> {
    if choices.contains(&value) {
        return Ok(());
    }
    let choices = choices.join(", ");
    Err(format!("--{key}: unknown value {value:?} (use {choices})"))
}

impl Params {
    /// The raw value of `--key`, if given (the last one wins).
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--key` parsed as a number (`usize`, `u64`, `f64`, ...), if given.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.extra(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects a number, got {v:?}"))
            })
            .transpose()
    }

    /// `--key` as a comma-separated list (`default` when absent) whose
    /// entries, trimmed, each parse as `T`.
    pub fn list<T: std::str::FromStr>(&self, key: &str, default: &str) -> Result<Vec<T>, String> {
        let raw = self.extra(key).unwrap_or(default);
        raw.split(',')
            .map(|entry| {
                let entry = entry.trim();
                entry
                    .parse()
                    .map_err(|_| format!("--{key}: bad entry {entry:?} in {raw:?}"))
            })
            .collect()
    }

    /// `--key` if given, which must be one of `choices`.
    pub fn one_of(&self, key: &str, choices: &[&str]) -> Result<Option<&str>, String> {
        let value = self.extra(key);
        value.map_or(Ok(()), |v| check_choice(key, v, choices))?;
        Ok(value)
    }

    /// [`Params::list`] whose entries must each be one of `choices`.
    pub fn list_of(
        &self,
        key: &str,
        default: &str,
        choices: &[&str],
    ) -> Result<Vec<String>, String> {
        let entries: Vec<String> = self.list(key, default)?;
        entries
            .iter()
            .try_for_each(|e| check_choice(key, e, choices))?;
        Ok(entries)
    }
}

/// A value [`Scenario::trials`] has already read without error, read
/// again (by `render`, which cannot fail).
pub fn checked<T>(value: Result<T, String>) -> T {
    value.expect("checked by trials")
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
}

/// Fixed key order; floats in Rust's shortest round-trip form (`null`
/// when not finite).
impl ToJson for TrialReport {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj().field("index", self.index);
        w.field("setup", &self.setup).field("sim", &self.sim);
        w.key("metrics").begin_obj();
        for (k, v) in &self.metrics {
            w.field(k, v);
        }
        w.end().key("series").begin_obj();
        for (k, points) in &self.series {
            w.field(k, points);
        }
        w.end().field("rows", &self.rows);
        w.field("notes", &self.notes).end();
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
    /// `Some(filter)` when tracing: buffer only records whose layer tag is
    /// in `filter` (e.g. `"forest"`), or everything when it is `None`.
    trace: Option<Option<String>>,
}

impl SinkSpec {
    /// A spec requesting no tracing (the common case).
    pub fn untraced() -> Self {
        SinkSpec { trace: None }
    }

    /// A spec requesting record buffering, restricted to the layers in
    /// `filter` when given.
    pub fn traced(filter: Option<String>) -> Self {
        SinkSpec {
            trace: Some(filter),
        }
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
            .map(|filter| RecordingSink::new(0).with_layer_filter(filter.clone()))
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

    /// The `--key value` pairs this scenario reads beyond the
    /// [`SHARED_KEYS`]; any other key is a usage error.
    fn keys(&self) -> &'static [&'static str] {
        &[]
    }

    /// Expands parameters into the ordered trial list. Every scenario
    /// value is read and checked here, before any trial runs; `Err` is a
    /// usage error.
    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String>;

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

    /// Whether the run passed; `false` makes the command exit 1. A
    /// scenario that only measures never fails.
    fn verdict(&self, _reports: &[TrialReport]) -> bool {
        true
    }
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
                #[expect(
                    clippy::disallowed_methods,
                    reason = "per-trial result slot keyed by trial index; each slot is written once and read only after the scope joins, so lock order cannot reach the merged output"
                )]
                let mut slot = slots[i].lock().expect("result slot poisoned");
                *slot = Some(result);
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

/// The `--key value` pairs every scenario accepts, parsed by
/// [`parse_params`] into [`Params`]' own fields.
pub const SHARED_KEYS: &[&str] = &["nodes", "seed", "jobs", "trace", "trace-filter"];

/// What one `totoro-bench` command accepts on its command line.
#[derive(Clone, Copy, Debug)]
pub struct Grammar<'a> {
    /// The command name, as typed after `totoro-bench`.
    pub name: &'a str,
    /// The `--key value` pairs it reads.
    pub keys: &'a [&'a str],
    /// Whether it also takes the [`SHARED_KEYS`] (every scenario does).
    pub shared: bool,
    /// The boolean flags it takes (`json`, `quiet`, `verbose`, `list`).
    pub flags: &'a [&'a str],
    /// Synopsis of its bare arguments; `None` rejects them.
    pub positionals: Option<&'a str>,
}

impl Grammar<'_> {
    /// The one-line usage shown with every usage error.
    pub fn usage(&self) -> String {
        let shared = if self.shared { SHARED_KEYS } else { &[] };
        let keys = shared
            .iter()
            .chain(self.keys)
            .map(|k| format!(" [--{k} V]"));
        let flags = self.flags.iter().map(|f| format!(" [--{f}]"));
        let bare = self
            .positionals
            .map(|p| format!(" {p}"))
            .unwrap_or_default();
        let options: String = keys.chain(flags).collect();
        format!("usage: totoro-bench {}{bare}{options}", self.name)
    }
}

/// `scenario`'s grammar: the [`SHARED_KEYS`] and its own.
pub fn grammar(scenario: &dyn Scenario) -> Grammar<'static> {
    Grammar {
        name: scenario.name(),
        keys: scenario.keys(),
        shared: true,
        flags: &["json", "quiet", "verbose"],
        positionals: None,
    }
}

/// Parses `args` under `grammar` over `defaults`: the one command-line
/// parser behind every `totoro-bench` command.
///
/// Declared flags set their field; declared keys take the next argument
/// as their value (the [`SHARED_KEYS`] are parsed into typed
/// fields, the rest land in [`Params::extra`] for the typed getters);
/// bare arguments land in [`Params::positional`] when the grammar takes
/// them. Anything else is an `Err`, which callers report as a usage
/// error (exit 2).
pub fn parse_params(
    grammar: &Grammar,
    defaults: Params,
    args: &[String],
) -> Result<Params, String> {
    fn int<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("--{key} expects an integer, got {value:?}"))
    }
    let mut params = defaults;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            if grammar.positionals.is_none() {
                return Err(format!("unexpected positional argument {arg:?}"));
            }
            params.positional.push(arg.clone());
            continue;
        };
        if grammar.flags.contains(&key) {
            match key {
                "json" => params.json = true,
                "quiet" => params.quiet = true,
                "verbose" => params.verbose = true,
                _ => params.list = true,
            }
            continue;
        }
        if !(grammar.keys.contains(&key) || grammar.shared && SHARED_KEYS.contains(&key)) {
            return Err(format!("unknown flag {arg:?}"));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} expects a value"));
        };
        match key {
            "nodes" => params.nodes = int(key, value)?,
            "seed" => params.seed = int(key, value)?,
            "jobs" => {
                params.jobs = int(key, value)?;
                if params.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "trace" => params.trace = Some(value.clone()),
            "trace-filter" => params.trace_filter = Some(validate_trace_filter(value)?),
            _ => params.extra.push((key.to_string(), value.clone())),
        }
    }
    Ok(params)
}

/// Runs one command line: parses `args` under `grammar` over `defaults`,
/// installs the stderr verbosity, and runs `body`. Every `Err`, from the
/// parser or the body, prints the command's usage line and exits 2.
pub fn run_command(
    grammar: &Grammar,
    defaults: Params,
    args: &[String],
    body: impl FnOnce(&Params) -> Result<ExitCode, String>,
) -> ExitCode {
    let outcome = parse_params(grammar, defaults, args).and_then(|params| {
        crate::logging::set_level(crate::logging::level_from_flags(
            params.quiet,
            params.verbose,
        ));
        body(&params)
    });
    outcome.unwrap_or_else(|msg| {
        // Errors print even under `--quiet`, and so does the usage line.
        crate::logging::error(format_args!("{}: {msg}\n{}", grammar.name, grammar.usage()));
        ExitCode::from(2)
    })
}

/// Expands, executes, and renders a scenario; returns the output text.
///
/// This is the whole experiment pipeline behind one call, shared by the
/// `totoro-bench` CLI and the determinism tests (which compare its output
/// byte-for-byte across `jobs` settings). `Err` means `params` holds a
/// value the scenario rejects.
pub fn execute(scenario: &dyn Scenario, params: &Params) -> Result<String, String> {
    Ok(execute_traced(scenario, params)?.0)
}

/// [`execute`] plus the serialized trace, when `params.trace` is set.
pub fn execute_traced(
    scenario: &dyn Scenario,
    params: &Params,
) -> Result<(String, Option<String>), String> {
    let (reports, trace) = run(scenario, params)?;
    Ok((output(scenario, params, &reports), trace))
}

/// Expands and executes a scenario: its reports in trial order, plus the
/// serialized trace when `params.trace` is set.
///
/// Traced trials run through the same parallel engine; record buffers are
/// collected **by trial index**, so the serialized trace — like the
/// rendered output — is byte-identical across `--jobs` settings. The trace
/// format follows the target path: `.jsonl` → JSONL (one record per line,
/// each tagged with its trial index), anything else → Chrome `trace_event`
/// JSON with one `pid` per trial.
fn run(
    scenario: &dyn Scenario,
    params: &Params,
) -> Result<(Vec<TrialReport>, Option<String>), String> {
    let trials = Trial::seal(scenario.trials(params)?);
    if params.trace.is_none() {
        return Ok((run_trials(scenario, &trials, params.jobs), None));
    }
    let spec = SinkSpec::traced(params.trace_filter.clone());
    let (reports, records): (Vec<_>, Vec<_>) = run_trials_with(trials.len(), params.jobs, |i| {
        scenario.run_with_sink(&trials[i], &spec)
    })
    .into_iter()
    .unzip();
    let groups: Vec<(u64, &[TraceRecord])> = (0u64..)
        .zip(&records)
        .filter_map(|(i, r)| Some((i, r.as_deref()?)))
        .collect();
    if groups.is_empty() {
        // `run_with_sink` returned no records for any trial: this
        // scenario has not been wired for tracing (only the scenario
        // knows which simulator runs to record).
        crate::logging::info(format_args!(
            "note: scenario {:?} does not implement tracing; the trace will be empty",
            scenario.name()
        ));
    }
    let jsonl = params
        .trace
        .as_deref()
        .is_some_and(|p| p.ends_with(".jsonl"));
    let trace = if jsonl {
        jsonl_trace_multi(&groups)
    } else {
        chrome_trace_multi(&groups)
    };
    Ok((reports, Some(trace)))
}

/// The rendered artifact text, or one JSON report per trial (`--json`).
fn output(scenario: &dyn Scenario, params: &Params, reports: &[TrialReport]) -> String {
    if params.json {
        json::render(|w| {
            w.begin_arr(",\n ");
            for r in reports {
                w.value(r);
            }
            w.end().ws("\n");
        })
    } else {
        scenario.render(params, reports)
    }
}

/// `totoro-bench <scenario>`: runs the scenario, writes the trace file when `--trace
/// PATH` was given, prints the output, and returns the exit code (1 when
/// the scenario's [`Scenario::verdict`] fails or the trace cannot be
/// written). `Err` is a usage error, raised before any trial runs.
pub fn run_scenario(scenario: &dyn Scenario, params: &Params) -> Result<ExitCode, String> {
    let (reports, trace) = run(scenario, params)?;
    if let (Some(path), Some(trace)) = (params.trace.as_deref(), trace) {
        match std::fs::write(path, &trace) {
            Ok(()) => crate::logging::info(format_args!(
                "{}: wrote {} trace bytes to {path}",
                scenario.name(),
                trace.len()
            )),
            Err(e) => {
                crate::logging::error(format_args!("cannot write trace {path}: {e}"));
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    crate::report::emit(output(scenario, params, &reports));
    Ok(ExitCode::from(u8::from(!scenario.verdict(&reports))))
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
        fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
            Ok(Trial::seal(
                (0..params.nodes)
                    .map(|i| Trial::new("echo", params.seed).with("i", i as u64))
                    .collect(),
            ))
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
        let trials = Trial::seal(Echo.trials(&params).unwrap());
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
        assert!(execute(&Echo, &p1).is_ok());
    }

    #[test]
    fn sink_spec_builds_recording_sinks_only_when_traced() {
        assert!(!SinkSpec::untraced().is_traced());
        assert!(SinkSpec::untraced().recording().is_none());
        let spec = SinkSpec::traced(Some("forest".into()));
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
            fn trials(&self, _params: &Params) -> Result<Vec<Trial>, String> {
                Ok(Trial::seal(vec![Trial::new("a", 0), Trial::new("b", 0)]))
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
        let trials = Trial::seal(scenario.trials(&Params::default()).unwrap());
        let reports = run_trials(&scenario, &trials, 2);
        assert_eq!(reports.len(), 2);
    }

    /// A scenario-shaped grammar: the shared keys plus `--dataset` and
    /// `--apps`.
    fn parse(args: &[&str]) -> Result<Params, String> {
        let grammar = Grammar {
            keys: &["dataset", "apps"],
            ..grammar(&Echo)
        };
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_params(&grammar, Params::default(), &args)
    }

    /// [`parse`] of a space-separated command line.
    fn parse_line(line: &str) -> Result<Params, String> {
        parse(&line.split(' ').collect::<Vec<_>>())
    }

    #[test]
    fn parse_params_recognizes_driver_flags() {
        let line = "--nodes 500 --seed 7 --jobs 4 --json --dataset femnist --apps 1,5,10";
        let p = parse_line(line).unwrap();
        assert_eq!((p.nodes, p.seed, p.jobs, p.json), (500, 7, 4, true));
        assert_eq!(p.extra("dataset"), Some("femnist"));
        let datasets = ["speech", "femnist"];
        assert_eq!(p.one_of("dataset", &datasets), Ok(Some("femnist")));
        assert_eq!(p.list::<usize>("apps", "5"), Ok(vec![1, 5, 10]));
        assert_eq!(p.num::<usize>("missing"), Ok(None));
        assert_eq!(p.list::<usize>("missing", "8, 16"), Ok(vec![8, 16]));
        let speech = p.list_of("missing", "speech", &datasets);
        assert_eq!(speech, Ok(vec!["speech".to_string()]));
    }

    #[test]
    fn parse_params_rejects_bad_input() {
        for bad in [
            "positional",
            "--nodes",
            "--nodes abc",
            "--jobs 0",
            "--shards 4",
            "--nodez 60",
            "--list",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?}");
        }
        // Getters reject what the grammar cannot know is malformed.
        let p = parse_line("--dataset bogus --apps 5,x").unwrap();
        assert!(p.one_of("dataset", &["speech", "femnist"]).is_err());
        assert!(p.list_of("dataset", "speech", &["speech"]).is_err());
        assert!(p.list::<usize>("apps", "5").is_err());
        assert!(p.num::<usize>("dataset").is_err());
        let p = parse_line("--apps 5,,10").unwrap();
        assert!(p.list::<usize>("apps", "5").is_err(), "empty entry");
    }

    #[test]
    fn positionals_and_flags_follow_the_grammar() {
        let grammar = Grammar {
            name: "trace",
            keys: &["buckets"],
            shared: false,
            flags: &["json", "list"],
            positionals: Some("<command> TRACE.jsonl"),
        };
        let parse = |line: &str| {
            let args: Vec<String> = line.split(' ').map(str::to_string).collect();
            parse_params(&grammar, Params::default(), &args)
        };
        let p = parse("summary --list a.jsonl --buckets 3").unwrap();
        assert_eq!(p.positional, ["summary", "a.jsonl"]);
        assert!(p.list && !p.json);
        assert_eq!(p.num::<usize>("buckets"), Ok(Some(3)));
        assert!(parse("--nodes 3").is_err() && parse("--quiet").is_err());
        assert_eq!(
            grammar.usage(),
            "usage: totoro-bench trace <command> TRACE.jsonl [--buckets V] [--json] [--list]"
        );
    }

    #[test]
    fn trace_filter_validates_layer_names() {
        let p = parse_line("--trace-filter dht").unwrap();
        assert_eq!(p.trace_filter, Some("dht".to_string()));
        let err = parse_line("--trace-filter dhtt").unwrap_err();
        assert!(err.contains("unknown layer \"dhtt\""), "{err}");
        for layer in KNOWN_LAYERS {
            assert!(err.contains(layer), "error must list {layer}: {err}");
        }
    }

    #[test]
    fn trace_filter_accepts_comma_separated_lists_validated_per_element() {
        assert_eq!(
            parse(&["--trace-filter", "forest, dht"])
                .unwrap()
                .trace_filter,
            Some("forest,dht".to_string()),
            "elements are trimmed and re-joined normalized"
        );
        let err = parse_line("--trace-filter forest,dhtt").unwrap_err();
        assert!(err.contains("unknown layer \"dhtt\""), "{err}");
        let err = parse_line("--trace-filter forest,,dht").unwrap_err();
        assert!(err.contains("empty layer"), "{err}");
    }

    /// Fragments the argv property test draws from: every flag shape the
    /// grammar distinguishes, values good and bad, and hostile text.
    #[rustfmt::skip]
    const ARGV_FRAGMENTS: &[&str] = &[
        "--nodes", "--seed", "--jobs", "--shards", "--trace", "--trace-filter", "--dataset",
        "--apps", "--json", "--quiet", "--verbose", "--list", "--", "-", "-h", "--nodez",
        "0", "1", "-1", "18446744073709551616", "x", "", "forest", "forest,,dht", "5,x",
        "é", "--é", "\u{0}",
    ];

    proptest::proptest! {
        /// Arbitrary argv never panics the parser or the getters: every
        /// rejection is an `Err` for the exit-2 usage path.
        #[test]
        fn parse_params_never_panics_on_arbitrary_argv(
            picks in proptest::collection::vec(0usize..ARGV_FRAGMENTS.len(), 0..12),
        ) {
            let args: Vec<&str> = picks.iter().map(|&i| ARGV_FRAGMENTS[i]).collect();
            if let Ok(p) = parse(&args) {
                let _ = p.one_of("dataset", &["speech", "femnist"]);
                let _ = p.list::<usize>("apps", "5");
                let _ = p.list_of("dataset", "speech", &["speech"]);
                let _ = p.num::<f64>("apps");
                proptest::prop_assert!(p.jobs >= 1);
            }
        }
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
