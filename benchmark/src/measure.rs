//! The closed loop: one client that starts the next run only when the last
//! one has exited. Each run is a child process, strictly one at a time and
//! single-threaded, so `peak_rss_mb` is per run and the numbers do not
//! depend on how the host schedules two cores.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use totoro_bench::traceview::{parse_json, Json};

use crate::child::ChildRun;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// Where the committed exact-count ledgers live.
pub const EXPECTED_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected");

/// `run_seconds` of `BENCHMARK.json`: how long one measurement may last,
/// unless `--seconds` says otherwise. At the default sizes it buys three
/// runs of the slowest workload and five of the fastest.
pub const RUN_SECONDS: f64 = 32.0;

/// What to measure.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// Host seconds the measurement may last (see [`measure`]).
    pub seconds: f64,
    /// Pair every untraced run with a traced one.
    pub trace: bool,
    /// Use the self-test sizes.
    pub smoke: bool,
    /// Directory for span files.
    pub out_dir: PathBuf,
}

/// Every run made for one workload.
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Seed used.
    pub seed: u64,
    /// Self-test sizes were used (the ledger does not apply).
    pub smoke: bool,
    /// Untraced runs: the end-to-end samples.
    pub untraced: Vec<ChildRun>,
    /// Traced runs: the per-layer samples.
    pub traced: Vec<ChildRun>,
    /// Children that crashed, exited non-zero or printed no result.
    pub crashed: Vec<String>,
}

fn run_child(opts: &Options, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .arg(&opts.workload)
        .arg("--seed")
        .arg(opts.seed.to_string());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if traced {
        let spans = opts.out_dir.join(format!("trace_{}.json", opts.workload));
        cmd.args(["--trace", "1", "--spans"]).arg(spans);
    }
    let started = Instant::now();
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let total_s = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    ChildRun::parse(line, total_s)
}

/// Runs the loop: iterations are started, one after the other, as long as
/// the next one (predicted to take as long as the last) would still end
/// within `opts.seconds` of host time. Always at least one iteration, so a
/// measurement lasts at most `opts.seconds` or one iteration, whichever is
/// longer. An iteration is one untraced run, plus one traced run when
/// `opts.trace` is set.
pub fn measure(opts: &Options) -> Measurement {
    let mut m = Measurement {
        workload: opts.workload.clone(),
        seed: opts.seed,
        smoke: opts.smoke,
        ..Measurement::default()
    };
    let started = Instant::now();
    loop {
        let iteration = Instant::now();
        let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
        for &traced in modes {
            match run_child(opts, traced) {
                Ok(run) if traced => m.traced.push(run),
                Ok(run) => m.untraced.push(run),
                Err(e) => m.crashed.push(e),
            }
        }
        let predicted_end = started.elapsed() + iteration.elapsed();
        if predicted_end.as_secs_f64() > opts.seconds || !m.crashed.is_empty() {
            return m;
        }
    }
}

impl Measurement {
    /// Folds another measurement of the same workload and seed into this one.
    pub fn absorb(&mut self, other: Measurement) {
        self.untraced.extend(other.untraced);
        self.traced.extend(other.traced);
        self.crashed.extend(other.crashed);
    }

    fn runs(&self) -> impl Iterator<Item = &ChildRun> {
        self.untraced.iter().chain(&self.traced)
    }

    /// The sizes the runs used.
    pub fn sizes(&self) -> &str {
        self.runs().next().map_or("", |r| r.sizes.as_str())
    }

    /// A crashed child fails as many checks as a completed run makes (one
    /// if none completed).
    fn crashed_ops(&self) -> u64 {
        let per_run = self.runs().map(|r| r.ops).max().unwrap_or(1).max(1);
        per_run * self.crashed.len() as u64
    }

    /// Invariant checks attempted over every run.
    pub fn attempted(&self) -> u64 {
        self.runs().map(|r| r.ops).sum::<u64>() + self.crashed_ops()
    }

    /// Invariant checks failed over every run.
    pub fn failed(&self) -> u64 {
        self.runs().map(|r| r.ops_failed).sum::<u64>() + self.crashed_ops()
    }

    /// Order statistics of an end-to-end metric over the untraced runs.
    pub fn end_to_end(&self, name: &str) -> Summary {
        let xs: Vec<f64> = self.untraced.iter().map(|r| r.e2e[name]).collect();
        Summary::of(&xs)
    }

    /// Exact metrics on which two runs of this measurement disagree.
    pub fn exact_mismatches(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .filter(|d| d.exact)
            .filter(|d| {
                let mut seen = self.runs().filter_map(|r| r.layer.get(d.name));
                seen.next()
                    .is_some_and(|first| seen.any(|other| other != first))
            })
            .map(|d| d.name)
            .collect()
    }

    /// The exact values seen (the traced run sees all of them).
    pub fn exact(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            if let Some(v) = self.runs().find_map(|r| r.layer.get(d.name)) {
                out.insert(d.name, *v);
            }
        }
        out
    }

    /// 1 when an exact value differs from the committed ledger for this
    /// workload and seed, 0 when all agree or there is no ledger.
    pub fn exact_drift(&self) -> f64 {
        if self.smoke {
            return 0.0;
        }
        let path = ledger_path(Path::new(EXPECTED_DIR), &self.workload, self.seed);
        let Ok(text) = std::fs::read_to_string(path) else {
            return 0.0;
        };
        let Ok(ledger) = parse_json(&text) else {
            return 1.0;
        };
        let drifted = self.exact().iter().any(|(name, v)| {
            matches!(ledger.get("exact").and_then(|e| e.get(name)), Some(Json::Num(want)) if want != v)
        });
        f64::from(u8::from(drifted))
    }

    /// Every per-layer metric: the median over the traced runs, 0 where the
    /// workload does not exercise the layer.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for d in &PER_LAYER {
            let xs: Vec<f64> = self
                .traced
                .iter()
                .filter_map(|r| r.layer.get(d.name).copied())
                .collect();
            out.insert(d.name, Summary::of(&xs).median);
        }
        let run_s = |runs: &[ChildRun]| {
            Summary::of(&runs.iter().map(|r| r.e2e["run_s"]).collect::<Vec<_>>()).median
        };
        let (plain, traced) = (run_s(&self.untraced), run_s(&self.traced));
        if plain > 0.0 && traced > 0.0 {
            out.insert("bench.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
        }
        out.insert("bench.exact_drift", self.exact_drift());
        out
    }

    /// Whether every run completed, every invariant held and the exact
    /// values repeated.
    pub fn correct(&self) -> bool {
        self.crashed.is_empty() && self.failed() == 0 && self.exact_mismatches().is_empty()
    }

    /// Human-readable lines: every metric by name with its unit.
    pub fn print(&self, trace: bool) {
        println!(
            "## {} seed={} {} ({} untraced + {} traced runs, ops {} failed {})",
            self.workload,
            self.seed,
            self.sizes(),
            self.untraced.len(),
            self.traced.len(),
            self.attempted(),
            self.failed()
        );
        for e in &self.crashed {
            println!("crashed: {e}");
        }
        for name in self.exact_mismatches() {
            println!("exact value differs between runs: {name}");
        }
        for d in &END_TO_END {
            let s = self.end_to_end(d.name);
            println!(
                "{:<34} {:>16.6} {:<9} (n={} min {:.6} q1 {:.6} q3 {:.6} max {:.6})",
                d.name, s.median, d.unit, s.n, s.min, s.q1, s.q3, s.max
            );
        }
        if trace {
            let layer = self.per_layer();
            for d in &PER_LAYER {
                println!("{:<34} {:>16.6} {:<9}", d.name, layer[d.name], d.unit);
            }
        }
    }

    /// The one-line result the benchmark contract asks for: the end-to-end
    /// metrics of an untraced measurement, or the per-layer metrics of a
    /// traced one.
    pub fn contract_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = if trace {
            let layer = self.per_layer();
            PER_LAYER
                .iter()
                .map(|d| metric_json(d.name, layer[d.name], d.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| metric_json(d.name, self.end_to_end(d.name).median, d.unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// `<dir>/<workload>.seed<seed>.json`.
pub fn ledger_path(dir: &Path, workload: &str, seed: u64) -> PathBuf {
    dir.join(format!("{workload}.seed{seed}.json"))
}
