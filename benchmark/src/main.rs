//! `totoro-e2e`: the benchmark's one binary.
//!
//! ```text
//! totoro-e2e --workload W --seed N --seconds S --trace 0|1   one measurement, result JSON on the last line
//! totoro-e2e [--seed N] [--seconds S] [--write-expected]     sweep: every workload, untraced then traced
//! totoro-e2e run W --seed N [--trace 1] [--spans PATH]       one run in this process (what the loop spawns)
//! totoro-e2e compare A.json B.json                           apply the bounds to two result files
//! ```
//! `--smoke` on any of them switches to the self-test sizes.

use std::path::PathBuf;
use std::process::ExitCode;

use totoro_e2e::child::{self, ChildArgs};
use totoro_e2e::measure::{ledger_path, measure, Options, EXPECTED_DIR, RUN_SECONDS};
use totoro_e2e::results::{compare, ledger_json, provenance_json, results_json};
use totoro_e2e::workloads::WORKLOADS;

/// Flags shared by the subcommands, parsed strictly: an unknown flag or a
/// missing or malformed value is an error.
#[derive(Default)]
struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
    smoke: bool,
    write_expected: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => f.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                f.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {v:?} is out of range"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
                }
            }
            "--spans" => f.spans = Some(value()?),
            "--out" => f.out = Some(value()?),
            "--smoke" => f.smoke = true,
            "--write-expected" => f.write_expected = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

fn known_workload(name: &str) -> Result<String, String> {
    if WORKLOADS.contains(&name) {
        Ok(name.to_string())
    } else {
        Err(format!("unknown workload {name:?} (one of {WORKLOADS:?})"))
    }
}

fn out_dir(f: &Flags) -> PathBuf {
    f.out.as_ref().map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        PathBuf::from,
    )
}

/// One measurement under the benchmark contract.
fn bench(f: &Flags, workload: &str) -> Result<bool, String> {
    let trace = f.trace;
    let m = measure(&Options {
        workload: known_workload(workload)?,
        seed: f.seed.unwrap_or(1),
        seconds: f.seconds.unwrap_or(RUN_SECONDS),
        trace,
        smoke: f.smoke,
        out_dir: out_dir(f),
    });
    if m.untraced.is_empty() || (trace && m.traced.is_empty()) {
        return Err(format!("no run completed: {}", m.crashed.join("; ")));
    }
    m.print(trace);
    println!("{}", m.contract_line(trace));
    Ok(true)
}

/// Every workload, untraced then traced; writes `results.json`.
fn sweep(f: &Flags) -> Result<bool, String> {
    let seed = f.seed.unwrap_or(1);
    let seconds = f.seconds.unwrap_or(RUN_SECONDS);
    let dir = out_dir(f);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut all = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let mut opts = Options {
            workload: workload.to_string(),
            seed,
            seconds,
            trace: false,
            smoke: f.smoke,
            out_dir: dir.clone(),
        };
        let mut m = measure(&opts);
        opts.trace = true;
        opts.seconds = 0.0;
        m.absorb(measure(&opts));
        m.print(true);
        ok &= m.correct();
        if f.write_expected && !f.smoke {
            let path = ledger_path(EXPECTED_DIR.as_ref(), workload, seed);
            std::fs::write(&path, ledger_json(&m))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        all.push(m);
    }
    let path = dir.join("results.json");
    let text = results_json(&provenance_json(seed, seconds, f.smoke), &all);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args)?;
    let positional: Vec<&str> = f.positional.iter().map(String::as_str).collect();
    match positional.as_slice() {
        ["run", workload] => child::run(&ChildArgs {
            workload: known_workload(workload)?,
            seed: f.seed.unwrap_or(1),
            traced: f.trace,
            smoke: f.smoke,
            spans_path: f.spans.clone(),
        })
        .map(|()| true),
        ["compare", a, b] => {
            let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (report, acceptable) = compare(&read(a)?, &read(b)?)?;
            print!("{report}");
            Ok(acceptable)
        }
        [] => match &f.workload {
            Some(workload) => bench(&f, workload),
            None => sweep(&f),
        },
        other => Err(format!("unexpected arguments {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("totoro-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
