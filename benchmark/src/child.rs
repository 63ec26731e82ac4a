//! One run of one workload in a process of its own: the unit every number
//! is measured on. The child prints one JSON line and exits; the parent
//! times it from spawn to exit.

use std::collections::BTreeMap;
use std::path::Path;

use totoro_bench::traceview::{parse_json, Json};

use crate::spans::Spans;
use crate::workloads;

/// Arguments of `totoro-e2e run`.
pub struct ChildArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// Install the counting sink, profiling and probes.
    pub traced: bool,
    /// Use the self-test sizes.
    pub smoke: bool,
    /// Where to write the span file (traced runs).
    pub spans_path: Option<String>,
}

/// Peak resident set of this process in MiB (`VmHWM`), read as late as
/// possible so it covers the whole run.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload and prints the child's JSON line.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let run_id = format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" }
    );
    let mut spans = Spans::new(run_id);
    let out = workloads::run(
        &args.workload,
        args.seed,
        args.traced,
        args.smoke,
        &mut spans,
    );
    if let Some(path) = &args.spans_path {
        if let Some(dir) = Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let layer: Vec<String> = out
        .layer
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"sizes\":\"{}\",\"ops\":{},\"ops_failed\":{},\
         \"setup_s\":{},\"run_s\":{},\"events_per_s\":{},\"peak_rss_mb\":{},\"layer\":{{{}}}}}",
        args.workload,
        args.seed,
        args.traced,
        out.sizes,
        out.ops,
        out.ops_failed,
        out.setup_s,
        out.run_s,
        out.events_run as f64 / out.run_s,
        peak_rss_mb(),
        layer.join(","),
    );
    Ok(())
}

/// A child's result as the parent sees it.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// The sizes string of the provenance block.
    pub sizes: String,
    /// Invariant checks made.
    pub ops: u64,
    /// Invariant checks failed.
    pub ops_failed: u64,
    /// End-to-end values, `total_s` included (the parent adds it).
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer values the child observed.
    pub layer: BTreeMap<String, f64>,
}

/// The numeric value of a JSON member.
pub fn num(obj: &Json, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Num(v)) => Ok(*v),
        _ => Err(format!("missing or non-numeric {key:?}")),
    }
}

impl ChildRun {
    /// Parses a child's JSON line; `total_s` is the parent's own timing of
    /// the child from spawn to exit.
    pub fn parse(line: &str, total_s: f64) -> Result<ChildRun, String> {
        let obj = parse_json(line)?;
        let mut e2e = BTreeMap::new();
        for key in ["setup_s", "run_s", "events_per_s", "peak_rss_mb"] {
            e2e.insert(key.to_string(), num(&obj, key)?);
        }
        e2e.insert("total_s".to_string(), total_s);
        let mut layer = BTreeMap::new();
        if let Some(Json::Obj(members)) = obj.get("layer") {
            for (k, v) in members {
                if let Json::Num(v) = v {
                    layer.insert(k.clone(), *v);
                }
            }
        }
        Ok(ChildRun {
            sizes: obj
                .get("sizes")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            ops: num(&obj, "ops")? as u64,
            ops_failed: num(&obj, "ops_failed")? as u64,
            e2e,
            layer,
        })
    }
}
