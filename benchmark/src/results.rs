//! The result file a sweep writes (`out/results.json`), the exact-count
//! ledger, and `compare`, which applies the benchmark's own bounds to two
//! result files.

use std::process::Command;

use totoro_bench::traceview::{parse_json, Json};

use crate::child::num;
use crate::measure::Measurement;
use crate::metrics::{Better, END_TO_END, PER_LAYER};

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance block every result file carries.
pub fn provenance_json(seed: u64, seconds: f64, smoke: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"host_cores\":{cores},\"rustc\":\"{}\",\"git_sha\":\"{}\",\"seed\":{seed},\"seconds_per_workload\":{seconds},\"smoke\":{smoke}}}",
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
    )
}

/// The result file: provenance, then per workload the sizes, the order
/// statistics of every end-to-end metric and every per-layer value.
pub fn results_json(provenance: &str, measurements: &[Measurement]) -> String {
    let mut out = format!("{{\"provenance\":{provenance},\n\"workloads\":[");
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"sizes\":\"{}\",\"ops\":{},\"ops_failed\":{},\"correct\":{},\n \"end_to_end\":{{",
            m.workload,
            m.sizes(),
            m.attempted(),
            m.failed(),
            m.correct()
        ));
        let rows: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                let s = m.end_to_end(d.name);
                format!(
                    "\n  \"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
                    d.name, d.unit, d.better.name(), d.bound, s.n, s.min, s.q1, s.median, s.q3, s.max
                )
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("},\n \"per_layer\":{");
        let layer = m.per_layer();
        let rows: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "\n  \"{}\":{{\"unit\":\"{}\",\"exact\":{},\"value\":{}}}",
                    d.name, d.unit, d.exact, layer[d.name]
                )
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// The exact-count ledger of one workload and seed.
pub fn ledger_json(m: &Measurement) -> String {
    let rows: Vec<String> = m
        .exact()
        .iter()
        .map(|(k, v)| format!("\n  \"{k}\": {v}"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"sizes\": \"{}\", \"exact\": {{{}\n}}}}\n",
        m.workload,
        m.seed,
        m.sizes(),
        rows.join(",")
    )
}

fn workloads_of(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no \"workloads\" array".to_string())
}

/// Compares result file `b` (the change) against `a` (the parent), one row
/// per workload and end-to-end metric. Returns the report and whether `b`
/// is acceptable: no metric `worse`, no larger share of failed ops.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = parse_json(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = parse_json(b_text).map_err(|e| format!("second file: {e}"))?;
    let mut out = String::new();
    let mut acceptable = true;
    for wa in workloads_of(&a)? {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads_of(&b)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.push_str(&format!("{name}: missing from the second file\n"));
            acceptable = false;
            continue;
        };
        for d in &END_TO_END {
            let stat = |w: &Json, key: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(d.name))
                    .ok_or_else(|| format!("{name}: no {}", d.name))
                    .and_then(|s| num(s, key))
            };
            let (ma, mb) = (stat(wa, "median")?, stat(wb, "median")?);
            let spread = |w: &Json, m: f64| -> Result<f64, String> {
                Ok((stat(w, "q3")? - stat(w, "q1")?) / m.abs().max(f64::MIN_POSITIVE))
            };
            let spread = spread(wa, ma)?.max(spread(wb, mb)?);
            let worse_by = match d.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let verdict = if spread > d.bound {
                "unresolved"
            } else if worse_by > d.bound {
                acceptable = false;
                "worse"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{name:<15} {:<13} {verdict:<10} {ma:>14.4} -> {mb:>14.4} {:<8} ({:+.2}% worse, spread {:.2}%, bound {:.0}%)\n",
                d.name,
                d.unit,
                worse_by * 100.0,
                spread * 100.0,
                d.bound * 100.0
            ));
        }
        let failed_share = |w: &Json| -> Result<f64, String> {
            Ok(num(w, "ops_failed")? / num(w, "ops")?.max(1.0))
        };
        let (fa, fb) = (failed_share(wa)?, failed_share(wb)?);
        if fb > fa {
            acceptable = false;
            out.push_str(&format!(
                "{name}: failed ops rose from {fa:.6} to {fb:.6} of ops\n"
            ));
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let value = |w: &Json| {
                w.get("per_layer")
                    .and_then(|l| l.get(d.name))
                    .and_then(|m| num(m, "value").ok())
            };
            if let (Some(va), Some(vb)) = (value(wa), value(wb)) {
                if va != vb {
                    out.push_str(&format!("{name}: exact {} differs: {va} -> {vb}\n", d.name));
                }
            }
        }
    }
    Ok((out, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-workload result file with `run_s` as given and every other
    /// end-to-end metric fixed.
    fn file(run_s: (f64, f64, f64), events: u64, ops_failed: u64) -> String {
        let rows: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                let (q1, median, q3) = if d.name == "run_s" {
                    run_s
                } else {
                    (1.0, 1.0, 1.0)
                };
                format!(
                    "\"{}\":{{\"q1\":{q1},\"median\":{median},\"q3\":{q3}}}",
                    d.name
                )
            })
            .collect();
        format!(
            "{{\"workloads\":[{{\"name\":\"w\",\"ops\":10,\"ops_failed\":{ops_failed},\"end_to_end\":{{{}}},\
             \"per_layer\":{{\"simnet.events\":{{\"value\":{events}}}}}}}]}}",
            rows.join(",")
        )
    }

    fn verdict_of(report: &str, metric: &str) -> String {
        let row = report
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(metric))
            .expect("a row for the metric");
        row.split_whitespace()
            .nth(2)
            .expect("a verdict")
            .to_string()
    }

    #[test]
    fn compare_applies_bounds_spread_failures_and_exact_counts() {
        let base = file((5.0, 5.0, 5.0), 100, 0);
        let bound = END_TO_END.iter().find(|d| d.name == "run_s").unwrap().bound;

        let (report, ok) = compare(&base, &file((5.1, 5.1, 5.1), 100, 0)).unwrap();
        assert!(ok);
        assert_eq!(verdict_of(&report, "run_s"), "ok");
        assert!(!report.contains("exact"));

        let slower = 5.0 * (1.0 + bound) + 0.1;
        let (report, ok) = compare(&base, &file((slower, slower, slower), 100, 0)).unwrap();
        assert!(!ok);
        assert_eq!(verdict_of(&report, "run_s"), "worse");
        assert_eq!(verdict_of(&report, "setup_s"), "ok");

        // A spread wider than the bound cannot resolve either way.
        let wide = (4.0, 5.0, 4.0 + 5.0 * bound + 1.1);
        let (report, ok) = compare(&base, &file(wide, 100, 0)).unwrap();
        assert!(ok);
        assert_eq!(verdict_of(&report, "run_s"), "unresolved");

        let (report, ok) = compare(&base, &file((5.0, 5.0, 5.0), 101, 1)).unwrap();
        assert!(!ok, "more failed ops is not acceptable");
        assert!(report.contains("exact simnet.events differs: 100 -> 101"));
        assert!(report.contains("failed ops rose"));

        assert!(compare("{}", &base).is_err());
        assert!(compare(&base, "not json").is_err());
    }
}
