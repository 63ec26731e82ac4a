//! Self-tests of the harness at the `--smoke` sizes: the output carries
//! exactly the metrics `BENCHMARK.json` names, exact values repeat, and the
//! span files are well formed.

use std::path::{Path, PathBuf};
use std::process::Command;

use totoro_bench::traceview::{parse_json, Json};
use totoro_e2e::measure::RUN_SECONDS;
use totoro_e2e::metrics::{END_TO_END, PER_LAYER};
use totoro_e2e::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string {key:?}"))
}

fn members(obj: &Json) -> &[(String, Json)] {
    match obj {
        Json::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

fn num_of(obj: &Json, key: &str) -> f64 {
    match obj.get(key) {
        Some(Json::Num(v)) => *v,
        other => panic!("no number {key:?}: {other:?}"),
    }
}

/// One smoke measurement through the contract interface; returns the
/// parsed result line.
fn measure(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_totoro-e2e"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(out)
        .output()
        .expect("harness starts");
    assert!(output.status.success(), "{workload}: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    parse_json(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn benchmark_json_and_code_define_the_same_benchmark() {
    let doc = benchmark_json();
    let listed = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
    assert_eq!(num_of(&doc, "run_seconds"), RUN_SECONDS);
    let workloads: Vec<String> = listed("workloads")
        .iter()
        .map(|w| str_of(w, "name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = listed("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, d) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(str_of(j, "name"), d.name);
        assert_eq!(str_of(j, "unit"), d.unit);
        assert_eq!(str_of(j, "better"), d.better.name());
        assert_eq!(num_of(j, "bound"), d.bound, "{}", d.name);
    }
    let layer = listed("per_layer");
    assert_eq!(layer.len(), PER_LAYER.len());
    for (j, d) in layer.iter().zip(&PER_LAYER) {
        assert_eq!(str_of(j, "name"), d.name);
        assert_eq!(str_of(j, "unit"), d.unit);
        assert_eq!(str_of(j, "better"), d.better.name());
    }
    let ok = |s: &str| {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    assert!(PER_LAYER.iter().all(|d| ok(d.name)) && END_TO_END.iter().all(|d| ok(d.name)));
}

#[test]
fn every_workload_reports_every_metric_once_and_repeats_exactly() {
    let dir = out_dir("smoke");
    for workload in WORKLOADS {
        let plain = measure(workload, false, &dir);
        let names: Vec<&str> = members(plain.get("metrics").expect("metrics"))
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want, "{workload} untraced");
        for d in &END_TO_END {
            let m = plain
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .expect(d.name);
            assert!(num_of(m, "value") > 0.0, "{workload} {} is 0", d.name);
            assert_eq!(str_of(m, "unit"), d.unit);
        }

        // `correct` covers the invariants and that the untraced and the
        // traced run of the pair agree on every exact value.
        let first = measure(workload, true, &dir);
        let again = measure(workload, true, &dir);
        for result in [&plain, &first, &again] {
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(num_of(result, "failed"), 0.0);
            assert!(num_of(result, "attempted") >= 1.0);
        }
        let metrics = members(first.get("metrics").expect("metrics"));
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, want, "{workload} traced");
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let value = |r: &Json| num_of(r.get("metrics").unwrap().get(d.name).unwrap(), "value");
            assert_eq!(value(&first), value(&again), "{workload} {}", d.name);
        }

        // The span file: ids in order, parents resolve to earlier spans
        // that enclose the child, one run id throughout.
        let text = std::fs::read_to_string(dir.join(format!("trace_{workload}.json")))
            .expect("span file written");
        let doc = parse_json(&text).expect("span file parses");
        let run_id = str_of(&doc, "run_id");
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans.len() >= 4, "{workload}: {} spans", spans.len());
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(num_of(s, "id"), i as f64);
            assert_eq!(str_of(s, "run_id"), run_id);
            assert!(num_of(s, "end_ns") >= num_of(s, "start_ns"));
            if let Some(Json::Num(p)) = s.get("parent") {
                let parent = &spans[*p as usize];
                assert!((*p as usize) < i);
                assert!(num_of(parent, "start_ns") <= num_of(s, "start_ns"));
                assert!(num_of(parent, "end_ns") >= num_of(s, "end_ns"));
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope", "--smoke"][..],
        &["--workload", "fl_multiapp", "--seed", "x"],
        &["--workload", "fl_multiapp", "--trace", "2", "--smoke"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_totoro-e2e"))
            .args(args)
            .output()
            .expect("harness starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
