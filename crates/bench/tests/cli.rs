//! The `totoro-bench` command-line contract, run through the built binary:
//! every malformed invocation exits 2 with the command's usage line on
//! stderr, never panics, and is rejected before any simulation starts;
//! the chaos sweep's exit code is its verdict.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn bench(args: &[&str]) -> (Output, Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock budget of a CLI test; it bounds how long a rejection may take and never reaches any output"
    )]
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_totoro-bench"))
        .args(args)
        .output()
        .expect("totoro-bench runs");
    (out, start.elapsed())
}

/// Malformed invocations, one per rejection path.
const MALFORMED: &[&[&str]] = &[
    // Scenario values that used to panic, be silently replaced, or be
    // dropped.
    &["chaos", "--plans", "bogus"],
    &["chaos", "--inject-bug", "nope"],
    &["table3", "--datasets", "bogus"],
    &["fig8", "--fanout", "zz"],
    &["table3", "--samples", "zz"],
    &["table3", "--apps", "x"],
    &["fig8", "--apps", "x"],
    &["fig7", "--nodez", "60"],
    &["fig12", "--fail-frac", "zz"],
    // The shared flags and the chaos sweep's input checks.
    &["fig7", "--jobs", "0"],
    &["fig7", "--nodes"],
    &["fig7", "positional"],
    &["fig7", "--trace-filter", "dhtt"],
    // `--shards` was an accepted no-op; it is now an undeclared key.
    &["fig7", "--shards", "4"],
    &["chaos", "--plan", "loss-spike"],
    &["chaos", "--report", "chaos_report.txt"],
    &["chaos", "--trace", "chaos_trace.json"],
    &["chaos", "--replay", "loss-spike"],
    &["chaos", "--replay", "bogus:7"],
    &["chaos", "--replay", "loss-spike:x"],
    &["chaos", "--seeds", "x"],
    &["chaos", "--plans", ""],
    // The model checker.
    &["mc", "--depth", "x"],
    &["mc", "--scenario", "nope"],
    &["mc", "--replay", "schedule.txt"],
    &["mc", "--json"],
    // The trace analytics.
    &["trace"],
    &["trace", "summary"],
    &["trace", "timeline", "F", "--bucket-us", "x"],
    &["trace", "matrix", "F", "--buckets", "0"],
    &["trace", "nope", "F"],
    &["trace", "diff", "A"],
    // No such command.
    &["fig99"],
    // `--quiet` silences progress, not usage errors.
    &["chaos", "--quiet", "--plans", "bogus"],
];

/// Runs `args` and checks it is rejected as a usage error; returns stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let (out, took) = bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage:"),
        "{args:?} printed no usage: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    // Rejected before anything ran: no report, and far sooner than the
    // smallest default sweep takes.
    assert!(out.stdout.is_empty(), "{args:?} produced output");
    assert!(took < Duration::from_secs(20), "{args:?} took {took:?}");
    stderr
}

#[test]
fn malformed_invocations_exit_2_with_a_usage_line() {
    for args in MALFORMED {
        assert_usage_error(args);
    }
}

/// A missing or malformed input file is the caller's mistake, not a
/// verdict: exit 1 stays reserved for a violation found (`mc`) or a
/// failed run.
#[test]
fn unreadable_or_malformed_input_files_exit_2() {
    let dir = std::env::temp_dir().join(format!("totoro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let schedule = write("bad.schedule", "# counterexample\ndispatch 10 1\nbogus\n");
    let trace = write("bad.jsonl", "{\"at_us\":0,\"node\":0}\n{\"at_us\":1}\n");
    let chrome = write("chrome.json", "{\"traceEvents\":[\n\n]}\n");
    let huge = write(
        "huge.jsonl",
        "{\"at_us\":0,\"node\":0,\"ev\":\"send\",\"arrive_at_us\":18446744073709551616}\n",
    );
    let missing = dir.join("missing").to_str().unwrap().to_string();
    let tiny = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_tiny.jsonl");
    let replay = |file: &str| {
        ["mc", "--scenario", "forest-repair-4", "--replay", file]
            .map(str::to_string)
            .to_vec()
    };
    let cases: Vec<(Vec<String>, &str)> = vec![
        (replay(&missing), "cannot read schedule"),
        (replay(&schedule), "line 3: malformed choice \"bogus\""),
        (
            vec!["trace".into(), "summary".into(), missing.clone()],
            "cannot read",
        ),
        (
            vec!["trace".into(), "summary".into(), trace.clone()],
            "line 2: missing \"node\"",
        ),
        (
            vec!["trace".into(), "timeline".into(), chrome],
            "Chrome trace_event",
        ),
        (
            vec!["trace".into(), "summary".into(), huge],
            "\"arrive_at_us\" is not an integer",
        ),
        (
            vec!["trace".into(), "diff".into(), tiny.into(), missing],
            "cannot read",
        ),
    ];
    for (args, why) in &cases {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let stderr = assert_usage_error(&args);
        assert!(
            stderr.contains(why),
            "{args:?} did not say {why:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn list_names_every_command() {
    let (out, _) = bench(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["fig5", "table3", "ablation", "chaos", "mc", "trace"] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(name)),
            "--list lacks {name}: {stdout}"
        );
    }
}

#[test]
fn chaos_sweep_exit_code_is_its_verdict() {
    let sweep = ["--seeds", "1", "--nodes", "40", "--trees", "1"];
    let clean = [&["chaos", "--plans", "loss-spike"][..], &sweep].concat();
    let (out, _) = bench(&clean);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("total violations: 0"), "{stdout}");

    let planted = [
        &[
            "chaos",
            "--plans",
            "churn+stragglers",
            "--inject-bug",
            "drop-repair-join",
        ][..],
        &sweep,
    ]
    .concat();
    let (out, _) = bench(&planted);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("total violations: 1"), "{stdout}");
    assert!(
        stdout.contains("replay: totoro-bench chaos --replay churn+stragglers:42"),
        "{stdout}"
    );
}
