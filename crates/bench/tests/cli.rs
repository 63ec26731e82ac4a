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

/// Malformed invocations, one per rejection path, each with what its
/// error must say. An error about a flag given on the command line names
/// its position among the command's arguments, counted from 1 after the
/// command name, so the bad one of two copies of a flag can be told apart.
const MALFORMED: &[(&[&str], &str)] = &[
    // Scenario values that used to panic, be silently replaced, or be
    // dropped.
    (
        &["chaos", "--plans", "bogus"],
        "argument 1: --plans: unknown value \"bogus\"",
    ),
    (
        &["chaos", "--inject-bug", "nope"],
        "argument 1: --inject-bug: unknown value \"nope\"",
    ),
    (
        &["table3", "--datasets", "bogus"],
        "argument 1: --datasets: unknown value \"bogus\"",
    ),
    (
        &["fig8", "--nodes", "40", "--fanout", "zz"],
        "argument 3: --fanout expects a number, got \"zz\"",
    ),
    (
        &["table3", "--samples", "zz"],
        "argument 1: --samples expects a number, got \"zz\"",
    ),
    (
        &["table3", "--apps", "x"],
        "argument 1: --apps: bad entry \"x\"",
    ),
    (
        &["fig8", "--apps", "x"],
        "argument 1: --apps: bad entry \"x\"",
    ),
    (
        &["fig7", "--nodes", "60", "--nodez", "60"],
        "argument 3: unknown flag \"--nodez\"",
    ),
    (
        &["fig12", "--fail-frac", "zz"],
        "argument 1: --fail-frac expects a number, got \"zz\"",
    ),
    // Sizes and fanouts the FL scenarios cannot build: the DHT's routing
    // base must be a power of two from 2 to 256, the centralized engines
    // need a server and a client, and every point at least one app.
    (
        &["fig8", "--fanout", "3"],
        "argument 1: --fanout: fanout 3 is not a power of two",
    ),
    (
        &["fig9", "--fanout", "512"],
        "argument 1: --fanout: fanout 512 is not a power of two",
    ),
    (
        &["table3", "--fanouts", "3"],
        "argument 1: --fanouts: fanout 3 is not a power of two",
    ),
    (&["fig8", "--nodes", "0"], "--nodes must be at least 2"),
    (
        &["fig9", "--samples", "0"],
        "argument 1: --samples must be at least 1, got 0",
    ),
    (&["table3", "--nodes", "1"], "--nodes must be at least 2"),
    (
        &["fig8", "--apps", "0"],
        "argument 1: --apps: every entry must be at least 1",
    ),
    // One deployment: every key typed, every policy checked, and the
    // combinations the engine cannot run refused before it is built.
    (
        &["deploy", "--rounds", "x"],
        "argument 1: --rounds expects a number, got \"x\"",
    ),
    (
        &["deploy", "--nodes", "12", "--selection", "fraction:abc"],
        "argument 3: --selection: bad value \"fraction:abc\"",
    ),
    (
        &["deploy", "--selection", "fraction:1.5"],
        "argument 1: --selection: bad value \"fraction:1.5\"",
    ),
    (
        &["deploy", "--privacy", "dp:oops"],
        "argument 1: --privacy: bad value \"dp:oops\"",
    ),
    (
        &["deploy", "--compression", "topk:"],
        "argument 1: --compression: bad value \"topk:\"",
    ),
    (
        &["deploy", "--privacy", "secagg", "--compression", "int8"],
        "argument 1: --privacy secagg needs --selection all and --compression none",
    ),
    (
        &[
            "deploy",
            "--privacy",
            "secagg",
            "--selection",
            "fraction:0.5",
        ],
        "argument 1: --privacy secagg needs --selection all and --compression none",
    ),
    (
        &["deploy", "--fanout", "3"],
        "argument 1: --fanout: fanout 3 is not a power of two",
    ),
    (
        &["deploy", "--dataset", "cifar"],
        "argument 1: --dataset: unknown value \"cifar\"",
    ),
    (&["deploy", "--nodes", "1"], "--nodes must be at least 2"),
    (
        &["deploy", "--quorum", "1.5"],
        "argument 1: --quorum must be in (0, 1], got 1.5",
    ),
    (
        &["deploy", "--churn", "-0.1"],
        "argument 1: --churn must be in [0, 1], got -0.1",
    ),
    (
        &["deploy", "--topology", "mesh"],
        "argument 1: --topology: unknown value \"mesh\"",
    ),
    (
        &["deploy", "--bogus", "3"],
        "argument 1: unknown flag \"--bogus\"",
    ),
    (
        &["deploy", "--jobs", "2"],
        "argument 1: unknown flag \"--jobs\"",
    ),
    // The shared flags and the chaos sweep's input checks.
    (
        &["fig7", "--quiet", "--jobs", "0"],
        "argument 2: --jobs must be at least 1",
    ),
    (
        &["fig7", "--seed", "1", "--nodes"],
        "argument 3: flag --nodes expects a value",
    ),
    (
        &["fig7", "--nodes", "60", "--json", "--nodes", "abc"],
        "argument 4: --nodes expects an integer, got \"abc\"",
    ),
    (
        &["fig7", "positional"],
        "argument 1: unexpected positional argument \"positional\"",
    ),
    (
        &["fig7", "--jobs", "2", "--trace-filter", "dhtt"],
        "argument 3: --trace-filter: unknown layer \"dhtt\"",
    ),
    // `--shards` was an accepted no-op; it is now an undeclared key.
    (
        &["fig7", "--shards", "4"],
        "argument 1: unknown flag \"--shards\"",
    ),
    (
        &["chaos", "--plan", "loss-spike"],
        "argument 1: unknown flag \"--plan\"",
    ),
    (
        &["chaos", "--report", "chaos_report.txt"],
        "argument 1: unknown flag \"--report\"",
    ),
    (
        &["chaos", "--trace", "chaos_trace.json"],
        "--trace is only valid with --replay",
    ),
    (
        &["chaos", "--replay", "loss-spike"],
        "argument 1: --replay expects PLAN:SEED",
    ),
    (
        &["chaos", "--replay", "bogus:7"],
        "argument 1: --replay expects PLAN:SEED",
    ),
    (
        &["chaos", "--replay", "loss-spike:x"],
        "argument 1: --replay expects PLAN:SEED",
    ),
    (
        &["chaos", "--seeds", "x"],
        "argument 1: --seeds expects a number, got \"x\"",
    ),
    (
        &["chaos", "--plans", ""],
        "argument 1: --plans: unknown value \"\"",
    ),
    // The model checker.
    (
        &["mc", "--depth", "x"],
        "argument 1: --depth expects a number, got \"x\"",
    ),
    (
        &["mc", "--scenario", "nope"],
        "argument 1: --scenario: unknown value \"nope\"",
    ),
    (
        &["mc", "--replay", "schedule.txt"],
        "--replay needs --scenario",
    ),
    (&["mc", "--json"], "argument 1: unknown flag \"--json\""),
    // The trace analytics.
    (&["trace"], "missing command"),
    (&["trace", "summary"], "summary takes exactly 1 trace file"),
    (
        &["trace", "timeline", "F", "--bucket-us", "x"],
        "argument 3: --bucket-us expects a number, got \"x\"",
    ),
    (
        &["trace", "timeline", "F", "--bucket-us"],
        "argument 3: flag --bucket-us expects a value",
    ),
    (
        &["trace", "matrix", "F", "--buckets", "0"],
        "argument 3: --buckets needs a positive integer value",
    ),
    (&["trace", "nope", "F"], "unknown command \"nope\""),
    (&["trace", "diff", "A"], "diff takes exactly 2 trace file"),
    // No such command.
    (&["fig99"], "unknown command \"fig99\""),
    // `--quiet` silences progress, not usage errors.
    (
        &["chaos", "--quiet", "--plans", "bogus"],
        "argument 2: --plans: unknown value \"bogus\"",
    ),
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
    for (args, why) in MALFORMED {
        let stderr = assert_usage_error(args);
        assert!(
            stderr.contains(why),
            "{args:?} did not say {why:?}: {stderr}"
        );
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
    for name in [
        "fig5", "table3", "ablation", "chaos", "deploy", "mc", "trace",
    ] {
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
