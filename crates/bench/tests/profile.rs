//! Integration tests for the engine self-profiling pipeline and the
//! `totoro-bench trace` analytics: profile invariance across worker and shard
//! counts, Chrome trace well-formedness, and pinned critical-path output
//! on a committed fixture.

use totoro_bench::scenario::{execute, Params, Scenario, SinkSpec, Trial, TrialReport};
use totoro_bench::simcore::{build_eua_topology, run_event_churn_traced};
use totoro_bench::traceview;
use totoro_simnet::{
    chrome_trace, jsonl_trace, Application, Ctx, Fault, FaultKind, FaultPlan, NodeIdx, Payload,
    ShardedSim, SimTime, TraceRecord, TrialReport as SimAccounting,
};

#[derive(Clone)]
struct Tok(u32);

impl Payload for Tok {
    fn size_bytes(&self) -> usize {
        16
    }
}

/// A zone-crossing token ring: every 7th node launches a token that hops
/// the full ring, so traffic constantly crosses region (and therefore
/// shard) boundaries while chaos drops and duplicates messages.
struct RingNode {
    n: usize,
}

impl Application for RingNode {
    type Msg = Tok;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Tok>) {
        if ctx.me() % 7 == 0 {
            let next = (ctx.me() + 1) % self.n;
            ctx.send(next, Tok(40));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Tok>, _from: NodeIdx, msg: Tok) {
        if msg.0 > 0 {
            let next = (ctx.me() + 1) % self.n;
            ctx.send(next, Tok(msg.0 - 1));
        }
    }
}

/// A scenario whose every trial runs a chaos-enabled sharded simulation
/// with engine profiling on, reporting the profile through the standard
/// accounting path (`TrialReport.sim.engine_profile`).
struct ProfiledChaos;

impl Scenario for ProfiledChaos {
    fn name(&self) -> &'static str {
        "profiled-chaos"
    }

    fn description(&self) -> &'static str {
        "test scenario: sharded chaos run with engine profiling"
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        Ok(Trial::seal(
            (0..3)
                .map(|i| Trial::new("chaos", params.seed + i).with("shards", 2))
                .collect(),
        ))
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        _sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let n = 120;
        let shards = trial.get_usize("shards");
        let topo = build_eua_topology(n, trial.seed);
        let mut sim = ShardedSim::new(topo, trial.seed, shards, |_| RingNode { n })
            .expect("EUA topology is shardable")
            .with_profiling();
        let plan = FaultPlan::none()
            .with_fault(Fault::new(
                SimTime::ZERO,
                SimTime::from_micros(50_000),
                FaultKind::LossSpike { prob: 0.1 },
            ))
            .with_fault(Fault::new(
                SimTime::ZERO,
                SimTime::from_micros(50_000),
                FaultKind::Duplicate { prob: 0.1 },
            ));
        sim.apply_plan(&plan, trial.seed);
        sim.run_to_quiescence();
        let mut report = TrialReport::for_trial(trial);
        report.sim = SimAccounting::capture_sharded(&sim);
        (report, None)
    }

    fn render(&self, _params: &Params, reports: &[TrialReport]) -> String {
        let lines: Vec<String> = reports.iter().map(|r| r.sim.to_json()).collect();
        lines.join("\n")
    }
}

#[test]
fn engine_profile_is_jobs_invariant() {
    let run = |jobs: usize| {
        execute(
            &ProfiledChaos,
            &Params {
                jobs,
                json: true,
                ..Params::default()
            },
        )
        .expect("valid params")
    };
    let serial = run(1);
    assert!(
        serial.contains("\"engine_profile\":{\"sched\":"),
        "profile missing from report JSON"
    );
    assert_eq!(serial, run(4), "engine profile must not see --jobs");
}

#[test]
fn engine_profile_is_shard_invariant_under_chaos() {
    let json_for = |shards: u64| {
        let trial = Trial::new("chaos", 42).with("shards", shards);
        let (report, _) = ProfiledChaos.run_with_sink(&trial, &SinkSpec::untraced());
        report.sim.to_json()
    };
    let base = json_for(1);
    for shards in [2, 4] {
        assert_eq!(base, json_for(shards), "shards = {shards}");
    }
}

#[test]
fn chrome_trace_is_valid_json_with_monotone_timestamps() {
    let records = run_event_churn_traced(50, 4, 40);
    let text = chrome_trace(&records);
    let doc = traceview::parse_json(&text).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(traceview::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last: std::collections::BTreeMap<(u64, u64), u64> = std::collections::BTreeMap::new();
    for e in events {
        let pid = e.get("pid").and_then(traceview::Json::as_u64).unwrap_or(0);
        let tid = e.get("tid").and_then(traceview::Json::as_u64).unwrap_or(0);
        let ts = e
            .get("ts")
            .and_then(traceview::Json::as_u64)
            .expect("every event carries an integer ts");
        let prev = last.entry((pid, tid)).or_insert(0);
        assert!(
            ts >= *prev,
            "ts must be non-decreasing per (pid,tid): {ts} after {prev}"
        );
        *prev = ts;
    }
}

#[test]
fn critical_path_render_matches_committed_fixture() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let trace = std::fs::read_to_string(format!("{dir}/trace_tiny.jsonl")).unwrap();
    let expected = std::fs::read_to_string(format!("{dir}/trace_tiny_critical.txt")).unwrap();
    let events = traceview::parse_jsonl(&trace).unwrap();
    let path = traceview::critical_path(&events);
    let rendered = traceview::render_critical_path("trace_tiny.jsonl", path.as_ref());
    assert_eq!(rendered, expected, "pinned critical-path output changed");
}

#[test]
fn churn_trace_reruns_diff_clean() {
    let first = jsonl_trace(&run_event_churn_traced(60, 4, 30));
    let rerun = jsonl_trace(&run_event_churn_traced(60, 4, 30));
    assert_eq!(first, rerun, "a rerun must reproduce the trace");
    let ef = traceview::parse_jsonl(&first).unwrap();
    let er = traceview::parse_jsonl(&rerun).unwrap();
    let diff = traceview::render_diff("first", &first, &ef, "rerun", &rerun, &er);
    assert!(
        diff.contains("verdict: traces are byte-identical"),
        "diff verdict missing:\n{diff}"
    );
    // Each token makes hops + 1 sends; the longest causal chain follows
    // one token end to end: 31 × 100 us links + 31 × 3 us handler dwell.
    let p = traceview::critical_path(&ef).expect("churn traces carry spans");
    assert_eq!(
        traceview::path_summary(&p),
        "critical path: trial 0 trace 1: 31 hops, 3193 us end-to-end (0 -> 3193 us)"
    );
}
