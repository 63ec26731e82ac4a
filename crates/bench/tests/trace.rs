//! Observability-layer tests over the full stack: a forest JOIN and an
//! aggregation round must be reconstructible hop-by-hop from recorded
//! spans, and traced scenario output (report text and serialized trace)
//! must be byte-identical across `--jobs` settings.

use totoro_bench::scenario::{
    execute, execute_traced, Params, Scenario, SinkSpec, Trial, TrialReport,
};
use totoro_bench::setups::{
    broadcast_from_root, build_tree, echo_overlay_sink, eua_topology, topic,
};
use totoro_simnet::obs::ROOT_PARENT;
use totoro_simnet::{
    spans, MsgMeta, NoopSink, RecordingSink, SimTime, TraceBody, TraceRecord, TraceSink,
};

const SETTLE: SimTime = SimTime::from_secs(30);

/// Builds a small traced overlay, subscribes every node to one topic, and
/// optionally drives one broadcast round; returns the recorded trace.
fn traced_world(seed: u64, drive_round: bool) -> Vec<TraceRecord> {
    let topology = eua_topology(50, seed);
    let n = topology.len();
    let mut sim = echo_overlay_sink(topology, seed, 4, RecordingSink::new(n));
    let members: Vec<usize> = (0..n).collect();
    let t = topic("trace-test", 0);
    build_tree(&mut sim, t, &members, SETTLE);
    if drive_round {
        broadcast_from_root(&mut sim, t, 0, 2_000);
        sim.run_until(SimTime::from_secs(60));
    }
    sim.into_sink().take_records()
}

/// The records of one span, with parent-linkage sanity checks: every
/// non-root send's parent must be an earlier traced record of the same
/// span with one hop less.
fn check_span_linkage(span: &[&TraceRecord]) {
    let mut seen: Vec<MsgMeta> = Vec::new();
    for r in span {
        let m = r.meta().expect("span records carry meta");
        if let TraceBody::Send { .. } = r.body {
            if m.parent == ROOT_PARENT {
                assert_eq!(m.hop, 0, "span root must be hop 0");
            } else {
                let parent = seen
                    .iter()
                    .find(|p| p.id == m.parent)
                    .unwrap_or_else(|| panic!("send {} has unseen parent {}", m.id, m.parent));
                assert_eq!(
                    m.hop,
                    parent.hop + 1,
                    "hop must increment along the causal chain"
                );
            }
        }
        seen.push(m);
    }
}

#[test]
fn join_span_reconstructs_through_three_hops() {
    let records = traced_world(5, false);
    let by_trace = spans(&records);
    // Find a JOIN that routed through the DHT for at least 3 causal hops
    // (subscriber -> intermediate -> ... -> rendezvous, hops 0,1,2).
    let deep_join = by_trace.values().find(|span| {
        span.iter().any(|r| {
            r.kind == "join" && matches!(r.body, TraceBody::Send { meta, .. } if meta.hop >= 2)
        })
    });
    let span = deep_join.expect("a 50-node fanout-4 overlay must route some JOIN over >=3 hops");
    assert!(
        span.iter().all(|r| r.layer == "forest" || r.layer == "dht"),
        "a JOIN span stays inside the overlay layers"
    );
    check_span_linkage(span);
    // The span must contain the full story: the original send, at least
    // one forwarded send, and the delivery at the rendezvous that answers.
    let sends = span
        .iter()
        .filter(|r| matches!(r.body, TraceBody::Send { .. }))
        .count();
    let delivers = span
        .iter()
        .filter(|r| matches!(r.body, TraceBody::Deliver { .. }))
        .count();
    assert!(sends >= 3, "expected >=3 sends in the chain, got {sends}");
    assert!(delivers >= 2, "expected >=2 delivers, got {delivers}");
}

#[test]
fn aggregation_round_reconstructs_as_one_span() {
    let records = traced_world(7, true);
    let by_trace = spans(&records);
    // The root's broadcast roots a span; dissemination down the tree and
    // the contributions flowing back up (self-sends issued in the
    // broadcast handler) inherit it.
    let round_span = by_trace
        .values()
        .find(|span| span.iter().any(|r| r.kind == "broadcast"))
        .expect("the driven round must appear in the trace");
    check_span_linkage(round_span);
    let broadcasts = round_span
        .iter()
        .filter(|r| r.kind == "broadcast" && matches!(r.body, TraceBody::Send { .. }))
        .count();
    let agg_ups = round_span
        .iter()
        .filter(|r| r.kind == "aggregate_up" && matches!(r.body, TraceBody::Send { .. }))
        .count();
    assert!(
        broadcasts >= 2,
        "dissemination must fan out beyond the root, got {broadcasts} sends"
    );
    assert!(
        agg_ups >= 2,
        "contributions must flow back up inside the same span, got {agg_ups}"
    );
}

// ---------------------------------------------------------------------------
// Jobs-invariance of traced scenario execution
// ---------------------------------------------------------------------------

/// A miniature traced scenario: three independent overlay-build trials.
struct TinyTrace;

fn run_tiny<S: TraceSink>(trial: &Trial, sink: S) -> (TrialReport, Option<Vec<TraceRecord>>) {
    let topology = eua_topology(30, trial.seed);
    let n = topology.len();
    let mut sim = echo_overlay_sink(topology, trial.seed, 4, sink);
    let members: Vec<usize> = (0..n).collect();
    build_tree(
        &mut sim,
        topic("tiny-trace", trial.index as u64),
        &members,
        SimTime::from_secs(20),
    );
    let mut report = TrialReport::for_trial(trial);
    report.sim = totoro_simnet::TrialReport::capture(&sim);
    let records = sim.sink_mut().drain_records();
    (report, records)
}

impl Scenario for TinyTrace {
    fn name(&self) -> &'static str {
        "tiny-trace"
    }
    fn description(&self) -> &'static str {
        "trace test scenario"
    }
    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        Ok(Trial::seal(
            (0..3u64)
                .map(|k| Trial::new("overlay", params.seed + k))
                .collect(),
        ))
    }
    fn run_with_sink(
        &self,
        trial: &Trial,
        sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        match sink.recording() {
            Some(rec) => run_tiny(trial, rec),
            None => run_tiny(trial, NoopSink),
        }
    }
    fn render(&self, _params: &Params, reports: &[TrialReport]) -> String {
        let events: Vec<String> = reports.iter().map(|r| r.sim.events.to_string()).collect();
        format!("events: {}\n", events.join(","))
    }
}

#[test]
fn traced_output_is_byte_identical_across_jobs() {
    let base = Params {
        nodes: 30,
        trace: Some("out.json".to_string()),
        ..Params::default()
    };
    let p1 = Params {
        jobs: 1,
        ..base.clone()
    };
    let p2 = Params {
        jobs: 2,
        ..base.clone()
    };
    let (out1, trace1) = execute_traced(&TinyTrace, &p1).unwrap();
    let (out2, trace2) = execute_traced(&TinyTrace, &p2).unwrap();
    assert_eq!(out1, out2, "rendered output depends on --jobs");
    assert_eq!(trace1, trace2, "serialized trace depends on --jobs");
    let trace = trace1.expect("tracing was requested");
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"name\":\"forest/join\""));
    // Trials render as distinct Chrome pids.
    assert!(trace.contains("\"pid\":0,") && trace.contains("\"pid\":2,"));
}

#[test]
fn tracing_does_not_perturb_untraced_output() {
    let untraced = Params::default();
    let traced = Params {
        trace: Some("out.jsonl".to_string()),
        ..Params::default()
    };
    assert_eq!(
        execute(&TinyTrace, &untraced).unwrap(),
        execute(&TinyTrace, &traced).unwrap(),
        "installing a recording sink changed the rendered output"
    );
    let (_, trace) = execute_traced(&TinyTrace, &traced).unwrap();
    let trace = trace.expect("tracing was requested");
    let first = trace.lines().next().expect("trace has records");
    assert!(
        first.starts_with("{\"trial\":0,\"at_us\":"),
        "JSONL lines carry their trial index: {first}"
    );
}

#[test]
fn trace_filter_restricts_layers() {
    let filtered = Params {
        trace: Some("out.jsonl".to_string()),
        trace_filter: Some("dht".to_string()),
        ..Params::default()
    };
    let (_, trace) = execute_traced(&TinyTrace, &filtered).unwrap();
    let trace = trace.expect("tracing was requested");
    assert!(trace.contains("\"layer\":\"dht\""));
    assert!(!trace.contains("\"layer\":\"forest\""));
    assert!(!trace.contains("\"layer\":\"sim\""));
}
