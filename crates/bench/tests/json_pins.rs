//! Byte pins for the JSON surfaces no scenario golden covers: the Chrome
//! and JSONL trace exporters, the `obs` and `engine_profile` sections of a
//! trial report, a report's string and float rendering, and the documents
//! `totoro-bench trace summary --json` and `trace critical-path --json`
//! print. The same traced run checks that `parse_jsonl` reads back every
//! field `jsonl_trace_multi` wrote.
//!
//! The fixtures under `tests/golden/` were captured from these functions;
//! an intentional format change regenerates them and says so.

use totoro_bench::scenario::TrialReport;
use totoro_bench::simcore::build_eua_topology;
use totoro_bench::traceview;
use totoro_simnet::json::ToJson;
use totoro_simnet::obs::ROOT_PARENT;
use totoro_simnet::{
    chrome_trace_multi, jsonl_trace_multi, parse_jsonl, Application, ComputeKind, Ctx, Fault,
    FaultKind, FaultPlan, MsgMeta, NodeIdx, Payload, RecordingSink, SimDuration, SimTime,
    Simulator, TraceBody, TraceEvent, TraceRecord, TrialReport as SimAccounting,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn golden(name: &str) -> String {
    std::fs::read_to_string(format!("{GOLDEN}/{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[derive(Clone)]
struct Token(u32);

impl Payload for Token {
    fn size_bytes(&self) -> usize {
        24 + 8 * self.0 as usize
    }
}

/// Every third node arms a timer; each firing charges compute and
/// launches a token that relays a few hops around the ring.
struct Relay {
    n: usize,
}

impl Application for Relay {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
        if ctx.me() % 3 == 0 {
            let phase = 200 + 50 * ctx.me() as u64;
            ctx.set_timer(SimDuration::from_micros(phase), ctx.me() as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Token>, _token: u64) {
        ctx.charge_compute(ComputeKind::FlTask, SimDuration::from_micros(30));
        ctx.send((ctx.me() + 1) % self.n, Token(5));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: NodeIdx, msg: Token) {
        ctx.charge_compute(ComputeKind::DhtTask, SimDuration::from_micros(3));
        if msg.0 > 0 {
            ctx.send((ctx.me() + 2) % self.n, Token(msg.0 - 1));
        }
    }
}

/// A small traced, profiled run that emits every record kind: sends,
/// delivers, drops for each reason, duplicate and delay
/// effects, timers, churn and compute charges.
fn traced_run(seed: u64) -> (Vec<TraceRecord>, SimAccounting) {
    let topo = build_eua_topology(24, seed).with_loss(0.05);
    let n = topo.len();
    let mut sim = Simulator::with_sink(topo, seed, RecordingSink::new(n), |_| Relay { n });
    sim.enable_profiling();
    let window = (SimTime::ZERO, SimTime::from_micros(40_000));
    let plan = FaultPlan::none()
        .with_fault(Fault::new(
            window.0,
            window.1,
            FaultKind::LossSpike { prob: 0.1 },
        ))
        .with_fault(Fault::new(
            window.0,
            window.1,
            FaultKind::Duplicate { prob: 0.1 },
        ))
        .with_fault(Fault::new(
            window.0,
            window.1,
            FaultKind::Straggler {
                nodes: vec![3, 4],
                factor: 3,
            },
        ));
    sim.install_chaos(plan.injector(seed));
    sim.set_fault_filter(Box::new(|_, src, dst, _| src == 5 && dst == 7));
    sim.schedule_down(7, SimTime::from_micros(1_000));
    sim.schedule_up(7, SimTime::from_micros(9_000));
    assert!(sim.run_until_quiet(1_000_000));
    let report = SimAccounting::capture(&sim);
    (sim.into_sink().take_records(), report)
}

fn two_trials() -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    (traced_run(3).0, traced_run(4).0)
}

#[test]
fn chrome_trace_matches_golden() {
    let (a, b) = two_trials();
    let got = chrome_trace_multi(&[(0, &a), (1, &b)]);
    assert_eq!(got, golden("json_chrome_small.json"));
}

#[test]
fn jsonl_trace_matches_golden() {
    let (a, b) = two_trials();
    let got = jsonl_trace_multi(&[(0, &a), (1, &b)]);
    assert_eq!(got, golden("json_trace_small.jsonl"));
}

/// The JSONL reader gives back every field the writer wrote, for every
/// record kind of a real run.
#[test]
fn parse_jsonl_reads_back_every_record_field() {
    let (a, b) = two_trials();
    let groups: [(u64, &[TraceRecord]); 2] = [(0, &a), (1, &b)];
    let events = parse_jsonl(&jsonl_trace_multi(&groups)).expect("the writer's JSONL parses");
    let records = groups
        .iter()
        .flat_map(|&(trial, records)| records.iter().map(move |r| (trial, r)));
    assert_eq!(events.len(), a.len() + b.len());
    for ((trial, r), e) in records.zip(&events) {
        let meta = r.meta().filter(MsgMeta::is_traced);
        let mut want = TraceEvent {
            trial,
            at_us: r.at_us,
            node: r.node as u64,
            layer: r.layer.to_string(),
            kind: r.kind.to_string(),
            trace: meta.map(|m| m.trace),
            id: meta.map(|m| m.id),
            parent: meta.and_then(|m| (m.parent != ROOT_PARENT).then_some(m.parent)),
            hop: meta.map_or(0, |m| u64::from(m.hop)),
            ..TraceEvent::default()
        };
        let ev = match r.body {
            TraceBody::Send {
                to,
                bytes,
                arrive_at_us,
                ..
            } => {
                (want.to, want.bytes) = (Some(to as u64), bytes as u64);
                want.arrive_at_us = Some(arrive_at_us);
                "send"
            }
            TraceBody::Deliver { from, bytes, .. } => {
                (want.from, want.bytes) = (Some(from as u64), bytes as u64);
                "deliver"
            }
            TraceBody::Drop {
                to, bytes, reason, ..
            } => {
                (want.to, want.bytes) = (Some(to as u64), bytes as u64);
                want.reason = Some(reason.name().to_string());
                "drop"
            }
            TraceBody::ChaosEffect { to, effect } => {
                (want.to, want.effect) = (Some(to as u64), Some(effect.to_string()));
                "chaos"
            }
            TraceBody::TimerFire { token } => {
                want.token = Some(token);
                "timer"
            }
            TraceBody::NodeDown => "down",
            TraceBody::NodeUp => "up",
            TraceBody::Compute { task, us } => {
                (want.task, want.us) = (Some(task.to_string()), Some(us));
                "compute"
            }
        };
        want.ev = ev.to_string();
        assert_eq!(*e, want, "{r:?}");
    }
}

/// A report whose `sim` section, one traced run's accounting, carries both
/// optional sections, and whose own sections hold strings that need
/// escaping and floats of every shape.
fn report() -> TrialReport {
    let mut r = TrialReport {
        index: 7,
        setup: "quote\"back\\slash".to_string(),
        sim: traced_run(3).1,
        ..TrialReport::default()
    };
    for (name, v) in [
        ("int", 3.0),
        ("frac", 0.1),
        ("third", 1.0 / 3.0),
        ("neg_zero", -0.0),
        ("huge", 1e21),
        ("tiny", 1.5e-7),
        ("nan", f64::NAN),
        ("inf", f64::INFINITY),
        ("ctl\n\t\u{1}", -2.5),
    ] {
        r.push_metric(name, v);
    }
    r.push_series("curve", vec![(0.0, 1.0), (2.5, f64::NEG_INFINITY)]);
    r.push_series("empty", Vec::new());
    r.push_row(vec!["é😀".to_string(), "a\u{1f}b\rc".to_string()]);
    r.push_note("note with \"quotes\"");
    r
}

#[test]
fn report_with_obs_and_engine_profile_matches_golden() {
    let got = format!("{}\n", report().to_json());
    assert_eq!(got, golden("json_report_obs_profile.json"));
}

#[test]
fn trace_json_documents_match_golden() {
    let events = parse_jsonl(&golden("trace_tiny.jsonl")).unwrap();
    let summary = traceview::summary_json(&traceview::summarize(&events));
    assert_eq!(format!("{summary}\n"), golden("trace_tiny_summary.json"));
    let path = traceview::path_json(traceview::critical_path(&events).as_ref());
    assert_eq!(format!("{path}\n"), golden("trace_tiny_critical.json"));
    assert_eq!(traceview::path_json(None), "{\"critical_path\":null}");
}
