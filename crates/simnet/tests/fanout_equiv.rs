//! Differential tests pinning the fan-out contract (DESIGN.md §8, *park
//! once, deliver many*): `ctx.send_all(dsts, m)` is observably
//! `for d in dsts { ctx.send(d, m.clone()) }`. The same random protocol is
//! run twice, once per spelling, and everything a run can show must
//! agree: the trace-record sequence when traced, every node's delivery
//! and bounce log and the final [`TrialReport`] when not — with
//! destination lists that repeat nodes, name the sender and name dead
//! nodes, under link loss and jitter, a chaos plan that drops, duplicates
//! and delays, and a fault filter that starves one destination.
//!
//! The untraced, unprofiled fan-out run is the only one whose legs share a
//! slab slot (a traced or profiled engine parks one payload per leg), so
//! node logs are also compared *across* the traced and untraced runs.

use proptest::prelude::*;
use totoro_simnet::json::ToJson;
use totoro_simnet::obs::jsonl_trace;
use totoro_simnet::{
    keyed_unit, Application, ComputeKind, Ctx, Fault, FaultKind, FaultPlan, NodeIdx, NoopSink,
    Payload, RecordingSink, SimDuration, SimTime, Simulator, Topology, TraceSink, TrialReport,
};

#[derive(Clone, Debug, PartialEq)]
struct Pkt {
    id: u64,
    hops: u8,
}

impl Payload for Pkt {
    fn size_bytes(&self) -> usize {
        40 + self.hops as usize
    }

    fn layer(&self) -> &'static str {
        "cast"
    }
}

/// Which spelling of a fan-out a run uses.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Spelling {
    SendAll,
    Loop,
}

/// Fans keyed-random destination lists out from timers and, for the first
/// two hops, from message handlers (so fan-outs inherit causal meta too).
struct Caster {
    spelling: Spelling,
    n: usize,
    rounds: u64,
    behavior: u64,
    fired: u64,
    /// Every delivery, in arrival order.
    got: Vec<Arrival>,
    /// `(now, peer)` per failure bounce.
    bounced: Vec<(u64, NodeIdx)>,
}

/// One delivery as its receiver saw it: `(now, from, id, hops)`.
type Arrival = (u64, NodeIdx, u64, u8);

/// One node's deliveries and bounces.
type NodeLog = (Vec<Arrival>, Vec<(u64, NodeIdx)>);

impl Caster {
    fn cast(&self, ctx: &mut Ctx<'_, Pkt>, dsts: Vec<NodeIdx>, msg: Pkt) {
        match self.spelling {
            Spelling::SendAll => ctx.send_all(dsts, msg),
            Spelling::Loop => {
                for d in dsts {
                    ctx.send(d, msg.clone());
                }
            }
        }
    }

    /// `0..=5` keyed-random destinations out of all `n` nodes: repeats, the
    /// sender and currently-dead nodes all turn up.
    fn pick(&self, me: NodeIdx, salt: u64) -> Vec<NodeIdx> {
        let unit = |i: u64| keyed_unit(self.behavior, &[me as u64, salt, i]);
        let len = (unit(0) * 6.0) as u64;
        (1..=len)
            .map(|i| ((unit(i) * self.n as f64) as usize).min(self.n - 1))
            .collect()
    }
}

impl Application for Caster {
    type Msg = Pkt;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Pkt>) {
        // Odd phase and even gaps keep timer firings on odd microseconds,
        // clear of the even churn instants.
        let phase = 1 + 2 * ((ctx.me() as u64 * 29) % 300);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Pkt>, _token: u64) {
        let me = ctx.me();
        self.fired += 1;
        let id = (me as u64) << 16 | self.fired;
        // A fan-out between other actions: their relative order must hold.
        ctx.send((me + 1) % self.n, Pkt { id, hops: 9 });
        self.cast(ctx, self.pick(me, self.fired), Pkt { id, hops: 0 });
        ctx.charge_compute(ComputeKind::DhtTask, SimDuration::from_micros(3));
        if self.fired < self.rounds {
            let gap = 2 * (1 + (me as u64 * 11 + self.fired * 17) % 600);
            ctx.set_timer(SimDuration::from_micros(gap), 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Pkt>, from: NodeIdx, msg: Pkt) {
        self.got
            .push((ctx.now().as_micros(), from, msg.id, msg.hops));
        if msg.hops < 2 {
            let hops = msg.hops + 1;
            let mut dsts = self.pick(ctx.me(), msg.id ^ (u64::from(hops) << 40));
            dsts.truncate(3);
            dsts.push(from);
            self.cast(ctx, dsts, Pkt { id: msg.id, hops });
        }
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, Pkt>, peer: NodeIdx) {
        self.bounced.push((ctx.now().as_micros(), peer));
    }

    fn memory_bytes(&self) -> usize {
        self.got.len() * 32 + self.bounced.len() * 16
    }
}

#[derive(Clone, Debug)]
struct Scheme {
    n: usize,
    rounds: u64,
    seed: u64,
    loss_prob: f64,
    dup_prob: f64,
    straggle: u64,
    /// `(node, down_at, up_after)`; even instants.
    churn: Vec<(usize, u64, u64)>,
}

impl Scheme {
    fn caster(&self, spelling: Spelling) -> impl FnMut(NodeIdx) -> Caster + '_ {
        move |_| Caster {
            spelling,
            n: self.n,
            rounds: self.rounds,
            behavior: self.seed ^ 0xFA17,
            fired: 0,
            got: Vec::new(),
            bounced: Vec::new(),
        }
    }

    /// Loss, duplication and (straggler) delay, all windowed over the run.
    fn plan(&self) -> FaultPlan {
        let window = |kind| Fault::new(SimTime::ZERO, SimTime::from_micros(60_000), kind);
        let mut plan = FaultPlan::none();
        if self.loss_prob > 0.0 {
            let prob = self.loss_prob;
            plan = plan.with_fault(window(FaultKind::LossSpike { prob }));
        }
        if self.dup_prob > 0.0 {
            let prob = self.dup_prob;
            plan = plan.with_fault(window(FaultKind::Duplicate { prob }));
        }
        if self.straggle > 1 {
            let nodes = vec![1 % self.n, self.n / 2];
            let factor = self.straggle;
            plan = plan.with_fault(window(FaultKind::Straggler { nodes, factor }));
        }
        plan
    }

    fn churn_instants(&self) -> impl Iterator<Item = (NodeIdx, SimTime, SimTime)> + '_ {
        self.churn.iter().map(|&(node, down, up)| {
            let down = 2 * down;
            (
                node % self.n,
                SimTime::from_micros(down),
                SimTime::from_micros(down + 2 * up),
            )
        })
    }
}

/// What one run shows: the JSONL trace (empty when untraced), every node's
/// logs, and the trial report.
#[derive(Debug, PartialEq)]
struct Seen {
    trace: String,
    nodes: Vec<NodeLog>,
    report: String,
}

fn node_logs<'a>(apps: impl Iterator<Item = &'a Caster>) -> Vec<NodeLog> {
    apps.map(|a| (a.got.clone(), a.bounced.clone())).collect()
}

/// One run under link loss and jitter, the scheme's chaos plan, its churn,
/// and a fault filter that starves node 2 of even-id packets.
fn run_sequential<S: TraceSink>(
    s: &Scheme,
    spelling: Spelling,
    sink: S,
    profiled: bool,
    take: impl FnOnce(&mut S) -> String,
) -> Seen {
    let topology = Topology::uniform(s.n, 300, 2_500).with_loss(0.04);
    let mut sim = Simulator::with_sink(topology, s.seed, sink, s.caster(spelling));
    if profiled {
        sim.enable_profiling();
    }
    s.plan().apply(&mut sim, s.seed);
    sim.set_fault_filter(Box::new(|_, _, to, msg: &Pkt| {
        to == 2 && msg.id.is_multiple_of(2)
    }));
    for (node, down, up) in s.churn_instants() {
        sim.schedule_down(node, down);
        sim.schedule_up(node, up);
    }
    assert!(sim.run_until_quiet(5_000_000));
    Seen {
        nodes: node_logs(sim.apps()),
        report: TrialReport::capture(&sim).to_json(),
        trace: take(sim.sink_mut()),
    }
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    (
        (4usize..28, 1u64..4, any::<u64>()),
        (0u32..30, 0u32..40, 1u64..4),
        proptest::collection::vec((0usize..64, 1u64..6_000, 1u64..6_000), 0..4),
    )
        .prop_map(|((n, rounds, seed), (loss, dup, straggle), churn)| Scheme {
            n,
            rounds,
            seed,
            loss_prob: f64::from(loss) / 100.0,
            dup_prob: f64::from(dup) / 100.0,
            straggle,
            churn,
        })
}

/// Runs `scheme` in all four (spelling, traced) combinations and checks
/// they agree.
fn check_sequential(scheme: &Scheme, profiled: bool) -> Result<(), TestCaseError> {
    let traced = |spelling| {
        let sink = RecordingSink::new(scheme.n);
        run_sequential(scheme, spelling, sink, profiled, |s| {
            jsonl_trace(&s.take_records())
        })
    };
    let untraced =
        |spelling| run_sequential(scheme, spelling, NoopSink, profiled, |_| String::new());
    let (traced_all, traced_loop) = (traced(Spelling::SendAll), traced(Spelling::Loop));
    prop_assert!(!traced_loop.trace.is_empty());
    prop_assert_eq!(&traced_all, &traced_loop);
    let (plain_all, plain_loop) = (untraced(Spelling::SendAll), untraced(Spelling::Loop));
    prop_assert_eq!(&plain_all, &plain_loop);
    // Shared slots (untraced `send_all`) against one payload per leg.
    prop_assert_eq!(&plain_all.nodes, &traced_loop.nodes);
    Ok(())
}

proptest! {
    /// Stochastic topology, chaos, fault filter.
    #[test]
    fn send_all_is_a_loop_of_sends(scheme in scheme_strategy(), profiled in any::<bool>()) {
        check_sequential(&scheme, profiled)?;
    }
}

/// A fixed scheme in which every mechanism demonstrably fires, so the
/// property above is not vacuously true on some generator drift.
#[test]
fn the_fixed_scheme_exercises_every_path() {
    let scheme = Scheme {
        n: 16,
        rounds: 3,
        seed: 0xF0F0,
        loss_prob: 0.10,
        dup_prob: 0.25,
        straggle: 3,
        churn: vec![(5, 40, 900), (11, 300, 2_000)],
    };
    check_sequential(&scheme, false).unwrap();
    check_sequential(&scheme, true).unwrap();
    let sink = RecordingSink::new(scheme.n);
    let seen = run_sequential(&scheme, Spelling::SendAll, sink, false, |s| {
        jsonl_trace(&s.take_records())
    });
    for needle in [
        "\"reason\":\"loss\"",
        "\"reason\":\"chaos\"",
        "\"reason\":\"filter\"",
        "\"reason\":\"dead_dest\"",
        "\"effect\":\"duplicate\"",
        "\"effect\":\"delay\"",
    ] {
        assert!(seen.trace.contains(needle), "no {needle} in the trace");
    }
    assert!(
        seen.nodes.iter().any(|(_, bounced)| !bounced.is_empty()),
        "no send to a dead node bounced"
    );
    let repeats = |log: &NodeLog| {
        log.0
            .windows(2)
            .any(|w| (w[0].1, w[0].2, w[0].3) == (w[1].1, w[1].2, w[1].3))
    };
    assert!(seen.nodes.iter().any(repeats), "no repeated destination");
    let selfies = seen.nodes.iter().enumerate();
    assert!(
        selfies
            .clone()
            .any(|(i, log)| log.0.iter().any(|g| g.1 == i)),
        "no node ever addressed itself"
    );
}
