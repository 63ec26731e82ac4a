//! Differential tests pinning the shard-invariance contract
//! (DESIGN.md §13): for any schedule — including churn and keyed chaos —
//! running the *same* simulation on `--shards {1, 2, 4}` yields
//! byte-identical observables: event counts, final clock, per-zone
//! traffic ledgers, chaos statistics, per-node application state (folded
//! into an order-sensitive digest), and the merged JSONL trace. A fixed
//! scenario additionally pins the merged-trace digest to a constant so
//! the contract cannot drift silently; and a collision-free scenario is
//! cross-checked against the sequential [`Simulator`] on all
//! order-insensitive observables, the multiset of trace records included.
//! Two regressions of the shared event core ride along: past-scheduled
//! churn transitions and the `run_until_quiet` event budget.

use proptest::prelude::*;
use totoro_simnet::obs::jsonl_trace;
use totoro_simnet::{
    keyed_unit, Application, ChaosStats, Ctx, Fault, FaultKind, FaultPlan, GeoPoint, LatencyModel,
    NodeIdx, NodeProfile, Payload, RecordingSink, ShardedSim, SimDuration, SimTime, Simulator,
    Topology, TraceBody, TraceRecord,
};

/// An `n`-node topology with `zones` round-robin regions and a fixed
/// `latency_us` delay between every pair (RNG-free, hence shardable).
fn zoned(n: usize, zones: usize, latency_us: u64) -> Topology {
    let regions: Vec<u16> = (0..n).map(|i| (i % zones) as u16).collect();
    Topology::from_parts(
        vec![GeoPoint::new(0.0, 0.0); n],
        regions,
        vec![NodeProfile::default(); n],
        LatencyModel::Uniform {
            min_us: latency_us,
            max_us: latency_us,
        },
    )
    .with_jitter(0.0)
}

/// FNV-1a — a stable digest independent of `std`'s hasher internals.
fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    let mut h = if digest == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        digest
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[derive(Clone)]
struct Pkt(u64);

impl Payload for Pkt {
    fn size_bytes(&self) -> usize {
        24
    }
}

/// A messy-schedule generator: every timer firing sends to either the
/// global ring successor (usually crossing zones) or the same-zone
/// successor, chosen by a keyed hash of `(behavior_seed, me, round)` —
/// deterministic and RNG-free, so results must be shard-invariant.
struct Mixer {
    n: usize,
    zones: usize,
    rounds: u64,
    behavior: u64,
    fired: u64,
    recvd: u64,
    failed: u64,
    /// Order-sensitive fold of every callback this node observed.
    digest: u64,
}

impl Mixer {
    fn fold(&mut self, tag: u64, a: u64, b: u64) {
        let mut buf = [0u8; 24];
        buf[..8].copy_from_slice(&tag.to_le_bytes());
        buf[8..16].copy_from_slice(&a.to_le_bytes());
        buf[16..].copy_from_slice(&b.to_le_bytes());
        self.digest = fnv1a(self.digest, &buf);
    }
}

impl Application for Mixer {
    type Msg = Pkt;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Pkt>) {
        // Odd phase + even gaps + even latency: every application event
        // lands on an odd microsecond, so even-instant churn can never
        // collide with a delivery (the sequential cross-check relies on
        // this; shard-invariance holds regardless).
        let phase = 1 + 2 * ((ctx.me() as u64 * 31) % 488);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Pkt>, from: NodeIdx, msg: Pkt) {
        self.recvd += 1;
        self.fold(1, ctx.now().as_micros(), (from as u64) << 32 | msg.0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Pkt>, _token: u64) {
        let me = ctx.me();
        self.fired += 1;
        let u = keyed_unit(self.behavior, &[me as u64, self.fired]);
        let to = if u < 0.35 {
            (me + 1) % self.n // ring: usually crosses into the next zone
        } else {
            (me + self.zones) % self.n // same-zone successor
        };
        ctx.send(to, Pkt(self.fired));
        self.fold(2, ctx.now().as_micros(), to as u64);
        if self.fired < self.rounds {
            let gap = 2 * (1 + (me as u64 * 7 + self.fired * 13) % 750);
            ctx.set_timer(SimDuration::from_micros(gap), 0);
        }
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, Pkt>, peer: NodeIdx) {
        self.failed += 1;
        self.fold(3, ctx.now().as_micros(), peer as u64);
    }
}

/// Everything observable from one run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Observation {
    events: u64,
    now_us: u64,
    dropped_loss: u64,
    dropped_dead: u64,
    chaos: (u64, u64, u64),
    zones: Vec<(u64, u64, u64, u64, u64, u64)>,
    nodes: Vec<(u64, u64, u64, u64)>,
    trace: String,
}

#[derive(Clone, Debug)]
struct Scheme {
    n: usize,
    zones: usize,
    latency_us: u64,
    rounds: u64,
    seed: u64,
    loss_prob: f64,
    dup_prob: f64,
    churn: Vec<(usize, u64, u64)>,
}

fn fault_plan(s: &Scheme) -> FaultPlan {
    let horizon = SimTime::from_micros(40_000);
    let mut plan = FaultPlan::none();
    if s.loss_prob > 0.0 {
        plan = plan.with_fault(Fault::new(
            SimTime::ZERO,
            horizon,
            FaultKind::LossSpike { prob: s.loss_prob },
        ));
    }
    if s.dup_prob > 0.0 {
        plan = plan.with_fault(Fault::new(
            SimTime::ZERO,
            horizon,
            FaultKind::Duplicate { prob: s.dup_prob },
        ));
    }
    plan
}

fn run_scheme(s: &Scheme, shards: usize) -> Observation {
    let topo = zoned(s.n, s.zones, s.latency_us);
    let zones = topo.num_regions();
    let mut sim = ShardedSim::new(topo, s.seed, shards, |_| Mixer {
        n: s.n,
        zones: s.zones,
        rounds: s.rounds,
        behavior: s.seed ^ 0xDEC0,
        fired: 0,
        recvd: 0,
        failed: 0,
        digest: 0,
    })
    .expect("zoned topology is shardable")
    .with_tracing();
    sim.apply_plan(&fault_plan(s), s.seed);
    for &(node, down, up) in &s.churn {
        let node = node % s.n;
        sim.schedule_down(node, SimTime::from_micros(down));
        sim.schedule_up(node, SimTime::from_micros(down + up));
    }
    sim.run_to_quiescence();
    let ledger = sim.traffic();
    Observation {
        events: sim.events_processed(),
        now_us: sim.now().as_micros(),
        dropped_loss: sim.dropped_loss(),
        dropped_dead: sim.dropped_dead(),
        chaos: {
            let c = sim.chaos_stats();
            (c.dropped, c.duplicated, c.delayed)
        },
        zones: (0..zones)
            .map(|z| {
                let t = ledger.zone(z as u16);
                (
                    t.msgs_sent,
                    t.msgs_recv,
                    t.payload_sent,
                    t.payload_recv,
                    t.tcp_sent,
                    t.udp_sent,
                )
            })
            .collect(),
        nodes: sim
            .apps()
            .map(|a| (a.fired, a.recvd, a.failed, a.digest))
            .collect(),
        trace: jsonl_trace(&sim.take_trace()),
    }
}

proptest! {
    /// The tentpole invariant: arbitrary messy schedules — staggered
    /// timers, zone-crossing sends, churn atoms, keyed loss and
    /// duplication chaos — produce byte-identical observables (traces
    /// included) at 1, 2, and 4 shards.
    #[test]
    fn random_schedules_are_shard_invariant(
        n in 8usize..40,
        zones in 2usize..5,
        latency_us in 50u64..1_500,
        rounds in 1u64..5,
        seed in any::<u64>(),
        loss in 0u32..40,
        dup in 0u32..30,
        churn in proptest::collection::vec(
            (0usize..64, 1u64..20_000, 1u64..20_000), 0..4),
    ) {
        let scheme = Scheme {
            n,
            zones,
            latency_us,
            rounds,
            seed,
            loss_prob: f64::from(loss) / 100.0,
            dup_prob: f64::from(dup) / 100.0,
            churn,
        };
        let base = run_scheme(&scheme, 1);
        prop_assert_eq!(&base, &run_scheme(&scheme, 2));
        prop_assert_eq!(&base, &run_scheme(&scheme, 4));
    }
}

/// A fixed scenario whose merged-trace digest is pinned: shard counts 1,
/// 2, and 4 must agree with each other *and* with the constant, so the
/// contract (event keys, closed timestamps, trace merge order) cannot
/// drift without this test noticing.
#[test]
fn golden_trace_digest_is_pinned_across_shard_counts() {
    let scheme = Scheme {
        n: 30,
        zones: 3,
        latency_us: 700,
        rounds: 4,
        seed: 0x70707,
        loss_prob: 0.15,
        dup_prob: 0.10,
        churn: vec![(4, 911, 8_089), (17, 1_555, 6_001)],
    };
    let base = run_scheme(&scheme, 1);
    assert_eq!(base, run_scheme(&scheme, 2));
    assert_eq!(base, run_scheme(&scheme, 4));
    assert!(base.chaos.0 > 0 && base.chaos.1 > 0, "chaos must fire");
    assert!(base.dropped_dead > 0, "churn must drop something");
    let digest = fnv1a(0, base.trace.as_bytes());
    assert_eq!(
        digest, GOLDEN_TRACE_DIGEST,
        "merged trace changed; if intentional, update the pinned digest"
    );
}

/// Pinned by the test above (FNV-1a of the K=1 merged JSONL trace).
const GOLDEN_TRACE_DIGEST: u64 = 13_264_027_526_420_172_575;

/// Payload-free shape of one trace record: `(at_us, node, layer, kind,
/// body variant)`. Message ids are left out on purpose — the two engines
/// mint them from different counters (DESIGN.md §12, row 1).
type RecordShape = (u64, NodeIdx, &'static str, &'static str, &'static str);

fn shapes(records: &[TraceRecord]) -> Vec<RecordShape> {
    let mut out: Vec<RecordShape> = records
        .iter()
        .map(|r| {
            let variant = match r.body {
                TraceBody::Send { .. } => "send",
                TraceBody::Deliver { .. } => "deliver",
                TraceBody::Drop { reason, .. } => reason.name(),
                TraceBody::ChaosEffect { effect, .. } => effect,
                TraceBody::TimerFire { .. } => "timer",
                TraceBody::NodeDown => "down",
                TraceBody::NodeUp => "up",
                TraceBody::Compute { .. } => "compute",
            };
            (r.at_us, r.node, r.layer, r.kind, variant)
        })
        .collect();
    out.sort_unstable();
    out
}

/// Sequential cross-check on a collision-free schedule: fixed even
/// latency, odd timer phases and odd churn instants mean no Deliver ever
/// shares an instant with a Down/Up, so the sequential engine and the
/// sharded engine agree on every order-insensitive observable (the
/// closed-timestamp rule never fires because no action has zero delay) —
/// including, with tracing on, the multiset of trace records at every
/// shard count.
#[test]
fn sharded_agrees_with_sequential_under_churn_and_keyed_chaos() {
    let n = 24;
    let zones = 4;
    let seed = 99;
    let rounds = 6;
    let make = |_: NodeIdx| Mixer {
        n,
        zones,
        rounds,
        behavior: seed ^ 0xDEC0,
        fired: 0,
        recvd: 0,
        failed: 0,
        digest: 0,
    };
    let plan = FaultPlan::none()
        .with_fault(Fault::new(
            SimTime::ZERO,
            SimTime::from_micros(30_000),
            FaultKind::LossSpike { prob: 0.2 },
        ))
        .with_fault(Fault::new(
            SimTime::ZERO,
            SimTime::from_micros(30_000),
            FaultKind::Duplicate { prob: 0.15 },
        ));
    let mut seq = Simulator::with_sink(zoned(n, zones, 500), seed, RecordingSink::new(n), make);
    seq.install_chaos(plan.keyed_injector(seed));
    seq.schedule_down(5, SimTime::from_micros(500));
    seq.schedule_up(5, SimTime::from_micros(10_500));
    assert!(seq.run_until_quiet(10_000_000));
    let seq_chaos = seq.chaos().expect("installed").stats;
    assert!(seq_chaos.dropped > 0 && seq_chaos.duplicated > 0);
    assert!(seq.dropped_dead() > 0, "churn must drop something");
    // Order-insensitive per-node state: counts, not digests (same-instant
    // tie-break order may differ between the two engines).
    let seq_counts: Vec<(u64, u64, u64)> =
        seq.apps().map(|a| (a.fired, a.recvd, a.failed)).collect();
    let seq_shapes = shapes(&seq.sink_mut().take_records());

    for k in [1, 2, 4] {
        let mut sh = ShardedSim::new(zoned(n, zones, 500), seed, k, make)
            .unwrap()
            .with_tracing();
        assert_eq!(sh.shards(), k);
        sh.apply_plan(&plan, seed);
        sh.schedule_down(5, SimTime::from_micros(500));
        sh.schedule_up(5, SimTime::from_micros(10_500));
        sh.run_to_quiescence();

        assert_eq!(seq.events_processed(), sh.events_processed());
        assert_eq!(seq.now(), sh.now());
        assert_eq!(seq.dropped_loss(), sh.dropped_loss());
        assert_eq!(seq.dropped_dead(), sh.dropped_dead());
        assert_eq!(seq.traffic().totals(), sh.traffic_totals());
        let sh_chaos: ChaosStats = sh.chaos_stats();
        assert_eq!(seq_chaos.dropped, sh_chaos.dropped);
        assert_eq!(seq_chaos.duplicated, sh_chaos.duplicated);
        let sh_counts: Vec<(u64, u64, u64)> =
            sh.apps().map(|a| (a.fired, a.recvd, a.failed)).collect();
        assert_eq!(seq_counts, sh_counts);
        assert_eq!(seq_shapes, shapes(&sh.take_trace()), "shards = {k}");
    }
}

/// A churn transition scheduled in the past, after a run, must not move
/// any engine's clock backwards: the sequential engine clamps it to `now`,
/// the sharded engine closes it to `now + 1 µs` — against the simulation
/// clock, so the outcome is the same at every shard count.
#[test]
fn past_transitions_keep_the_clock_monotone_on_both_engines() {
    let n = 12;
    let zones = 2;
    let make = |_: NodeIdx| Mixer {
        n,
        zones,
        rounds: 40,
        behavior: 7,
        fired: 0,
        recvd: 0,
        failed: 0,
        digest: 0,
    };
    let pause = SimTime::from_micros(5_000);
    let past = SimTime::from_micros(100);

    let mut seq = Simulator::new(zoned(n, zones, 500), 1, make);
    seq.run_until(pause);
    let before = seq.now();
    assert!(before > past && seq.pending_events() > 0);
    seq.schedule_down(3, past);
    assert_eq!(seq.step(), Some(before), "clamped to now, not rewound");
    assert!(!seq.alive(3));
    assert!(seq.run_until_quiet(1_000_000));
    assert!(seq.now() >= before);

    let run_k = |k: usize| {
        let mut sh = ShardedSim::new(zoned(n, zones, 500), 1, k, make).unwrap();
        sh.run_until(pause);
        let before = sh.now();
        assert!(before > past);
        // Node 3 lives in zone 1; at K = 2 its shard may have stopped
        // earlier than the other one, and must still close against `before`.
        sh.schedule_down(3, past);
        sh.run_until(before + SimDuration::from_micros(1));
        assert!(!sh.alive(3), "shards = {k}");
        assert_eq!(sh.now(), before + SimDuration::from_micros(1));
        sh.run_to_quiescence();
        let counts: Vec<(u64, u64, u64)> =
            sh.apps().map(|a| (a.fired, a.recvd, a.failed)).collect();
        (before, sh.now(), sh.events_processed(), counts)
    };
    let base = run_k(1);
    assert_eq!(base, run_k(2));
    assert!(base.1 >= base.0);
}

/// `run_until_quiet(max_events)` stops after exactly `max_events` even when
/// the budget runs out in the middle of a run of events sharing one
/// `(time, destination)`.
#[test]
fn run_until_quiet_budget_splits_a_same_instant_same_destination_run() {
    struct Fan {
        recvd: u64,
    }
    impl Application for Fan {
        type Msg = Pkt;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Pkt>) {
            if ctx.me() != 0 {
                ctx.send(0, Pkt(ctx.me() as u64));
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Pkt>, _: NodeIdx, _: Pkt) {
            self.recvd += 1;
        }
    }
    // Four starts at t = 0, then three deliveries to node 0 one hop later.
    let mut sim = Simulator::new(zoned(4, 1, 500), 3, |_| Fan { recvd: 0 });
    assert!(!sim.run_until_quiet(5));
    assert_eq!(sim.events_processed(), 5);
    assert_eq!((sim.app(0).recvd, sim.pending_events()), (1, 2));
    let arrival = sim.now();
    assert!(arrival > SimTime::ZERO);
    assert!(!sim.run_until_quiet(1));
    assert_eq!((sim.events_processed(), sim.app(0).recvd), (6, 2));
    assert!(sim.run_until_quiet(1), "the last event drains the queue");
    assert_eq!((sim.events_processed(), sim.app(0).recvd), (7, 3));
    assert_eq!(sim.now(), arrival, "all three shared one instant");
}
