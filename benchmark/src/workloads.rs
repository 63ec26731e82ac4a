//! The four workloads. Each is one closed-loop run of a batch simulation,
//! built from the same public builders the registered scenarios use, split
//! into a set-up phase (everything up to the steady state the measured
//! phase starts from) and a measured phase, with a span around every call
//! into a layer.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use totoro_baselines::{CentralizedEngine, ServerProfile};
use totoro_bench::setups::{
    broadcast_from_root, build_tree, echo_overlay_sink, eua_topology, fl_app_config, root_of,
    task_by_name, to_central_spec, topic, totoro_with_apps, EchoSim,
};
use totoro_bench::simcore::{
    build_eua_topology, run_million_node, run_million_node_profiled, zone_rings,
};
use totoro_ml::TaskGenerator;
use totoro_simnet::{
    sub_rng, Application, ChurnSchedule, EngineProfile, NoopSink, SimDuration, SimTime, Simulator,
    TraceSink, TrialReport,
};

use crate::probes;
use crate::sink::{Ev, LayerCounts, MaybeCounts};
use crate::spans::Spans;

/// Workload names, in the order every report lists them.
pub const WORKLOADS: [&str; 4] = [
    "dissemination",
    "churn_recovery",
    "fl_multiapp",
    "engine_gossip",
];

/// Per-layer values of one run, keyed by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// What one run of a workload produced.
pub struct RunOut {
    /// The sizes the run used, for the provenance block.
    pub sizes: String,
    /// Host seconds until the measured phase could start.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Simulated events dispatched in the measured phase (exact).
    pub events_run: u64,
    /// Invariant checks made on the outputs.
    pub ops: u64,
    /// Invariant checks that failed.
    pub ops_failed: u64,
    /// Per-layer values this run could observe.
    pub layer: Layer,
}

/// Runs `workload` once. `traced` installs the counting sink, engine
/// profiling and the isolated probes; `smoke` shrinks every size so the
/// self-tests finish in seconds.
pub fn run(workload: &str, seed: u64, traced: bool, smoke: bool, spans: &mut Spans) -> RunOut {
    let mut out = match (workload, traced) {
        ("dissemination", false) => dissemination(seed, smoke, NoopSink, spans),
        ("dissemination", true) => dissemination(seed, smoke, LayerCounts::default(), spans),
        ("churn_recovery", false) => churn_recovery(seed, smoke, NoopSink, spans),
        ("churn_recovery", true) => churn_recovery(seed, smoke, LayerCounts::default(), spans),
        ("fl_multiapp", _) => fl_multiapp(seed, smoke, traced, spans),
        ("engine_gossip", _) => engine_gossip(seed, smoke, traced, spans),
        (other, _) => panic!("unknown workload {other:?} (one of {WORKLOADS:?})"),
    };
    if traced {
        probes::simnet(smoke, spans, &mut out.layer);
        if matches!(workload, "dissemination" | "churn_recovery") {
            probes::dht(seed, smoke, spans, &mut out.layer);
        }
    }
    out
}

const SETTLE: SimTime = SimTime::from_micros(60 * 1_000_000);

fn median(xs: &[f64]) -> f64 {
    crate::stats::Summary::of(xs).median
}

// ------------------------------------------------------- shared capture --

/// Captures the simulator's own accounting, timed as `bench.report_capture`.
fn capture<A: Application, S: TraceSink>(
    sim: &Simulator<A, S>,
    spans: &mut Spans,
    layer: &mut Layer,
) -> TrialReport {
    let (report, s) = spans.time("bench.report_capture", || TrialReport::capture(sim));
    layer.insert("bench.report_capture_s", s);
    put_report(layer, &report);
    report
}

fn put_report(layer: &mut Layer, r: &TrialReport) {
    layer.insert("simnet.events", r.events as f64);
    layer.insert("simnet.sim_end_us", r.sim_end_us as f64);
    layer.insert("simnet.dropped_loss", r.dropped_loss as f64);
    layer.insert("simnet.dropped_dead", r.dropped_dead as f64);
    layer.insert("simnet.state_bytes", r.memory_bytes as f64);
    layer.insert("dht.cpu_sim_us", r.dht_us as f64);
    layer.insert("core.fl_cpu_sim_us", r.fl_us as f64);
    if let Some(p) = &r.engine_profile {
        put_profile(layer, p, r.events);
    }
}

fn put_profile(layer: &mut Layer, p: &EngineProfile, events: u64) {
    layer.insert("simnet.wheel_late", p.late as f64);
    layer.insert("simnet.wheel_near", p.near as f64);
    layer.insert("simnet.wheel_far", p.far as f64);
    layer.insert("simnet.wheel_migrated", p.migrated as f64);
    layer.insert("simnet.batch_singleton_ratio", p.singleton_ratio());
    layer.insert("simnet.pdes_windows", p.windows as f64);
    let per_window = if p.windows == 0 {
        0.0
    } else {
        events as f64 / p.windows as f64
    };
    layer.insert("simnet.events_per_window_mean", per_window);
}

/// Message counts of the dht and pubsub layers, from the counting sink.
fn put_counts(layer: &mut Layer, c: &LayerCounts, events: u64) {
    let share = |n: u64| n as f64 / events.max(1) as f64;
    let dht = c.layer("dht", Ev::Deliver);
    let forest = c.layer("forest", Ev::Deliver);
    let delivered = |l: &str, k: &str| c.kind(l, k, Ev::Deliver).count as f64;
    layer.insert("simnet.timer_fires", c.all(Ev::Timer).count as f64);
    layer.insert("dht.heartbeat_msgs", delivered("dht", "heartbeat"));
    layer.insert("dht.leaf_exchange_msgs", delivered("dht", "leaf_exchange"));
    layer.insert("dht.msgs_delivered", dht.count as f64);
    layer.insert("dht.bytes_delivered", dht.bytes as f64);
    layer.insert("dht.event_share", share(dht.count));
    layer.insert("pubsub.broadcast_msgs", delivered("forest", "broadcast"));
    layer.insert("pubsub.aggregate_msgs", delivered("forest", "aggregate_up"));
    layer.insert(
        "pubsub.parent_heartbeat_msgs",
        delivered("forest", "parent_heartbeat"),
    );
    layer.insert("pubsub.join_msgs", delivered("forest", "join"));
    layer.insert("pubsub.bytes_delivered", forest.bytes as f64);
    layer.insert("pubsub.event_share", share(forest.count));
}

/// Drops the simulator, timed as `bench.teardown`, and files the sink's
/// counts if the run was traced.
fn teardown<S: MaybeCounts>(sim: EchoSim<S>, events: u64, spans: &mut Spans, layer: &mut Layer) {
    let (sink, s) = spans.time("bench.teardown", || sim.into_sink());
    layer.insert("bench.teardown_s", s);
    if let Some(c) = sink.counts() {
        put_counts(layer, c, events);
    }
}

// --------------------------------------------------------- dissemination --

/// fig6 shape: one tree over every node, then rounds of broadcast down and
/// aggregation up. The dht's maintenance traffic is most of the events.
fn dissemination<S: MaybeCounts>(seed: u64, smoke: bool, sink: S, spans: &mut Spans) -> RunOut {
    let (nodes, rounds) = if smoke { (160, 2u64) } else { (2560, 8) };
    const FANOUT: usize = 16;
    const BLOB: usize = 96 * 1024;
    const ROUND_SIM: SimDuration = SimDuration::from_secs(30);
    let traced = sink.counts().is_some();
    let mut layer = Layer::new();

    spans.enter("bench.setup");
    let (topology, s) = spans.time("simnet.topology_build", || eua_topology(nodes, seed));
    layer.insert("simnet.topology_build_s", s);
    let n = topology.len();
    let (mut sim, s) = spans.time("dht.overlay_spawn", || {
        echo_overlay_sink(topology, seed, FANOUT, sink)
    });
    layer.insert("dht.overlay_spawn_s", s);
    if traced {
        sim.enable_profiling();
    }
    let t = topic("e2e-dissemination", seed);
    let members: Vec<usize> = (0..n).collect();
    let ((), s) = spans.time("pubsub.tree_build", || {
        build_tree(&mut sim, t, &members, SETTLE)
    });
    layer.insert("pubsub.tree_build_s", s);
    let setup_s = spans.exit();

    spans.enter("bench.run");
    let events_before = sim.events_processed();
    let mut round_ms = Vec::new();
    let mut starts = Vec::new();
    for round in 1..=rounds {
        spans.enter("pubsub.round");
        let start = sim.now();
        starts.push(start);
        broadcast_from_root(&mut sim, t, round, BLOB);
        spans.time("simnet.run_until", || sim.run_until(start + ROUND_SIM));
        round_ms.push(spans.exit() * 1e3);
    }
    let run_s = spans.exit();
    let events_run = sim.events_processed() - events_before;
    layer.insert(
        "simnet.run_until_self_s",
        spans.self_time_s("simnet.run_until"),
    );
    layer.insert("pubsub.round_wall_ms_p50", median(&round_ms));
    layer.insert(
        "pubsub.round_wall_ms_max",
        round_ms.iter().copied().fold(0.0, f64::max),
    );

    // Every node must have received every round, and the root must have
    // closed every round's aggregation.
    let mut receipts = vec![0u64; rounds as usize];
    let mut last_receipt = starts.clone();
    let mut depth = 0u16;
    for i in 0..n {
        for ev in &sim.app(i).upper.state.broadcast_log {
            if ev.topic == t && (1..=rounds).contains(&ev.round) {
                let r = (ev.round - 1) as usize;
                receipts[r] += 1;
                last_receipt[r] = last_receipt[r].max(ev.at);
                depth = depth.max(ev.depth);
            }
        }
    }
    let root = root_of(&sim, t).expect("tree has a root");
    let mut ops_failed = 0;
    let mut diss_ms = Vec::new();
    let mut agg_ms = Vec::new();
    for r in 0..rounds as usize {
        ops_failed += (n as u64).saturating_sub(receipts[r]);
        diss_ms.push(last_receipt[r].saturating_since(starts[r]).as_secs_f64() * 1e3);
        let agg = &sim.app(root).upper.state.agg_log;
        match agg.iter().find(|e| e.topic == t && e.round == r as u64 + 1) {
            Some(e) => agg_ms.push(e.at.saturating_since(last_receipt[r]).as_secs_f64() * 1e3),
            None => ops_failed += 1,
        }
    }
    layer.insert("pubsub.diss_sim_ms", median(&diss_ms));
    layer.insert("pubsub.agg_sim_ms", median(&agg_ms));
    layer.insert("pubsub.tree_depth", f64::from(depth));

    let report = capture(&sim, spans, &mut layer);
    teardown(sim, report.events, spans, &mut layer);
    RunOut {
        sizes: format!(
            "nodes={n} fanout={FANOUT} blob_kib={} rounds={rounds} round_sim_s=30",
            BLOB / 1024
        ),
        setup_s,
        run_s,
        events_run,
        ops: (n as u64 + 1) * rounds,
        ops_failed,
        layer,
    }
}

// -------------------------------------------------------- churn_recovery --

/// fig12 shape: many trees over one overlay, a mass failure, and the
/// detection and repair that follow. Same layers as `dissemination`, used
/// for membership writes and repair instead of steady fan-out.
fn churn_recovery<S: MaybeCounts>(seed: u64, smoke: bool, sink: S, spans: &mut Spans) -> RunOut {
    let (nodes, trees, end_s) = if smoke {
        (120, 4, 120)
    } else {
        (1600, 32, 240)
    };
    const FANOUT: usize = 16;
    const FAIL_FRAC: f64 = 0.05;
    let traced = sink.counts().is_some();
    let mut layer = Layer::new();

    spans.enter("bench.setup");
    let (topology, s) = spans.time("simnet.topology_build", || eua_topology(nodes, seed));
    layer.insert("simnet.topology_build_s", s);
    let n = topology.len();
    let (mut sim, s) = spans.time("dht.overlay_spawn", || {
        echo_overlay_sink(topology, seed, FANOUT, sink)
    });
    layer.insert("dht.overlay_spawn_s", s);
    if traced {
        sim.enable_profiling();
    }
    let members: Vec<usize> = (0..n).collect();
    let mut rng = sub_rng(seed, "e2e-churn");
    spans.enter("pubsub.tree_build");
    for k in 0..trees {
        let subset: Vec<usize> = members
            .choose_multiple(&mut rng, n * 3 / 4)
            .copied()
            .collect();
        build_tree(&mut sim, topic("e2e-churn", k), &subset, SimTime::ZERO);
    }
    sim.run_until(SETTLE);
    layer.insert("pubsub.tree_build_s", spans.exit());
    let schedule = ChurnSchedule::mass_failure(&members, FAIL_FRAC, SETTLE, &mut rng);
    let killed = schedule.nodes_affected();
    schedule.apply(&mut sim);
    let setup_s = spans.exit();

    spans.enter("bench.run");
    let events_before = sim.events_processed();
    spans.time("simnet.run_until", || {
        sim.run_until(SimTime::from_micros(end_s * 1_000_000))
    });
    let run_s = spans.exit();
    let events_run = sim.events_processed() - events_before;
    layer.insert(
        "simnet.run_until_self_s",
        spans.self_time_s("simnet.run_until"),
    );

    // One op per (live node, tree) that lost its parent to the kill: at the
    // end it must be attached again, or have left the tree as a forwarder
    // with no subtree. (An episode left open in `repair_events` is not a
    // failure by itself: a node that times out twice before its JoinAck
    // opens two episodes and the JoinAck closes only the later one.)
    let mut detect_ms = Vec::new();
    let mut repair_ms = Vec::new();
    let mut incomplete = 0u64;
    let mut ops = 0u64;
    let mut ops_failed = 0u64;
    for i in (0..n).filter(|&i| sim.alive(i)) {
        let state = &sim.app(i).upper.state;
        let mut repaired_topics = Vec::new();
        for ev in state.repair_events.iter().filter(|e| e.detected >= SETTLE) {
            match ev.reattached {
                Some(done) => {
                    detect_ms.push(ev.detected.saturating_since(SETTLE).as_secs_f64() * 1e3);
                    repair_ms.push(done.saturating_since(ev.detected).as_secs_f64() * 1e3);
                }
                None => incomplete += 1,
            }
            if !repaired_topics.contains(&ev.topic) {
                repaired_topics.push(ev.topic);
            }
        }
        for topic in repaired_topics {
            ops += 1;
            if state.membership(topic).is_some_and(|m| !m.attached()) {
                ops_failed += 1;
            }
        }
    }
    layer.insert("pubsub.repairs_completed", repair_ms.len() as f64);
    layer.insert("pubsub.repairs_incomplete", incomplete as f64);
    layer.insert("pubsub.detect_sim_ms_p50", median(&detect_ms));
    layer.insert("pubsub.repair_sim_ms_p50", median(&repair_ms));

    let report = capture(&sim, spans, &mut layer);
    teardown(sim, report.events, spans, &mut layer);
    RunOut {
        sizes: format!(
            "nodes={n} trees={trees} fanout={FANOUT} killed={killed} kill_at_sim_s=60 end_sim_s={end_s}"
        ),
        setup_s,
        run_s,
        events_run,
        ops,
        ops_failed,
        layer,
    }
}

// ----------------------------------------------------------- fl_multiapp --

const MAX_SIM: SimTime = SimTime::from_micros(48 * 3_600 * 1_000_000);

/// table3 / fig8 shape: concurrent FL applications trained by every node.
/// Nearly all host time is ml + core, so a change to simnet, dht or pubsub
/// predicts no change here.
fn fl_multiapp(seed: u64, smoke: bool, traced: bool, spans: &mut Spans) -> RunOut {
    let (nodes, apps, max_rounds) = if smoke { (24, 3, 4u64) } else { (200, 20, 60) };
    const FANOUT: usize = 16;
    const SAMPLES: usize = 30;
    let mut layer = Layer::new();

    spans.enter("bench.setup");
    let generator = TaskGenerator::new(task_by_name("speech"), &mut sub_rng(seed, "task"));
    let (topology, s) = spans.time("simnet.topology_build", || eua_topology(nodes, seed));
    layer.insert("simnet.topology_build_s", s);
    let n = topology.len();
    let (mut deploy, s) = spans.time("core.submit_apps", || {
        totoro_with_apps(
            topology, seed, FANOUT, apps, &generator, SAMPLES, max_rounds,
        )
    });
    layer.insert("core.submit_apps_s", s);
    if traced {
        deploy.sim_mut().enable_profiling();
    }
    let setup_s = spans.exit();

    spans.enter("bench.run");
    let events_before = deploy.sim().events_processed();
    spans.time("core.deploy_run", || deploy.run(MAX_SIM));
    let run_s = spans.exit();
    let events_run = deploy.sim().events_processed() - events_before;

    // One op per app: it must have stopped at its target or its round cap
    // with an accuracy curve to show for it.
    let mut ops_failed = 0;
    let mut rounds_total = 0u64;
    let mut reached = 0u64;
    let mut accuracy_sum = 0.0;
    for a in 0..apps {
        let curve = deploy.curve(a);
        let last = curve.last().copied();
        rounds_total += last.map_or(0, |p| p.round);
        accuracy_sum += last.map_or(0.0, |p| p.accuracy);
        let hit = deploy.time_to_target(a).is_some();
        reached += u64::from(hit);
        let capped = last.is_some_and(|p| p.round >= max_rounds);
        if !(deploy.app_done(a) && (hit || capped)) {
            ops_failed += 1;
        }
    }
    let client_rounds = (rounds_total * n as u64).max(1);
    layer.insert("core.rounds_completed", rounds_total as f64);
    layer.insert("core.apps_reached_target", reached as f64);
    layer.insert("core.final_accuracy_mean", accuracy_sum / apps as f64);
    layer.insert(
        "core.run_us_per_client_round",
        run_s * 1e6 / client_rounds as f64,
    );

    capture(deploy.sim(), spans, &mut layer);
    let ((), s) = spans.time("bench.teardown", || drop(deploy));
    layer.insert("bench.teardown_s", s);

    if traced {
        probes::ml(
            &generator,
            SAMPLES,
            seed,
            client_rounds,
            run_s,
            spans,
            &mut layer,
        );
        central_baseline(&generator, n, apps, SAMPLES, seed, spans, &mut layer);
    }
    RunOut {
        sizes: format!(
            "nodes={n} apps={apps} fanout={FANOUT} task=speech samples_per_client={SAMPLES} max_rounds={max_rounds}"
        ),
        setup_s,
        run_s,
        events_run,
        ops: apps as u64,
        ops_failed,
        layer,
    }
}

/// The same applications on the centralized OpenFL-like engine: node 0 is
/// the server, clients start at node 1, shard streams as in the Totoro run.
fn central_baseline(
    generator: &TaskGenerator,
    n: usize,
    apps: usize,
    samples: usize,
    seed: u64,
    spans: &mut Spans,
    layer: &mut Layer,
) {
    let topology = eua_topology(n + 1, seed);
    let clients = topology.len() - 1;
    let mut engine = CentralizedEngine::new(topology, ServerProfile::openfl_like(), seed);
    let participants: Vec<usize> = (1..=clients).collect();
    let mut rng = sub_rng(seed, "shards");
    for a in 0..apps {
        let shards = generator.client_shards(clients, samples, 0.5, &mut rng);
        let name = format!("{}-app-{a}", generator.spec.name);
        let cfg = fl_app_config(&name, a as u64, generator, 48, 1_000 + a as u64);
        engine.submit_app(to_central_spec(&cfg), &participants, shards);
    }
    let (_, s) = spans.time("baselines.central_run", || engine.run(MAX_SIM));
    layer.insert("baselines.central_run_s", s);
    layer.insert(
        "baselines.central_events",
        engine.sim().events_processed() as f64,
    );
}

// --------------------------------------------------------- engine_gossip --

/// simcore `million_node` shape: a gossip application straight on simnet's
/// sharded engine, no protocol crate on the path.
fn engine_gossip(seed: u64, smoke: bool, traced: bool, spans: &mut Spans) -> RunOut {
    let (nodes, rounds) = if smoke {
        (20_000, 4u32)
    } else {
        (1_000_000, 8)
    };
    let mut layer = Layer::new();

    spans.enter("bench.setup");
    let (topology, s) = spans.time("simnet.topology_build", || build_eua_topology(nodes, seed));
    layer.insert("simnet.topology_build_s", s);
    let n = topology.len() as u64;
    let (next, cross) = spans.time("bench.zone_rings", || zone_rings(&topology)).0;
    let setup_s = spans.exit();

    spans.enter("bench.run");
    let (run, profile) = spans
        .time("simnet.run_until", || {
            if traced {
                let (run, profile, _) =
                    run_million_node_profiled(&topology, &next, &cross, rounds, 1, seed, false);
                (run, Some(profile))
            } else {
                (
                    run_million_node(&topology, &next, &cross, rounds, 1, seed),
                    None,
                )
            }
        })
        .0;
    let run_s = spans.exit();
    layer.insert(
        "simnet.run_until_self_s",
        spans.self_time_s("simnet.run_until"),
    );

    let r = u64::from(rounds);
    let expected = 2 * n * r + n + n.div_ceil(16) * r;
    layer.insert("simnet.events", run.events as f64);
    layer.insert("simnet.timer_fires", (n * r) as f64);
    layer.insert("simnet.state_bytes", run.state_bytes as f64);
    if let Some(p) = &profile {
        put_profile(&mut layer, p, run.events);
    }
    if traced && !smoke && std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
        let (_, s) = spans.time("simnet.shard2_run", || {
            run_million_node(&topology, &next, &cross, rounds, 2, seed)
        });
        layer.insert("simnet.shard2_run_s", s);
    }
    let ((), s) = spans.time("bench.teardown", || drop((topology, next, cross)));
    layer.insert("bench.teardown_s", s);
    RunOut {
        sizes: format!("nodes={n} rounds={rounds} shards=1"),
        setup_s,
        run_s,
        events_run: run.events,
        ops: expected,
        ops_failed: expected.abs_diff(run.events),
        layer,
    }
}
