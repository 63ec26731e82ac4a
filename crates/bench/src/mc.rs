//! Model-checkable worlds over the echo forest stack.
//!
//! This module is the bench-side half of the bounded model checker: the
//! `totoro-mc` crate owns the exploration engine (DFS, dedup, sleep
//! sets, minimization); here live the concrete *worlds* it explores —
//! small, fully deterministic echo-forest configurations — plus the
//! canonical state hashing, the oracle set adapted from the chaos
//! harness (DESIGN.md §9), a scenario-style registry the regression
//! tests share, and the `totoro-bench mc` command over it ([`run`]).
//!
//! # World model
//!
//! A [`McWorld`] wraps an [`EchoSim`] built by a deterministic recipe
//! (uniform-delay topology, fixed seed, a settle prefix). Exploration
//! choices map onto the simulator's exploration hooks; `closeout` runs
//! the world forward in plain `(time, seq)` order to the scenario's
//! settle horizon before the quiescent oracles judge the end state.
//! Oracles are deliberately *not* evaluated mid-exploration: transient
//! states (a JOIN in flight, a cycle the breaker has not yet noticed)
//! are legitimate, and the protocol's own self-healing machinery is part
//! of what is being verified — see DESIGN.md §14.
//!
//! # Canonical state hash
//!
//! [`McWorld::state_hash`] digests, with layer tags and sorted
//! iteration: the liveness bitmap; each node's DHT tables (routing
//! contacts, leaf set, neighborhood); each forest membership (parent,
//! children, depth, flags, per-round aggregation); the echo app's
//! completions; and the pending-event multiset with times *relative* to
//! `now` and sequence numbers excluded. Excluded entirely: RNG position,
//! traffic/compute ledgers, and stats counters — observational outputs
//! that never feed back into protocol decisions.

use std::hash::Hasher;
use std::process::ExitCode;

use totoro_dht::{DhtConfig, Id, UPPER_TIMER_BASE};
use totoro_mc::{Choice, Explorer, McConfig, Report, StableHasher, World};
use totoro_simnet::{
    span_report, spans, Invariant, NodeIdx, NoopSink, PendingClass, PendingSummary, RecordingSink,
    SimDuration, SimTime, Topology, TraceSink,
};

use crate::chaos::{coverage, DhtConsistency, ForestStructure, RendezvousUnique};
use crate::scenario::{Grammar, Params};
use crate::setups::{build_tree, echo_overlay_with_sink, topic, EchoSim};
use crate::{logging, report};
use totoro_pubsub::ForestConfig;

/// A named, fully deterministic model-checking configuration.
#[derive(Clone, Debug)]
pub struct McScenario {
    /// Registry key (`totoro-bench mc --scenario <name>`).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// Node count (small: the state space is explored exhaustively).
    pub nodes: usize,
    /// Simulation seed for the world factory.
    pub seed: u64,
    /// Uniform one-way delay in µs (min = max: deterministic delays are
    /// a soundness requirement for the pruning — DESIGN.md §14).
    pub delay_us: u64,
    /// Forest fanout cap (small caps force deeper trees).
    pub fanout_cap: usize,
    /// Whether the tree is fully built before exploration starts
    /// (repair scenarios) or subscriptions are still in flight
    /// (join/leave scenarios).
    pub prebuilt: bool,
    /// Extra quiet time run after construction, before exploration
    /// takes over. A non-zero skew parks the start mid-tick-interval,
    /// putting the maintenance timers (rather than in-flight heartbeat
    /// deliveries) at the front of the reorder window.
    pub skew: SimDuration,
    /// Settle horizon run after the last choice before quiescent
    /// oracles are checked.
    pub settle: SimDuration,
    /// Exploration bounds handed to the engine.
    pub mc: McConfig,
}

/// The built-in scenario registry.
pub fn registry() -> Vec<McScenario> {
    vec![join_leave_4(), forest_repair_4(), maint_zombie_4()]
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<McScenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// 4-node join/leave: exploration starts with all four subscriptions in
/// flight, reordering and dropping the JOIN/JoinAck traffic.
pub fn join_leave_4() -> McScenario {
    McScenario {
        name: "join-leave-4",
        about: "4-node DHT join/leave: subscriptions in flight, reorder + drop + duplicate",
        nodes: 4,
        seed: 7,
        delay_us: 500,
        fanout_cap: 4,
        prebuilt: false,
        skew: SimDuration::ZERO,
        settle: SimDuration::from_secs(30),
        mc: McConfig {
            max_depth: 6,
            fault_budget: 1,
            max_states: 20_000,
            reorder_window: 3,
            enable_drop: true,
            enable_duplicate: true,
            churn_nodes: Vec::new(),
        },
    }
}

/// 4-node forest repair: the tree is built (fanout cap 1 forces a
/// chain), then exploration injects root churn and reorders the
/// heartbeat/repair traffic.
pub fn forest_repair_4() -> McScenario {
    McScenario {
        name: "forest-repair-4",
        about: "4-node forest repair: built chain, root crash/revive + reorder + drop",
        nodes: 4,
        seed: 7,
        delay_us: 500,
        fanout_cap: 1,
        prebuilt: true,
        skew: SimDuration::ZERO,
        settle: SimDuration::from_secs(60),
        mc: McConfig {
            max_depth: 7,
            fault_budget: 2,
            max_states: 60_000,
            reorder_window: 3,
            enable_drop: true,
            enable_duplicate: false,
            churn_nodes: vec![0, 1, 2, 3],
        },
    }
}

/// 4-node maintenance-tick liveness: exploration starts mid-interval
/// (so the next round of forest ticks heads the reorder window) and
/// churns only the deepest leaf — a crash/revive that cannot disturb
/// the tree structure, isolating the revived node's timer chain.
pub fn maint_zombie_4() -> McScenario {
    McScenario {
        name: "maint-zombie-4",
        about: "4-node tick-chain liveness: leaf crash/revive around a swallowed maintenance tick",
        nodes: 4,
        seed: 7,
        delay_us: 500,
        fanout_cap: 1,
        prebuilt: true,
        skew: SimDuration::from_millis(500),
        settle: SimDuration::from_secs(60),
        mc: McConfig {
            max_depth: 4,
            fault_budget: 2,
            max_states: 20_000,
            reorder_window: 3,
            enable_drop: false,
            enable_duplicate: false,
            churn_nodes: vec![2],
        },
    }
}

/// The single MC topic (all scenarios currently explore one tree).
pub fn mc_topic() -> Id {
    topic("mc", 0)
}

/// How long the deterministic construction prefix runs before
/// exploration begins.
const BUILD_SETTLE: SimDuration = SimDuration::from_secs(20);

/// A model-checkable echo-forest world. Generic over the trace sink so
/// the counterexample renderer can re-run a schedule with recording on.
pub struct McWorld<S: TraceSink = NoopSink> {
    sim: EchoSim<S>,
    topics: Vec<Id>,
    settle: SimDuration,
    dht_config: DhtConfig,
}

impl McScenario {
    /// Builds the world at its exploration start state (deterministic:
    /// same scenario, same world, same pending keys — every time).
    pub fn build(&self) -> McWorld {
        self.build_sink(NoopSink)
    }

    /// [`McScenario::build`] with an explicit trace sink installed.
    pub fn build_sink<S: TraceSink>(&self, sink: S) -> McWorld<S> {
        let topo = Topology::uniform(self.nodes, self.delay_us, self.delay_us);
        let fconfig = ForestConfig {
            fanout_cap: self.fanout_cap,
            // The depth-ceiling cycle breaker heals at ~1 depth unit per
            // tick; the default ceiling of 64 would need a minute of sim
            // time to fire. MC worlds shrink it so the self-healing the
            // clean protocol is *supposed* to perform completes within
            // the bounded settle horizon.
            max_depth: 8,
            ..ForestConfig::default()
        };
        let mut sim = echo_overlay_with_sink(topo, self.seed, 4, fconfig, sink);
        sim.run_until(SimTime::ZERO + BUILD_SETTLE);
        let topics = vec![mc_topic()];
        let members: Vec<NodeIdx> = (0..self.nodes).collect();
        if self.prebuilt {
            let settle = sim.now() + BUILD_SETTLE;
            build_tree(&mut sim, topics[0], &members, settle);
        } else {
            // Subscriptions injected but *not* settled: the JOIN traffic
            // is pending when exploration takes over.
            for &m in &members {
                sim.with_app(m, |node, ctx| {
                    node.with_api(ctx, |forest, dht| {
                        forest.with_forest_api(dht, |_app, api| api.subscribe(topics[0]));
                    });
                });
            }
        }
        let parked = sim.now() + self.skew;
        sim.run_until(parked);
        McWorld {
            sim,
            topics,
            settle: self.settle,
            dht_config: DhtConfig::with_fanout(4),
        }
    }

    /// Runs the full exploration for this scenario.
    pub fn explore(&self) -> Report {
        let mut explorer = Explorer::new(self.mc.clone(), || self.build());
        explorer.run()
    }

    /// Replays `schedule` on a fresh world and reports what (if
    /// anything) it violates — the predicate the regression fixtures
    /// pin.
    pub fn violation_of(&self, schedule: &[Choice]) -> Option<String> {
        let mut explorer = Explorer::new(self.mc.clone(), || self.build());
        explorer.violation_of(schedule)
    }

    /// Re-runs `schedule` through a recording world and renders every
    /// causal span it produced — the counterexample report `mc` prints
    /// and CI uploads.
    pub fn render_counterexample(&self, schedule: &[Choice]) -> Vec<String> {
        let mut world = self.build_sink(RecordingSink::new(self.nodes));
        let mut lines = vec![format!(
            "replay ({} choices) from scenario {}:",
            schedule.len(),
            self.name
        )];
        for c in schedule {
            lines.push(format!("  {}", c.render()));
            if !world.apply(c) {
                lines.push("  ^ inapplicable (schedule/scenario mismatch)".into());
                return lines;
            }
        }
        let detail = {
            world.closeout();
            world.check(true).err()
        };
        match detail {
            Some(d) => lines.push(format!("violates: {d}")),
            None => lines.push("replay is clean (no violation)".into()),
        }
        let records = world.sim.sink().records();
        for (trace, _) in spans(records) {
            lines.push(format!("span {trace}:"));
            for l in span_report(records, trace) {
                lines.push(format!("  {l}"));
            }
        }
        lines
    }
}

/// The command line `totoro-bench mc` takes.
pub const GRAMMAR: Grammar<'static> = Grammar {
    name: "mc",
    keys: &[
        "scenario",
        "replay",
        "out",
        "depth",
        "fault-budget",
        "max-states",
        "window",
    ],
    shared: false,
    flags: &["list", "quiet", "verbose"],
    positionals: None,
};

/// `totoro-bench mc`: checks every registered scenario (or `--scenario
/// NAME`) under the bound overrides, or replays a schedule file against
/// one (`--replay FILE`). Exits 1 on a violation; `Err` is a usage error
/// or an unreadable schedule, raised before any exploration.
pub fn run(params: &Params) -> Result<ExitCode, String> {
    let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
    let only = params.one_of("scenario", &names)?;
    let depth = params.num("depth")?;
    let fault_budget = params.num("fault-budget")?;
    let max_states = params.num("max-states")?;
    let window = params.num("window")?;
    let replay = params.extra("replay");
    if replay.is_some() && only.is_none() {
        return Err("--replay needs --scenario (schedules are scenario-relative)".into());
    }
    if params.list {
        for s in registry() {
            report::emitln(format_args!("{}: {}", s.name, s.about));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let scenarios: Vec<McScenario> = registry()
        .into_iter()
        .filter(|s| only.is_none_or(|name| s.name == name))
        .map(|mut s| {
            s.mc.max_depth = depth.unwrap_or(s.mc.max_depth);
            s.mc.fault_budget = fault_budget.unwrap_or(s.mc.fault_budget);
            s.mc.max_states = max_states.unwrap_or(s.mc.max_states);
            s.mc.reorder_window = window.unwrap_or(s.mc.reorder_window);
            s
        })
        .collect();
    if let Some(path) = replay {
        return replay_file(&scenarios[0], path);
    }
    let mut violated = false;
    for s in &scenarios {
        violated |= explore_and_report(s, params.extra("out"));
    }
    Ok(ExitCode::from(u8::from(violated)))
}

/// Replays a schedule file against a scenario, printing the full span
/// rendering. Exit mirrors the verdict: violation → failure. A schedule
/// that cannot be read or parsed is an `Err`, not a verdict.
fn replay_file(scenario: &McScenario, path: &str) -> Result<ExitCode, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read schedule {path}: {e}"))?;
    let schedule = Choice::parse_schedule(&text).map_err(|e| format!("{path}: {e}"))?;
    let violated = scenario.violation_of(&schedule).is_some();
    for line in scenario.render_counterexample(&schedule) {
        report::emitln(line);
    }
    Ok(ExitCode::from(u8::from(violated)))
}

/// Explores one scenario and prints what it found, writing a violation's
/// minimal schedule to `out` when given; returns whether it found one.
fn explore_and_report(scenario: &McScenario, out: Option<&str>) -> bool {
    report::emitln(format_args!(
        "checking {}: nodes={} depth={} fault-budget={} window={} max-states={}",
        scenario.name,
        scenario.nodes,
        scenario.mc.max_depth,
        scenario.mc.fault_budget,
        scenario.mc.reorder_window,
        scenario.mc.max_states
    ));
    let result = scenario.explore();
    report::emitln(format_args!(
        "  states: visited={} deduped={} pruned={} discarded={}{}",
        result.stats.visited,
        result.stats.deduped,
        result.stats.pruned,
        result.stats.discarded,
        if result.stats.truncated {
            " (truncated by state budget)"
        } else {
            ""
        }
    ));
    let Some(v) = result.violation else {
        report::emitln("  no violations");
        return false;
    };
    report::emitln(format_args!("  VIOLATION: {}", v.detail));
    report::emitln(format_args!(
        "  minimal schedule ({} choices):",
        v.schedule.len()
    ));
    for line in Choice::render_schedule(&v.schedule).lines() {
        report::emitln(format_args!("    {line}"));
    }
    for line in scenario.render_counterexample(&v.schedule) {
        report::emitln(format_args!("  {line}"));
    }
    if let Some(path) = out {
        let text = format!(
            "# totoro-bench mc counterexample: scenario {} — {}\n{}",
            scenario.name,
            v.detail,
            Choice::render_schedule(&v.schedule)
        );
        match std::fs::write(path, text) {
            Ok(()) => logging::info(format_args!("wrote counterexample schedule to {path}")),
            Err(e) => logging::error(format_args!("cannot write {path}: {e}")),
        }
    }
    true
}

impl<S: TraceSink> McWorld<S> {
    /// Read access to the wrapped simulator.
    pub fn sim(&self) -> &EchoSim<S> {
        &self.sim
    }

    /// Advances one event in natural `(time, seq)` order, bypassing the
    /// choice layer entirely — the plain sequential baseline the
    /// differential tests compare exploration replays against.
    pub fn step_natural(&mut self) -> bool {
        self.sim.step().is_some()
    }

    /// The forest maintenance-tick liveness oracle (MC-specific): every
    /// live node must keep a pending forest tick timer — the upper-layer
    /// timer chain re-arms itself on every fire and on revival, so a
    /// missing tick means the node is a maintenance zombie: up, holding
    /// tree state, but deaf to repair forever.
    fn tick_chains_alive(&mut self) -> Result<(), String> {
        let pending = self.sim.pending_summaries();
        for i in 0..self.sim.len() {
            if !self.sim.alive(i) {
                continue;
            }
            let has_tick = pending.iter().any(|p| {
                p.node == i
                    && matches!(p.class, PendingClass::Timer { token } if token == UPPER_TIMER_BASE)
            });
            if !has_tick {
                return Err(format!(
                    "TickChainAlive: node {i} is up but its forest tick chain is dead \
                     (maintenance zombie)"
                ));
            }
        }
        Ok(())
    }

    /// Crash/revive injection: schedules the transition one microsecond
    /// ahead and dispatches it immediately, so churn choices take effect
    /// atomically at the chosen point in the interleaving. The 1µs step
    /// keeps a transition strictly after any event dispatched at the
    /// current instant — a revive exactly coincident with a swallowed
    /// timer's fire time is a measure-zero artifact the timer-chain
    /// bookkeeping cannot (and should not have to) disambiguate.
    fn churn(&mut self, node: NodeIdx, down: bool) -> bool {
        if self.sim.alive(node) != down {
            // Down on a dead node / Up on a live one: inapplicable.
            return false;
        }
        let at = self.sim.now() + SimDuration::from_micros(1);
        if down {
            self.sim.schedule_down(node, at);
        } else {
            self.sim.schedule_up(node, at);
        }
        let want = if down {
            PendingClass::Down
        } else {
            PendingClass::Up
        };
        let key = self
            .sim
            .pending_summaries()
            .into_iter()
            .rev()
            .find(|p| p.node == node && p.class == want)
            .map(|p| p.key);
        match key {
            Some(k) => self.sim.dispatch_pending(k).is_some(),
            None => false,
        }
    }
}

/// Hashes one `u64` into the digest.
fn put(h: &mut StableHasher, v: u64) {
    h.write_u64(v);
}

/// Hashes a section tag, keeping layers from aliasing each other.
fn tag(h: &mut StableHasher, t: &str) {
    h.write(t.as_bytes());
    h.write_u8(0xff);
}

impl<S: TraceSink> World for McWorld<S> {
    fn pending(&mut self) -> Vec<PendingSummary> {
        self.sim.pending_summaries()
    }

    fn apply(&mut self, choice: &Choice) -> bool {
        match *choice {
            Choice::Dispatch { key } => self.sim.dispatch_pending(key).is_some(),
            Choice::Drop { key } => self.sim.drop_pending(key),
            Choice::Duplicate { key } => self.sim.duplicate_pending(key).is_some(),
            Choice::Down { node } => node < self.sim.len() && self.churn(node, true),
            Choice::Up { node } => node < self.sim.len() && self.churn(node, false),
        }
    }

    fn closeout(&mut self) {
        // Exploration can pull `now` ahead of events still pending at
        // earlier timestamps. Drain those overdue events in `(time, seq)`
        // order through the clamping dispatch hook first — the sequential
        // engine's dispatch path asserts time monotonicity.
        while let Some(head) = self.sim.pending_summaries().first().copied() {
            if head.key.time >= self.sim.now() || self.sim.dispatch_pending(head.key).is_none() {
                break;
            }
        }
        let deadline = self.sim.now() + self.settle;
        self.sim.run_until(deadline);
    }

    fn state_hash(&mut self) -> u64 {
        let mut h = StableHasher::new();
        let now = self.sim.now();
        tag(&mut h, "alive");
        for i in 0..self.sim.len() {
            h.write_u8(u8::from(self.sim.alive(i)));
        }
        for i in 0..self.sim.len() {
            let node = self.sim.app(i);
            tag(&mut h, "dht");
            put(&mut h, i as u64);
            let st = &node.state;
            let mut contacts: Vec<(u128, u64)> = st
                .routing_table
                .contacts()
                .map(|c| (c.id.0, c.addr as u64))
                .collect();
            contacts.sort_unstable();
            for (id, addr) in contacts {
                put(&mut h, (id >> 64) as u64);
                put(&mut h, id as u64);
                put(&mut h, addr);
            }
            tag(&mut h, "leaf");
            let mut leafs: Vec<(u128, u64)> = st
                .leaf_set
                .members()
                .map(|c| (c.id.0, c.addr as u64))
                .collect();
            leafs.sort_unstable();
            for (id, addr) in leafs {
                put(&mut h, id as u64);
                put(&mut h, addr);
            }
            tag(&mut h, "nbhd");
            let mut nb: Vec<u64> = st.neighborhood.members().map(|c| c.addr as u64).collect();
            nb.sort_unstable();
            for addr in nb {
                put(&mut h, addr);
            }
            tag(&mut h, "forest");
            // Topic-sorted iteration, already canonical.
            for m in node.upper.state.memberships() {
                put(&mut h, m.topic.0 as u64);
                put(&mut h, (m.topic.0 >> 64) as u64);
                match m.parent {
                    Some(p) => {
                        put(&mut h, 1);
                        put(&mut h, p.addr as u64);
                    }
                    None => put(&mut h, 0),
                }
                let mut children: Vec<u64> = m.children.iter().map(|c| c.addr as u64).collect();
                children.sort_unstable();
                put(&mut h, children.len() as u64);
                for c in children {
                    put(&mut h, c);
                }
                h.write_u8(u8::from(m.subscriber));
                h.write_u8(u8::from(m.is_root));
                h.write_u8(u8::from(m.joining));
                put(&mut h, u64::from(m.depth));
                // Times hashed relative to `now` so identical protocol
                // states reached at different instants can merge.
                put(&mut h, now.saturating_since(m.last_parent_seen).as_micros());
                put(&mut h, now.saturating_since(m.join_sent).as_micros());
                // Ascending by round: the column is sorted.
                for (r, agg) in m.rounds.iter() {
                    put(&mut h, r);
                    put(&mut h, agg.count);
                    put(&mut h, agg.inputs as u64);
                    put(&mut h, agg.expected as u64);
                    h.write_u8(u8::from(agg.flushed) << 1 | u8::from(agg.timer_armed));
                }
                put(&mut h, m.last_broadcast_round.map_or(u64::MAX, |r| r));
            }
            tag(&mut h, "app");
            let mut completed = node.upper.app.completed.clone();
            completed.sort_unstable();
            for (t, round, count) in completed {
                put(&mut h, t.0 as u64);
                put(&mut h, round);
                put(&mut h, count);
            }
        }
        // Pending-event multiset: per-event sub-digests, sorted, so the
        // hash is independent of enqueue order (`seq` is excluded — it
        // is an artifact of which interleaving produced the state; see
        // DESIGN.md §14 for the soundness discussion).
        tag(&mut h, "pending");
        let mut events: Vec<u64> = self
            .sim
            .pending_summaries()
            .into_iter()
            .map(|p| {
                let mut eh = StableHasher::new();
                put(&mut eh, p.key.time.saturating_since(now).as_micros());
                put(&mut eh, p.node as u64);
                match p.class {
                    PendingClass::Start => tag(&mut eh, "start"),
                    PendingClass::Deliver {
                        src,
                        layer,
                        kind,
                        bytes,
                    } => {
                        tag(&mut eh, "deliver");
                        put(&mut eh, src as u64);
                        tag(&mut eh, layer);
                        tag(&mut eh, kind);
                        put(&mut eh, bytes as u64);
                    }
                    PendingClass::SendFailed { peer } => {
                        tag(&mut eh, "sendfailed");
                        put(&mut eh, peer as u64);
                    }
                    PendingClass::Timer { token } => {
                        tag(&mut eh, "timer");
                        put(&mut eh, token);
                    }
                    PendingClass::Down => tag(&mut eh, "down"),
                    PendingClass::Up => tag(&mut eh, "up"),
                }
                eh.finish()
            })
            .collect();
        events.sort_unstable();
        put(&mut h, events.len() as u64);
        for e in events {
            put(&mut h, e);
        }
        h.finish()
    }

    fn check(&mut self, quiescent: bool) -> Result<(), String> {
        if !quiescent {
            // Mid-exploration states are legitimately transient (JOINs in
            // flight, repairs pending); the structural oracles only make
            // sense after closeout. See DESIGN.md §14.
            return Ok(());
        }
        let named = |name: &str, r: Result<(), String>| -> Result<(), String> {
            r.map_err(|e| format!("{name}: {e}"))
        };
        let mut fs = ForestStructure::new(self.topics.clone());
        named("ForestStructure", fs.check(&self.sim))?;
        let mut rv = RendezvousUnique::new(self.topics.clone());
        named("RendezvousUnique", rv.check(&self.sim))?;
        let mut dc = DhtConsistency::new(self.dht_config);
        named("DhtConsistency", dc.check(&self.sim))?;
        named("Coverage", coverage(&self.sim, &self.topics))?;
        self.tick_chains_alive()
    }
}
