//! The chaos harness: canned fault plans, live protocol oracles, and the
//! seed-sweep explorer behind `totoro-bench chaos`.
//!
//! A chaos trial builds a full Totoro stack (DHT overlay + pub/sub forest +
//! [`EchoApp`] aggregation) over an EUA-shaped topology, lets it settle,
//! applies one [`FaultPlan`], and then drives FL-style broadcast/aggregate
//! rounds while [`Invariant`] oracles check protocol health at every
//! checkpoint:
//!
//! * **Conservation** (always): every contribution a root aggregates is
//!   counted at most once per round — and *exactly* once for rounds
//!   broadcast after quiescence.
//! * **DhtConsistency** (after quiescence): no leaf set references a dead
//!   node, and every node's ring successor/predecessor matches the
//!   omniscient [`build_states`] oracle over the live id set.
//! * **RendezvousUnique** (after quiescence): each topic key has exactly one
//!   live node that considers itself the rendezvous (`next_hop == Deliver`),
//!   and it is the ring-closest live node.
//! * **ForestStructure** (after quiescence): one live root per tree, no
//!   parent cycles, no live node attached to a dead parent.
//! * **BoundedRecovery** (after quiescence): full subscriber coverage holds
//!   within a fixed budget of the quiescence point and never regresses.
//! * **RepairQuiescence** (after quiescence): once coverage holds, no
//!   further repair JOINs are sent (catches repair livelock).
//!
//! Violations are replayable `(plan, seed)` pairs; a failing plan is
//! greedily shrunk ([`shrink`]) to a minimal set of fault atoms before
//! reporting.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use rand::seq::SliceRandom;

use totoro_dht::{build_states, closest_on_ring, next_hop, DhtConfig, DhtMsg, Id, NextHop};
use totoro_pubsub::{ForestConfig, ForestNode, TreeMsg};
use totoro_simnet::{
    last_trace_before, run_with_invariants, span_report, sub_rng, ChaosStats, CheckpointConfig,
    ChurnSchedule, Fault, FaultKind, FaultPlan, Invariant, InvariantPhase, NodeIdx, NoopSink,
    SimDuration, SimTime, Simulator, TraceRecord, TraceSink, Violation,
};

use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{echo_overlay_with_sink, eua_topology, topic, Blob, EchoApp, EchoSim};

/// The canned plan names accepted by [`canned_plan`] and the CLI.
pub const PLAN_NAMES: [&str; 3] = ["loss-spike", "partition", "churn+stragglers"];

/// Settle time before any fault or round: trees build in the first seconds.
const SETTLE: SimTime = SimTime::from_secs(20);
/// Gap between experiment rounds.
const BROADCAST_GAP: SimDuration = SimDuration::from_secs(10);
/// Gap between invariant checkpoints.
const CHECK_EVERY: SimDuration = SimDuration::from_secs(5);
/// Repair window granted after the last fault clears before `Quiescent`
/// oracles arm: covers DHT failure detection (~6s), leaf-set re-gossip
/// (8s period), tree parent timeout (3s) and a couple of re-join rounds.
const QUIESCE_SETTLE: SimDuration = SimDuration::from_secs(45);
/// Post-quiescence tail: enough checkpoints to age conservation records and
/// observe repair quiescence twice.
const TAIL: SimDuration = SimDuration::from_secs(35);
/// Straggler cutoff used by every chaos forest.
const AGG_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Extra ageing past `AGG_TIMEOUT` before conservation demands equality.
const AGG_GRACE: SimDuration = SimDuration::from_secs(5);
/// How long after quiescence full coverage must be restored.
const RECOVERY_BUDGET: SimDuration = SimDuration::from_secs(10);
/// Broadcast payload size (small: rounds are about counting, not bytes).
const PAYLOAD_BYTES: usize = 2_000;
/// Tree fanout for chaos worlds.
const FANOUT: usize = 4;

fn fmt_time(t: SimTime) -> String {
    format!("{:.1}s", t.as_secs_f64())
}

// ---------------------------------------------------------------------------
// World construction
// ---------------------------------------------------------------------------

/// A settled Totoro stack ready for fault injection.
pub struct ChaosWorld<S: TraceSink = NoopSink> {
    /// The simulator (DHT + forest + echo app per node).
    pub sim: EchoSim<S>,
    /// The experiment's tree topics.
    pub topics: Vec<Id>,
}

/// Builds an overlay of `nodes` nodes over an EUA topology, subscribes
/// every node to `trees` topics, and settles to [`SETTLE`].
pub fn build_world(nodes: usize, trees: usize, seed: u64) -> ChaosWorld {
    build_world_sink(nodes, trees, seed, NoopSink)
}

/// [`build_world`] with an explicit trace sink installed on the simulator.
pub fn build_world_sink<S: TraceSink>(
    nodes: usize,
    trees: usize,
    seed: u64,
    sink: S,
) -> ChaosWorld<S> {
    let topology = eua_topology(nodes, seed);
    let fconfig = ForestConfig {
        fanout_cap: FANOUT,
        agg_timeout: AGG_TIMEOUT,
        // Fanout-4 trees over a few hundred nodes stay well under depth 16;
        // a lower ceiling than the library default makes the cycle breaker
        // fire within seconds of a loop forming instead of a minute.
        max_depth: 32,
        ..ForestConfig::default()
    };
    let mut sim = echo_overlay_with_sink(topology, seed, FANOUT, fconfig, sink);
    let topics: Vec<Id> = (0..trees).map(|k| topic("chaos", k as u64)).collect();
    for &t in &topics {
        for i in 0..sim.len() {
            sim.with_app(i, |node, ctx| {
                node.with_api(ctx, |forest, dht| {
                    forest.with_forest_api(dht, |_app, api| api.subscribe(t));
                });
            })
            .expect("all nodes are up before faults");
        }
    }
    sim.run_until(SETTLE);
    ChaosWorld { sim, topics }
}

/// The live rendezvous roots of every topic (lowest index first per topic).
pub fn live_roots<S: TraceSink>(sim: &EchoSim<S>, topics: &[Id]) -> Vec<NodeIdx> {
    let mut roots = Vec::new();
    for &t in topics {
        if let Some(r) = (0..sim.len()).find(|&i| {
            sim.alive(i)
                && sim
                    .app(i)
                    .upper
                    .state
                    .membership(t)
                    .is_some_and(|m| m.is_root)
        }) {
            roots.push(r);
        }
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

// ---------------------------------------------------------------------------
// Canned plans
// ---------------------------------------------------------------------------

/// Builds one of the three canned fault plans for a settled world.
///
/// `roots` are the rendezvous roots, excluded from churn and straggler
/// selection: the canned plans exercise *repair*, not root takeover (root
/// loss promotes a new root with no demotion protocol — a known split-brain
/// hazard documented in DESIGN.md §9, deliberately out of smoke-test scope).
/// Partition windows stay under the 3s tree parent-timeout for the same
/// reason. All stochastic choices derive from `seed` side streams, never
/// from the simulator's RNG.
pub fn canned_plan<S: TraceSink>(
    name: &str,
    sim: &EchoSim<S>,
    roots: &[NodeIdx],
    seed: u64,
) -> FaultPlan {
    match name {
        "loss-spike" => FaultPlan::none()
            .with_fault(Fault::new(
                SimTime::from_secs(30),
                SimTime::from_secs(45),
                FaultKind::LossSpike { prob: 0.25 },
            ))
            .with_fault(Fault::new(
                SimTime::from_secs(50),
                SimTime::from_secs(65),
                FaultKind::LossSpike { prob: 0.10 },
            )),
        "partition" => {
            // Cut the two most populous regions, one after the other.
            let mut pop: BTreeMap<u16, usize> = BTreeMap::new();
            for i in 0..sim.len() {
                *pop.entry(sim.topology().region(i)).or_default() += 1;
            }
            let mut regions: Vec<(usize, u16)> = pop.into_iter().map(|(r, c)| (c, r)).collect();
            regions.sort_unstable_by(|a, b| b.cmp(a));
            let first = regions.first().map(|&(_, r)| r).unwrap_or(0);
            let second = regions.get(1).map(|&(_, r)| r).unwrap_or(first);
            FaultPlan::none()
                .with_fault(Fault::new(
                    SimTime::from_secs(30),
                    SimTime::from_micros(32_500_000),
                    FaultKind::Partition { zones: vec![first] },
                ))
                .with_fault(Fault::new(
                    SimTime::from_secs(48),
                    SimTime::from_micros(50_500_000),
                    FaultKind::Partition {
                        zones: vec![second],
                    },
                ))
                .with_fault(Fault::new(
                    SimTime::from_secs(30),
                    SimTime::from_secs(60),
                    FaultKind::LossSpike { prob: 0.05 },
                ))
        }
        "churn+stragglers" => {
            let candidates: Vec<NodeIdx> = (0..sim.len()).filter(|i| !roots.contains(i)).collect();
            let mut churn_rng = sub_rng(seed, "chaos-churn");
            let mass = ChurnSchedule::mass_failure(
                &candidates,
                0.05,
                SimTime::from_secs(40),
                &mut churn_rng,
            );
            let mut churn2_rng = sub_rng(seed, "chaos-churn-continuous");
            let rolling = ChurnSchedule::continuous(
                &candidates,
                SimTime::from_secs(45),
                SimTime::from_secs(60),
                SimDuration::from_secs(3),
                SimDuration::from_secs(5),
                &mut churn2_rng,
            );
            let mut strag_rng = sub_rng(seed, "chaos-stragglers");
            let mut pool = candidates.clone();
            pool.shuffle(&mut strag_rng);
            let mut slow: Vec<NodeIdx> = pool.into_iter().take(sim.len() / 10).collect();
            slow.sort_unstable();
            FaultPlan::none()
                .with_fault(Fault::new(
                    SimTime::from_secs(30),
                    SimTime::from_secs(70),
                    FaultKind::Straggler {
                        nodes: slow,
                        factor: 8,
                    },
                ))
                .with_churn(mass.merge(rolling))
        }
        other => panic!("unknown plan {other:?} (use {})", PLAN_NAMES.join("|")),
    }
}

// ---------------------------------------------------------------------------
// Round driver and the conservation ledger
// ---------------------------------------------------------------------------

/// One experiment round recorded at broadcast time.
#[derive(Clone, Copy, Debug)]
pub struct RoundRecord {
    /// Tree topic.
    pub topic: Id,
    /// Round number.
    pub round: u64,
    /// When the root broadcast it.
    pub at: SimTime,
    /// Subscribers reachable from the root over consistent tree edges at
    /// broadcast time (the root itself contributes nothing). Every one of
    /// them receives the broadcast, so post-quiescence this is a floor on
    /// the aggregated count.
    pub expected: u64,
    /// Live subscribers (excluding the root) at broadcast time: nobody
    /// else can possibly contribute, so this is a hard ceiling — exceeding
    /// it means some update was counted twice.
    pub ceiling: u64,
    /// Whether the broadcast happened after quiescence (faults all clear).
    pub during_quiesce: bool,
}

/// Shared record of every driven round, read by [`Conservation`].
pub type RoundLedger = Rc<RefCell<Vec<RoundRecord>>>;

/// Counts subscribers reachable from `root` over *consistent* edges: parent
/// lists the child, the child points back at the parent, and the child is
/// alive. These are exactly the nodes a broadcast can reach and whose
/// contribution the root will count.
pub fn reachable_subscribers<S: TraceSink>(sim: &EchoSim<S>, t: Id, root: NodeIdx) -> u64 {
    let mut visited = vec![false; sim.len()];
    visited[root] = true;
    let mut stack = vec![root];
    let mut count = 0u64;
    while let Some(u) = stack.pop() {
        let Some(m) = sim.app(u).upper.state.membership(t) else {
            continue;
        };
        for c in &m.children {
            let child = c.addr;
            if visited[child] || !sim.alive(child) {
                continue;
            }
            let points_back = sim
                .app(child)
                .upper
                .state
                .membership(t)
                .and_then(|cm| cm.parent)
                .is_some_and(|p| p.addr == u);
            if !points_back {
                continue;
            }
            visited[child] = true;
            if sim
                .app(child)
                .upper
                .state
                .membership(t)
                .is_some_and(|cm| cm.subscriber)
            {
                count += 1;
            }
            stack.push(child);
        }
    }
    count
}

/// Drives one broadcast round on every topic and records it in the ledger.
fn drive_rounds<S: TraceSink>(
    sim: &mut EchoSim<S>,
    topics: &[Id],
    round: u64,
    quiesce_at: SimTime,
    ledger: &RoundLedger,
) {
    for &t in topics {
        let root = (0..sim.len()).find(|&i| {
            sim.alive(i)
                && sim
                    .app(i)
                    .upper
                    .state
                    .membership(t)
                    .is_some_and(|m| m.is_root)
        });
        let Some(root) = root else {
            continue; // No live root: nothing to broadcast (structure oracle will flag it).
        };
        let expected = reachable_subscribers(sim, t, root);
        let ceiling = (0..sim.len())
            .filter(|&i| {
                i != root
                    && sim.alive(i)
                    && sim
                        .app(i)
                        .upper
                        .state
                        .membership(t)
                        .is_some_and(|m| m.subscriber)
            })
            .count() as u64;
        let now = sim.now();
        ledger.borrow_mut().push(RoundRecord {
            topic: t,
            round,
            at: now,
            expected,
            ceiling,
            during_quiesce: now >= quiesce_at,
        });
        sim.with_app(root, |node, ctx| {
            node.with_api(ctx, |forest, dht| {
                forest.with_forest_api(dht, |_app, api| {
                    api.broadcast(
                        t,
                        round,
                        Blob {
                            bytes: PAYLOAD_BYTES,
                            count: 0,
                        },
                    );
                });
            });
        })
        .expect("roots are excluded from churn");
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Aggregation conservation: per `(topic, round)`, the counts flushed at
/// roots never exceed the subscribers the broadcast could reach, and match
/// exactly for post-quiescence rounds once the straggler cutoff has aged
/// out (the base topology is lossless, so nothing may go missing).
pub struct Conservation {
    ledger: RoundLedger,
}

impl Conservation {
    /// Creates the oracle over the driver's ledger.
    pub fn new(ledger: RoundLedger) -> Self {
        Conservation { ledger }
    }
}

impl<S: TraceSink> Invariant<ForestNode<EchoApp>, S> for Conservation {
    fn name(&self) -> &'static str {
        "Conservation"
    }

    fn check(&mut self, sim: &Simulator<ForestNode<EchoApp>, S>) -> Result<(), String> {
        // Completions survive node death (state is frozen, not dropped), so
        // every flush ever performed is visible here.
        let mut flushed: BTreeMap<(Id, u64), u64> = BTreeMap::new();
        for app in sim.apps() {
            for &(t, round, count) in &app.upper.app.completed {
                *flushed.entry((t, round)).or_default() += count;
            }
        }
        for rec in self.ledger.borrow().iter() {
            let got = flushed.get(&(rec.topic, rec.round)).copied().unwrap_or(0);
            if got > rec.ceiling {
                return Err(format!(
                    "round {} broadcast at {} counted {} contributions from {} live \
                     subscribers (some update counted twice)",
                    rec.round,
                    fmt_time(rec.at),
                    got,
                    rec.ceiling
                ));
            }
            let aged = sim.now() >= rec.at + AGG_TIMEOUT + AGG_GRACE;
            if rec.during_quiesce && aged && got < rec.expected {
                return Err(format!(
                    "post-quiescence round {} broadcast at {} counted only {} of {} \
                     reachable contributions",
                    rec.round,
                    fmt_time(rec.at),
                    got,
                    rec.expected
                ));
            }
        }
        Ok(())
    }
}

/// Live node list `(id, addr)` sorted by ring id.
fn live_by_id<S: TraceSink>(sim: &EchoSim<S>) -> Vec<(Id, NodeIdx)> {
    let mut live: Vec<(Id, NodeIdx)> = (0..sim.len())
        .filter(|&i| sim.alive(i))
        .map(|i| (sim.app(i).state.id(), i))
        .collect();
    live.sort_unstable();
    live
}

/// DHT routing/leaf-set consistency against the omniscient oracle: leaf
/// sets hold no dead members, and each live node's ring successor and
/// predecessor are the converged ones [`build_states`] computes over the
/// live id population.
pub struct DhtConsistency {
    config: DhtConfig,
}

impl DhtConsistency {
    /// Creates the oracle for an overlay built with `config`.
    pub fn new(config: DhtConfig) -> Self {
        DhtConsistency { config }
    }
}

impl<S: TraceSink> Invariant<ForestNode<EchoApp>, S> for DhtConsistency {
    fn name(&self) -> &'static str {
        "DhtConsistency"
    }

    fn phase(&self) -> InvariantPhase {
        InvariantPhase::Quiescent
    }

    fn check(&mut self, sim: &Simulator<ForestNode<EchoApp>, S>) -> Result<(), String> {
        let live = live_by_id(sim);
        let ids: Vec<Id> = live.iter().map(|&(id, _)| id).collect();
        let oracle = build_states(&ids, self.config);
        for (k, &(id, i)) in live.iter().enumerate() {
            let state = &sim.app(i).state;
            for c in state.leaf_set.members() {
                if !sim.alive(c.addr) {
                    return Err(format!(
                        "node {i}'s leaf set still references dead node {}",
                        c.addr
                    ));
                }
            }
            for (what, got, want) in [
                (
                    "successor",
                    state.leaf_set.successor().map(|c| c.id),
                    oracle[k].leaf_set.successor().map(|c| c.id),
                ),
                (
                    "predecessor",
                    state.leaf_set.predecessor().map(|c| c.id),
                    oracle[k].leaf_set.predecessor().map(|c| c.id),
                ),
            ] {
                if got != want {
                    return Err(format!(
                        "node {i} (id {id:?}) has {what} {got:?}, oracle expects {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Rendezvous uniqueness: per topic key, exactly one live node routes the
/// key to itself, and it is the ring-closest live node. More than one
/// self-owner means a routed JOIN can terminate at the wrong node (the
/// split-brain precursor); zero means the topic is unroutable.
pub struct RendezvousUnique {
    topics: Vec<Id>,
}

impl RendezvousUnique {
    /// Creates the oracle over the experiment topics.
    pub fn new(topics: Vec<Id>) -> Self {
        RendezvousUnique { topics }
    }
}

impl<S: TraceSink> Invariant<ForestNode<EchoApp>, S> for RendezvousUnique {
    fn name(&self) -> &'static str {
        "RendezvousUnique"
    }

    fn phase(&self) -> InvariantPhase {
        InvariantPhase::Quiescent
    }

    fn check(&mut self, sim: &Simulator<ForestNode<EchoApp>, S>) -> Result<(), String> {
        let live = live_by_id(sim);
        let ids: Vec<Id> = live.iter().map(|&(id, _)| id).collect();
        for &key in &self.topics {
            let owners: Vec<NodeIdx> = live
                .iter()
                .filter(|&&(_, i)| matches!(next_hop(&sim.app(i).state, key), NextHop::Deliver))
                .map(|&(_, i)| i)
                .collect();
            if owners.len() != 1 {
                return Err(format!(
                    "topic {key:?} has {} live self-owners {:?}, want exactly 1",
                    owners.len(),
                    owners
                ));
            }
            let want = live[closest_on_ring(&ids, key)].1;
            if owners[0] != want {
                return Err(format!(
                    "topic {key:?} delivered at node {}, ring-closest live node is {want}",
                    owners[0]
                ));
            }
        }
        Ok(())
    }
}

/// Walks `i`'s parent chain for `t`; `Ok(true)` when it reaches a live
/// root, `Ok(false)` when it dangles (detached or dead parent), `Err` on a
/// cycle or overlong chain.
pub(crate) fn chain_reaches_root<S: TraceSink>(
    sim: &EchoSim<S>,
    t: Id,
    i: NodeIdx,
) -> Result<bool, String> {
    let mut cur = i;
    for _ in 0..=sim.len() {
        if !sim.alive(cur) {
            return Ok(false);
        }
        let Some(m) = sim.app(cur).upper.state.membership(t) else {
            return Ok(false);
        };
        if m.is_root {
            return Ok(true);
        }
        match m.parent {
            Some(p) => cur = p.addr,
            None => return Ok(false),
        }
    }
    Err(format!(
        "node {i}'s parent chain for topic {t:?} exceeds the node count (cycle)"
    ))
}

/// Forest structure: each topic has exactly one live root, parent chains
/// are acyclic, and no live node is attached to a dead parent.
pub struct ForestStructure {
    topics: Vec<Id>,
}

impl ForestStructure {
    /// Creates the oracle over the experiment topics.
    pub fn new(topics: Vec<Id>) -> Self {
        ForestStructure { topics }
    }
}

impl<S: TraceSink> Invariant<ForestNode<EchoApp>, S> for ForestStructure {
    fn name(&self) -> &'static str {
        "ForestStructure"
    }

    fn phase(&self) -> InvariantPhase {
        InvariantPhase::Quiescent
    }

    fn check(&mut self, sim: &Simulator<ForestNode<EchoApp>, S>) -> Result<(), String> {
        for &t in &self.topics {
            let roots: Vec<NodeIdx> = (0..sim.len())
                .filter(|&i| {
                    sim.alive(i)
                        && sim
                            .app(i)
                            .upper
                            .state
                            .membership(t)
                            .is_some_and(|m| m.is_root)
                })
                .collect();
            if roots.is_empty() {
                return Err(format!("topic {t:?} has no live root"));
            }
            if roots.len() > 1 {
                return Err(format!(
                    "topic {t:?} has {} live roots {:?} (split brain)",
                    roots.len(),
                    roots
                ));
            }
            for i in 0..sim.len() {
                if !sim.alive(i) {
                    continue;
                }
                let Some(m) = sim.app(i).upper.state.membership(t) else {
                    continue;
                };
                if let Some(p) = m.parent {
                    if !sim.alive(p.addr) {
                        return Err(format!(
                            "live node {i} is attached to dead parent {} for topic {t:?}",
                            p.addr
                        ));
                    }
                }
                chain_reaches_root(sim, t, i)?;
            }
        }
        Ok(())
    }
}

/// Full subscriber coverage: every live subscriber's parent chain reaches a
/// live root. `Err` carries the first uncovered node.
pub(crate) fn coverage<S: TraceSink>(sim: &EchoSim<S>, topics: &[Id]) -> Result<(), String> {
    for &t in topics {
        for i in 0..sim.len() {
            if !sim.alive(i) {
                continue;
            }
            let subscriber = sim
                .app(i)
                .upper
                .state
                .membership(t)
                .is_some_and(|m| m.subscriber);
            if !subscriber {
                continue;
            }
            match chain_reaches_root(sim, t, i) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(format!(
                        "subscriber {i} of topic {t:?} is not connected to a live root"
                    ))
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// Bounded recovery: full subscriber coverage must hold within
/// [`RECOVERY_BUDGET`] of quiescence and must never regress afterwards.
pub struct BoundedRecovery {
    topics: Vec<Id>,
    deadline: SimTime,
    held: bool,
}

impl BoundedRecovery {
    /// Creates the oracle; `quiesce_at` anchors the recovery deadline.
    pub fn new(topics: Vec<Id>, quiesce_at: SimTime) -> Self {
        BoundedRecovery {
            topics,
            deadline: quiesce_at + RECOVERY_BUDGET,
            held: false,
        }
    }
}

impl<S: TraceSink> Invariant<ForestNode<EchoApp>, S> for BoundedRecovery {
    fn name(&self) -> &'static str {
        "BoundedRecovery"
    }

    fn phase(&self) -> InvariantPhase {
        InvariantPhase::Quiescent
    }

    fn check(&mut self, sim: &Simulator<ForestNode<EchoApp>, S>) -> Result<(), String> {
        match coverage(sim, &self.topics) {
            Ok(()) => {
                self.held = true;
                Ok(())
            }
            Err(detail) if self.held => Err(format!("coverage regressed: {detail}")),
            Err(detail) if sim.now() >= self.deadline => Err(format!(
                "coverage not restored by {}: {detail}",
                fmt_time(self.deadline)
            )),
            Err(_) => Ok(()), // Still within the recovery budget.
        }
    }
}

/// Repair quiescence: once coverage holds at two consecutive checkpoints,
/// the fleet-wide JOIN counter must not advance between covered
/// checkpoints — a repair loop that keeps re-joining a healthy tree is
/// livelock, not liveness.
pub struct RepairQuiescence {
    topics: Vec<Id>,
    prev: Option<(bool, u64)>,
}

impl RepairQuiescence {
    /// Creates the oracle over the experiment topics.
    pub fn new(topics: Vec<Id>) -> Self {
        RepairQuiescence { topics, prev: None }
    }
}

impl<S: TraceSink> Invariant<ForestNode<EchoApp>, S> for RepairQuiescence {
    fn name(&self) -> &'static str {
        "RepairQuiescence"
    }

    fn phase(&self) -> InvariantPhase {
        InvariantPhase::Quiescent
    }

    fn check(&mut self, sim: &Simulator<ForestNode<EchoApp>, S>) -> Result<(), String> {
        let covered = coverage(sim, &self.topics).is_ok();
        let joins: u64 = sim.apps().map(|a| a.upper.state.stats.joins_sent).sum();
        let result = match self.prev {
            Some((true, prev_joins)) if covered && joins > prev_joins => Err(format!(
                "{} repair JOINs sent while coverage already held",
                joins - prev_joins
            )),
            _ => Ok(()),
        };
        self.prev = Some((covered, joins));
        result
    }
}

// ---------------------------------------------------------------------------
// Deliberate bugs (oracle validation)
// ---------------------------------------------------------------------------

/// A deliberately planted protocol bug, used to prove the oracles catch
/// real breakage (and that [`shrink`] localizes it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BugKind {
    /// Silently drop every tree JOIN from t=25s on. JoinAck loss self-heals
    /// (heartbeat re-adoption), but orphans of a *dead* parent can only
    /// reattach via JOIN — so any churn strands them forever.
    DropRepairJoin,
}

impl BugKind {
    /// Parses a CLI bug name.
    pub fn parse(name: &str) -> Option<BugKind> {
        match name {
            "drop-repair-join" => Some(BugKind::DropRepairJoin),
            _ => None,
        }
    }

    /// The CLI name of this bug.
    pub fn name(&self) -> &'static str {
        match self {
            BugKind::DropRepairJoin => "drop-repair-join",
        }
    }
}

/// Installs `bug` on the simulator via the protocol-aware fault filter.
pub fn install_bug<S: TraceSink>(sim: &mut EchoSim<S>, bug: BugKind) {
    match bug {
        BugKind::DropRepairJoin => {
            let from = SimTime::from_secs(25);
            sim.set_fault_filter(Box::new(move |now, _src, _dst, msg| {
                now >= from
                    && matches!(
                        msg,
                        DhtMsg::Route {
                            payload: TreeMsg::Join { .. },
                            ..
                        } | DhtMsg::Direct {
                            payload: TreeMsg::Join { .. },
                        }
                    )
            }));
        }
    }
}

// ---------------------------------------------------------------------------
// Trials, shrinking, and the scenario
// ---------------------------------------------------------------------------

/// Everything needed to reproduce one chaos trial.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Network size.
    pub nodes: usize,
    /// Number of tree topics.
    pub trees: usize,
    /// Canned plan name (see [`PLAN_NAMES`]).
    pub plan: String,
    /// Trial seed: world construction, plan randomness, fault streams.
    pub seed: u64,
    /// Deliberately planted bug, if any.
    pub bug: Option<BugKind>,
}

/// The outcome of one chaos trial.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// First violation per invariant, in checkpoint order.
    pub violations: Vec<Violation>,
    /// Labels of the plan atoms that were active.
    pub atoms: Vec<String>,
    /// Rounds driven across all topics.
    pub rounds: u64,
    /// What the injector did.
    pub chaos: ChaosStats,
    /// Simulator accounting at trial end.
    pub sim: totoro_simnet::TrialReport,
}

/// Runs one chaos trial: build + settle the world, apply the plan
/// (restricted to `mask`'s atoms when given), and drive rounds under live
/// invariant checking. Fully deterministic in `(spec, mask)`.
pub fn run_chaos_trial(spec: &ChaosSpec, mask: Option<&[bool]>) -> ChaosOutcome {
    run_chaos_trial_sink(spec, mask, NoopSink).0
}

/// [`run_chaos_trial`] with an explicit trace sink: the sink observes the
/// whole trial (settle included) and is returned so callers can drain its
/// records — this is how `totoro-bench chaos --replay --trace` reconstructs the
/// message chain behind a violation.
pub fn run_chaos_trial_sink<S: TraceSink>(
    spec: &ChaosSpec,
    mask: Option<&[bool]>,
    sink: S,
) -> (ChaosOutcome, S) {
    let ChaosWorld { mut sim, topics } = build_world_sink(spec.nodes, spec.trees, spec.seed, sink);
    let roots = live_roots(&sim, &topics);
    let full_plan = canned_plan(&spec.plan, &sim, &roots, spec.seed);
    let plan = match mask {
        Some(mask) => full_plan.retain_atoms(mask),
        None => full_plan.clone(),
    };
    let quiesce_at = plan.last_fault_clear().max(SETTLE) + QUIESCE_SETTLE;
    let cfg = CheckpointConfig {
        every: CHECK_EVERY,
        end: quiesce_at + TAIL,
        quiesce_at,
    };
    plan.apply(&mut sim, spec.seed);
    if let Some(bug) = spec.bug {
        install_bug(&mut sim, bug);
    }

    let ledger: RoundLedger = Rc::new(RefCell::new(Vec::new()));
    let mut invariants: Vec<Box<dyn Invariant<ForestNode<EchoApp>, S>>> = vec![
        Box::new(Conservation::new(Rc::clone(&ledger))),
        Box::new(DhtConsistency::new(DhtConfig::with_fanout(FANOUT))),
        Box::new(RendezvousUnique::new(topics.clone())),
        Box::new(ForestStructure::new(topics.clone())),
        Box::new(BoundedRecovery::new(topics.clone(), quiesce_at)),
        Box::new(RepairQuiescence::new(topics.clone())),
    ];
    let mut round = 0u64;
    let mut next_broadcast = SETTLE + CHECK_EVERY;
    let ledger_for_driver = Rc::clone(&ledger);
    let violations = run_with_invariants(&mut sim, &cfg, &mut invariants, |sim| {
        if sim.now() >= next_broadcast {
            drive_rounds(sim, &topics, round, quiesce_at, &ledger_for_driver);
            round += 1;
            next_broadcast += BROADCAST_GAP;
        }
    });
    let outcome = ChaosOutcome {
        violations,
        atoms: plan.describe(),
        rounds: round * topics.len() as u64,
        chaos: sim.chaos().map(|c| c.stats).unwrap_or_default(),
        sim: totoro_simnet::TrialReport::capture(&sim),
    };
    (outcome, sim.into_sink())
}

/// The result of shrinking a failing plan.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// Labels of the minimal failing atom set.
    pub atoms: Vec<String>,
    /// Trials executed (including the initial full run).
    pub runs: usize,
}

/// Greedily shrinks a failing plan ([`totoro_mc::shrink()`]): repeatedly
/// drop one atom, re-run, and keep the drop if any invariant still fires,
/// until no single removal preserves the failure. Any planted bug stays
/// installed throughout, so the result is the minimal fault set that
/// *triggers* the bug.
pub fn shrink(spec: &ChaosSpec) -> ShrinkResult {
    let full = run_chaos_trial(spec, None);
    if full.violations.is_empty() {
        return ShrinkResult {
            atoms: full.atoms,
            runs: 1,
        };
    }
    let all: Vec<usize> = (0..full.atoms.len()).collect();
    let shrunk = totoro_mc::shrink(&all, (), |kept| {
        let mut mask = vec![false; all.len()];
        for &i in kept {
            mask[i] = true;
        }
        let outcome = run_chaos_trial(spec, Some(&mask));
        (!outcome.violations.is_empty()).then_some(())
    });
    ShrinkResult {
        atoms: shrunk.kept.iter().map(|&i| full.atoms[i].clone()).collect(),
        runs: 1 + shrunk.calls,
    }
}

/// The chaos scenario: a seed sweep of N seeds × M plans through the
/// trial engine, rendered as a per-plan violation table plus replayable
/// violation/shrink reports; or, with `--replay PLAN:SEED`, one verbose
/// trial whose violations (traced with `--trace`) come with the causal
/// span behind them. Either fails its verdict on any violation.
pub struct ChaosScenario;

/// The `--plans` selection, checked against [`PLAN_NAMES`].
fn plans(params: &Params) -> Result<Vec<String>, String> {
    params.list_of("plans", &PLAN_NAMES.join(","), &PLAN_NAMES)
}

/// The `--replay PLAN:SEED` pair, if given.
fn replay_of(params: &Params) -> Result<Option<(&str, u64)>, String> {
    let Some(spec) = params.extra("replay") else {
        return Ok(None);
    };
    let bad = || {
        let plans = PLAN_NAMES.join(", ");
        let msg = format!("--replay expects PLAN:SEED with PLAN one of {plans}, got {spec:?}");
        params.reject("replay", msg)
    };
    let (plan, seed) = spec.rsplit_once(':').ok_or_else(bad)?;
    let seed = seed.parse().map_err(|_| bad())?;
    if !PLAN_NAMES.contains(&plan) {
        return Err(bad());
    }
    Ok(Some((plan, seed)))
}

fn spec_for(trial: &Trial) -> ChaosSpec {
    ChaosSpec {
        nodes: trial.get_usize("nodes"),
        trees: trial.get_usize("trees"),
        plan: trial.setup.clone(),
        seed: trial.seed,
        bug: (trial.get("bug") == 1).then_some(BugKind::DropRepairJoin),
    }
}

/// The replay report: the plan's atoms, what the run did, and each
/// violation with the last forest message chain in flight when it fired
/// (when `records` were kept), then the shrunk plan.
fn replay_notes(
    report: &mut TrialReport,
    spec: &ChaosSpec,
    outcome: &ChaosOutcome,
    records: Option<&[TraceRecord]>,
) {
    report.push_note(format!(
        "replaying plan={} seed={} nodes={} trees={}{}",
        spec.plan,
        spec.seed,
        spec.nodes,
        spec.trees,
        spec.bug
            .map(|b| format!(" bug={}", b.name()))
            .unwrap_or_default()
    ));
    report.push_note("plan atoms:");
    report
        .notes
        .extend(outcome.atoms.iter().map(|a| format!("  - {a}")));
    report.push_note(format!(
        "rounds={} events={} chaos: dropped={} duplicated={} delayed={}",
        outcome.rounds,
        outcome.sim.events,
        outcome.chaos.dropped,
        outcome.chaos.duplicated,
        outcome.chaos.delayed
    ));
    if outcome.violations.is_empty() {
        report.push_note("no invariant violations");
        return;
    }
    for v in &outcome.violations {
        report.push_note(format!(
            "VIOLATION: {} @ {}: {}",
            v.invariant,
            fmt_time(v.at),
            v.detail
        ));
        let Some(records) = records else { continue };
        match last_trace_before(records, "forest", v.at.as_micros()) {
            Some(trace) => {
                report.push_note(format!(
                    "  last forest message chain in flight (span {trace}):"
                ));
                let lines = span_report(records, trace);
                report
                    .notes
                    .extend(lines.iter().map(|l| format!("    {l}")));
            }
            None => report.push_note("  no forest message chain recorded before the violation"),
        }
    }
    let shrunk = shrink(spec);
    report.push_note(format!(
        "shrunk to {} atom(s) in {} runs:",
        shrunk.atoms.len(),
        shrunk.runs
    ));
    report
        .notes
        .extend(shrunk.atoms.iter().map(|a| format!("  - {a}")));
}

/// The sweep report: one line per violation, the command that replays
/// the trial, and its shrunk plan.
fn sweep_notes(report: &mut TrialReport, spec: &ChaosSpec, outcome: &ChaosOutcome) {
    if outcome.violations.is_empty() {
        return;
    }
    for v in &outcome.violations {
        report.push_note(format!(
            "VIOLATION plan={} seed={}: {} @ {}: {}",
            spec.plan,
            spec.seed,
            v.invariant,
            fmt_time(v.at),
            v.detail
        ));
    }
    report.push_note(format!(
        "replay: totoro-bench chaos --replay {}:{} --nodes {} --trees {}{}",
        spec.plan,
        spec.seed,
        spec.nodes,
        spec.trees,
        spec.bug
            .map(|b| format!(" --inject-bug {}", b.name()))
            .unwrap_or_default()
    ));
    let shrunk = shrink(spec);
    report.push_metric("shrunk_atoms", shrunk.atoms.len() as f64);
    report.push_note(format!(
        "shrunk to {} atom(s) in {} runs: [{}]",
        shrunk.atoms.len(),
        shrunk.runs,
        shrunk.atoms.join("; ")
    ));
}

impl Scenario for ChaosScenario {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn description(&self) -> &'static str {
        "seed-sweep fault injection with live protocol-invariant oracles"
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 200,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["seeds", "trees", "plans", "inject-bug", "replay"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let seeds: u64 = params.num("seeds")?.unwrap_or(16);
        let trees: u64 = params.num("trees")?.unwrap_or(3);
        let plans = plans(params)?;
        let bug = params.one_of("inject-bug", &[BugKind::DropRepairJoin.name()])?;
        let replay = replay_of(params)?;
        if params.trace.is_some() && replay.is_none() {
            return Err(
                "--trace is only valid with --replay (sweeps would trace every trial)".into(),
            );
        }
        let trial = |plan: &str, seed: u64| {
            Trial::new(plan, seed)
                .with("nodes", params.nodes as u64)
                .with("trees", trees)
                .with("bug", u64::from(bug.is_some()))
                .with("replay", u64::from(replay.is_some()))
        };
        if let Some((plan, seed)) = replay {
            return Ok(vec![trial(plan, seed)]);
        }
        Ok(plans
            .iter()
            .flat_map(|plan| (0..seeds).map(|s| trial(plan, params.seed + s)))
            .collect())
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let spec = spec_for(trial);
        let (outcome, records) = match sink.recording() {
            Some(sink) => {
                let (outcome, mut sink) = run_chaos_trial_sink(&spec, None, sink);
                (outcome, Some(sink.take_records()))
            }
            None => (run_chaos_trial(&spec, None), None),
        };
        let mut report = TrialReport::for_trial(trial);
        report.push_metric("violations", outcome.violations.len() as f64);
        report.push_metric("rounds", outcome.rounds as f64);
        report.push_metric("chaos_dropped", outcome.chaos.dropped as f64);
        report.push_metric("chaos_duplicated", outcome.chaos.duplicated as f64);
        report.push_metric("chaos_delayed", outcome.chaos.delayed as f64);
        if trial.get("replay") == 1 {
            replay_notes(&mut report, &spec, &outcome, records.as_deref());
        } else {
            sweep_notes(&mut report, &spec, &outcome);
        }
        report.sim = outcome.sim;
        (report, records)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let mut out = String::new();
        if params.extra("replay").is_some() {
            for note in reports.iter().flat_map(|r| &r.notes) {
                let _ = writeln!(out, "{note}");
            }
            return out;
        }
        let seeds: u64 = checked(params.num("seeds")).unwrap_or(16);
        let trees: u64 = checked(params.num("trees")).unwrap_or(3);
        let plans = checked(plans(params));
        let _ = writeln!(
            out,
            "chaos sweep: nodes={} trees={} seeds={} plans={}",
            params.nodes,
            trees,
            seeds,
            plans.join(",")
        );
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>11} {:>8}",
            "plan", "seeds", "violations", "rounds"
        );
        let mut total = 0u64;
        for plan in &plans {
            let of_plan: Vec<&TrialReport> = reports.iter().filter(|r| &r.setup == plan).collect();
            let violations: u64 = of_plan.iter().map(|r| r.metric("violations") as u64).sum();
            let rounds: u64 = of_plan.iter().map(|r| r.metric("rounds") as u64).sum();
            total += violations;
            let _ = writeln!(
                out,
                "{:<20} {:>6} {:>11} {:>8}",
                plan,
                of_plan.len(),
                violations,
                rounds
            );
        }
        for r in reports {
            for note in &r.notes {
                let _ = writeln!(out, "{note}");
            }
        }
        let _ = writeln!(out, "total violations: {total}");
        out
    }

    fn verdict(&self, reports: &[TrialReport]) -> bool {
        reports.iter().all(|r| r.metric("violations") == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans_of(list: &str) -> Result<Vec<String>, String> {
        plans(&Params {
            extra: vec![("plans".to_string(), list.to_string(), None)],
            ..Params::default()
        })
    }

    #[test]
    fn plan_names_round_trip_through_parser() {
        assert_eq!(plans(&Params::default()).unwrap(), PLAN_NAMES);
        assert_eq!(
            plans_of(" loss-spike ,partition").unwrap(),
            ["loss-spike", "partition"]
        );
    }

    #[test]
    #[should_panic(expected = "unknown value \"bogus\"")]
    fn unknown_plan_is_rejected() {
        if let Err(e) = plans_of("loss-spike,bogus") {
            panic!("{e}");
        }
    }

    #[test]
    fn bug_names_round_trip() {
        let bug = BugKind::parse("drop-repair-join").unwrap();
        assert_eq!(BugKind::parse(bug.name()), Some(bug));
        assert_eq!(BugKind::parse("nope"), None);
    }

    #[test]
    fn canned_plans_have_expected_atoms() {
        let ChaosWorld { sim, topics } = build_world(60, 1, 7);
        let roots = live_roots(&sim, &topics);
        assert_eq!(roots.len(), 1);
        assert_eq!(canned_plan("loss-spike", &sim, &roots, 7).atom_count(), 2);
        assert_eq!(canned_plan("partition", &sim, &roots, 7).atom_count(), 3);
        let churn = canned_plan("churn+stragglers", &sim, &roots, 7);
        assert_eq!(churn.atom_count(), 2);
        assert!(!churn.churn().is_empty());
        // Roots are never churned or slowed.
        assert!(churn
            .churn()
            .events()
            .iter()
            .all(|e| !roots.contains(&e.node)));
    }

    #[test]
    fn settled_world_passes_every_invariant_without_faults() {
        let spec = ChaosSpec {
            nodes: 60,
            trees: 1,
            plan: "loss-spike".to_string(),
            seed: 11,
            bug: None,
        };
        // Mask out every atom: a fault-free run must be violation-free.
        let outcome = run_chaos_trial(&spec, Some(&[false, false]));
        assert!(
            outcome.violations.is_empty(),
            "fault-free run violated: {:?}",
            outcome.violations
        );
        assert!(outcome.rounds > 0);
        assert_eq!(outcome.chaos, ChaosStats::default());
    }
}
