//! Deterministic intra-trial parallelism: conservative sharded execution.
//!
//! [`ShardedSim`] partitions the nodes of one simulation into `K` shards
//! by topology region (zones never split across shards), runs each shard
//! — one event core (`engine.rs`) with its own queue and slab — on its
//! own thread, and synchronizes the shards with classic *conservative
//! lookahead* windows: all shards agree on the earliest pending event
//! time `T`, then each independently processes every local event in
//! `[T, T + L)`, where the lookahead `L` is a lower bound on the delay
//! of any inter-region message
//! ([`Topology::min_inter_region_delay`]). A message sent during the
//! window can only arrive at `>= T + L`, so cross-shard sends are parked
//! in per-pair mailboxes and handed off at the window barrier — before
//! any event they could possibly precede is dispatched.
//!
//! This module is the window/barrier/mailbox *driver* plus the sharded
//! `Partition`; `dispatch` and `apply_actions` are the shared core's.
//!
//! # The shard-invariance contract
//!
//! The sequential [`Simulator`](crate::sim::Simulator) orders same-time
//! events by a *global creation counter*, and feeds one global RNG in
//! that order. Neither survives parallel execution, so the sharded
//! engine replaces them with shard-count-independent equivalents:
//!
//! * **Event keys.** Every event's tie-break key is
//!   `(origin_node << 40) | per_origin_counter` — the node that
//!   *created* the event, and that node's private creation counter.
//!   Each node lives in exactly one shard, so its counter sequence is
//!   identical at any shard count, giving one total order
//!   `(time, origin, counter)` that every `K` dispatches in.
//! * **Closed timestamps.** Anything scheduled with zero effective
//!   delay — an action, or a churn transition the driver asks for at or
//!   before the current time — lands at `now + 1 µs` (the clock's
//!   resolution) instead of `now`, so the set of events at a timestamp is
//!   closed before that timestamp dispatches — the `(origin, counter)`
//!   order within a timestamp is then causally consistent by
//!   construction. This is the one scheduling difference from the
//!   sequential engine.
//! * **No global RNG.** The topology must be RNG-free
//!   ([`Topology::delay_is_deterministic`]), chaos must be *keyed*
//!   ([`FaultPlan::keyed_injector`]), and applications that want
//!   identical results across shard counts must not draw from
//!   [`Ctx::rng`](crate::sim::Ctx::rng) (each shard has a private stream, so draws are
//!   reproducible per `(seed, K)` but not across `K`).
//! * **Commutative ledgers.** Traffic and compute are aggregated per
//!   *zone* ([`ZoneLedger`]); a zone lives wholly inside one shard and
//!   the counters are sums, so merged totals are shard-count-invariant.
//!
//! Under that contract, everything observable — event counts, event
//! times, final clock, per-zone ledgers, chaos stats, application state,
//! and merged trace records — is byte-identical for any `--shards N`.
//! Relative to the sequential engine, a sharded run agrees on the event
//! multiset, event times (up to the 1 µs closure above), and all
//! order-insensitive observables; only same-instant tie-break order may
//! differ. The evaluation scenarios therefore keep the sequential engine
//! (their goldens pin its exact interleaving); the sharded engine powers
//! the million-node scale axis, with its own invariance tests.
//!
//! This module is the one sanctioned home of thread primitives in the
//! protocol crates (detlint rule DET006): workers are scoped threads,
//! window agreement uses a [`Barrier`], and mailboxes are per-`(i, j)`
//! mutexes that are never contended (writers and readers are separated
//! by the barrier).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use crate::chaos::{ChaosStats, FaultPlan};
use crate::churn::ChurnSchedule;
use crate::engine::{Engine, EventKind, Partition, Stamped};
use crate::obs::prof::{EngineProf, EngineProfile, ShardWall, WallProfile};
use crate::obs::{MsgMeta, TraceRecord};
use crate::queue::{check_node_count, EventKey, EventQueue, WheelQueue};
use crate::rng::sub_rng;
use crate::sim::{Application, ComputeKind};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeIdx, Topology};
use crate::traffic::{TrafficTotals, ZoneLedger};

/// Bits reserved for the per-origin creation counter in an event key's
/// sequence word; the origin node index occupies the bits above.
const COUNTER_BITS: u32 = 40;

/// Why a topology/shard-count combination cannot be sharded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// `shards == 0` was requested.
    ZeroShards,
    /// The topology draws from the RNG when sampling delay or loss
    /// (jitter, stochastic uniform latency, or nonzero loss), so a
    /// global stream order would be required.
    StochasticTopology,
    /// The topology's inter-region delay lower bound is zero — no
    /// conservative window can make progress.
    ZeroLookahead,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "shard count must be at least 1"),
            ShardError::StochasticTopology => write!(
                f,
                "sharded execution requires an RNG-free topology \
                 (zero jitter, zero loss, fixed latency)"
            ),
            ShardError::ZeroLookahead => write!(
                f,
                "inter-region delay lower bound is zero; \
                 conservative windows cannot make progress"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// The deterministic node→shard assignment for one topology.
///
/// Regions are never split: the partitioner greedily packs whole regions
/// (largest node count first, region id as tie-break) onto the currently
/// lightest shard. The requested shard count is clamped to the number of
/// populated regions, so no shard is ever empty.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Node → owning shard.
    node_shard: Vec<u32>,
    /// Node → index within its shard's local tables.
    local_index: Vec<u32>,
    /// Shard → member nodes, ascending global index.
    members: Vec<Vec<NodeIdx>>,
    /// Conservative lookahead (zero when `shards == 1`, where no window
    /// synchronization happens).
    lookahead: SimDuration,
}

impl ShardPlan {
    /// Builds a plan for `shards` shards over `topology`.
    pub fn new(topology: &Topology, shards: usize) -> Result<ShardPlan, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        let n = topology.len();
        assert!(
            (n as u64) < (1u64 << (64 - COUNTER_BITS)),
            "node count exceeds the event-key origin field"
        );
        let nregions = topology.num_regions().max(1);
        let mut region_count = vec![0u64; nregions];
        for i in 0..n {
            region_count[topology.region(i) as usize] += 1;
        }
        let populated = region_count.iter().filter(|&&c| c > 0).count().max(1);
        let k = shards.min(populated);
        let lookahead = if k > 1 {
            let lb = topology
                .min_inter_region_delay()
                .expect(">= 2 populated regions");
            if lb == SimDuration::ZERO {
                return Err(ShardError::ZeroLookahead);
            }
            lb
        } else {
            SimDuration::ZERO
        };
        // Greedy bin-packing of whole regions: biggest first, onto the
        // lightest shard; ties broken by region id / shard id, so the
        // assignment is a pure function of the topology.
        let mut order: Vec<usize> = (0..nregions).collect();
        order.sort_by_key(|&r| (u64::MAX - region_count[r], r));
        let mut region_shard = vec![0u32; nregions];
        let mut load = vec![0u64; k];
        for r in order {
            let lightest = (0..k).min_by_key(|&s| (load[s], s)).expect("k >= 1");
            region_shard[r] = lightest as u32;
            load[lightest] += region_count[r];
        }
        let mut node_shard = vec![0u32; n];
        let mut local_index = vec![0u32; n];
        let mut members: Vec<Vec<NodeIdx>> = vec![Vec::new(); k];
        for i in 0..n {
            let s = region_shard[topology.region(i) as usize];
            node_shard[i] = s;
            local_index[i] = members[s as usize].len() as u32;
            members[s as usize].push(i);
        }
        Ok(ShardPlan {
            node_shard,
            local_index,
            members,
            lookahead,
        })
    }

    /// Number of shards (after clamping to populated regions).
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeIdx) -> usize {
        self.node_shard[node] as usize
    }

    /// Number of nodes on shard `s`.
    pub fn shard_len(&self, s: usize) -> usize {
        self.members[s].len()
    }

    /// The conservative lookahead (zero for a single shard).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Heap bytes held by the plan's per-node tables.
    fn heap_bytes(&self) -> usize {
        self.node_shard.capacity() * 4
            + self.local_index.capacity() * 4
            + self
                .members
                .iter()
                .map(|m| m.capacity() * std::mem::size_of::<NodeIdx>())
                .sum::<usize>()
    }
}

/// One row of the window-exchange matrix: mailbox `row[j]` holds events
/// a shard sent toward shard `j`, locked only across a barrier.
type MailboxRow<M> = Vec<Mutex<Vec<Stamped<M>>>>;

/// One shard: the event core over the shard's member nodes.
type ShardCore<A> = Engine<A, ShardPart<<A as Application>::Msg>, WheelQueue>;

/// The sharded engine's partition: per-origin creation counters, closed
/// timestamps, plan-directed placement with an outbox per destination
/// shard, per-zone ledgers, and a run-time-optional trace buffer.
struct ShardPart<M> {
    id: usize,
    plan: Arc<ShardPlan>,
    /// Local index → global node index (ascending): this shard's own copy
    /// of `plan.members[id]`, counted in `state_bytes`.
    globals: Vec<NodeIdx>,
    /// Per-origin event creation counters (the low word of event keys).
    counters: Vec<u64>,
    /// Per-origin message-id counters (traced runs only; ids start at 1
    /// so `MsgMeta::is_traced` stays meaningful). A separate id space
    /// from event keys, so tracing never perturbs dispatch order.
    msg_counters: Vec<u64>,
    traffic: ZoneLedger,
    compute_fl_us: Vec<u64>,
    compute_dht_us: Vec<u64>,
    /// Outgoing cross-shard events, one buffer per destination shard.
    outbox: Vec<Vec<Stamped<M>>>,
    /// Cross-shard events this shard handed off (outbox pushes). Always
    /// counted — one add per handoff — surfaced only via the wall-clock
    /// side channel, never on a golden surface.
    remote_sent: u64,
    /// Trace collection: `(dispatch key, emission index, record)`;
    /// `None` when untraced (zero cost, like `NoopSink`).
    trace: Option<Vec<(EventKey, u32, TraceRecord)>>,
    /// Key of the event currently dispatching (trace merge key).
    trace_key: EventKey,
    /// Emission index within the current event.
    trace_sub: u32,
    /// Wall-clock phase timings (side-channel only); `None` when off.
    wall: Option<ShardWall>,
}

impl<M> ShardPart<M> {
    /// `(global_index << COUNTER_BITS) | counter`, advancing the counter.
    #[inline]
    fn mint(counter: &mut u64, origin: NodeIdx) -> u64 {
        let c = *counter;
        *counter = c + 1;
        debug_assert!(c < 1 << COUNTER_BITS, "per-node counter overflow");
        ((origin as u64) << COUNTER_BITS) | c
    }
}

impl<M> Partition<M> for ShardPart<M> {
    // A floor, not a forecast: `simcore`'s 1M-node gossip peaks at 5.09
    // slab slots per node, so the slab still doubles past this hint. It
    // stays at 2x because a reservation is paid at every node count while
    // a peak is only reached by workloads that burst.
    const PRESIZE: usize = 2;

    #[inline]
    fn mint_seq(&mut self, local: usize, origin: NodeIdx) -> u64 {
        Self::mint(&mut self.counters[local], origin)
    }

    #[inline]
    fn mint_msg_id(&mut self, local: usize, origin: NodeIdx) -> u64 {
        Self::mint(&mut self.msg_counters[local], origin)
    }

    /// Closes the current timestamp: anything scheduled at or before
    /// `now` lands at `now + 1 µs` (see the module docs).
    #[inline]
    fn due(at: SimTime, now: SimTime) -> SimTime {
        if at <= now {
            now + SimDuration::from_micros(1)
        } else {
            at
        }
    }

    #[inline]
    fn local(&self, node: NodeIdx) -> usize {
        self.plan.local_index[node] as usize
    }

    #[inline]
    fn global(&self, local: usize) -> NodeIdx {
        self.globals[local]
    }

    #[inline]
    fn owns(&self, node: NodeIdx) -> bool {
        self.plan.node_shard[node] as usize == self.id
    }

    #[inline]
    fn park(&mut self, ev: Stamped<M>) {
        self.remote_sent += 1;
        self.outbox[self.plan.node_shard[ev.dst] as usize].push(ev);
    }

    #[inline]
    fn record_send(&mut self, topology: &Topology, src: NodeIdx, bytes: usize) {
        self.traffic.record_send(topology.region(src), bytes);
    }

    #[inline]
    fn record_recv(&mut self, topology: &Topology, dst: NodeIdx, bytes: usize) {
        self.traffic.record_recv(topology.region(dst), bytes);
    }

    #[inline]
    fn charge(&mut self, topology: &Topology, node: NodeIdx, kind: ComputeKind, us: SimDuration) {
        let zone = topology.region(node) as usize;
        match kind {
            ComputeKind::FlTask => self.compute_fl_us[zone] += us.as_micros(),
            ComputeKind::DhtTask => self.compute_dht_us[zone] += us.as_micros(),
        }
    }

    #[inline]
    fn traced(&self) -> bool {
        self.trace.is_some()
    }

    #[inline]
    fn begin_event(&mut self, key: EventKey) {
        self.trace_key = key;
        self.trace_sub = 0;
    }

    #[inline]
    fn record(&mut self, rec: TraceRecord) {
        if let Some(tr) = self.trace.as_mut() {
            tr.push((self.trace_key, self.trace_sub, rec));
            self.trace_sub += 1;
        }
    }
}

/// What only the window driver asks of a core.
impl<A: Application> ShardCore<A> {
    /// Earliest pending event time in microseconds (`u64::MAX` if idle).
    fn next_due_us(&mut self) -> u64 {
        self.queue
            .peek()
            .map_or(u64::MAX, |(key, ..)| key.time.as_micros())
    }

    /// Dispatches every local event with time strictly below `end_us`
    /// (exclusive), accounting the host time when wall profiling is on.
    fn process_window(&mut self, end_us: u64, topology: &Topology) {
        debug_assert!(end_us > 0);
        if let Some(p) = self.prof.as_mut() {
            // Single-shard runs open windows lazily at dispatch; clamping
            // them to this call's bound reproduces the parallel loop's
            // `min(T + L, deadline + 1)` window ends exactly. (Parallel
            // runs pre-open every window and never consult the clamp.)
            p.set_window_clamp(end_us);
        }
        let t0 = self.part.wall.is_some().then(Instant::now); // det: allow(entropy: wall-clock phase timing, surfaced only via the --profile-wall side channel)
        self.run_before(topology, SimTime::from_micros(end_us.saturating_sub(1)));
        if let (Some(t0), Some(w)) = (t0, self.part.wall.as_mut()) {
            w.process_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Heap bytes reserved by this shard's hot state.
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<A>()
            + self.part.globals.capacity() * std::mem::size_of::<NodeIdx>()
            + self.alive.heap_bytes()
            + self.part.counters.capacity() * 8
            + self.queue.heap_bytes()
            + self.slab.heap_bytes()
            + self.part.msg_counters.capacity() * 8
            + self.meta_slots.capacity() * std::mem::size_of::<MsgMeta>()
    }
}

/// The sharded simulator: `K` conservative-parallel event loops over one
/// topology. See the module docs for the invariance contract.
pub struct ShardedSim<A: Application> {
    topology: Topology,
    plan: Arc<ShardPlan>,
    cores: Vec<ShardCore<A>>,
}

impl<A: Application> ShardedSim<A> {
    /// Builds a sharded simulator over `topology` with (at most) `shards`
    /// shards, constructing nodes with `make_node` in global index order.
    /// `on_start` fires for every node at time zero, exactly like
    /// [`Simulator::new`](crate::sim::Simulator::new).
    ///
    /// Fails when the topology is stochastic or (for `shards > 1`) when
    /// no positive lookahead can be derived.
    pub fn new(
        topology: Topology,
        seed: u64,
        shards: usize,
        mut make_node: impl FnMut(NodeIdx) -> A,
    ) -> Result<Self, ShardError> {
        if !topology.delay_is_deterministic() {
            return Err(ShardError::StochasticTopology);
        }
        check_node_count(topology.len());
        let plan = Arc::new(ShardPlan::new(&topology, shards)?);
        let k = plan.shards();
        let zones = topology.num_regions().max(1);
        // Nodes are constructed in global order (construction may be
        // index-sensitive), then moved to their shard.
        let mut nodes: Vec<Vec<A>> = (0..k)
            .map(|s| Vec::with_capacity(plan.shard_len(s)))
            .collect();
        for g in 0..topology.len() {
            nodes[plan.shard_of(g)].push(make_node(g));
        }
        let cores = nodes
            .into_iter()
            .enumerate()
            .map(|(id, nodes)| {
                let part = ShardPart {
                    id,
                    plan: Arc::clone(&plan),
                    globals: plan.members[id].clone(),
                    counters: vec![0; nodes.len()],
                    msg_counters: Vec::new(),
                    traffic: ZoneLedger::new(zones),
                    compute_fl_us: vec![0; zones],
                    compute_dht_us: vec![0; zones],
                    outbox: (0..k).map(|_| Vec::new()).collect(),
                    remote_sent: 0,
                    trace: None,
                    trace_key: EventKey {
                        time: SimTime::ZERO,
                        seq: 0,
                    },
                    trace_sub: 0,
                    wall: None,
                };
                Engine::new(part, nodes, sub_rng(seed, &format!("shard-{id}")))
            })
            .collect();
        Ok(ShardedSim {
            topology,
            plan,
            cores,
        })
    }

    /// Enables trace collection (records retrieved with
    /// [`ShardedSim::take_trace`]). Must be called before running.
    pub fn with_tracing(mut self) -> Self {
        for core in &mut self.cores {
            core.part.trace = Some(Vec::new());
            core.part.msg_counters = vec![1; core.part.globals.len()];
        }
        self
    }

    /// Enables deterministic engine self-profiling ([`crate::obs::prof`]).
    /// Must be called before running. Every profiled quantity is a
    /// function of simulated state only — the collector is seeded with the
    /// *topology's* lookahead bound, not the plan's (which is zero for one
    /// shard) — so [`ShardedSim::engine_profile`] is byte-identical across
    /// shard counts for a fixed `(scenario, seed)`. Time-zero Start events
    /// predate the collector and stay band-unclassified, uniformly.
    pub fn with_profiling(mut self) -> Self {
        for core in &mut self.cores {
            core.enable_profiling(&self.topology);
        }
        self
    }

    /// Enables wall-clock per-phase timing (process/barrier/exchange per
    /// shard worker), retrieved with [`ShardedSim::wall_profile`]. The
    /// measurements are host wall time — nondeterministic by nature — and
    /// only ever surface through the `--profile-wall` side channel.
    pub fn with_wall_profiling(mut self) -> Self {
        for core in &mut self.cores {
            core.part.wall = Some(ShardWall::default());
        }
        self
    }

    /// The merged engine-profile snapshot, if profiling was enabled.
    pub fn engine_profile(&self) -> Option<EngineProfile> {
        if self.cores.iter().all(|c| c.prof.is_none()) {
            return None;
        }
        Some(EngineProf::merged(
            self.cores.iter().filter_map(|c| c.prof.as_deref()),
        ))
    }

    /// The wall-clock side-channel snapshot, if wall profiling was
    /// enabled. Implementation-level by design: reports the *executed*
    /// shard count, per-shard handoff counts, and host-time phase totals.
    pub fn wall_profile(&self) -> Option<WallProfile> {
        if self.cores.iter().all(|c| c.part.wall.is_none()) {
            return None;
        }
        Some(WallProfile {
            shards: self.cores.len(),
            lookahead_us: self.plan.lookahead().as_micros(),
            per_shard: self
                .cores
                .iter()
                .map(|c| {
                    let mut w = c.part.wall.clone().unwrap_or_default();
                    w.remote_sent = c.part.remote_sent;
                    w.events = c.events_processed;
                    w
                })
                .collect(),
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// Whether the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.topology.len() == 0
    }

    /// Number of shards actually in use.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// The conservative lookahead window (zero for one shard).
    pub fn lookahead(&self) -> SimDuration {
        self.plan.lookahead()
    }

    /// The shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulated time: the latest instant any shard has reached.
    pub fn now(&self) -> SimTime {
        self.cores
            .iter()
            .map(|c| c.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.cores.iter().map(|c| c.events_processed).sum()
    }

    /// Messages dropped in flight (chaos faults).
    pub fn dropped_loss(&self) -> u64 {
        self.cores.iter().map(|c| c.dropped_loss).sum()
    }

    /// Messages dropped on arrival at a dead destination.
    pub fn dropped_dead(&self) -> u64 {
        self.cores.iter().map(|c| c.dropped_dead).sum()
    }

    /// Read access to a node's application state.
    pub fn app(&self, i: NodeIdx) -> &A {
        &self.cores[self.plan.shard_of(i)].nodes[self.plan.local_index[i] as usize]
    }

    /// Iterates over all application states in global node order.
    pub fn apps(&self) -> impl Iterator<Item = &A> {
        (0..self.len()).map(|i| self.app(i))
    }

    /// Whether node `i` is currently up.
    pub fn alive(&self, i: NodeIdx) -> bool {
        self.cores[self.plan.shard_of(i)]
            .alive
            .get(self.plan.local_index[i] as usize)
    }

    /// The merged per-zone traffic ledger.
    pub fn traffic(&self) -> ZoneLedger {
        let mut merged = ZoneLedger::new(self.topology.num_regions().max(1));
        for core in &self.cores {
            merged.merge(&core.part.traffic);
        }
        merged
    }

    /// Whole-run traffic totals.
    pub fn traffic_totals(&self) -> TrafficTotals {
        self.traffic().totals()
    }

    /// Total simulated compute microseconds, `(fl, dht)`.
    pub fn compute_totals(&self) -> (u64, u64) {
        let parts = || self.cores.iter().map(|c| &c.part);
        let fl = parts().flat_map(|p| p.compute_fl_us.iter()).sum();
        let dht = parts().flat_map(|p| p.compute_dht_us.iter()).sum();
        (fl, dht)
    }

    /// Merged chaos statistics (zero when no chaos is installed).
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut total = ChaosStats::default();
        for core in &self.cores {
            if let Some(chaos) = core.chaos.as_ref() {
                total.dropped += chaos.stats.dropped;
                total.duplicated += chaos.stats.duplicated;
                total.delayed += chaos.stats.delayed;
            }
        }
        total
    }

    /// Schedules node `i` to go down at `at`. Like every scheduled event
    /// it obeys the closed-timestamp rule: an `at` at or before the
    /// current time lands 1 µs after it.
    pub fn schedule_down(&mut self, i: NodeIdx, at: SimTime) {
        self.schedule_transition(i, at, true);
    }

    /// Schedules node `i` to come back up at `at` (same due-time rule as
    /// [`ShardedSim::schedule_down`]).
    pub fn schedule_up(&mut self, i: NodeIdx, at: SimTime) {
        self.schedule_transition(i, at, false);
    }

    fn schedule_transition(&mut self, i: NodeIdx, at: SimTime, down: bool) {
        let core = &mut self.cores[self.plan.shard_of(i)];
        let local = self.plan.local_index[i] as usize;
        let kind = if down { EventKind::Down } else { EventKind::Up };
        core.schedule(&self.topology, local, i, at, i, kind, MsgMeta::NONE);
    }

    /// Applies a whole churn schedule.
    pub fn apply_churn(&mut self, schedule: &ChurnSchedule) {
        for ev in schedule.events() {
            self.schedule_transition(ev.node, ev.at, ev.down);
        }
    }

    /// Installs `plan`'s faults as *keyed* injectors (one per shard,
    /// compiled from the same `(plan, seed)`) plus its churn schedule.
    /// The keyed form is required: see [`FaultPlan::keyed_injector`].
    pub fn apply_plan(&mut self, plan: &FaultPlan, seed: u64) {
        for core in &mut self.cores {
            let injector = plan.keyed_injector(seed);
            debug_assert!(injector.is_keyed());
            core.chaos = Some(injector);
        }
        self.apply_churn(plan.churn());
    }

    /// Merged trace records in the shard-count-invariant
    /// `(time, origin, counter, emission index)` order. Drains every
    /// shard's buffer.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        let mut all: Vec<(EventKey, u32, TraceRecord)> = Vec::new();
        for core in &mut self.cores {
            if let Some(tr) = core.part.trace.as_mut() {
                all.append(tr);
            }
        }
        all.sort_by_key(|(key, sub, _)| (*key, *sub));
        all.into_iter().map(|(_, _, r)| r).collect()
    }

    /// Heap bytes reserved by per-node simulator state: shard cores
    /// (apps, liveness, counters, queues, slabs), the shard plan's
    /// index tables, and the topology's per-node tables. The
    /// `million_node` workload divides this by the node count for its
    /// bytes-per-node ceiling.
    pub fn state_bytes(&self) -> usize {
        self.cores.iter().map(|c| c.heap_bytes()).sum::<usize>()
            + self.plan.heap_bytes()
            + self.topology.heap_bytes()
    }
}

impl<A: Application + Send> ShardedSim<A>
where
    A::Msg: Send,
{
    /// Runs until every shard's queue holds no event due at or before
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.events_processed();
        if self.cores.len() == 1 {
            // Single shard: no windows, no threads, no handoff — the
            // zero-cost baseline path.
            let end = deadline.as_micros().saturating_add(1);
            self.cores[0].process_window(end, &self.topology);
        } else {
            self.run_parallel(deadline);
        }
        // Between runs every shard's clock reads the simulation's: a
        // driver-scheduled event is then closed against the same instant
        // at any shard count. (Everything still queued is past `deadline`,
        // so no clock moves beyond a pending event.)
        let now = self.now();
        for core in &mut self.cores {
            core.now = now;
        }
        self.events_processed() - before
    }

    /// Runs until every queue drains. Returns events processed.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// The conservative-parallel window loop. One scoped worker thread
    /// per shard; two phases per window (process, exchange), separated
    /// by barriers so the per-pair mailboxes are never contended.
    fn run_parallel(&mut self, deadline: SimTime) {
        let k = self.cores.len();
        let lookahead_us = self.plan.lookahead().as_micros().max(1);
        let deadline_us = deadline.as_micros();
        let next_due: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        let mailboxes: Vec<MailboxRow<A::Msg>> = (0..k)
            .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = Barrier::new(k);
        let topology = &self.topology;
        std::thread::scope(|scope| {
            for core in self.cores.iter_mut() {
                let next_due = &next_due;
                let mailboxes = &mailboxes;
                let barrier = &barrier;
                scope.spawn(move || loop {
                    // Wall-clock phase timing is taken only when enabled
                    // and only surfaces via the --profile-wall side
                    // channel; it never touches simulated state.
                    let timed = core.part.wall.is_some();
                    next_due[core.part.id].store(core.next_due_us(), Ordering::SeqCst);
                    let t0 = timed.then(Instant::now); // det: allow(entropy: wall-clock phase timing, surfaced only via the --profile-wall side channel)
                    barrier.wait();
                    if let (Some(t0), Some(w)) = (t0, core.part.wall.as_mut()) {
                        w.barrier_ns += t0.elapsed().as_nanos() as u64;
                    }
                    // Every worker computes the same window from the same
                    // published values, so they agree without a leader.
                    let t = next_due
                        .iter()
                        .map(|a| a.load(Ordering::SeqCst))
                        .min()
                        .expect("k >= 1");
                    if t == u64::MAX || t > deadline_us {
                        break;
                    }
                    let end_us = t
                        .saturating_add(lookahead_us)
                        .min(deadline_us.saturating_add(1));
                    if let Some(p) = core.prof.as_mut() {
                        // Pre-open this window on every core — even cores
                        // with nothing due — so per-window event counts
                        // stay index-aligned and merge shard-invariantly.
                        p.window_open(end_us);
                    }
                    core.process_window(end_us, topology);
                    let t0 = timed.then(Instant::now); // det: allow(entropy: wall-clock phase timing, surfaced only via the --profile-wall side channel)
                    for (j, out) in core.part.outbox.iter_mut().enumerate() {
                        if !out.is_empty() {
                            mailboxes[core.part.id][j]
                                .lock()
                                .expect("mailbox poisoned")
                                .append(out);
                        }
                    }
                    if let (Some(t0), Some(w)) = (t0, core.part.wall.as_mut()) {
                        w.exchange_ns += t0.elapsed().as_nanos() as u64;
                    }
                    let t0 = timed.then(Instant::now); // det: allow(entropy: wall-clock phase timing, surfaced only via the --profile-wall side channel)
                    barrier.wait();
                    if let (Some(t0), Some(w)) = (t0, core.part.wall.as_mut()) {
                        w.barrier_ns += t0.elapsed().as_nanos() as u64;
                    }
                    let t0 = timed.then(Instant::now); // det: allow(entropy: wall-clock phase timing, surfaced only via the --profile-wall side channel)
                    for row in mailboxes.iter() {
                        let mut inbox = row[core.part.id].lock().expect("mailbox poisoned");
                        for ev in inbox.drain(..) {
                            debug_assert!(
                                ev.key.time > core.now,
                                "cross-shard event inside the window"
                            );
                            core.insert(ev.key, ev.dst, ev.kind, ev.meta, ev.band);
                        }
                    }
                    if let (Some(t0), Some(w)) = (t0, core.part.wall.as_mut()) {
                        w.exchange_ns += t0.elapsed().as_nanos() as u64;
                    }
                    let t0 = timed.then(Instant::now); // det: allow(entropy: wall-clock phase timing, surfaced only via the --profile-wall side channel)
                    barrier.wait();
                    if let (Some(t0), Some(w)) = (t0, core.part.wall.as_mut()) {
                        w.barrier_ns += t0.elapsed().as_nanos() as u64;
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::sim::{Ctx, Payload, Simulator};
    use crate::topology::{LatencyModel, NodeProfile};

    /// A two-zone topology with fixed latency: `n` nodes split evenly,
    /// zone 0 then zone 1, `latency_us` between any pair.
    fn two_zone(n: usize, latency_us: u64) -> Topology {
        let points: Vec<GeoPoint> = (0..n).map(|_| GeoPoint::new(0.0, 0.0)).collect();
        let regions: Vec<u16> = (0..n).map(|i| if i < n / 2 { 0 } else { 1 }).collect();
        Topology::from_parts(
            points,
            regions,
            vec![NodeProfile::default(); n],
            LatencyModel::Uniform {
                min_us: latency_us,
                max_us: latency_us,
            },
        )
        .with_jitter(0.0)
    }

    /// Like [`two_zone`] but with an arbitrary region-size profile:
    /// `counts[r]` nodes in region `r`, laid out contiguously.
    fn many_zones(counts: &[usize], latency_us: u64) -> Topology {
        let n: usize = counts.iter().sum();
        let mut regions = Vec::with_capacity(n);
        for (r, &c) in counts.iter().enumerate() {
            regions.extend(std::iter::repeat_n(r as u16, c));
        }
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

    #[test]
    fn packs_more_regions_than_shards_greedily() {
        // Five regions of uneven size onto fewer shards: whole regions stay
        // together and the greedy biggest-first/lightest-shard packing is a
        // pure function of the topology. Region r starts at node
        // `first[r]`: sizes 7/1/4/2/5.
        let topo = many_zones(&[7, 1, 4, 2, 5], 300);
        let first = [0usize, 7, 8, 12, 14];
        let plan = ShardPlan::new(&topo, 2).unwrap();
        assert_eq!(plan.shards(), 2);
        // Whole regions never split across shards.
        for i in 0..topo.len() {
            assert_eq!(
                plan.shard_of(i),
                plan.shard_of(first[topo.region(i) as usize]),
                "region of node {i} split"
            );
        }
        // Greedy order (size desc, region id tie-break): r0(7)→s0,
        // r4(5)→s1, r2(4)→s1 (=9), r3(2)→s0 (=9), r1(1)→s0 (=10).
        let rs: Vec<usize> = first.iter().map(|&i| plan.shard_of(i)).collect();
        assert_eq!(rs, [0, 0, 1, 0, 1]);
        assert_eq!((plan.shard_len(0), plan.shard_len(1)), (10, 9));
        assert_eq!(plan.lookahead(), SimDuration::from_micros(300));
        // Three shards, still fewer than regions: r0→s0, r4→s1, r2→s2,
        // r3→s2 (=6), r1→s1 (=6).
        let plan3 = ShardPlan::new(&topo, 3).unwrap();
        let rs3: Vec<usize> = first.iter().map(|&i| plan3.shard_of(i)).collect();
        assert_eq!(rs3, [0, 1, 2, 2, 1]);
        let lens3: Vec<usize> = (0..3).map(|s| plan3.shard_len(s)).collect();
        assert_eq!(lens3, [7, 6, 6]);
    }

    #[test]
    fn empty_regions_do_not_count_toward_the_shard_clamp() {
        // Region 1 exists in the id space but holds no nodes: only the two
        // populated regions can host shards.
        let sparse = many_zones(&[3, 0, 3], 100);
        assert_eq!(ShardPlan::new(&sparse, 4).unwrap().shards(), 2);
    }

    /// Ping-pong across the zone boundary: node `i` exchanges `rounds`
    /// messages with its mirror `n - 1 - i`.
    struct Pong {
        n: usize,
        rounds: u64,
        recvd: u64,
        failed: u64,
    }

    #[derive(Clone)]
    struct Ball(u64);

    impl Payload for Ball {
        fn size_bytes(&self) -> usize {
            16
        }
    }

    impl Application for Pong {
        type Msg = Ball;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Ball>) {
            if ctx.me() < self.n / 2 {
                ctx.send(self.n - 1 - ctx.me(), Ball(0));
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Ball>, from: NodeIdx, msg: Ball) {
            self.recvd += 1;
            if msg.0 + 1 < self.rounds * 2 {
                ctx.send(from, Ball(msg.0 + 1));
            }
        }

        fn on_send_failed(&mut self, _ctx: &mut Ctx<'_, Ball>, _peer: NodeIdx) {
            self.failed += 1;
        }
    }

    fn observables(sim: &ShardedSim<Pong>) -> (u64, u64, TrafficTotals, Vec<u64>, u64) {
        (
            sim.events_processed(),
            sim.now().as_micros(),
            sim.traffic_totals(),
            sim.apps().map(|a| a.recvd).collect(),
            sim.dropped_dead(),
        )
    }

    fn run_sharded(n: usize, shards: usize) -> ShardedSim<Pong> {
        let mut sim = ShardedSim::new(two_zone(n, 500), 7, shards, |_| Pong {
            n,
            rounds: 8,
            recvd: 0,
            failed: 0,
        })
        .expect("shardable");
        sim.run_to_quiescence();
        sim
    }

    #[test]
    fn plan_partitions_whole_regions_deterministically() {
        let topo = two_zone(100, 300);
        let plan = ShardPlan::new(&topo, 2).unwrap();
        assert_eq!(plan.shards(), 2);
        for i in 0..100 {
            assert_eq!(
                plan.shard_of(i),
                plan.shard_of(if i < 50 { 0 } else { 99 }),
                "zone split across shards"
            );
        }
        assert_eq!(plan.shard_len(0) + plan.shard_len(1), 100);
        assert_eq!(plan.lookahead(), SimDuration::from_micros(300));
        // More shards than populated regions clamps.
        assert_eq!(ShardPlan::new(&topo, 8).unwrap().shards(), 2);
    }

    #[test]
    fn stochastic_topologies_are_rejected() {
        let topo = Topology::uniform(10, 100, 200);
        assert_eq!(
            ShardedSim::<Pong>::new(topo, 1, 1, |_| unreachable!()).err(),
            Some(ShardError::StochasticTopology)
        );
        let zero = two_zone(10, 0);
        assert_eq!(
            ShardPlan::new(&zero, 2).err(),
            Some(ShardError::ZeroLookahead)
        );
        // One shard needs no lookahead.
        assert!(ShardPlan::new(&zero, 1).is_ok());
    }

    #[test]
    fn results_are_shard_count_invariant() {
        let base = observables(&run_sharded(40, 1));
        for k in [2, 4] {
            // 2 zones -> clamped to 2 shards for k = 4; both must still
            // agree with the single-shard run byte for byte.
            assert_eq!(base, observables(&run_sharded(40, k)), "shards = {k}");
        }
        // Sanity: 40 starts + 20 pairs x 16 deliveries.
        assert_eq!(base.0, 360);
    }

    #[test]
    fn sharded_matches_sequential_on_commutative_observables() {
        let n = 40;
        let make = |_: NodeIdx| Pong {
            n,
            rounds: 8,
            recvd: 0,
            failed: 0,
        };
        let mut seq = Simulator::new(two_zone(n, 500), 7, make);
        seq.run_until_quiet(1_000_000);
        let sharded = run_sharded(n, 2);
        assert_eq!(seq.events_processed(), sharded.events_processed());
        assert_eq!(seq.now(), sharded.now());
        assert_eq!(seq.traffic().totals(), sharded.traffic_totals());
        let seq_recvd: Vec<u64> = seq.apps().map(|a| a.recvd).collect();
        let sh_recvd: Vec<u64> = sharded.apps().map(|a| a.recvd).collect();
        assert_eq!(seq_recvd, sh_recvd);
    }

    #[test]
    #[cfg_attr(miri, ignore = "three full churn sims are too slow under Miri")]
    fn churn_is_shard_invariant_and_matches_sequential() {
        let n = 20;
        let make = |_: NodeIdx| Pong {
            n,
            rounds: 50,
            recvd: 0,
            failed: 0,
        };
        // Mirror node 2 goes down mid-run and comes back; arrivals land
        // on multiples of 500 µs, the transitions on odd times, so the
        // sequential and sharded tie-breaks cannot interleave.
        let down_at = SimTime::from_micros(3_250);
        let up_at = SimTime::from_micros(9_750);
        let run_k = |k: usize| {
            let mut sim = ShardedSim::new(two_zone(n, 500), 3, k, make).unwrap();
            sim.schedule_down(17, down_at);
            sim.schedule_up(17, up_at);
            sim.run_to_quiescence();
            (observables(&sim), sim.apps().map(|a| a.failed).sum::<u64>())
        };
        let (base, base_failed) = run_k(1);
        assert_eq!((base.clone(), base_failed), run_k(2));
        assert!(base.4 > 0, "dead-destination drops must occur");
        assert!(base_failed > 0, "send-failure bounces must fire");

        let mut seq = Simulator::new(two_zone(n, 500), 3, make);
        seq.schedule_down(17, down_at);
        seq.schedule_up(17, up_at);
        seq.run_until_quiet(10_000_000);
        assert_eq!(seq.events_processed(), base.0);
        assert_eq!(seq.dropped_dead(), base.4);
        assert_eq!(seq.apps().map(|a| a.failed).sum::<u64>(), base_failed);
    }

    #[test]
    #[cfg_attr(miri, ignore = "chaos-RNG sims draw per event; too slow under Miri")]
    fn keyed_chaos_is_shard_invariant() {
        use crate::chaos::{Fault, FaultKind};
        let n = 24;
        let plan = FaultPlan::none()
            .with_fault(Fault::new(
                SimTime::ZERO,
                SimTime::from_micros(20_000),
                FaultKind::LossSpike { prob: 0.2 },
            ))
            .with_fault(Fault::new(
                SimTime::ZERO,
                SimTime::from_micros(20_000),
                FaultKind::Duplicate { prob: 0.15 },
            ));
        let run_k = |k: usize| {
            let mut sim = ShardedSim::new(two_zone(n, 500), 9, k, |_| Pong {
                n,
                rounds: 30,
                recvd: 0,
                failed: 0,
            })
            .unwrap();
            sim.apply_plan(&plan, 11);
            sim.run_to_quiescence();
            let stats = sim.chaos_stats();
            (observables(&sim), stats, sim.dropped_loss())
        };
        let base = run_k(1);
        assert_eq!(base, run_k(2));
        assert!(base.1.dropped > 0, "loss spike never fired");
        assert!(base.1.duplicated > 0, "duplication never fired");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "profiling reads Instant::now and runs three chaos sims; too slow under Miri"
    )]
    fn engine_profile_is_shard_count_invariant() {
        use crate::chaos::{Fault, FaultKind};
        use crate::trial::TrialReport;
        // Four populated regions so four shards actually run four window
        // loops; chaos (loss + duplication) and churn exercise the drop,
        // duplicate, and bounce creation sites.
        let counts = [7usize, 5, 6, 6];
        let n: usize = counts.iter().sum();
        let plan = FaultPlan::none()
            .with_fault(Fault::new(
                SimTime::ZERO,
                SimTime::from_micros(20_000),
                FaultKind::LossSpike { prob: 0.2 },
            ))
            .with_fault(Fault::new(
                SimTime::ZERO,
                SimTime::from_micros(20_000),
                FaultKind::Duplicate { prob: 0.15 },
            ));
        let run_k = |k: usize| {
            let mut sim = ShardedSim::new(many_zones(&counts, 500), 9, k, |_| Pong {
                n,
                rounds: 30,
                recvd: 0,
                failed: 0,
            })
            .unwrap()
            .with_profiling();
            sim.apply_plan(&plan, 11);
            sim.schedule_down(n - 1, SimTime::from_micros(3_250));
            sim.schedule_up(n - 1, SimTime::from_micros(9_750));
            sim.run_to_quiescence();
            let profile = sim.engine_profile().expect("profiling enabled");
            (TrialReport::capture_sharded(&sim).to_json(), profile)
        };
        let (base_json, base) = run_k(1);
        for k in [2, 4] {
            let (json, _) = run_k(k);
            assert_eq!(base_json, json, "shards = {k}");
        }
        // The profile is non-trivial: many conservative windows, real
        // cross-region traffic on every mirror pair, delivery groups with
        // a sane singleton ratio.
        assert!(base.windows > 10, "windows = {}", base.windows);
        assert_eq!(base.barrier_rounds(), 3 * base.windows);
        assert!(base.remote_msgs > 0);
        assert!(base.remote_pairs >= 4, "pairs = {}", base.remote_pairs);
        assert!(base.groups > 0);
        let ratio = base.singleton_ratio();
        assert!((0.0..=1.0).contains(&ratio), "ratio = {ratio}");
        assert!(base.late + base.near + base.far > 0);
        assert!(base_json.contains(",\"engine_profile\":{\"sched\":"));
    }

    #[test]
    fn traces_merge_identically_across_shard_counts() {
        let n = 16;
        let trace_k = |k: usize| {
            let mut sim = ShardedSim::new(two_zone(n, 700), 5, k, |_| Pong {
                n,
                rounds: 4,
                recvd: 0,
                failed: 0,
            })
            .unwrap()
            .with_tracing();
            sim.run_to_quiescence();
            crate::obs::jsonl_trace(&sim.take_trace())
        };
        let t1 = trace_k(1);
        assert_eq!(t1, trace_k(2));
        assert!(t1.lines().count() > n * 4, "trace is non-trivial");
    }

    #[test]
    fn zero_delay_timers_close_the_timestamp() {
        // A timer armed with zero delay must fire 1 µs later, not at the
        // same instant (the closed-timestamp rule), at any shard count.
        struct Zeno {
            fired: u64,
        }
        #[derive(Clone)]
        struct Nil;
        impl Payload for Nil {
            fn size_bytes(&self) -> usize {
                0
            }
        }
        impl Application for Zeno {
            type Msg = Nil;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Nil>) {
                ctx.set_timer(SimDuration::ZERO, 1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Nil>, _: NodeIdx, _: Nil) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Nil>, _token: u64) {
                self.fired += 1;
                if self.fired < 5 {
                    ctx.set_timer(SimDuration::ZERO, 1);
                }
            }
        }
        let mut sim = ShardedSim::new(two_zone(4, 100), 1, 2, |_| Zeno { fired: 0 }).unwrap();
        sim.run_to_quiescence();
        assert_eq!(sim.now(), SimTime::from_micros(5));
        assert!(sim.apps().all(|a| a.fired == 5));
    }

    #[test]
    #[cfg_attr(miri, ignore = "200-node sim is too slow under Miri")]
    fn state_bytes_scale_with_nodes_not_events() {
        let sim = run_sharded(200, 2);
        let bytes = sim.state_bytes();
        assert!(bytes > 0);
        // Generous sanity ceiling: a few hundred bytes per node.
        assert!(
            bytes < 200 * 2_048,
            "unexpectedly heavy per-node state: {bytes}"
        );
    }
}
