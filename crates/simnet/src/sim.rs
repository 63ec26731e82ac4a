//! The discrete-event simulator: the one event loop in the crate.
//!
//! Every edge node is a state machine implementing [`Application`]. Nodes
//! interact *only* by exchanging messages through the simulator, which
//! samples per-message delay and loss from the [`Topology`] and delivers
//! events in deterministic `(time, sequence)` order. This models the paper's
//! EC2 emulation (1 JVM = 1 edge node, §7.1) while staying reproducible.
//!
//! A [`Simulator`] owns everything the loop needs — the topology, every
//! node's application state and liveness bit, the event queue and the
//! event stores (`engine.rs`), causal-meta slots, the action scratch
//! buffer, drop counters, the traffic and compute ledgers, the statically
//! dispatched [`TraceSink`], the chaos injector, a protocol fault filter
//! and the profiling collector — and runs it with plain `pop` → `dispatch`
//! loops. Same-time events are ordered by one global creation counter, and
//! a due time already past clamps to `now`.
//!
//! * Every event source — sends, timers, churn transitions, failure
//!   bounces — goes through one scheduling choke point (a send's
//!   destinations through its per-leg twin), which clamps the due time,
//!   mints the tie-break key, classifies the wheel band, and files the
//!   event.
//! * Callback side effects accumulate in a reusable scratch buffer that
//!   is drained in place (no per-event `Vec`); drivers inject work through
//!   the same buffer ([`Simulator::with_app`]).
//! * The model checker drives the loop out of order through the
//!   exploration hooks ([`Simulator::pending_summaries`] and the
//!   `*_pending` methods).

use rand::rngs::StdRng;

use crate::bitset::BitSet;
use crate::chaos::{ChaosInjector, FaultFilter};
use crate::engine::{EventKind, EventSlab, Handle, Store, Tag};
use crate::obs::prof::{EngineProf, EngineProfile, BAND_NONE};
use crate::obs::{DropReason, MsgMeta, NoopSink, TraceBody, TraceRecord, TraceSink, ROOT_PARENT};
use crate::queue::{check_node_count, EventKey, WheelQueue};
use crate::rng::sub_rng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeIdx, Topology};
use crate::traffic::TrafficLedger;

/// A message that can travel through the simulator.
///
/// The reported size drives transmission-time and traffic accounting; it
/// should approximate the serialized wire size of the message. Impls that
/// fan one value out to many receivers should carry the bulky part in a
/// [`crate::payload::Shared`] so that per-receiver clones are pointer
/// bumps; sharing must never change `size_bytes`.
pub trait Payload: Clone {
    /// Serialized size of this message in bytes.
    fn size_bytes(&self) -> usize;

    /// Protocol-layer tag for trace records (`"dht"`, `"forest"`, `"fl"`,
    /// `"central"`, ...). The default empty string is normalized to `"app"`
    /// at record-emission time. Wrapper messages should delegate to the
    /// wrapped payload where the inner message is the interesting one.
    fn layer(&self) -> &'static str {
        ""
    }

    /// Message-kind tag for trace records (`"join"`, `"broadcast"`, ...).
    /// The default empty string is normalized to `"msg"` at record time.
    fn kind(&self) -> &'static str {
        ""
    }
}

/// Broad activity categories for compute accounting (Figure 13a splits CPU
/// overhead into FL-related and DHT-related tasks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputeKind {
    /// Model training, aggregation math, serialization.
    FlTask,
    /// Overlay construction, routing, tree maintenance.
    DhtTask,
}

/// Node behaviour: the protocol stack running on each simulated edge node.
pub trait Application: Sized {
    /// Message type exchanged between nodes.
    type Msg: Payload;

    /// Invoked once at simulation start (time zero), in node-index order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Invoked when a message from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeIdx, msg: Self::Msg);

    /// Invoked when a message this node sent to `peer` could not be
    /// delivered because `peer` was down — the simulator's analogue of a
    /// TCP connection error. Stochastic (UDP-like) losses are silent and do
    /// NOT trigger this callback.
    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, Self::Msg>, peer: NodeIdx) {
        let _ = (ctx, peer);
    }

    /// Invoked when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        let _ = (ctx, token);
    }

    /// Invoked when the node is taken down by churn injection.
    fn on_down(&mut self) {}

    /// Invoked when the node comes back up; timers armed before the outage
    /// were discarded, so long-lived periodic work must be re-armed here.
    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Approximate bytes of protocol state held by this node, for memory
    /// overhead reporting (Figure 13b).
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// Per-invocation context handed to application callbacks.
///
/// All side effects (sends, timers, compute charges) go through the context
/// and are applied by the simulator after the callback returns.
pub struct Ctx<'a, M> {
    now: SimTime,
    me: NodeIdx,
    out: &'a mut Outbox<M>,
    rng: &'a mut StdRng,
    topology: &'a Topology,
}

/// One callback's buffered side effects: its actions in issue order, and
/// the destination lists its sends name by range.
struct Outbox<M> {
    actions: Vec<Action<M>>,
    dsts: Vec<NodeIdx>,
}

impl<M> Outbox<M> {
    fn with_capacity(cap: usize) -> Self {
        Outbox {
            actions: Vec::with_capacity(cap),
            dsts: Vec::with_capacity(cap),
        }
    }

    fn is_empty(&self) -> bool {
        self.actions.is_empty() && self.dsts.is_empty()
    }
}

// Not derived: that would ask `M: Default`.
impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::with_capacity(0)
    }
}

enum Action<M> {
    /// One message to every node of `Outbox::dsts[dsts]`, in that order.
    Send {
        dsts: std::ops::Range<u32>,
        msg: M,
        extra: SimDuration,
    },
    Timer {
        delay: SimDuration,
        token: u64,
    },
    Compute {
        kind: ComputeKind,
        amount: SimDuration,
    },
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Index of the node executing this callback.
    pub fn me(&self) -> NodeIdx {
        self.me
    }

    /// The shared network topology (read-only).
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The node's deterministic random stream.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` to node `to`; delivery is delayed by the sampled network
    /// delay (or dropped if the link loses it or `to` is down on arrival).
    pub fn send(&mut self, to: NodeIdx, msg: M) {
        self.push_send([to], msg, SimDuration::ZERO);
    }

    /// Sends the one `msg` to every node of `dsts`, in order: exactly
    /// `for d in dsts { send(d, msg.clone()) }` — each destination has its
    /// own loss, delay and fault draws, in that order, and repeats and the
    /// sender itself are allowed — except that the simulator parks the
    /// message once for all of them instead of once each. The way to send
    /// a keep-alive or a tree broadcast.
    pub fn send_all(&mut self, dsts: impl IntoIterator<Item = NodeIdx>, msg: M) {
        self.push_send(dsts, msg, SimDuration::ZERO);
    }

    /// Like [`Ctx::send`], but the message additionally waits `extra`
    /// simulated time before entering the network — used to model local
    /// compute (e.g. training) that precedes a reply.
    pub fn send_after(&mut self, to: NodeIdx, msg: M, extra: SimDuration) {
        self.push_send([to], msg, extra);
    }

    fn push_send(&mut self, dsts: impl IntoIterator<Item = NodeIdx>, msg: M, extra: SimDuration) {
        let start = self.out.dsts.len();
        self.out.dsts.extend(dsts);
        let bound = |i: usize| u32::try_from(i).expect("more than u32::MAX sends in a callback");
        let dsts = bound(start)..bound(self.out.dsts.len());
        self.out.actions.push(Action::Send { dsts, msg, extra });
    }

    /// Arms a one-shot timer that fires `delay` from now with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.out.actions.push(Action::Timer { delay, token });
    }

    /// Charges `amount` of simulated CPU time of the given kind to this
    /// node's compute ledger (accounting only; does not delay anything).
    pub fn charge_compute(&mut self, kind: ComputeKind, amount: SimDuration) {
        self.out.actions.push(Action::Compute { kind, amount });
    }
}

/// Payload-free classification of a queued event, exposed to exploration
/// tooling ([`Simulator::pending_summaries`]). Mirrors the private
/// [`EventKind`] without leaking the message type: deliveries carry their
/// trace tags and wire size instead, which is enough for independence
/// analysis and schedule rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PendingClass {
    /// The time-zero `on_start` callback.
    Start,
    /// A message in flight.
    Deliver {
        /// Sending node.
        src: NodeIdx,
        /// Protocol-layer tag (normalized, e.g. `"dht"`, `"forest"`).
        layer: &'static str,
        /// Message-kind tag (normalized, e.g. `"join"`, `"broadcast"`).
        kind: &'static str,
        /// Serialized size in bytes.
        bytes: usize,
    },
    /// A send-failure bounce heading back to the original sender.
    SendFailed {
        /// The peer that was down.
        peer: NodeIdx,
    },
    /// An armed timer.
    Timer {
        /// The application's timer token.
        token: u64,
    },
    /// A scheduled churn-down transition.
    Down,
    /// A scheduled churn-up transition.
    Up,
}

/// One queued event as seen by exploration tooling: its total-order key,
/// destination node, and payload-free class. The key is stable across
/// deterministic replays of the same prefix, so a recorded key names the
/// same event when the prefix is re-executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingSummary {
    /// The `(time, seq)` queue key — unique per event.
    pub key: EventKey,
    /// Destination node.
    pub node: NodeIdx,
    /// Payload-free event classification.
    pub class: PendingClass,
}

/// Cumulative simulated CPU time over all nodes, split by
/// [`ComputeKind`]. Every reader sums over nodes, so the ledger keeps the
/// two totals, not a column per node.
#[derive(Clone, Debug, Default)]
pub struct ComputeLedger {
    /// FL-task microseconds, summed over nodes.
    pub fl_us: u64,
    /// DHT-task microseconds, summed over nodes.
    pub dht_us: u64,
}

impl ComputeLedger {
    fn charge(&mut self, kind: ComputeKind, amount: SimDuration) {
        match kind {
            ComputeKind::FlTask => self.fl_us += amount.as_micros(),
            ComputeKind::DhtTask => self.dht_us += amount.as_micros(),
        }
    }
}

/// The message of one `Action::Send` while its destinations are worked
/// through.
struct Fanout<M> {
    /// `None` once the final leg has taken the message by move.
    msg: Option<M>,
    /// Whether the legs may name one slot. Not when the simulator is traced
    /// or profiled: the causal-meta and wheel-band side tables are indexed
    /// by slot, so each leg then parks a payload of its own.
    share: bool,
    /// The shared slot, reserved by the first leg, and the queue records
    /// pushed against it so far.
    parked: Option<(Handle, u32)>,
}

/// The queue, the payload slab and the word store each reserve this many
/// events per node.
const PRESIZE: usize = 4;

/// The discrete-event simulator.
///
/// The second type parameter selects the installed [`TraceSink`]; with the
/// default [`NoopSink`], every observability code path is compiled away
/// (the sink's `ENABLED` constant gates them statically) and the event loop
/// is identical to an untraced build. Events wait in a
/// [`WheelQueue`](crate::queue::WheelQueue).
pub struct Simulator<A: Application, S: TraceSink = NoopSink> {
    topology: Topology,
    /// Application state, node index order.
    nodes: Vec<A>,
    // Liveness packed one bit per node (1 MB -> 125 KB at a million
    // nodes); see `crate::bitset`.
    alive: BitSet,
    queue: WheelQueue,
    slab: EventSlab<A::Msg>,
    now: SimTime,
    rng: StdRng,
    /// The global creation counter: the tie-break word of the next event.
    seq: u64,
    /// The trace id of the next message sent. Starts at 1 (0 is the "not
    /// traced" sentinel) and only advances when the sink is enabled.
    msg_seq: u64,
    // Causal meta of queued deliveries, parallel to the payload slab's
    // slots (no other kind carries meta). Kept out of `EventKind` so an
    // untraced run's slots stay small; stays empty (never resized) while
    // the simulator is untraced.
    meta_slots: Vec<MsgMeta>,
    scratch: Outbox<A::Msg>,
    events_processed: u64,
    dropped_loss: u64,
    dropped_dead: u64,
    traffic: TrafficLedger,
    compute: ComputeLedger,
    sink: S,
    chaos: Option<ChaosInjector>,
    fault_filter: Option<FaultFilter<A::Msg>>,
    // Deterministic engine self-profiling (`obs::prof`), enabled on
    // demand; `None` costs one predictable branch per hot-path site.
    prof: Option<Box<EngineProf>>,
}

impl<A: Application> Simulator<A, NoopSink> {
    /// Builds a simulator over `topology`, constructing each node with
    /// `make_node(index)`. `on_start` fires for every node at time zero.
    pub fn new(topology: Topology, seed: u64, make_node: impl FnMut(NodeIdx) -> A) -> Self {
        Simulator::with_sink(topology, seed, NoopSink, make_node)
    }
}

impl<A: Application, S: TraceSink> Simulator<A, S> {
    /// Like [`Simulator::new`], but with an explicit trace sink installed.
    pub fn with_sink(
        topology: Topology,
        seed: u64,
        sink: S,
        make_node: impl FnMut(NodeIdx) -> A,
    ) -> Self {
        let n = topology.len();
        check_node_count(n);
        // The steady-state in-flight event population is a small multiple
        // of the node count (heartbeats, timers, a few messages per node);
        // reserving that up front avoids the early doubling cascade.
        let event_cap = n.saturating_mul(PRESIZE).max(64);
        let mut sim = Simulator {
            topology,
            nodes: (0..n).map(make_node).collect(),
            alive: BitSet::filled(n, true),
            queue: WheelQueue::with_capacity(event_cap),
            slab: EventSlab::with_capacity(event_cap, event_cap),
            now: SimTime::ZERO,
            rng: sub_rng(seed, "simulator"),
            seq: 0,
            msg_seq: 1,
            // Sized to the slab's reservation when tracing is on, so the
            // side table never doubles mid-run.
            meta_slots: if S::ENABLED {
                Vec::with_capacity(event_cap)
            } else {
                Vec::new()
            },
            // One callback can address every peer (a server-style fan-out),
            // but typical bursts are small; clamp the reservation.
            scratch: Outbox::with_capacity(n.clamp(16, 1_024)),
            events_processed: 0,
            dropped_loss: 0,
            dropped_dead: 0,
            traffic: TrafficLedger::new(n),
            compute: ComputeLedger::default(),
            sink,
            chaos: None,
            fault_filter: None,
            prof: None,
        };
        // Filed directly, unclassified: starts predate any profiler.
        for node in 0..n {
            let key = EventKey {
                time: SimTime::ZERO,
                seq: sim.mint_seq(),
            };
            sim.insert(key, node, EventKind::Start, MsgMeta::NONE, BAND_NONE);
        }
        sim
    }

    /// The installed trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the installed trace sink (e.g. to take records).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the simulator, returning the sink with everything it
    /// observed.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Enables deterministic engine self-profiling ([`crate::obs::prof`]),
    /// seeded with the topology's inter-region delay lower bound as the
    /// logical window lookahead. Every profiled quantity is a function of
    /// simulated state only, so a profile for a fixed `(scenario, seed)` is
    /// byte-identical across `--jobs` worker counts; the snapshot lands in
    /// [`TrialReport::engine_profile`](crate::trial::TrialReport). Events
    /// already queued (the time-zero starts) predate the collector and
    /// stay band-unclassified.
    pub fn enable_profiling(&mut self) {
        let lookahead = self
            .topology
            .min_inter_region_delay()
            .map_or(0, |d| d.as_micros());
        self.prof = Some(Box::new(EngineProf::new(lookahead)));
    }

    /// The engine-profile snapshot, if profiling was enabled.
    pub fn engine_profile(&self) -> Option<EngineProfile> {
        self.prof.as_ref().map(|p| p.snapshot())
    }

    /// Installs a fault injector consulted on every message send (after the
    /// topology's own loss/delay sampling, so the main RNG stream is
    /// unaffected). See [`crate::chaos::FaultPlan`].
    pub fn install_chaos(&mut self, injector: ChaosInjector) {
        self.chaos = Some(injector);
    }

    /// The installed fault injector, if any (e.g. to read its stats).
    pub fn chaos(&self) -> Option<&ChaosInjector> {
        self.chaos.as_ref()
    }

    /// Installs a protocol-aware message filter (return `true` to drop).
    /// Used to plant deliberate bugs that the chaos oracles must catch.
    pub fn set_fault_filter(&mut self, filter: FaultFilter<A::Msg>) {
        self.fault_filter = Some(filter);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the simulator has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to a node's application state.
    pub fn app(&self, i: NodeIdx) -> &A {
        &self.nodes[i]
    }

    /// Iterates over all application states.
    pub fn apps(&self) -> impl Iterator<Item = &A> {
        self.nodes.iter()
    }

    /// Mutable access to a node's application state, whether the node is
    /// up or down. Runs no callback and has no side effects on the
    /// network; for bookkeeping set from outside the simulation that no
    /// node may miss, such as a global catalog. Work that should reach
    /// the network goes through [`Simulator::with_app`].
    pub fn app_mut(&mut self, i: NodeIdx) -> &mut A {
        &mut self.nodes[i]
    }

    /// Whether node `i` is currently up.
    pub fn alive(&self, i: NodeIdx) -> bool {
        self.alive.get(i)
    }

    /// The traffic ledger.
    pub fn traffic(&self) -> &TrafficLedger {
        &self.traffic
    }

    /// Mutable access to the traffic ledger (e.g. to reset after warm-up).
    pub fn traffic_mut(&mut self) -> &mut TrafficLedger {
        &mut self.traffic
    }

    /// The compute ledger.
    pub fn compute(&self) -> &ComputeLedger {
        &self.compute
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Payload slots the event slab has allocated so far — the most
    /// message payloads that were ever parked at once. Only deliveries take
    /// one, and a fan-out ([`Ctx::send_all`]) parks one for all its
    /// destinations; an armed timer or a failure bounce takes a `u64` cell
    /// of the separate word store instead, and a start or a churn
    /// transition stores nothing.
    pub fn event_slots(&self) -> usize {
        self.slab.slots()
    }

    /// Heap bytes reserved by the simulator's per-node and per-event state:
    /// application states, liveness bits, the event queue (16 bytes per
    /// bucketed record, 24 per heap entry) and both event stores (a payload
    /// slot is a `u32` link, a `u32` source and the message; a word cell is
    /// 8 bytes), the causal-meta side table, the traffic ledger (32 bytes per
    /// node; the compute ledger is two totals and holds no heap), and the
    /// topology's per-node tables (counted in full even when the topology
    /// shares them with a clone). Capacity-based, so it measures what a run
    /// reserved, not what it holds at the end.
    pub fn state_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<A>()
            + self.alive.heap_bytes()
            + self.queue.heap_bytes()
            + self.slab.heap_bytes()
            + self.meta_slots.capacity() * std::mem::size_of::<MsgMeta>()
            + self.traffic.heap_bytes()
            + self.topology.heap_bytes()
    }

    /// Messages dropped in flight: stochastic link loss, chaos faults, and
    /// installed fault filters.
    pub fn dropped_loss(&self) -> u64 {
        self.dropped_loss
    }

    /// Messages dropped on arrival because the destination was down.
    pub fn dropped_dead(&self) -> u64 {
        self.dropped_dead
    }

    /// Schedules node `i` to go down at absolute time `at` (clamped to
    /// the current time if already past).
    pub fn schedule_down(&mut self, i: NodeIdx, at: SimTime) {
        self.schedule(i, at, i, EventKind::Down, MsgMeta::NONE);
    }

    /// Schedules node `i` to come back up at absolute time `at` (clamped
    /// to the current time if already past).
    pub fn schedule_up(&mut self, i: NodeIdx, at: SimTime) {
        self.schedule(i, at, i, EventKind::Up, MsgMeta::NONE);
    }

    // ------------------------------------------------- exploration hooks --
    //
    // The bounded model checker (`totoro-bench mc`) drives the simulator off the
    // normal `(time, seq)` dispatch order: it enumerates the pending set,
    // picks an arbitrary member to dispatch / drop / duplicate, and replays
    // recorded choice sequences from scratch to branch the exploration.
    // These hooks are `O(pending)` and never touched by the hot path.

    /// Every queued event in ascending `(time, seq)` order, summarized
    /// without exposing message payloads. Takes `&mut self` because the
    /// timer wheel normalizes its head on observation.
    pub fn pending_summaries(&mut self) -> Vec<PendingSummary> {
        let entries = self.queue.snapshot();
        entries
            .into_iter()
            .map(|(key, raw, node)| {
                let class = match self.slab.peek(Handle(raw)) {
                    EventKind::Start => PendingClass::Start,
                    EventKind::Deliver { src, msg } => {
                        let (layer, kind) = tag(msg);
                        PendingClass::Deliver {
                            src,
                            layer,
                            kind,
                            bytes: msg.size_bytes(),
                        }
                    }
                    EventKind::SendFailed { peer } => PendingClass::SendFailed { peer },
                    EventKind::Timer { token } => PendingClass::Timer { token },
                    EventKind::Down => PendingClass::Down,
                    EventKind::Up => PendingClass::Up,
                };
                PendingSummary { key, node, class }
            })
            .collect()
    }

    /// Dispatches the queued event with exactly `key` *now*, out of queue
    /// order, returning the simulated time after its callback ran. The
    /// event executes at `max(now, key.time)` — dispatching ahead of turn
    /// pulls it forward to the current instant, never backwards. Returns
    /// `None` if no event is queued under `key`.
    pub fn dispatch_pending(&mut self, key: EventKey) -> Option<SimTime> {
        let (raw, node) = self.queue.remove(key)?;
        let key = EventKey {
            time: key.time.max(self.now),
            ..key
        };
        self.dispatch(key, Handle(raw), node);
        Some(self.now)
    }

    /// The queued *delivery* filed under `key` as `(handle, destination,
    /// source, message)`, or `None` — leaving the queue as it was — when
    /// `key` is absent or names a non-Deliver event. `keep` says whether a
    /// delivery stays queued.
    fn pending_delivery(
        &mut self,
        key: EventKey,
        keep: bool,
    ) -> Option<(Handle, NodeIdx, NodeIdx, A::Msg)> {
        let (raw, node) = self.queue.remove(key)?;
        let handle = Handle(raw);
        let found = match self.slab.peek(handle) {
            EventKind::Deliver { src, msg } => Some((handle, node, src, msg.clone())),
            _ => None,
        };
        if keep || found.is_none() {
            self.queue.push(key, raw, node);
        }
        found
    }

    /// Removes the queued *delivery* with exactly `key`, counting it as an
    /// in-flight drop (a lost message). Returns `false` — leaving the queue
    /// untouched — when `key` is absent or names a non-Deliver event:
    /// timers, churn transitions, and bounces cannot be "lost".
    pub fn drop_pending(&mut self, key: EventKey) -> bool {
        let Some((handle, node, src, msg)) = self.pending_delivery(key, false) else {
            return false;
        };
        let meta = self.meta_of(handle);
        // One queue record gone: the other legs of a fan-out keep the slot.
        self.slab.take(handle);
        self.dropped_loss += 1;
        if S::ENABLED {
            self.record_drop(src, node, &msg, DropReason::Filter, meta);
        }
        true
    }

    /// Enqueues a copy of the queued *delivery* with exactly `key` — the
    /// original stays queued — modelling network duplication. The copy is
    /// due at `max(now, key.time)` with a fresh sequence number (it sorts
    /// after everything already queued at that time) and inherits the
    /// original's causal meta. Returns the copy's key, or `None` when `key`
    /// is absent or names a non-Deliver event.
    pub fn duplicate_pending(&mut self, key: EventKey) -> Option<EventKey> {
        let (handle, node, src, msg) = self.pending_delivery(key, true)?;
        let meta = self.meta_of(handle);
        let kind = EventKind::Deliver { src, msg };
        Some(self.schedule(node, key.time, node, kind, meta))
    }

    /// Runs an application callback "from the outside" at the current time —
    /// the entry point for experiment drivers (submit an FL application,
    /// start a broadcast, ...). Side effects issued through the context are
    /// applied exactly as for event-driven callbacks.
    ///
    /// Returns `None` — without running the callback — when node `i` is
    /// down, mirroring every event-driven path: churn must silence a node
    /// completely, driver-injected work included.
    pub fn with_app<R>(
        &mut self,
        i: NodeIdx,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) -> R,
    ) -> Option<R> {
        if !self.alive.get(i) {
            return None;
        }
        debug_assert!(self.scratch.is_empty());
        let mut out = std::mem::take(&mut self.scratch);
        let r = {
            let mut ctx = Ctx {
                now: self.now,
                me: i,
                out: &mut out,
                rng: &mut self.rng,
                topology: &self.topology,
            };
            f(&mut self.nodes[i], &mut ctx)
        };
        // Driver-injected work roots fresh causal spans.
        self.apply_actions(i, &mut out, MsgMeta::NONE);
        self.scratch = out;
        Some(r)
    }

    /// Processes the next event, returning its timestamp, or `None` if the
    /// queue is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        let (key, raw, node) = self.queue.pop_before(SimTime::MAX)?;
        self.dispatch(key, Handle(raw), node);
        Some(key.time)
    }

    /// Runs until the queue drains or simulated time exceeds `deadline`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        if let Some(p) = self.prof.as_mut() {
            // The logical windows of this run end by `deadline + 1`
            // (exclusive).
            p.set_window_clamp(deadline.as_micros().saturating_add(1));
        }
        let before = self.events_processed;
        while let Some((key, raw, node)) = self.queue.pop_before(deadline) {
            self.dispatch(key, Handle(raw), node);
        }
        self.events_processed - before
    }

    /// Runs until the event queue is empty or `max_events` were processed.
    /// Returns `true` if the queue drained.
    pub fn run_until_quiet(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if self.step().is_none() {
                return true;
            }
        }
        self.queue.is_empty()
    }

    // ------------------------------------------------------- event loop --

    /// The tie-break word of the next event created.
    #[inline]
    fn mint_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// The trace id of the next message sent; only called when traced.
    #[inline]
    fn mint_msg_id(&mut self) -> u64 {
        let id = self.msg_seq;
        self.msg_seq += 1;
        id
    }

    /// Files an event whose key and band are already fixed in the slab and
    /// queue — the arrival end of [`Simulator::schedule`].
    fn insert(
        &mut self,
        key: EventKey,
        node: NodeIdx,
        kind: EventKind<A::Msg>,
        meta: MsgMeta,
        band: u8,
    ) {
        let handle = self.slab.insert(kind, band);
        let store = handle.tag().store();
        // Only deliveries carry causal meta; everything else roots spans.
        debug_assert!(store == Some(Store::Payload) || !meta.is_traced());
        if S::ENABLED && store == Some(Store::Payload) {
            let i = handle.index() as usize;
            if self.meta_slots.len() <= i {
                self.meta_slots.resize(i + 1, MsgMeta::NONE);
            }
            self.meta_slots[i] = meta;
        }
        if let (Some(p), Some(store)) = (self.prof.as_mut(), store) {
            p.note_band(store, handle.index(), band);
        }
        self.queue.push(key, handle.0, node);
    }

    /// The causal meta parked with a delivery's payload ([`MsgMeta::NONE`]
    /// for any other event, and when untraced).
    #[inline]
    fn meta_of(&self, handle: Handle) -> MsgMeta {
        if S::ENABLED && handle.tag() == Tag::Deliver {
            self.meta_slots
                .get(handle.index() as usize)
                .copied()
                .unwrap_or(MsgMeta::NONE)
        } else {
            MsgMeta::NONE
        }
    }

    /// The scheduling choke point: every event source — timers, churn
    /// transitions, failure bounces, driver duplicates, and through
    /// [`Simulator::schedule_leg`] each destination of a send — lands here.
    /// Clamps a past `at` to `now`, mints the next tie-break key, classifies
    /// the wheel band, and files the event. Returns the key the event was
    /// filed under.
    // Inlined at its call sites; `insert` is the one out-of-line call per
    // event.
    #[inline(always)]
    fn schedule(
        &mut self,
        origin: NodeIdx,
        at: SimTime,
        dst: NodeIdx,
        kind: EventKind<A::Msg>,
        meta: MsgMeta,
    ) -> EventKey {
        let (key, band) = self.stamp(origin, at, dst);
        self.insert(key, dst, kind, meta, band);
        key
    }

    /// The creation-site half of [`Simulator::schedule`], shared with
    /// [`Simulator::schedule_leg`]: the key and wheel band of the event
    /// `origin` creates for `dst`, asked for at `at`.
    #[inline(always)]
    fn stamp(&mut self, origin: NodeIdx, at: SimTime, dst: NodeIdx) -> (EventKey, u8) {
        let at = at.max(self.now);
        let seq = self.mint_seq();
        let mut band = BAND_NONE;
        if let Some(p) = self.prof.as_mut() {
            band = p.classify(self.now.as_micros(), at.as_micros());
            let (ra, rb) = (self.topology.region(origin), self.topology.region(dst));
            if ra != rb {
                p.on_remote(ra, rb);
            }
        }
        (EventKey { time: at, seq }, band)
    }

    /// Schedules one delivery of `fan`'s message from `src` to `to`. When
    /// the legs share, it pushes one more queue record against the
    /// fan-out's slot; otherwise it parks a payload of its own — the
    /// message itself on the `last` leg, a clone before it.
    #[inline]
    fn schedule_leg(
        &mut self,
        src: NodeIdx,
        at: SimTime,
        to: NodeIdx,
        meta: MsgMeta,
        fan: &mut Fanout<A::Msg>,
        last: bool,
    ) {
        let (key, band) = self.stamp(src, at, to);
        if fan.share {
            let (handle, refs) = fan.parked.get_or_insert_with(|| (self.slab.reserve(), 0));
            *refs += 1;
            self.queue.push(key, handle.0, to);
            return;
        }
        let msg = if last {
            fan.msg.take()
        } else {
            fan.msg.clone()
        };
        let msg = msg.expect("only the final leg takes the message");
        self.insert(key, to, EventKind::Deliver { src, msg }, meta, band);
    }

    #[inline]
    fn emit(&mut self, node: NodeIdx, tags: (&'static str, &'static str), body: TraceBody) {
        self.sink.record(TraceRecord {
            at_us: self.now.as_micros(),
            node,
            layer: tags.0,
            kind: tags.1,
            body,
        });
    }

    /// Emits a drop record for a message from `src` that never reached
    /// `to`'s handler.
    fn record_drop(
        &mut self,
        src: NodeIdx,
        to: NodeIdx,
        msg: &A::Msg,
        reason: DropReason,
        meta: MsgMeta,
    ) {
        let body = TraceBody::Drop {
            to,
            bytes: msg.size_bytes(),
            reason,
            meta,
        };
        self.emit(src, tag(msg), body);
    }

    /// Runs the event popped as `(key, handle, node)` at `key.time`:
    /// advances the clock, emits its trace record, invokes the destination's
    /// callback and applies what the callback asked for.
    fn dispatch(&mut self, key: EventKey, handle: Handle, node: NodeIdx) {
        if let Some(p) = self.prof.as_mut() {
            let tag = handle.tag();
            let band = match tag.store() {
                Some(store) => p.take_band(store, handle.index()),
                None => handle.index() as u8,
            };
            let groupable = !matches!(tag, Tag::Down | Tag::Up);
            p.on_dispatch(band, key.time.as_micros(), node, groupable);
        }
        // Read before the slot can be recycled.
        let meta = self.meta_of(handle);
        let kind = self.slab.take(handle);
        debug_assert!(key.time >= self.now, "time went backwards");
        self.now = key.time;
        self.events_processed += 1;
        let up = self.alive.get(node);
        // Records are emitted here, in dispatch order — the total order
        // the determinism contract pins — before the callback runs.
        if S::ENABLED {
            match &kind {
                EventKind::Deliver { src, msg } => {
                    if up {
                        let body = TraceBody::Deliver {
                            from: *src,
                            bytes: msg.size_bytes(),
                            meta,
                        };
                        self.emit(node, tag(msg), body);
                    } else {
                        self.record_drop(*src, node, msg, DropReason::DeadDest, meta);
                    }
                }
                EventKind::Timer { token } if up => {
                    self.emit(
                        node,
                        ("sim", "timer"),
                        TraceBody::TimerFire { token: *token },
                    );
                }
                EventKind::Down if up => self.emit(node, ("sim", "down"), TraceBody::NodeDown),
                EventKind::Up if !up => self.emit(node, ("sim", "up"), TraceBody::NodeUp),
                _ => {}
            }
        }
        // The delivered message's causal meta is inherited by sends issued
        // from its handler; every other event kind roots fresh spans.
        let cause = match &kind {
            EventKind::Deliver { .. } if up => meta,
            _ => MsgMeta::NONE,
        };
        debug_assert!(self.scratch.is_empty());
        let mut out = std::mem::take(&mut self.scratch);
        let mut bounce: Option<NodeIdx> = None;
        {
            let mut ctx = Ctx {
                now: self.now,
                me: node,
                out: &mut out,
                rng: &mut self.rng,
                topology: &self.topology,
            };
            let app = &mut self.nodes[node];
            match kind {
                EventKind::Start if up => app.on_start(&mut ctx),
                EventKind::Deliver { src, msg } => {
                    if up {
                        self.traffic.record_recv(node, msg.size_bytes());
                        app.on_message(&mut ctx, src, msg);
                    } else {
                        self.dropped_dead += 1;
                        bounce = Some(src);
                    }
                }
                EventKind::SendFailed { peer } if up => app.on_send_failed(&mut ctx, peer),
                EventKind::Timer { token } if up => app.on_timer(&mut ctx, token),
                EventKind::Down if up => {
                    self.alive.set(node, false);
                    app.on_down();
                }
                EventKind::Up if !up => {
                    self.alive.set(node, true);
                    app.on_up(&mut ctx);
                }
                _ => {}
            }
        }
        self.apply_actions(node, &mut out, cause);
        self.scratch = out;
        if let Some(src) = bounce {
            // TCP-RST-like failure bounce back to the sender, originated
            // by the dead destination; it travels one network delay. A
            // direct schedule, not a scratch action.
            let delay = self.topology.sample_delay(node, src, 64, &mut self.rng);
            let at = self.now + delay;
            let kind = EventKind::SendFailed { peer: node };
            self.schedule(node, at, src, kind, MsgMeta::NONE);
        }
    }

    /// Applies one callback's buffered side effects, draining the buffer in
    /// place. The buffer is the caller's loan of `self.scratch`, so the hot
    /// path performs no allocation: capacity survives across events.
    ///
    /// `cause` is the causal meta of the delivered message whose handler
    /// produced these actions ([`MsgMeta::NONE`] for timers, starts, driver
    /// injections, ...): sends inherit its trace, or root a new one.
    fn apply_actions(&mut self, src: NodeIdx, out: &mut Outbox<A::Msg>, cause: MsgMeta) {
        for action in out.actions.drain(..) {
            match action {
                Action::Send { dsts, msg, extra } => {
                    let dsts = &out.dsts[dsts.start as usize..dsts.end as usize];
                    self.fan_out(src, dsts, msg, extra, cause);
                }
                Action::Timer { delay, token } => {
                    let at = self.now + delay;
                    let kind = EventKind::Timer { token };
                    self.schedule(src, at, src, kind, MsgMeta::NONE);
                }
                Action::Compute { kind, amount } => {
                    self.compute.charge(kind, amount);
                    if S::ENABLED {
                        let task = match kind {
                            ComputeKind::FlTask => "fl",
                            ComputeKind::DhtTask => "dht",
                        };
                        let us = amount.as_micros();
                        self.emit(src, ("sim", "compute"), TraceBody::Compute { task, us });
                    }
                }
            }
        }
        out.dsts.clear();
    }

    /// Sends `msg` from `src` to each of `dsts` in order — the one
    /// per-destination routine, a single send being a fan-out of one. Every
    /// destination gets the steps, RNG draws, ids and records of a send of
    /// its own; only where the payload is parked differs.
    fn fan_out(
        &mut self,
        src: NodeIdx,
        dsts: &[NodeIdx],
        msg: A::Msg,
        extra: SimDuration,
        cause: MsgMeta,
    ) {
        let traced = S::ENABLED;
        let size = msg.size_bytes();
        let mut fan = Fanout {
            msg: Some(msg),
            share: !traced && self.prof.is_none(),
            parked: None,
        };
        for (i, &to) in dsts.iter().enumerate() {
            let last = i + 1 == dsts.len();
            let msg = fan.msg.as_ref().expect("only the final leg takes it");
            self.traffic.record_send(src, size);
            // Causal identity, computed only when tracing is on;
            // drops too get ids, so a span shows where it died.
            let mut meta = MsgMeta::NONE;
            if traced {
                let id = self.mint_msg_id();
                meta = if cause.is_traced() {
                    MsgMeta {
                        trace: cause.trace,
                        id,
                        parent: cause.id,
                        hop: cause.hop.saturating_add(1),
                    }
                } else {
                    MsgMeta {
                        trace: id,
                        id,
                        parent: ROOT_PARENT,
                        hop: 0,
                    }
                };
            }
            if self.topology.sample_loss(&mut self.rng) {
                self.dropped_loss += 1;
                if traced {
                    self.record_drop(src, to, msg, DropReason::Loss, meta);
                }
                continue;
            }
            // The base loss/delay draws above always happen first,
            // so installing no chaos leaves the main RNG stream —
            // and every golden fixture — untouched.
            let mut delay = self.topology.sample_delay(src, to, size, &mut self.rng);
            let mut duplicate = false;
            if let Some(chaos) = self.chaos.as_mut() {
                let verdict = chaos.on_send(self.now, src, to, &self.topology);
                if verdict.drop {
                    self.dropped_loss += 1;
                    if traced {
                        self.record_drop(src, to, msg, DropReason::Chaos, meta);
                    }
                    continue;
                }
                if verdict.delay_factor > 1 {
                    delay = delay.saturating_mul(verdict.delay_factor);
                    if traced {
                        let effect = "delay";
                        self.emit(src, tag(msg), TraceBody::ChaosEffect { to, effect });
                    }
                }
                duplicate = verdict.duplicate;
                if duplicate && traced {
                    let effect = "duplicate";
                    self.emit(src, tag(msg), TraceBody::ChaosEffect { to, effect });
                }
            }
            if let Some(filter) = self.fault_filter.as_mut() {
                if filter(self.now, src, to, msg) {
                    self.dropped_loss += 1;
                    if traced {
                        self.record_drop(src, to, msg, DropReason::Filter, meta);
                    }
                    continue;
                }
            }
            let at = self.now + extra + delay;
            if traced {
                let body = TraceBody::Send {
                    to,
                    bytes: size,
                    meta,
                    arrive_at_us: at.as_micros(),
                };
                self.emit(src, tag(msg), body);
            }
            if duplicate {
                // Same arrival time; minted first, so the copy's
                // key orders the pair deterministically. It gets
                // its own message id so the span shows both
                // arrivals, but shares trace/parent/hop.
                let mut dup_meta = MsgMeta::NONE;
                if traced {
                    let id = self.mint_msg_id();
                    dup_meta = MsgMeta { id, ..meta };
                    let body = TraceBody::Send {
                        to,
                        bytes: size,
                        meta: dup_meta,
                        arrive_at_us: at.as_micros(),
                    };
                    self.emit(src, tag(msg), body);
                }
                self.schedule_leg(src, at, to, dup_meta, &mut fan, false);
            }
            self.schedule_leg(src, at, to, meta, &mut fan, last);
        }
        if let Some((handle, refs)) = fan.parked {
            let msg = fan.msg.take().expect("a shared slot keeps the message");
            self.slab.fill(handle, refs, src, msg);
        }
    }
}

/// Normalizes a payload's layer/kind tags for record emission.
#[inline]
fn tag<M: Payload>(msg: &M) -> (&'static str, &'static str) {
    let layer = msg.layer();
    let kind = msg.kind();
    (
        if layer.is_empty() { "app" } else { layer },
        if kind.is_empty() { "msg" } else { kind },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: node 0 floods a token around the ring; each node
    /// increments and forwards it to `(i + 1) % n` until it reaches `limit`.
    struct RingNode {
        n: usize,
        limit: u64,
        seen: Vec<u64>,
        down_count: u32,
        up_count: u32,
    }

    #[derive(Clone)]
    struct Token(u64);

    impl Payload for Token {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    impl Application for RingNode {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
            if ctx.me() == 0 {
                ctx.send(1 % self.n, Token(1));
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: NodeIdx, msg: Token) {
            self.seen.push(msg.0);
            if msg.0 < self.limit {
                ctx.send((ctx.me() + 1) % self.n, Token(msg.0 + 1));
            }
        }

        fn on_down(&mut self) {
            self.down_count += 1;
        }

        fn on_up(&mut self, _ctx: &mut Ctx<'_, Token>) {
            self.up_count += 1;
        }
    }

    fn ring_sim(n: usize, limit: u64, seed: u64) -> Simulator<RingNode> {
        let topology = Topology::uniform(n, 1_000, 2_000);
        Simulator::new(topology, seed, |_| RingNode {
            n,
            limit,
            seen: Vec::new(),
            down_count: 0,
            up_count: 0,
        })
    }

    #[test]
    fn token_circulates_deterministically() {
        let mut sim = ring_sim(5, 20, 42);
        assert!(sim.run_until_quiet(10_000));
        // Token values 1..=20 were each seen exactly once across the ring.
        let all: Vec<u64> = {
            let mut v: Vec<u64> = sim.apps().flat_map(|a| a.seen.iter().copied()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(all, (1..=20).collect::<Vec<u64>>());

        // Re-run with the same seed: identical final time.
        let mut sim2 = ring_sim(5, 20, 42);
        sim2.run_until_quiet(10_000);
        assert_eq!(sim.now(), sim2.now());
        // Different seed: (almost surely) different final time.
        let mut sim3 = ring_sim(5, 20, 43);
        sim3.run_until_quiet(10_000);
        assert_ne!(sim.now(), sim3.now());
    }

    #[test]
    fn time_is_monotone_and_bounded_by_hops() {
        let mut sim = ring_sim(4, 10, 7);
        let mut last = SimTime::ZERO;
        while let Some(t) = sim.step() {
            assert!(t >= last);
            last = t;
        }
        // 10 hops, each between 1ms and 2ms.
        assert!(last >= SimTime::from_micros(10_000));
        assert!(last <= SimTime::from_micros(20_000));
    }

    #[test]
    fn dead_nodes_drop_messages() {
        let mut sim = ring_sim(3, 30, 1);
        sim.schedule_down(1, SimTime::from_micros(1));
        sim.run_until_quiet(10_000);
        // The token dies when it reaches node 1.
        assert_eq!(sim.app(1).seen.len(), 0);
        assert_eq!(sim.app(1).down_count, 1);
        assert!(sim.dropped_loss() + sim.dropped_dead() >= 1);
    }

    #[test]
    fn revival_calls_on_up() {
        let mut sim = ring_sim(3, 1, 2);
        sim.schedule_down(2, SimTime::from_micros(10));
        sim.schedule_up(2, SimTime::from_micros(20));
        sim.run_until_quiet(1_000);
        assert_eq!(sim.app(2).down_count, 1);
        assert_eq!(sim.app(2).up_count, 1);
        assert!(sim.alive(2));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = ring_sim(5, 1_000, 3);
        sim.run_until(SimTime::from_micros(5_000));
        assert!(sim.now() <= SimTime::from_micros(5_000));
        // Queue still has pending work.
        assert!(!sim.run_until_quiet(0));
    }

    #[test]
    fn past_transitions_keep_the_clock_monotone() {
        // A churn transition scheduled in the past, after a run, is clamped
        // to `now`: it never moves the clock backwards.
        let mut sim = ring_sim(5, 1_000, 3);
        let (pause, past) = (SimTime::from_micros(5_000), SimTime::from_micros(100));
        sim.run_until(pause);
        let before = sim.now();
        assert!(before > past && sim.pending_events() > 0);
        sim.schedule_down(3, past);
        assert_eq!(sim.step(), Some(before), "clamped to now, not rewound");
        assert!(!sim.alive(3));
        assert!(sim.run_until_quiet(1_000_000));
        assert!(sim.now() >= before);
    }

    #[test]
    fn run_until_quiet_budget_splits_a_same_instant_same_destination_run() {
        // `run_until_quiet(max_events)` stops after exactly `max_events`
        // even when the budget runs out in the middle of a run of events
        // sharing one `(time, destination)`.
        struct Fan {
            recvd: u64,
        }
        impl Application for Fan {
            type Msg = Token;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
                if ctx.me() != 0 {
                    ctx.send(0, Token(ctx.me() as u64));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Token>, _: NodeIdx, _: Token) {
                self.recvd += 1;
            }
        }
        // Four starts at t = 0, then three deliveries to node 0 one hop later.
        let topology = Topology::uniform(4, 500, 500);
        let mut sim = Simulator::new(topology, 3, |_| Fan { recvd: 0 });
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

    #[test]
    fn with_app_injects_work() {
        let mut sim = ring_sim(4, 5, 9);
        sim.run_until_quiet(10_000);
        let before = sim.traffic().total_msgs();
        let ran = sim.with_app(2, |_node, ctx| ctx.send(3, Token(100)));
        assert!(ran.is_some());
        sim.run_until_quiet(10_000);
        assert_eq!(sim.traffic().total_msgs(), before + 1);
        assert!(sim.app(3).seen.contains(&100));
    }

    #[test]
    fn with_app_skips_downed_nodes() {
        let mut sim = ring_sim(4, 1, 11);
        sim.schedule_down(2, SimTime::from_micros(5));
        sim.run_until_quiet(10_000);
        assert!(!sim.alive(2));
        let before = sim.traffic().total_msgs();
        // The callback must not run at all on a churn-downed node: no
        // return value, no side effects, no RNG consumption.
        let ran = sim.with_app(2, |_node, ctx| {
            ctx.send(3, Token(200));
            42
        });
        assert_eq!(ran, None);
        sim.run_until_quiet(10_000);
        assert_eq!(sim.traffic().total_msgs(), before);
        assert!(!sim.app(3).seen.contains(&200));
        // After revival the same injection works again.
        sim.schedule_up(2, sim.now() + SimDuration::from_micros(1));
        sim.run_until_quiet(10_000);
        assert_eq!(sim.with_app(2, |_node, _ctx| 42), Some(42));
    }

    #[test]
    fn traffic_ledger_counts_sends_and_receives() {
        let mut sim = ring_sim(2, 4, 5);
        sim.run_until_quiet(1_000);
        let sent: u64 = (0..2).map(|i| sim.traffic().node(i).msgs_sent).sum();
        let recv: u64 = (0..2).map(|i| sim.traffic().node(i).msgs_recv).sum();
        assert_eq!(sent, 4);
        assert_eq!(recv, 4);
    }

    #[test]
    fn lossy_topology_drops_messages() {
        let topology = Topology::uniform(2, 100, 100).with_loss(1.0);
        let mut sim = Simulator::new(topology, 4, |_| RingNode {
            n: 2,
            limit: 10,
            seen: Vec::new(),
            down_count: 0,
            up_count: 0,
        });
        sim.run_until_quiet(1_000);
        assert_eq!(sim.app(1).seen.len(), 0);
        assert_eq!(sim.dropped_loss() + sim.dropped_dead(), 1);
    }

    #[test]
    fn compute_charges_accumulate() {
        let mut sim = ring_sim(2, 1, 6);
        let ran = sim.with_app(0, |_n, ctx| {
            ctx.charge_compute(ComputeKind::FlTask, SimDuration::from_millis(3));
            ctx.charge_compute(ComputeKind::DhtTask, SimDuration::from_millis(1));
            ctx.charge_compute(ComputeKind::FlTask, SimDuration::from_millis(2));
        });
        assert!(ran.is_some());
        assert_eq!(sim.compute().fl_us, 5_000);
        assert_eq!(sim.compute().dht_us, 1_000);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        #[derive(Clone)]
        struct Nothing;
        impl Payload for Nothing {
            fn size_bytes(&self) -> usize {
                0
            }
        }
        impl Application for TimerNode {
            type Msg = Nothing;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Nothing>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Nothing>, _: NodeIdx, _: Nothing) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, Nothing>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(Topology::uniform(1, 0, 0), 0, |_| TimerNode {
            fired: Vec::new(),
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.app(0).fired, vec![1, 2, 3]);
    }

    #[test]
    fn drop_split_distinguishes_loss_and_dead() {
        // Loss-drop: total-loss link.
        let topology = Topology::uniform(2, 100, 100).with_loss(1.0);
        let mut sim = Simulator::new(topology, 4, |_| RingNode {
            n: 2,
            limit: 10,
            seen: Vec::new(),
            down_count: 0,
            up_count: 0,
        });
        sim.run_until_quiet(1_000);
        assert_eq!(sim.dropped_loss(), 1);
        assert_eq!(sim.dropped_dead(), 0);
        // Dead-drop: the destination is down on arrival.
        let mut sim = ring_sim(3, 30, 1);
        sim.schedule_down(1, SimTime::from_micros(1));
        sim.run_until_quiet(10_000);
        assert_eq!(sim.dropped_loss(), 0);
        assert!(sim.dropped_dead() >= 1);
    }

    #[test]
    fn counting_sink_observes_without_perturbing() {
        use crate::obs::CountingSink;
        let mk = |_: NodeIdx| RingNode {
            n: 4,
            limit: 25,
            seen: Vec::new(),
            down_count: 0,
            up_count: 0,
        };
        let mut plain = ring_sim(4, 25, 13);
        plain.run_until_quiet(10_000);
        let mut traced = Simulator::with_sink(
            Topology::uniform(4, 1_000, 2_000),
            13,
            CountingSink::default(),
            mk,
        );
        traced.run_until_quiet(10_000);
        // Tracing must not consume RNG draws or change scheduling.
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.events_processed(), traced.events_processed());
        assert_eq!(plain.traffic().total_msgs(), traced.traffic().total_msgs());
        // 25 sends + 25 delivers.
        assert_eq!(traced.sink().records, 50);
    }

    #[test]
    fn recording_sink_reconstructs_causal_chain() {
        use crate::obs::{spans, RecordingSink, TraceBody};
        let mut sim = Simulator::with_sink(
            Topology::uniform(3, 1_000, 2_000),
            42,
            RecordingSink::new(3),
            |_| RingNode {
                n: 3,
                limit: 5,
                seen: Vec::new(),
                down_count: 0,
                up_count: 0,
            },
        );
        sim.run_until_quiet(10_000);
        let records = sim.sink_mut().take_records();
        // The whole token walk is one causal span rooted at node 0's start.
        let by_trace = spans(&records);
        assert_eq!(by_trace.len(), 1);
        let span = by_trace.values().next().unwrap();
        let hops: Vec<u16> = span
            .iter()
            .filter_map(|r| match r.body {
                TraceBody::Send { meta, .. } => Some(meta.hop),
                _ => None,
            })
            .collect();
        assert_eq!(hops, vec![0, 1, 2, 3, 4]);
        // Parent linkage: each send's parent is the previous send's id.
        let metas: Vec<_> = span
            .iter()
            .filter_map(|r| match r.body {
                TraceBody::Send { meta, .. } => Some(meta),
                _ => None,
            })
            .collect();
        for pair in metas.windows(2) {
            assert_eq!(pair[1].parent, pair[0].id);
            assert_eq!(pair[1].trace, pair[0].trace);
        }
        assert_eq!(metas[0].parent, crate::obs::ROOT_PARENT);
    }

    #[test]
    fn slab_recycles_slots() {
        // A long-lived ring keeps exactly one message in flight; the slab
        // must not grow with the number of events processed.
        let mut sim = ring_sim(3, 500, 12);
        sim.run_until_quiet(10_000);
        assert!(sim.events_processed() > 500);
        assert!(
            sim.event_slots() <= 64,
            "slab grew to {} slots for a 1-message workload",
            sim.event_slots()
        );
        assert_eq!(sim.slab.live(), 0);
    }

    #[test]
    fn state_bytes_scale_with_nodes_not_events() {
        let bytes = |n: usize| {
            let after = |hops: u64| {
                let mut sim = ring_sim(n, hops, 4);
                assert!(sim.state_bytes() > sim.topology().heap_bytes());
                assert!(sim.run_until_quiet(100_000));
                sim.state_bytes()
            };
            // One token in flight: ten times the hops, the same state.
            let short = after(1_000);
            assert_eq!(after(10_000), short);
            short
        };
        let (small, large) = (bytes(200), bytes(400));
        // The per-node part (ledgers, liveness, reservations) doubles.
        assert!(large > small + small / 2, "{small} -> {large}");
        // Generous sanity ceiling: a few hundred bytes per node.
        assert!(
            large < 400 * 2_048,
            "unexpectedly heavy per-node state: {large}"
        );
    }

    /// Node 0 fans one token out to `dsts` at start; everyone logs what
    /// arrives.
    struct FanNode {
        dsts: Vec<NodeIdx>,
        got: Vec<u64>,
    }

    impl Application for FanNode {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
            if ctx.me() == 0 {
                ctx.send_all(self.dsts.iter().copied(), Token(7));
            }
        }

        fn on_message(&mut self, _: &mut Ctx<'_, Token>, _from: NodeIdx, msg: Token) {
            self.got.push(msg.0);
        }
    }

    /// A 6-node simulator whose starts have run, leaving node 0's fan-out
    /// to `dsts` as the only queued events.
    fn fan_sim(dsts: &[NodeIdx]) -> Simulator<FanNode> {
        let mut sim = Simulator::new(Topology::uniform(6, 1_000, 2_000), 5, |_| FanNode {
            dsts: dsts.to_vec(),
            got: Vec::new(),
        });
        for _ in 0..6 {
            assert_eq!(sim.step(), Some(SimTime::ZERO));
        }
        assert_eq!(sim.pending_events(), dsts.len());
        sim
    }

    #[test]
    fn fan_out_parks_one_slot_until_its_last_leg() {
        // Repeats and the sender itself are legs like any other.
        let dsts = [1, 2, 2, 0, 5];
        let mut sim = fan_sim(&dsts);
        for _ in 1..dsts.len() {
            assert_eq!(sim.slab.live(), 1);
            assert!(sim.step().is_some());
        }
        assert_eq!(sim.slab.live(), 1);
        assert!(sim.step().is_some());
        assert_eq!(sim.slab.live(), 0);
        assert_eq!(sim.step(), None);
        let got: Vec<usize> = sim.apps().map(|a| a.got.len()).collect();
        assert_eq!(got, vec![1, 1, 2, 0, 0, 1]);
        assert!(sim.apps().all(|a| a.got.iter().all(|&t| t == 7)));
        assert_eq!(sim.traffic().total_msgs(), 5);
    }

    #[test]
    fn exploration_hooks_act_on_one_leg_of_a_fan_out() {
        let mut sim = fan_sim(&[1, 2, 3, 4]);
        let key_to = |sim: &mut Simulator<FanNode>, node| {
            let pending = sim.pending_summaries();
            pending.iter().find(|p| p.node == node).expect("leg").key
        };
        // Losing one leg leaves the payload parked for the other three.
        let k1 = key_to(&mut sim, 1);
        assert!(sim.drop_pending(k1));
        assert_eq!((sim.pending_events(), sim.slab.live()), (3, 1));
        // A duplicate is an event of its own, with a payload of its own.
        let k2 = key_to(&mut sim, 2);
        assert!(sim.duplicate_pending(k2).is_some());
        assert_eq!((sim.pending_events(), sim.slab.live()), (4, 2));
        // Dispatching a leg out of turn delivers to that leg's node only.
        let k4 = key_to(&mut sim, 4);
        assert!(sim.dispatch_pending(k4).is_some());
        assert_eq!(sim.app(4).got, vec![7]);
        assert_eq!((sim.pending_events(), sim.slab.live()), (3, 2));
        // (Out of turn moved the clock past the rest; stay on the hook.)
        while let Some(next) = sim.pending_summaries().first().copied() {
            assert!(sim.dispatch_pending(next.key).is_some());
        }
        let got: Vec<Vec<u64>> = sim.apps().map(|a| a.got.clone()).collect();
        assert_eq!(
            got,
            vec![vec![], vec![], vec![7, 7], vec![7], vec![7], vec![]]
        );
        assert_eq!(sim.slab.live(), 0);
        assert_eq!(sim.dropped_loss(), 1);
    }

    #[test]
    fn far_churn_transitions_count_as_migrations() {
        // `Down` and `Up` store nothing; their creation band rides in the
        // queue handle, so the profiler still sees them leave the far heap.
        let mut sim = ring_sim(3, 4, 2);
        sim.enable_profiling();
        sim.schedule_down(2, SimTime::from_secs(1));
        sim.schedule_up(2, SimTime::from_secs(2));
        sim.run_until_quiet(10_000);
        let profile = sim.engine_profile().expect("profiling enabled");
        assert_eq!((profile.far, profile.migrated), (2, 2));
        assert_eq!(sim.app(2).up_count, 1);
    }

    /// Every node arms `per_node` timers at start and sends nothing.
    struct ArmNode {
        per_node: u64,
    }

    #[derive(Clone)]
    struct Silent;

    impl Payload for Silent {
        fn size_bytes(&self) -> usize {
            0
        }
    }

    impl Application for ArmNode {
        type Msg = Silent;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Silent>) {
            let me = ctx.me() as u64;
            for k in 0..self.per_node {
                // Due times from 1 µs to ~40 s cover the wheel's near band
                // and its far heap; the tokens use all 64 bits.
                let delay = 1 + (me * 7_919 + k * 104_729) % 40_000_000;
                let token = (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ me;
                ctx.set_timer(SimDuration::from_micros(delay), token);
            }
        }

        fn on_message(&mut self, _: &mut Ctx<'_, Silent>, _: NodeIdx, _: Silent) {}
    }

    #[test]
    #[cfg_attr(miri, ignore = "20k timers in two sims are too slow under Miri")]
    fn armed_timers_take_no_payload_slot() {
        use crate::obs::{RecordingSink, TraceBody};
        let (n, per_node) = (100, 100);
        let topology = || Topology::uniform(n, 1_000, 2_000);
        let mut sim = Simulator::new(topology(), 3, |_| ArmNode { per_node });
        for _ in 0..n {
            assert_eq!(sim.step(), Some(SimTime::ZERO));
        }
        assert_eq!(sim.pending_events(), 10_000);
        assert_eq!(sim.event_slots(), 0);
        assert!(sim.run_until_quiet(u64::MAX));
        assert_eq!((sim.events_processed(), sim.event_slots()), (10_100, 0));
        // The dispatch trace: every firing's time, node and token, in
        // dispatch order, folded FNV-1a style. Captured when timers were
        // parked in payload slots.
        let mut traced = Simulator::with_sink(topology(), 3, RecordingSink::new(n), |_| ArmNode {
            per_node,
        });
        assert!(traced.run_until_quiet(u64::MAX));
        assert_eq!(traced.event_slots(), 0);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fires = 0;
        for rec in traced.sink_mut().take_records() {
            let TraceBody::TimerFire { token } = rec.body else {
                continue;
            };
            fires += 1;
            for word in [rec.at_us, rec.node as u64, token] {
                digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!((fires, sim.now()), (10_000, traced.now()));
        assert_eq!(digest, 0x45fd_40b6_836e_4d99);
    }
}
