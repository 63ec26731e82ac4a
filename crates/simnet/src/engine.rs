//! The per-partition event core: the one `dispatch` and the one
//! `apply_actions` in the crate.
//!
//! An [`Engine`] owns everything one event loop needs — application
//! state, liveness bits, the event queue and payload slab, causal-meta
//! slots, the action scratch buffer, drop counters, the chaos injector
//! and the profiling collector — for the nodes of one *partition*. The
//! sequential [`Simulator`](crate::sim::Simulator) is an engine whose
//! single partition holds every node; the sharded
//! [`ShardedSim`](crate::shard::ShardedSim) is `K` engines under the
//! window/mailbox driver in [`crate::shard`]. This module is thread-free:
//! an engine is plain owned data that its driver moves between threads.
//!
//! The two engines differ in exactly the six places the [`Partition`]
//! trait names (DESIGN.md §12 carries the table); everything else — loss
//! and delay sampling, the chaos verdict, the fault filter, the
//! dead-destination bounce, causal-meta derivation, every trace record,
//! the profiling hooks — is written once, here.
//!
//! # Hot-path layout
//!
//! * Queues order small `(EventKey, slot, dst)` records; message payloads
//!   live in an [`EventSlab`] indexed by `slot`, so reordering never moves
//!   a model update, and freed slots are recycled so a steady-state run
//!   stops allocating.
//! * The queue record is the delivery, the slab slot the payload: a
//!   message sent to `k` nodes ([`Ctx::send_all`]) is `k` records naming
//!   one reference-counted slot, so a keep-alive fan-out is parked once
//!   and read from cache `k` times (DESIGN.md §8, *park once, deliver
//!   many*).
//! * Every event source — sends, timers, churn transitions, failure
//!   bounces — goes through [`Engine::schedule`] (a send's destinations
//!   through its per-leg twin), which applies the partition's due-time
//!   rule, mints the tie-break key, classifies the wheel band, and places
//!   the event locally or hands it to the partition for another shard.
//! * Callback side effects accumulate in a reusable scratch buffer that
//!   is drained in place (no per-event `Vec`).

use rand::rngs::StdRng;

use crate::bitset::BitSet;
use crate::chaos::{ChaosInjector, FaultFilter};
use crate::obs::prof::{EngineProf, BAND_NONE};
use crate::obs::{DropReason, MsgMeta, TraceBody, TraceRecord, ROOT_PARENT};
use crate::queue::{EventKey, EventQueue};
use crate::sim::{Action, Application, ComputeKind, Ctx, Outbox, Payload};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeIdx, Topology};

#[derive(Clone, Debug)]
pub(crate) enum EventKind<M> {
    Start,
    Deliver { src: NodeIdx, msg: M },
    SendFailed { peer: NodeIdx },
    Timer { token: u64 },
    Down,
    Up,
}

/// One slot of the event slab. Occupied, it parks a queued event's payload
/// while the queue records naming it move through the event queue, and
/// `link` counts those records: the undelivered legs of a fan-out, 1 for
/// every other event. Vacant, `kind` is `None` and `link` is the next
/// vacant slot, so the free list lives in the slots it lists.
struct SlabSlot<M> {
    link: u32,
    kind: Option<EventKind<M>>,
}

/// Bytes one queued event's payload occupies in the event slab — what
/// `state_bytes` multiplies the slab's capacity by.
pub const fn event_slot_bytes<M>() -> usize {
    std::mem::size_of::<SlabSlot<M>>()
}

/// End of the slab's free list.
const NO_SLOT: u32 = u32::MAX;

/// Free-list slab holding the payloads of queued events.
///
/// Slots freed by dispatched events are recycled, most recently freed
/// first, before the backing vector grows, so a simulation whose in-flight
/// event population has peaked stops allocating on the event path
/// altogether.
pub(crate) struct EventSlab<M> {
    slots: Vec<SlabSlot<M>>,
    /// Head of the free list threaded through the vacant slots' `link`s.
    vacant: u32,
}

impl<M> EventSlab<M> {
    fn with_capacity(cap: usize) -> Self {
        EventSlab {
            slots: Vec::with_capacity(cap),
            vacant: NO_SLOT,
        }
    }

    /// Heap bytes currently reserved by the slab (capacity-based, for
    /// memory accounting in million-node trials).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * event_slot_bytes::<M>()
    }

    /// Number of slots ever allocated (live plus recycled): the high-water
    /// mark of concurrently parked payloads.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots holding (or reserved for) a payload right now.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        let mut vacant = 0;
        let mut at = self.vacant;
        while at != NO_SLOT {
            vacant += 1;
            at = self.slots[at as usize].link;
        }
        self.slots.len() - vacant
    }

    /// Claims an empty slot, to be [`EventSlab::fill`]ed before anything
    /// is dispatched: a fan-out learns how many records name its slot only
    /// after it has pushed them.
    fn reserve(&mut self) -> u32 {
        let slot = self.vacant;
        if slot != NO_SLOT {
            self.vacant = self.slots[slot as usize].link;
            return slot;
        }
        let slot = u32::try_from(self.slots.len())
            .ok()
            .filter(|&s| s != NO_SLOT)
            .expect("more than u32::MAX events in flight");
        self.slots.push(SlabSlot {
            link: NO_SLOT,
            kind: None,
        });
        slot
    }

    /// Parks `kind` in reserved `slot` on behalf of `refs` queue records.
    fn fill(&mut self, slot: u32, refs: u32, kind: EventKind<M>) {
        let cell = &mut self.slots[slot as usize];
        debug_assert!(refs > 0 && cell.kind.is_none());
        *cell = SlabSlot {
            link: refs,
            kind: Some(kind),
        };
    }

    fn insert(&mut self, kind: EventKind<M>) -> u32 {
        let slot = self.reserve();
        self.fill(slot, 1, kind);
        slot
    }

    /// Inspects a queued event without removing it.
    pub(crate) fn peek(&self, slot: u32) -> &EventKind<M> {
        self.slots[slot as usize]
            .kind
            .as_ref()
            .expect("queue entry references an empty slot")
    }
}

impl<M: Clone> EventSlab<M> {
    /// The payload of one queue record naming `slot`: moved out, freeing
    /// the slot, for the last such record, cloned for those before it.
    pub(crate) fn take(&mut self, slot: u32) -> EventKind<M> {
        let cell = &mut self.slots[slot as usize];
        let kind = cell
            .kind
            .as_ref()
            .expect("queue entry references an empty slot");
        if cell.link > 1 {
            let kind = kind.clone();
            cell.link -= 1;
            return kind;
        }
        let kind = cell.kind.take().expect("checked above");
        cell.link = self.vacant;
        self.vacant = slot;
        kind
    }
}

/// The message of one `Action::Send` while its destinations are worked
/// through.
struct Fanout<M> {
    /// `None` once the final leg has taken the message by move.
    msg: Option<M>,
    /// Whether this engine's legs may name one slot. Not when it is traced
    /// or profiled: the causal-meta and wheel-band side tables are indexed
    /// by slot, so each leg then parks a payload of its own.
    share: bool,
    /// The shared slot, reserved by the first leg that uses it, and the
    /// queue records pushed against it so far.
    parked: Option<(u32, u32)>,
}

/// An event whose queue key, causal meta and wheel band were fixed at
/// creation. All three are creation-site facts, so they travel with the
/// event when it crosses to another shard.
pub(crate) struct Stamped<M> {
    pub(crate) key: EventKey,
    pub(crate) dst: NodeIdx,
    pub(crate) kind: EventKind<M>,
    pub(crate) meta: MsgMeta,
    pub(crate) band: u8,
}

/// What distinguishes the sequential engine's single partition from one
/// shard of the sharded engine — these six things and nothing else.
/// Crate-private, hence sealed: the two implementations live next to
/// their drivers in [`crate::sim`] and [`crate::shard`].
pub(crate) trait Partition<M> {
    // 1. Tie-break key and trace message id.

    /// Mints the tie-break word of the next event created by `origin`
    /// (partition-local index `local`).
    fn mint_seq(&mut self, local: usize, origin: NodeIdx) -> u64;

    /// Mints the trace id of the next message sent by `origin`. Only
    /// called when [`Partition::traced`]; ids start at 1, never 0.
    fn mint_msg_id(&mut self, local: usize, origin: NodeIdx) -> u64;

    // 2. Due-time rule.

    /// When an event asked for at `at` while the clock reads `now`
    /// actually fires. Idempotent.
    fn due(at: SimTime, now: SimTime) -> SimTime;

    // 3. Placement.

    /// Partition-local index of member `node`.
    fn local(&self, node: NodeIdx) -> usize;

    /// Global index of the member at `local`.
    fn global(&self, local: usize) -> NodeIdx;

    /// Whether `node` is a member of this partition.
    fn owns(&self, node: NodeIdx) -> bool;

    /// Takes an event bound for a node this partition does not own.
    fn park(&mut self, ev: Stamped<M>);

    // 4. Ledgers.

    /// Accounts a `bytes`-byte message sent by `src`.
    fn record_send(&mut self, topology: &Topology, src: NodeIdx, bytes: usize);

    /// Accounts a `bytes`-byte message delivered to `dst`.
    fn record_recv(&mut self, topology: &Topology, dst: NodeIdx, bytes: usize);

    /// Charges simulated CPU time to `node`.
    fn charge(&mut self, topology: &Topology, node: NodeIdx, kind: ComputeKind, us: SimDuration);

    // 5. Trace emission.

    /// Whether trace records (and causal meta) are wanted at all.
    fn traced(&self) -> bool;

    /// Marks the start of the dispatch whose records follow.
    fn begin_event(&mut self, key: EventKey);

    /// Receives one record. Only called when [`Partition::traced`].
    fn record(&mut self, rec: TraceRecord);

    // 6. Presize hint.

    /// Queue and slab reserve this many events per member node.
    const PRESIZE: usize;
}

/// One event loop over the member nodes of partition `P`.
pub(crate) struct Engine<A: Application, P, Q> {
    pub(crate) part: P,
    /// Application state of member nodes, local index order.
    pub(crate) nodes: Vec<A>,
    // Liveness packed one bit per node (1 MB -> 125 KB at a million
    // nodes), local index order; see `crate::bitset`.
    pub(crate) alive: BitSet,
    pub(crate) queue: Q,
    pub(crate) slab: EventSlab<A::Msg>,
    pub(crate) now: SimTime,
    pub(crate) rng: StdRng,
    // Causal meta of queued events, parallel to the slab slots. Kept out
    // of `EventKind` so an untraced run's slab slots stay small; stays
    // empty (never resized) while the partition is untraced.
    pub(crate) meta_slots: Vec<MsgMeta>,
    pub(crate) scratch: Outbox<A::Msg>,
    pub(crate) events_processed: u64,
    pub(crate) dropped_loss: u64,
    pub(crate) dropped_dead: u64,
    pub(crate) chaos: Option<ChaosInjector>,
    pub(crate) fault_filter: Option<FaultFilter<A::Msg>>,
    // Deterministic engine self-profiling (`obs::prof`), enabled on
    // demand; `None` costs one predictable branch per hot-path site.
    pub(crate) prof: Option<Box<EngineProf>>,
}

impl<A: Application, P: Partition<A::Msg>, Q: EventQueue> Engine<A, P, Q> {
    /// Builds the engine over `nodes` (local index order) and queues each
    /// member's time-zero `Start`, keyed by the member itself.
    pub(crate) fn new(part: P, nodes: Vec<A>, rng: StdRng) -> Self {
        let n = nodes.len();
        // The steady-state in-flight event population is a small multiple
        // of the node count (heartbeats, timers, a few messages per node);
        // reserving that up front avoids the early doubling cascade.
        let event_cap = n.saturating_mul(P::PRESIZE).max(64);
        let mut engine = Engine {
            alive: BitSet::filled(n, true),
            nodes,
            queue: Q::with_capacity(event_cap),
            slab: EventSlab::with_capacity(event_cap),
            now: SimTime::ZERO,
            rng,
            // Sized to the slab's reservation when tracing is on from the
            // start, so the side table never doubles mid-run.
            meta_slots: if part.traced() {
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
            chaos: None,
            fault_filter: None,
            prof: None,
            part,
        };
        // Starts are placed, not scheduled: time zero is not yet closed.
        for local in 0..n {
            let dst = engine.part.global(local);
            let seq = engine.part.mint_seq(local, dst);
            let key = EventKey {
                time: SimTime::ZERO,
                seq,
            };
            engine.insert(key, dst, EventKind::Start, MsgMeta::NONE, BAND_NONE);
        }
        engine
    }

    /// Turns on engine self-profiling, seeded with the *topology's*
    /// lookahead bound so the profile does not depend on the shard plan.
    pub(crate) fn enable_profiling(&mut self, topology: &Topology) {
        let lookahead = topology
            .min_inter_region_delay()
            .map_or(0, |d| d.as_micros());
        self.prof = Some(Box::new(EngineProf::new(lookahead)));
    }

    /// Files an event whose key and band are already fixed in the slab and
    /// queue — the arrival end of [`Engine::schedule`], also used for
    /// events stamped by another shard.
    pub(crate) fn insert(
        &mut self,
        key: EventKey,
        node: NodeIdx,
        kind: EventKind<A::Msg>,
        meta: MsgMeta,
        band: u8,
    ) {
        let slot = self.slab.insert(kind);
        if self.part.traced() {
            let i = slot as usize;
            if self.meta_slots.len() <= i {
                self.meta_slots.resize(i + 1, MsgMeta::NONE);
            }
            self.meta_slots[i] = meta;
        }
        if let Some(p) = self.prof.as_mut() {
            p.note_band(slot, band);
        }
        self.queue.push(key, slot, node);
    }

    /// The causal meta parked with `slot` ([`MsgMeta::NONE`] when untraced).
    #[inline]
    pub(crate) fn meta_of(&self, slot: u32) -> MsgMeta {
        if self.part.traced() {
            self.meta_slots
                .get(slot as usize)
                .copied()
                .unwrap_or(MsgMeta::NONE)
        } else {
            MsgMeta::NONE
        }
    }

    /// The scheduling choke point: every event source — timers, churn
    /// transitions, failure bounces, and through [`Engine::schedule_leg`]
    /// each destination of a send — lands here. Applies
    /// the partition's due-time rule to `at`, mints `origin`'s next
    /// tie-break key, classifies the wheel band, and places the event in
    /// this engine or hands it to the partition for `dst`'s shard.
    /// Returns the key the event was filed under.
    // Inlined at its call sites, as the per-engine `enqueue`/`route` it
    // replaced were; `insert` is the one out-of-line call per event.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // The event tuple plus its origin.
    pub(crate) fn schedule(
        &mut self,
        topology: &Topology,
        local: usize,
        origin: NodeIdx,
        at: SimTime,
        dst: NodeIdx,
        kind: EventKind<A::Msg>,
        meta: MsgMeta,
    ) -> EventKey {
        let (key, band) = self.stamp(topology, local, origin, at, dst);
        self.place(key, self.owns(origin, dst), dst, kind, meta, band);
        key
    }

    /// The creation-site half of [`Engine::schedule`], shared with
    /// [`Engine::schedule_leg`]: the key and wheel band of the event
    /// `origin` creates for `dst`, asked for at `at`.
    #[inline(always)]
    fn stamp(
        &mut self,
        topology: &Topology,
        local: usize,
        origin: NodeIdx,
        at: SimTime,
        dst: NodeIdx,
    ) -> (EventKey, u8) {
        let at = P::due(at, self.now);
        let seq = self.part.mint_seq(local, origin);
        let mut band = BAND_NONE;
        if let Some(p) = self.prof.as_mut() {
            band = p.classify(self.now.as_micros(), at.as_micros());
            // Regions, not shards: the profile must not depend on the plan.
            let (ra, rb) = (topology.region(origin), topology.region(dst));
            if ra != rb {
                p.on_remote(ra, rb);
            }
        }
        (EventKey { time: at, seq }, band)
    }

    /// Whether an event `origin` creates for `dst` stays in this engine.
    #[inline(always)]
    fn owns(&self, origin: NodeIdx, dst: NodeIdx) -> bool {
        dst == origin || self.part.owns(dst)
    }

    /// The placement half of [`Engine::schedule`]: files a stamped event
    /// here when `own`, else hands it to the partition for `dst`'s shard.
    #[inline(always)]
    fn place(
        &mut self,
        key: EventKey,
        own: bool,
        dst: NodeIdx,
        kind: EventKind<A::Msg>,
        meta: MsgMeta,
        band: u8,
    ) {
        if own {
            self.insert(key, dst, kind, meta, band);
        } else {
            self.part.park(Stamped {
                key,
                dst,
                kind,
                meta,
                band,
            });
        }
    }

    /// Schedules one delivery of `fan`'s message from `src` to `to`. A leg
    /// that stays in an engine whose legs may share pushes one more queue
    /// record against the fan-out's slot; any other leg carries a payload
    /// of its own — the message itself when `last` says no later leg will
    /// read it and no shared slot is waiting for it, a clone otherwise.
    #[inline]
    #[allow(clippy::too_many_arguments)] // `schedule`'s tuple, by fan-out.
    fn schedule_leg(
        &mut self,
        topology: &Topology,
        local: usize,
        src: NodeIdx,
        at: SimTime,
        to: NodeIdx,
        meta: MsgMeta,
        fan: &mut Fanout<A::Msg>,
        last: bool,
    ) {
        let (key, band) = self.stamp(topology, local, src, at, to);
        let own = self.owns(src, to);
        if own && fan.share {
            let (slot, refs) = fan.parked.get_or_insert_with(|| (self.slab.reserve(), 0));
            *refs += 1;
            self.queue.push(key, *slot, to);
            return;
        }
        let msg = if last && fan.parked.is_none() {
            fan.msg.take()
        } else {
            fan.msg.clone()
        };
        let msg = msg.expect("only the final leg takes the message");
        self.place(key, own, to, EventKind::Deliver { src, msg }, meta, band);
    }

    /// Dispatches every queued event due at or before `bound`, returning
    /// how many ran.
    pub(crate) fn run_before(&mut self, topology: &Topology, bound: SimTime) -> u64 {
        let before = self.events_processed;
        while let Some((key, slot, dst)) = self.queue.pop_before(bound) {
            self.dispatch(topology, key, slot, dst);
        }
        self.events_processed - before
    }

    #[inline]
    fn emit(&mut self, node: NodeIdx, tags: (&'static str, &'static str), body: TraceBody) {
        self.part.record(TraceRecord {
            at_us: self.now.as_micros(),
            node,
            layer: tags.0,
            kind: tags.1,
            body,
        });
    }

    /// Emits a drop record for a message from `src` that never reached
    /// `to`'s handler.
    pub(crate) fn record_drop(
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

    /// Runs the event popped as `(key, slot, node)` at `key.time`: advances
    /// the clock, emits its trace record, invokes the destination's
    /// callback and applies what the callback asked for.
    pub(crate) fn dispatch(
        &mut self,
        topology: &Topology,
        key: EventKey,
        slot: u32,
        node: NodeIdx,
    ) {
        if let Some(p) = self.prof.as_mut() {
            let groupable = !matches!(self.slab.peek(slot), EventKind::Down | EventKind::Up);
            p.on_dispatch(slot, key.time.as_micros(), node, groupable);
        }
        // Read before the slot can be recycled.
        let meta = self.meta_of(slot);
        let kind = self.slab.take(slot);
        debug_assert!(key.time >= self.now, "time went backwards");
        self.now = key.time;
        self.events_processed += 1;
        self.part.begin_event(key);
        let local = self.part.local(node);
        let up = self.alive.get(local);
        // Records are emitted here, in dispatch order — the total order
        // the determinism contract pins — before the callback runs.
        if self.part.traced() {
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
            let mut ctx = Ctx::scoped(self.now, node, &mut out, &mut self.rng, topology);
            let app = &mut self.nodes[local];
            match kind {
                EventKind::Start if up => app.on_start(&mut ctx),
                EventKind::Deliver { src, msg } => {
                    if up {
                        self.part.record_recv(topology, node, msg.size_bytes());
                        app.on_message(&mut ctx, src, msg);
                    } else {
                        self.dropped_dead += 1;
                        bounce = Some(src);
                    }
                }
                EventKind::SendFailed { peer } if up => app.on_send_failed(&mut ctx, peer),
                EventKind::Timer { token } if up => app.on_timer(&mut ctx, token),
                EventKind::Down if up => {
                    self.alive.set(local, false);
                    app.on_down();
                }
                EventKind::Up if !up => {
                    self.alive.set(local, true);
                    app.on_up(&mut ctx);
                }
                _ => {}
            }
        }
        self.apply_actions(topology, node, local, &mut out, cause);
        self.scratch = out;
        if let Some(src) = bounce {
            // TCP-RST-like failure bounce back to the sender, originated
            // by the dead destination; it travels one network delay (so a
            // shard's lookahead bound still covers it). A direct schedule,
            // not a scratch action.
            let delay = topology.sample_delay(node, src, 64, &mut self.rng);
            let at = self.now + delay;
            let kind = EventKind::SendFailed { peer: node };
            self.schedule(topology, local, node, at, src, kind, MsgMeta::NONE);
        }
    }

    /// Applies one callback's buffered side effects, draining the buffer in
    /// place. The buffer is the caller's loan of `self.scratch`, so the hot
    /// path performs no allocation: capacity survives across events.
    ///
    /// `cause` is the causal meta of the delivered message whose handler
    /// produced these actions ([`MsgMeta::NONE`] for timers, starts, driver
    /// injections, ...): sends inherit its trace, or root a new one.
    pub(crate) fn apply_actions(
        &mut self,
        topology: &Topology,
        src: NodeIdx,
        local: usize,
        out: &mut Outbox<A::Msg>,
        cause: MsgMeta,
    ) {
        let traced = self.part.traced();
        for action in out.actions.drain(..) {
            match action {
                Action::Send { dsts, msg, extra } => {
                    let dsts = &out.dsts[dsts.start as usize..dsts.end as usize];
                    self.fan_out(topology, src, local, dsts, msg, extra, cause);
                }
                Action::Timer { delay, token } => {
                    let at = self.now + delay;
                    let kind = EventKind::Timer { token };
                    self.schedule(topology, local, src, at, src, kind, MsgMeta::NONE);
                }
                Action::Compute { kind, amount } => {
                    self.part.charge(topology, src, kind, amount);
                    if traced {
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
    #[allow(clippy::too_many_arguments)] // One `Action::Send`, spread out.
    fn fan_out(
        &mut self,
        topology: &Topology,
        src: NodeIdx,
        local: usize,
        dsts: &[NodeIdx],
        msg: A::Msg,
        extra: SimDuration,
        cause: MsgMeta,
    ) {
        let traced = self.part.traced();
        let size = msg.size_bytes();
        let mut fan = Fanout {
            msg: Some(msg),
            share: !traced && self.prof.is_none(),
            parked: None,
        };
        for (i, &to) in dsts.iter().enumerate() {
            let last = i + 1 == dsts.len();
            let msg = fan.msg.as_ref().expect("only the final leg takes it");
            self.part.record_send(topology, src, size);
            // Causal identity, computed only when tracing is on;
            // drops too get ids, so a span shows where it died.
            let mut meta = MsgMeta::NONE;
            if traced {
                let id = self.part.mint_msg_id(local, src);
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
            if topology.sample_loss(&mut self.rng) {
                self.dropped_loss += 1;
                if traced {
                    self.record_drop(src, to, msg, DropReason::Loss, meta);
                }
                continue;
            }
            // The base loss/delay draws above always happen first,
            // so installing no chaos leaves the main RNG stream —
            // and every golden fixture — untouched.
            let mut delay = topology.sample_delay(src, to, size, &mut self.rng);
            let mut duplicate = false;
            if let Some(chaos) = self.chaos.as_mut() {
                let verdict = chaos.on_send(self.now, src, to, topology);
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
            // Pre-applied (the rule is idempotent) so the record
            // reports the arrival time the event is filed under.
            let at = P::due(self.now + extra + delay, self.now);
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
                    let id = self.part.mint_msg_id(local, src);
                    dup_meta = MsgMeta { id, ..meta };
                    let body = TraceBody::Send {
                        to,
                        bytes: size,
                        meta: dup_meta,
                        arrive_at_us: at.as_micros(),
                    };
                    self.emit(src, tag(msg), body);
                }
                self.schedule_leg(topology, local, src, at, to, dup_meta, &mut fan, false);
            }
            self.schedule_leg(topology, local, src, at, to, meta, &mut fan, last);
        }
        if let Some((slot, refs)) = fan.parked {
            let msg = fan.msg.take().expect("a shared slot keeps the message");
            self.slab.fill(slot, refs, EventKind::Deliver { src, msg });
        }
    }
}

/// Normalizes a payload's layer/kind tags for record emission.
#[inline]
pub(crate) fn tag<M: Payload>(msg: &M) -> (&'static str, &'static str) {
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

    #[test]
    fn shared_slot_is_freed_by_its_last_record() {
        let mut slab: EventSlab<String> = EventSlab::with_capacity(4);
        let slot = slab.reserve();
        let kind = EventKind::Deliver {
            src: 3,
            msg: "hello".to_string(),
        };
        slab.fill(slot, 3, kind);
        for left in [1, 1, 0] {
            match slab.take(slot) {
                EventKind::Deliver { src: 3, msg } => assert_eq!(msg, "hello"),
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(slab.live(), left);
        }
        // The freed slot is the next one handed out, for any kind of event.
        assert_eq!(slab.insert(EventKind::Timer { token: 9 }), slot);
        assert!(matches!(slab.take(slot), EventKind::Timer { token: 9 }));
        assert_eq!((slab.live(), slab.slots()), (0, 1));
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab: EventSlab<u64> = EventSlab::with_capacity(4);
        let slots: Vec<u32> = (0..4)
            .map(|t| slab.insert(EventKind::Timer { token: t }))
            .collect();
        for &s in &[slots[1], slots[3], slots[0]] {
            slab.take(s);
        }
        assert_eq!(slab.live(), 1);
        let reused: Vec<u32> = (0..4)
            .map(|t| slab.insert(EventKind::Timer { token: t }))
            .collect();
        assert_eq!(reused, [slots[0], slots[3], slots[1], 4]);
        assert_eq!((slab.live(), slab.slots()), (5, 5));
    }

    #[test]
    fn reference_count_fits_where_the_destination_was() {
        // `state_bytes` is slab capacity x slot size, so the slot must not
        // grow for any message type: `refs: u32` took the place of the
        // `node: usize` that moved into the queue record.
        fn same_as_before<M>() {
            let before = std::mem::size_of::<Option<(NodeIdx, EventKind<M>)>>();
            assert_eq!(event_slot_bytes::<M>(), before);
        }
        same_as_before::<()>();
        same_as_before::<u8>();
        same_as_before::<u64>();
        same_as_before::<[u8; 3]>();
        same_as_before::<[u64; 12]>();
        same_as_before::<String>();
        same_as_before::<Option<Box<u64>>>();
        same_as_before::<(u32, std::sync::Arc<Vec<u8>>)>();
        assert_eq!(event_slot_bytes::<u64>(), 32);
    }
}
