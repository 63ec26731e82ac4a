//! The event core: the one `dispatch` and the one `apply_actions` in the
//! crate.
//!
//! An [`Engine`] owns everything the event loop needs — application
//! state, liveness bits, the event queue and event slab, causal-meta
//! slots, the action scratch buffer, drop counters, the traffic and compute
//! ledgers, the trace sink, the chaos injector and the profiling collector.
//! The [`Simulator`](crate::sim::Simulator) is this engine plus its
//! topology and the driver-facing API. Same-time events are ordered by one
//! global creation counter, and a due time already past clamps to `now`.
//!
//! # Hot-path layout
//!
//! * The queue orders small `(EventKey, handle, dst)` records, so
//!   reordering never moves a model update. The `u32` [`Handle`] is the
//!   event's kind in 3 bits and an index in 29, and each kind keeps only
//!   what it carries: a `Deliver`'s source and message sit in a payload
//!   slab slot sized for the largest message, a `Timer`'s token or a
//!   `SendFailed`'s peer in one `u64` cell of a dense word store, and
//!   `Start`, `Down` and `Up` store nothing. Both stores live in the
//!   [`EventSlab`] and recycle freed places LIFO, so a steady-state run
//!   stops allocating. [`EventKind`] is only the in-register form that
//!   [`Engine::dispatch`] matches on.
//! * Armed timers are most of what waits in the queue — semi-synchronous
//!   aggregation keeps a straggler cutoff per (app, round) on every
//!   interior node — so keeping them out of message-sized slots is what
//!   holds the slab to the messages actually in flight.
//! * The queue record is the delivery, the slab slot the payload: a
//!   message sent to `k` nodes ([`Ctx::send_all`]) is `k` records naming
//!   one reference-counted slot, so a keep-alive fan-out is parked once
//!   and read from cache `k` times (DESIGN.md §8, *park once, deliver
//!   many*).
//! * Every event source — sends, timers, churn transitions, failure
//!   bounces — goes through [`Engine::schedule`] (a send's destinations
//!   through its per-leg twin), which clamps the due time, mints the
//!   tie-break key, classifies the wheel band, and files the event.
//! * Callback side effects accumulate in a reusable scratch buffer that
//!   is drained in place (no per-event `Vec`).

use rand::rngs::StdRng;

use crate::bitset::BitSet;
use crate::chaos::{ChaosInjector, FaultFilter};
use crate::obs::prof::{EngineProf, BAND_NONE};
use crate::obs::{DropReason, MsgMeta, TraceBody, TraceRecord, TraceSink, ROOT_PARENT};
use crate::queue::{EventKey, WheelQueue};
use crate::sim::{Action, Application, ComputeKind, ComputeLedger, Ctx, Outbox, Payload};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeIdx, Topology};
use crate::traffic::TrafficLedger;

/// An event in register form: what [`Engine::dispatch`] matches on. A
/// queued event is a [`Handle`] instead, with whatever its kind carries
/// in the store that kind keeps it in.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum EventKind<M> {
    Start,
    Deliver { src: NodeIdx, msg: M },
    SendFailed { peer: NodeIdx },
    Timer { token: u64 },
    Down,
    Up,
}

/// The kind half of a [`Handle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tag {
    Start,
    Deliver,
    SendFailed,
    Timer,
    Down,
    Up,
}

impl Tag {
    const ALL: [Tag; 6] = [
        Tag::Start,
        Tag::Deliver,
        Tag::SendFailed,
        Tag::Timer,
        Tag::Down,
        Tag::Up,
    ];

    fn of<M>(kind: &EventKind<M>) -> Tag {
        match kind {
            EventKind::Start => Tag::Start,
            EventKind::Deliver { .. } => Tag::Deliver,
            EventKind::SendFailed { .. } => Tag::SendFailed,
            EventKind::Timer { .. } => Tag::Timer,
            EventKind::Down => Tag::Down,
            EventKind::Up => Tag::Up,
        }
    }

    /// The event of this kind that carries `word` (ignored by the kinds
    /// that carry nothing). Deliveries carry a payload, not a word.
    fn event<M>(self, word: u64) -> EventKind<M> {
        match self {
            Tag::Start => EventKind::Start,
            Tag::SendFailed => EventKind::SendFailed {
                peer: word as NodeIdx,
            },
            Tag::Timer => EventKind::Timer { token: word },
            Tag::Down => EventKind::Down,
            Tag::Up => EventKind::Up,
            Tag::Deliver => unreachable!("a delivery carries a payload, not a word"),
        }
    }

    /// The store this kind's events keep their data in; `None` for the
    /// kinds that carry nothing.
    fn store(self) -> Option<Store> {
        match self {
            Tag::Deliver => Some(Store::Payload),
            Tag::SendFailed | Tag::Timer => Some(Store::Word),
            Tag::Start | Tag::Down | Tag::Up => None,
        }
    }
}

/// One of the two places a queued event keeps what it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Store {
    /// The payload slab: a `Deliver`'s source and message, in a slot sized
    /// for the largest message and shared by the legs of a fan-out.
    Payload,
    /// The word store: a `Timer`'s token or a `SendFailed`'s peer, in one
    /// `u64` cell.
    Word,
}

/// Bits of a [`Handle`] that hold its [`Tag`].
const TAG_BITS: u32 = 3;
/// Bits of a [`Handle`] that hold its store index.
const INDEX_BITS: u32 = u32::BITS - TAG_BITS;
/// Store indices a [`Handle`] can name: `0..2^29`.
const INDEX_BOUND: u32 = 1 << INDEX_BITS;

/// What a queue record names: an event's [`Tag`] in the top 3 bits and an
/// index in the low 29. A `Deliver`'s index is its payload slab slot, a
/// `Timer`'s or `SendFailed`'s its word store cell. `Start`, `Down` and
/// `Up` store nothing; their index is their creation band, the one thing
/// the profiler reads back at dispatch ([`BAND_NONE`] when unprofiled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Handle(pub(crate) u32);

impl Handle {
    fn new(tag: Tag, index: u32) -> Self {
        assert!(
            index < INDEX_BOUND,
            "event store index {index} is past the queue handle's 2^29 bound"
        );
        Handle((tag as u32) << INDEX_BITS | index)
    }

    pub(crate) fn tag(self) -> Tag {
        Tag::ALL[(self.0 >> INDEX_BITS) as usize]
    }

    pub(crate) fn index(self) -> u32 {
        self.0 & (INDEX_BOUND - 1)
    }
}

/// One slot of the payload slab. Occupied, it parks a queued delivery's
/// payload while the queue records naming it move through the event queue,
/// and `link` counts those records: the undelivered legs of a fan-out, 1
/// for a lone send. Vacant, `kind` is `None` and `link` is the next vacant
/// slot, so the free list lives in the slots it lists.
struct SlabSlot<M> {
    link: u32,
    kind: Option<EventKind<M>>,
}

/// Bytes one queued delivery's payload occupies in the payload slab — what
/// `state_bytes` multiplies the slab's capacity by.
pub const fn event_slot_bytes<M>() -> usize {
    std::mem::size_of::<SlabSlot<M>>()
}

/// End of a free list.
const NO_SLOT: u32 = u32::MAX;

/// Dense `u64` cells for the events that carry one word, with a LIFO free
/// list threaded through the vacant cells.
struct WordStore {
    cells: Vec<u64>,
    /// Head of the free list; a vacant cell holds the next vacant index.
    vacant: u32,
}

impl WordStore {
    fn with_capacity(cap: usize) -> Self {
        WordStore {
            cells: Vec::with_capacity(cap),
            vacant: NO_SLOT,
        }
    }

    fn insert(&mut self, word: u64) -> u32 {
        let at = self.vacant;
        if at != NO_SLOT {
            let cell = &mut self.cells[at as usize];
            self.vacant = *cell as u32;
            *cell = word;
            return at;
        }
        self.cells.push(word);
        // `Handle::new` bounds it far below `NO_SLOT`.
        (self.cells.len() - 1) as u32
    }

    fn get(&self, at: u32) -> u64 {
        self.cells[at as usize]
    }

    fn take(&mut self, at: u32) -> u64 {
        let cell = &mut self.cells[at as usize];
        let word = *cell;
        *cell = u64::from(self.vacant);
        self.vacant = at;
        word
    }

    /// Cells holding a word right now.
    #[cfg(test)]
    fn live(&self) -> usize {
        let mut vacant = 0;
        let mut at = self.vacant;
        while at != NO_SLOT {
            vacant += 1;
            at = self.cells[at as usize] as u32;
        }
        self.cells.len() - vacant
    }
}

/// The two free-list stores behind queued events: payload slots for
/// deliveries, word cells for timers and failure bounces.
///
/// Freed slots and cells are recycled, most recently freed first, before
/// either backing vector grows, so a simulation whose in-flight event
/// population has peaked stops allocating on the event path altogether.
pub(crate) struct EventSlab<M> {
    slots: Vec<SlabSlot<M>>,
    /// Head of the free list threaded through the vacant slots' `link`s.
    vacant: u32,
    words: WordStore,
}

impl<M> EventSlab<M> {
    fn with_capacity(slots: usize, words: usize) -> Self {
        EventSlab {
            slots: Vec::with_capacity(slots),
            vacant: NO_SLOT,
            words: WordStore::with_capacity(words),
        }
    }

    /// Heap bytes currently reserved by both stores (capacity-based, for
    /// memory accounting in million-node trials).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * event_slot_bytes::<M>()
            + self.words.cells.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of payload slots ever allocated (live plus recycled): the
    /// high-water mark of concurrently parked delivery payloads.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of payload slots holding (or reserved for) a payload right
    /// now.
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

    /// Claims an empty payload slot, to be [`EventSlab::fill`]ed before
    /// anything is dispatched: a fan-out learns how many records name its
    /// slot only after it has pushed them.
    fn reserve(&mut self) -> Handle {
        let slot = self.vacant;
        if slot != NO_SLOT {
            self.vacant = self.slots[slot as usize].link;
            return Handle::new(Tag::Deliver, slot);
        }
        let handle = Handle::new(Tag::Deliver, self.slots.len() as u32);
        self.slots.push(SlabSlot {
            link: NO_SLOT,
            kind: None,
        });
        handle
    }

    /// Parks delivery `kind` in reserved `handle`'s slot on behalf of
    /// `refs` queue records.
    fn fill(&mut self, handle: Handle, refs: u32, kind: EventKind<M>) {
        let cell = &mut self.slots[handle.index() as usize];
        debug_assert!(refs > 0 && cell.kind.is_none() && Tag::of(&kind) == Tag::Deliver);
        *cell = SlabSlot {
            link: refs,
            kind: Some(kind),
        };
    }

    /// Files `kind` in the store its tag names, for one queue record. A
    /// kind that stores nothing keeps `band` in its handle instead.
    fn insert(&mut self, kind: EventKind<M>, band: u8) -> Handle {
        let tag = Tag::of(&kind);
        let index = match kind {
            EventKind::Deliver { .. } => {
                let handle = self.reserve();
                self.fill(handle, 1, kind);
                return handle;
            }
            EventKind::Timer { token } => self.words.insert(token),
            EventKind::SendFailed { peer } => self.words.insert(peer as u64),
            EventKind::Start | EventKind::Down | EventKind::Up => u32::from(band),
        };
        Handle::new(tag, index)
    }

    /// Inspects a queued event without removing it.
    pub(crate) fn peek(&self, handle: Handle) -> EventKind<&M> {
        let (tag, at) = (handle.tag(), handle.index());
        match tag.store() {
            Some(Store::Payload) => match &self.slots[at as usize].kind {
                Some(EventKind::Deliver { src, msg }) => EventKind::Deliver { src: *src, msg },
                _ => panic!("queue entry references an empty slot"),
            },
            Some(Store::Word) => tag.event(self.words.get(at)),
            None => tag.event(0),
        }
    }
}

impl<M: Clone> EventSlab<M> {
    /// The event of one queue record naming `handle`. A payload is moved
    /// out, freeing its slot, for the last record naming it and cloned for
    /// those before it; a word's cell is freed at once.
    pub(crate) fn take(&mut self, handle: Handle) -> EventKind<M> {
        let (tag, at) = (handle.tag(), handle.index());
        match tag.store() {
            Some(Store::Payload) => {
                let cell = &mut self.slots[at as usize];
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
                self.vacant = at;
                kind
            }
            Some(Store::Word) => tag.event(self.words.take(at)),
            None => tag.event(0),
        }
    }
}

/// The message of one `Action::Send` while its destinations are worked
/// through.
struct Fanout<M> {
    /// `None` once the final leg has taken the message by move.
    msg: Option<M>,
    /// Whether the legs may name one slot. Not when the engine is traced
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

/// The event loop: every node's application state, liveness and ledgers,
/// the event queue and its stores, and the statically dispatched trace
/// sink `S`.
pub(crate) struct Engine<A: Application, S> {
    /// Application state, node index order.
    pub(crate) nodes: Vec<A>,
    // Liveness packed one bit per node (1 MB -> 125 KB at a million
    // nodes); see `crate::bitset`.
    pub(crate) alive: BitSet,
    pub(crate) queue: WheelQueue,
    pub(crate) slab: EventSlab<A::Msg>,
    pub(crate) now: SimTime,
    pub(crate) rng: StdRng,
    /// The global creation counter: the tie-break word of the next event.
    seq: u64,
    /// The trace id of the next message sent. Starts at 1 (0 is the "not
    /// traced" sentinel) and only advances when the sink is enabled.
    msg_seq: u64,
    // Causal meta of queued deliveries, parallel to the payload slab's
    // slots (no other kind carries meta). Kept out of `EventKind` so an
    // untraced run's slots stay small; stays empty (never resized) while
    // the engine is untraced.
    meta_slots: Vec<MsgMeta>,
    pub(crate) scratch: Outbox<A::Msg>,
    pub(crate) events_processed: u64,
    pub(crate) dropped_loss: u64,
    pub(crate) dropped_dead: u64,
    pub(crate) traffic: TrafficLedger,
    pub(crate) compute: ComputeLedger,
    pub(crate) sink: S,
    pub(crate) chaos: Option<ChaosInjector>,
    pub(crate) fault_filter: Option<FaultFilter<A::Msg>>,
    // Deterministic engine self-profiling (`obs::prof`), enabled on
    // demand; `None` costs one predictable branch per hot-path site.
    pub(crate) prof: Option<Box<EngineProf>>,
}

impl<A: Application, S: TraceSink> Engine<A, S> {
    /// Builds the engine over `nodes` (node index order) and queues each
    /// node's time-zero `Start`.
    pub(crate) fn new(nodes: Vec<A>, rng: StdRng, sink: S) -> Self {
        let n = nodes.len();
        // The steady-state in-flight event population is a small multiple
        // of the node count (heartbeats, timers, a few messages per node);
        // reserving that up front avoids the early doubling cascade.
        let event_cap = n.saturating_mul(PRESIZE).max(64);
        let mut engine = Engine {
            alive: BitSet::filled(n, true),
            nodes,
            queue: WheelQueue::with_capacity(event_cap),
            slab: EventSlab::with_capacity(event_cap, event_cap),
            now: SimTime::ZERO,
            rng,
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
            compute: ComputeLedger::new(n),
            sink,
            chaos: None,
            fault_filter: None,
            prof: None,
        };
        // Filed directly, unclassified: starts predate any profiler.
        for node in 0..n {
            let key = EventKey {
                time: SimTime::ZERO,
                seq: engine.mint_seq(),
            };
            engine.insert(key, node, EventKind::Start, MsgMeta::NONE, BAND_NONE);
        }
        engine
    }

    /// Turns on engine self-profiling, seeded with the topology's
    /// inter-region delay lower bound as the logical window lookahead.
    pub(crate) fn enable_profiling(&mut self, topology: &Topology) {
        let lookahead = topology
            .min_inter_region_delay()
            .map_or(0, |d| d.as_micros());
        self.prof = Some(Box::new(EngineProf::new(lookahead)));
    }

    /// Heap bytes reserved by the engine's per-node and per-event state:
    /// application states, liveness bits, queue, both event stores, the
    /// causal-meta side table and the traffic and compute ledgers.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<A>()
            + self.alive.heap_bytes()
            + self.queue.heap_bytes()
            + self.slab.heap_bytes()
            + self.meta_slots.capacity() * std::mem::size_of::<MsgMeta>()
            + self.traffic.heap_bytes()
            + self.compute.heap_bytes()
    }

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
    /// queue — the arrival end of [`Engine::schedule`].
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
    pub(crate) fn meta_of(&self, handle: Handle) -> MsgMeta {
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
    /// transitions, failure bounces, and through [`Engine::schedule_leg`]
    /// each destination of a send — lands here. Clamps a past `at` to
    /// `now`, mints the next tie-break key, classifies the wheel band, and
    /// files the event. Returns the key the event was filed under.
    // Inlined at its call sites; `insert` is the one out-of-line call per
    // event.
    #[inline(always)]
    pub(crate) fn schedule(
        &mut self,
        topology: &Topology,
        origin: NodeIdx,
        at: SimTime,
        dst: NodeIdx,
        kind: EventKind<A::Msg>,
        meta: MsgMeta,
    ) -> EventKey {
        let (key, band) = self.stamp(topology, origin, at, dst);
        self.insert(key, dst, kind, meta, band);
        key
    }

    /// The creation-site half of [`Engine::schedule`], shared with
    /// [`Engine::schedule_leg`]: the key and wheel band of the event
    /// `origin` creates for `dst`, asked for at `at`.
    #[inline(always)]
    fn stamp(
        &mut self,
        topology: &Topology,
        origin: NodeIdx,
        at: SimTime,
        dst: NodeIdx,
    ) -> (EventKey, u8) {
        let at = at.max(self.now);
        let seq = self.mint_seq();
        let mut band = BAND_NONE;
        if let Some(p) = self.prof.as_mut() {
            band = p.classify(self.now.as_micros(), at.as_micros());
            let (ra, rb) = (topology.region(origin), topology.region(dst));
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
    #[allow(clippy::too_many_arguments)] // `schedule`'s tuple, by fan-out.
    fn schedule_leg(
        &mut self,
        topology: &Topology,
        src: NodeIdx,
        at: SimTime,
        to: NodeIdx,
        meta: MsgMeta,
        fan: &mut Fanout<A::Msg>,
        last: bool,
    ) {
        let (key, band) = self.stamp(topology, src, at, to);
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

    /// Dispatches every queued event due at or before `bound`, returning
    /// how many ran.
    pub(crate) fn run_before(&mut self, topology: &Topology, bound: SimTime) -> u64 {
        let before = self.events_processed;
        while let Some((key, raw, dst)) = self.queue.pop_before(bound) {
            self.dispatch(topology, key, Handle(raw), dst);
        }
        self.events_processed - before
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

    /// Runs the event popped as `(key, handle, node)` at `key.time`:
    /// advances the clock, emits its trace record, invokes the destination's
    /// callback and applies what the callback asked for.
    pub(crate) fn dispatch(
        &mut self,
        topology: &Topology,
        key: EventKey,
        handle: Handle,
        node: NodeIdx,
    ) {
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
            let mut ctx = Ctx::scoped(self.now, node, &mut out, &mut self.rng, topology);
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
        self.apply_actions(topology, node, &mut out, cause);
        self.scratch = out;
        if let Some(src) = bounce {
            // TCP-RST-like failure bounce back to the sender, originated
            // by the dead destination; it travels one network delay. A
            // direct schedule, not a scratch action.
            let delay = topology.sample_delay(node, src, 64, &mut self.rng);
            let at = self.now + delay;
            let kind = EventKind::SendFailed { peer: node };
            self.schedule(topology, node, at, src, kind, MsgMeta::NONE);
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
        out: &mut Outbox<A::Msg>,
        cause: MsgMeta,
    ) {
        for action in out.actions.drain(..) {
            match action {
                Action::Send { dsts, msg, extra } => {
                    let dsts = &out.dsts[dsts.start as usize..dsts.end as usize];
                    self.fan_out(topology, src, dsts, msg, extra, cause);
                }
                Action::Timer { delay, token } => {
                    let at = self.now + delay;
                    let kind = EventKind::Timer { token };
                    self.schedule(topology, src, at, src, kind, MsgMeta::NONE);
                }
                Action::Compute { kind, amount } => {
                    self.compute.charge(src, kind, amount);
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
        topology: &Topology,
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
                self.schedule_leg(topology, src, at, to, dup_meta, &mut fan, false);
            }
            self.schedule_leg(topology, src, at, to, meta, &mut fan, last);
        }
        if let Some((handle, refs)) = fan.parked {
            let msg = fan.msg.take().expect("a shared slot keeps the message");
            self.slab
                .fill(handle, refs, EventKind::Deliver { src, msg });
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
    use crate::obs::prof::BAND_FAR;
    use proptest::prelude::*;

    fn deliver(src: NodeIdx, msg: u64) -> EventKind<u64> {
        EventKind::Deliver { src, msg }
    }

    #[test]
    fn shared_slot_is_freed_by_its_last_record() {
        let mut slab: EventSlab<String> = EventSlab::with_capacity(4, 4);
        let handle = slab.reserve();
        let kind = EventKind::Deliver {
            src: 3,
            msg: "hello".to_string(),
        };
        slab.fill(handle, 3, kind);
        for left in [1, 1, 0] {
            match slab.take(handle) {
                EventKind::Deliver { src: 3, msg } => assert_eq!(msg, "hello"),
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(slab.live(), left);
        }
        // A timer takes a word, not the freed slot; the next delivery does.
        let timer = slab.insert(EventKind::Timer { token: 9 }, BAND_NONE);
        assert_eq!((timer.tag(), timer.index()), (Tag::Timer, 0));
        let kind = EventKind::Deliver {
            src: 1,
            msg: "again".to_string(),
        };
        assert_eq!(slab.insert(kind, BAND_NONE), handle);
        assert_eq!(slab.take(timer), EventKind::Timer { token: 9 });
        assert_eq!((slab.live(), slab.slots()), (1, 1));
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab: EventSlab<u64> = EventSlab::with_capacity(4, 4);
        let slots: Vec<Handle> = (0..4)
            .map(|t| slab.insert(deliver(0, t), BAND_NONE))
            .collect();
        for &s in &[slots[1], slots[3], slots[0]] {
            slab.take(s);
        }
        assert_eq!(slab.live(), 1);
        let reused: Vec<u32> = (0..4)
            .map(|t| slab.insert(deliver(0, t), BAND_NONE).index())
            .collect();
        assert_eq!(reused, [0, 3, 1, 4]);
        assert_eq!((slab.live(), slab.slots()), (5, 5));
    }

    #[test]
    fn word_store_reuses_freed_cells_last_in_first_out() {
        let mut slab: EventSlab<u64> = EventSlab::with_capacity(0, 0);
        let cells: Vec<Handle> = (0..4)
            .map(|t| slab.insert(EventKind::Timer { token: t }, BAND_NONE))
            .collect();
        assert_eq!(
            cells.iter().map(|h| h.index()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        for &c in &[cells[1], cells[3], cells[0]] {
            slab.take(c);
        }
        assert_eq!(slab.words.live(), 1);
        // Timers and failure bounces share the cells, most recent first.
        let reused = [
            slab.insert(EventKind::SendFailed { peer: 5 }, BAND_NONE),
            slab.insert(EventKind::Timer { token: u64::MAX }, BAND_NONE),
            slab.insert(EventKind::Timer { token: 7 }, BAND_NONE),
            slab.insert(EventKind::SendFailed { peer: 6 }, BAND_NONE),
        ];
        let at: Vec<u32> = reused.iter().map(|h| h.index()).collect();
        assert_eq!(at, [0, 3, 1, 4]);
        assert_eq!(slab.peek(reused[1]), EventKind::Timer { token: u64::MAX });
        assert_eq!(slab.take(reused[0]), EventKind::SendFailed { peer: 5 });
        assert_eq!(slab.take(cells[2]), EventKind::Timer { token: 2 });
        assert_eq!((slab.words.live(), slab.words.cells.len()), (3, 5));
        // No payload slot was touched.
        assert_eq!(slab.slots(), 0);
    }

    #[test]
    fn every_kind_survives_a_tag_round_trip() {
        for tag in Tag::ALL {
            for index in [0, 1, 0x00AB_CDEF, INDEX_BOUND - 1] {
                let handle = Handle::new(tag, index);
                assert_eq!((handle.tag(), handle.index()), (tag, index));
            }
        }
        let kinds = [
            EventKind::Start,
            deliver(4, u64::MAX),
            EventKind::SendFailed { peer: 1 << 40 },
            EventKind::Timer { token: u64::MAX },
            EventKind::Down,
            EventKind::Up,
        ];
        let mut slab: EventSlab<u64> = EventSlab::with_capacity(1, 1);
        for (kind, tag) in kinds.into_iter().zip(Tag::ALL) {
            assert_eq!(Tag::of(&kind), tag);
            let handle = slab.insert(kind.clone(), BAND_FAR);
            assert_eq!(handle.tag(), tag);
            if tag.store().is_none() {
                assert_eq!(handle.index(), u32::from(BAND_FAR));
            }
            assert_eq!(slab.peek(handle), as_ref(&kind));
            assert_eq!(slab.take(handle), kind);
        }
        assert_eq!((slab.live(), slab.words.live()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "past the queue handle's 2^29 bound")]
    fn an_index_past_the_bound_panics() {
        Handle::new(Tag::Timer, INDEX_BOUND);
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

    fn as_ref<M>(kind: &EventKind<M>) -> EventKind<&M> {
        match kind {
            EventKind::Start => EventKind::Start,
            EventKind::Deliver { src, msg } => EventKind::Deliver { src: *src, msg },
            EventKind::SendFailed { peer } => EventKind::SendFailed { peer: *peer },
            EventKind::Timer { token } => EventKind::Timer { token: *token },
            EventKind::Down => EventKind::Down,
            EventKind::Up => EventKind::Up,
        }
    }

    proptest! {
        /// Both stores behind the queue handles, against a plain table of
        /// the events each queue record should read back: lone events of
        /// every kind, fan-outs whose legs share one payload slot, and
        /// takes in random order. Both stores' high-water marks must equal
        /// the most events they ever held at once, which LIFO reuse gives.
        #[test]
        #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
        fn slab_and_word_store_match_an_oracle(
            ops in prop::collection::vec((0u8..8, any::<u64>(), 1u32..6), 1..400),
        ) {
            let mut slab: EventSlab<u64> = EventSlab::with_capacity(2, 2);
            // The oracle: record id -> the event it reads back.
            let mut oracle: Vec<Option<EventKind<u64>>> = Vec::new();
            // Queued records as (handle, record id).
            let mut queued: Vec<(Handle, usize)> = Vec::new();
            // Records still naming each payload slot, and the peaks.
            let mut legs = std::collections::BTreeMap::<u32, u32>::new();
            let (mut words, mut peak_slots, mut peak_words) = (0usize, 0, 0);
            for &(op, a, k) in &ops {
                let fresh = match op {
                    0 => Some(EventKind::Timer { token: a }),
                    1 => Some(EventKind::SendFailed { peer: a as NodeIdx }),
                    2 => {
                        let units = [EventKind::Start, EventKind::Down, EventKind::Up];
                        Some(units[a as usize % 3].clone())
                    }
                    3 => Some(deliver(a as NodeIdx % 7, a)),
                    4 => {
                        // A fan-out of `k` legs: reserve, push, then fill.
                        let handle = slab.reserve();
                        prop_assert!(!legs.contains_key(&handle.index()));
                        for _ in 0..k {
                            queued.push((handle, oracle.len()));
                            oracle.push(Some(deliver(1, a)));
                        }
                        slab.fill(handle, k, deliver(1, a));
                        legs.insert(handle.index(), k);
                        None
                    }
                    _ => {
                        if !queued.is_empty() {
                            let (handle, id) = queued.swap_remove(a as usize % queued.len());
                            let want = oracle[id].take().expect("each record is read once");
                            prop_assert_eq!(slab.peek(handle), as_ref(&want));
                            prop_assert_eq!(slab.take(handle), want);
                            match handle.tag().store() {
                                Some(Store::Payload) => {
                                    let left = legs.get_mut(&handle.index()).expect("live slot");
                                    *left -= 1;
                                    if *left == 0 {
                                        legs.remove(&handle.index());
                                    }
                                }
                                Some(Store::Word) => words -= 1,
                                None => {}
                            }
                        }
                        None
                    }
                };
                if let Some(kind) = fresh {
                    let band = (a >> 8) as u8 & 3;
                    let handle = slab.insert(kind.clone(), band);
                    prop_assert_eq!(handle.tag(), Tag::of(&kind));
                    match handle.tag().store() {
                        Some(Store::Payload) => {
                            prop_assert!(legs.insert(handle.index(), 1).is_none());
                        }
                        Some(Store::Word) => words += 1,
                        None => prop_assert_eq!(handle.index(), u32::from(band)),
                    }
                    queued.push((handle, oracle.len()));
                    oracle.push(Some(kind));
                }
                peak_slots = peak_slots.max(legs.len());
                peak_words = peak_words.max(words);
                prop_assert_eq!((slab.live(), slab.words.live()), (legs.len(), words));
            }
            prop_assert_eq!((slab.slots(), slab.words.cells.len()), (peak_slots, peak_words));
            for (handle, id) in queued.drain(..).rev() {
                let want = oracle[id].take().expect("each record is read once");
                prop_assert_eq!(slab.take(handle), want);
            }
            prop_assert_eq!((slab.live(), slab.words.live()), (0, 0));
        }
    }
}
