//! The event representation: what a queued event is, and where it keeps
//! what it carries until the simulator dispatches it.
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
//!   the simulator's `dispatch` matches on.
//! * Armed timers are most of what waits in the queue — semi-synchronous
//!   aggregation keeps a straggler cutoff per (app, round) on every
//!   interior node — so keeping them out of message-sized slots is what
//!   holds the slab to the messages actually in flight.
//! * The queue record is the delivery, the slab slot the payload: a
//!   message sent to `k` nodes
//!   ([`Ctx::send_all`](crate::sim::Ctx::send_all)) is `k` records naming
//!   one reference-counted slot, so a keep-alive fan-out is parked once
//!   and read from cache `k` times (DESIGN.md §8, *park once, deliver
//!   many*).

use crate::topology::NodeIdx;

/// An event in register form: what the simulator's `dispatch` matches on. A
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
    pub(crate) fn store(self) -> Option<Store> {
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
/// the profiler reads back at dispatch
/// ([`BAND_NONE`](crate::obs::prof::BAND_NONE) when unprofiled).
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
    pub(crate) fn with_capacity(slots: usize, words: usize) -> Self {
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
    pub(crate) fn reserve(&mut self) -> Handle {
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
    pub(crate) fn fill(&mut self, handle: Handle, refs: u32, kind: EventKind<M>) {
        let cell = &mut self.slots[handle.index() as usize];
        debug_assert!(refs > 0 && cell.kind.is_none() && Tag::of(&kind) == Tag::Deliver);
        *cell = SlabSlot {
            link: refs,
            kind: Some(kind),
        };
    }

    /// Files `kind` in the store its tag names, for one queue record. A
    /// kind that stores nothing keeps `band` in its handle instead.
    pub(crate) fn insert(&mut self, kind: EventKind<M>, band: u8) -> Handle {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::prof::{BAND_FAR, BAND_NONE};
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
