//! The simulator's pluggable event-queue API.
//!
//! Every pending event is identified by an [`EventKey`] — the `(time, seq)`
//! pair that the determinism contract pins as the *total* dispatch order —
//! plus the `u32` slot of its payload in the simulator's event slab and the
//! node it is bound for. An [`EventQueue`] stores `(key, slot, dst)`
//! records and yields them in ascending key order; the simulator never
//! touches the queue's internals, so the implementation can be swapped
//! without perturbing a single golden byte.
//!
//! The record *is* the delivery: the destination lives here, not in the
//! slab, so the legs of one fan-out are `k` records naming one slot, and
//! the slab parks their common payload once (DESIGN.md §8, *park once,
//! deliver many*). The destination is stored in the four bytes that used
//! to pad `(key, slot)` to 24, so the record did not grow; both simulators
//! check at construction that every node index fits
//! ([`check_node_count`]).
//!
//! Two implementations ship behind the API:
//!
//! * [`HeapQueue`] — the slab-indexed `BinaryHeap` that powered the
//!   simulator through PR 2–6. `O(log n)` push/pop with small fixed-size
//!   sift records; kept as the reference implementation and the
//!   differential-testing oracle.
//! * [`WheelQueue`] — a hierarchical timer wheel for the near-horizon band
//!   with a heap spill for far-future events. Pushes into the wheel window
//!   are `O(1)` bucket appends; due buckets are drained with one contiguous
//!   sort instead of per-event heap sifts, which is what lifts timer-heavy
//!   workloads (every node ticking maintenance) off the heap bottleneck.
//!   Buckets are lists of fixed chunks drawn from one shared pool, so the
//!   wheel holds what is in flight, not every bucket's high-water mark.
//!
//! The two must agree **exactly**: for any interleaving of pushes and pops,
//! both yield the same `(key, slot, dst)` sequence. `tests/queue_equiv.rs`
//! replays random schedules through both and asserts just that, and the
//! `simcore` benchmark times them head to head (`timer_storm` vs
//! `timer_storm_heap`). The trait is sealed: queue behaviour is part of the
//! determinism contract, so implementations live here, next to the proofs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;
use crate::topology::NodeIdx;

/// The total-order key of one queued event: primary `time`, tie-broken by
/// the simulator's monotone sequence number. `seq` is unique per simulator,
/// so two keys never compare equal and the order is total.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Absolute due time.
    pub time: SimTime,
    /// Monotone enqueue sequence number (ties dispatch FIFO-by-enqueue).
    pub seq: u64,
}

impl EventKey {
    /// The key packed into one `u128` whose integer order equals the
    /// derived lexicographic `(time, seq)` order — a single branchless
    /// compare for the drain-buffer sort.
    #[inline]
    fn packed(self) -> u128 {
        (u128::from(self.time.as_micros()) << 64) | u128::from(self.seq)
    }
}

/// A `(key, slot, dst)` record ordered by key only — `slot` is storage and
/// `dst` is cargo, not identity. 24 bytes: `dst` fills what was padding.
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: EventKey,
    slot: u32,
    dst: u32,
}

impl Entry {
    /// What fills a freshly allocated bucket chunk before it is written.
    const VACANT: Entry = Entry {
        key: EventKey {
            time: SimTime::ZERO,
            seq: 0,
        },
        slot: 0,
        dst: 0,
    };

    #[inline]
    fn new(key: EventKey, slot: u32, dst: NodeIdx) -> Self {
        debug_assert!(u32::try_from(dst).is_ok(), "see check_node_count");
        Entry {
            key,
            slot,
            dst: dst as u32,
        }
    }

    #[inline]
    fn unpack(self) -> Queued {
        (self.key, self.slot, self.dst as NodeIdx)
    }

    /// What [`EventQueue::remove`] hands back: everything but the key.
    fn cargo(self) -> (u32, NodeIdx) {
        (self.slot, self.dst as NodeIdx)
    }
}

/// One queued event as the queue hands it back: its key, its payload's
/// slab slot, and its destination node.
pub type Queued = (EventKey, u32, NodeIdx);

/// Panics unless every index of an `n`-node topology fits the queue
/// record's 32-bit destination field. Both simulators call this once at
/// construction, which is what lets [`EventQueue::push`] narrow without a
/// per-event check.
pub(crate) fn check_node_count(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "topology has {n} nodes; the event queue addresses at most {} (u32::MAX)",
        u32::MAX
    );
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

mod sealed {
    /// Seals [`super::EventQueue`]: the queue order is part of the
    /// determinism contract, so implementations must live in this module
    /// tree where the differential tests can see them.
    pub trait Sealed {}
    impl Sealed for super::HeapQueue {}
    impl Sealed for super::WheelQueue {}
}

/// Priority queue of `(EventKey, slot, dst)` records, popped in ascending
/// key order.
///
/// `peek`/`pop`/`pop_before` take `&mut self` deliberately: lazily-ordered
/// implementations (the timer wheel) normalize their head on observation.
/// The trait is sealed — see the module docs.
pub trait EventQueue: sealed::Sealed {
    /// Short stable name for benchmark labels and reports.
    const NAME: &'static str;

    /// Creates a queue sized for roughly `cap` concurrently pending events.
    fn with_capacity(cap: usize) -> Self;

    /// Enqueues `slot`, bound for node `dst`, under `key`. Keys may arrive
    /// in any order, but a pushed key is never smaller than the last popped
    /// key (the simulator clamps event times to `now`); implementations may
    /// rely on that. `dst` must fit in 32 bits.
    fn push(&mut self, key: EventKey, slot: u32, dst: NodeIdx);

    /// The record with the smallest queued key, without removing it.
    fn peek(&mut self) -> Option<Queued>;

    /// Removes and returns the record with the smallest queued key.
    fn pop(&mut self) -> Option<Queued>;

    /// Pops the head only if it is due at or before `deadline` — the
    /// deadline-bounded analogue of [`EventQueue::pop`], one observation
    /// deciding and popping.
    fn pop_before(&mut self, deadline: SimTime) -> Option<Queued> {
        match self.peek() {
            Some((key, ..)) if key.time <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Number of queued events.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every queued record in ascending key order, without removing
    /// anything. `O(n log n)` — an exploration hook for the bounded model
    /// checker, never called on the hot dispatch path.
    fn snapshot(&mut self) -> Vec<Queued>;

    /// Removes the record queued under exactly `key` (keys are unique —
    /// `seq` is a per-simulator monotone counter) and returns its slot and
    /// destination. `O(n)` worst case; exploration hook only.
    fn remove(&mut self, key: EventKey) -> Option<(u32, NodeIdx)>;
}

// ------------------------------------------------------------------ heap --

/// The reference queue: a `BinaryHeap` of 24-byte `(key, slot, dst)` records.
///
/// This is byte-for-byte the pre-API scheduler (PR 2): heap sifts move
/// small fixed-size records while payloads stay parked in the slab. It
/// remains the differential-testing oracle and the spill store inside
/// [`WheelQueue`].
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl EventQueue for HeapQueue {
    const NAME: &'static str = "heap";

    fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
        }
    }

    #[inline]
    fn push(&mut self, key: EventKey, slot: u32, dst: NodeIdx) {
        self.heap.push(Reverse(Entry::new(key, slot, dst)));
    }

    #[inline]
    fn peek(&mut self) -> Option<Queued> {
        self.heap.peek().map(|Reverse(e)| e.unpack())
    }

    #[inline]
    fn pop(&mut self) -> Option<Queued> {
        self.heap.pop().map(|Reverse(e)| e.unpack())
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn snapshot(&mut self) -> Vec<Queued> {
        let mut out: Vec<Queued> = self.heap.iter().map(|Reverse(e)| e.unpack()).collect();
        out.sort_unstable_by_key(|(k, ..)| k.packed());
        out
    }

    fn remove(&mut self, key: EventKey) -> Option<(u32, NodeIdx)> {
        remove_from_heap(&mut self.heap, key)
    }
}

/// Removes the entry keyed `key` from a binary heap of entries, returning
/// its slot and destination.
fn remove_from_heap(
    heap: &mut BinaryHeap<Reverse<Entry>>,
    key: EventKey,
) -> Option<(u32, NodeIdx)> {
    let mut found = None;
    heap.retain(|Reverse(e)| {
        if e.key == key {
            found = Some(e.cargo());
            false
        } else {
            true
        }
    });
    found
}

// ----------------------------------------------------------------- wheel --

/// Bucket granularity: each wheel slot covers `2^GRANULARITY_SHIFT` µs.
/// 64 µs is well under the smallest modelled network delay, so same-bucket
/// events are few and the per-bucket ordering sort stays tiny.
const GRANULARITY_SHIFT: u32 = 6;
/// Number of wheel slots (power of two). With 64 µs buckets the wheel
/// window spans ~65 ms — wider than every hop delay in the evaluation
/// topologies, so steady-state message traffic never touches the spill
/// heap; only long maintenance timers do.
const NUM_SLOTS: usize = 1 << 10;
/// Words in the bucket-occupancy bitmap.
const OCC_WORDS: usize = NUM_SLOTS / 64;
/// Entries per bucket chunk: 64 × 24 B = 1.5 KiB.
const CHUNK: usize = 64;
/// End of a chunk list.
const NIL: u32 = u32::MAX;

/// Wheel bucket granularity, re-exported for model-level profiling
/// ([`crate::obs::prof`]): each slot covers `2^WHEEL_GRANULARITY_SHIFT` µs.
pub const WHEEL_GRANULARITY_SHIFT: u32 = GRANULARITY_SHIFT;
/// Wheel window span in slots, re-exported for model-level profiling
/// ([`crate::obs::prof`]).
pub const WHEEL_NUM_SLOTS: usize = NUM_SLOTS;

/// Hierarchical timer wheel with a heap spill for the far future.
///
/// # Geometry
///
/// Absolute time is quantized into *ticks* of `2^6 = 64` µs. The wheel
/// holds the next [`NUM_SLOTS`] ticks starting at `base_tick` (the rotating
/// window), one bucket per tick, with slot index `tick % NUM_SLOTS`;
/// because the window is exactly `NUM_SLOTS` ticks long, a slot never holds
/// two ticks at once. Events due beyond the window spill to an overflow
/// [`HeapQueue`]-style binary heap and migrate into the wheel as the window
/// advances past their tick.
///
/// # Memory
///
/// A bucket is a list of fixed [`CHUNK`]-entry chunks drawn from one pool
/// shared by all slots, and a drained bucket gives its chunks straight
/// back. The wheel therefore holds the peak number of records in flight
/// plus at most one partial chunk per occupied slot — not, as one `Vec`
/// per slot would, every slot's largest bucket ever — and once that peak
/// has been reached a run allocates nothing.
///
/// # Ordering
///
/// Within a bucket, entries are appended in arrival order, which is *not*
/// `(time, seq)` order (a bucket spans 64 µs, and overflow migration can
/// interleave with direct pushes). Ordering is restored at drain time: the
/// due bucket is copied into the persistent `drain` buffer and sorted once
/// by `(time, seq)` — a contiguous `sort_unstable` over unique keys, which
/// is deterministic. Pops then walk the sorted buffer. Late pushes whose
/// tick already drained (a callback scheduling at the current instant) go
/// to a small `late` heap; the head is the smaller of the two heads, and
/// both sit below every bucketed key, so the total order holds. The
/// differential proptests in `tests/queue_equiv.rs` hold this equal to
/// [`HeapQueue`] on random schedules.
pub struct WheelQueue {
    /// One bucket per wheel slot; `buckets[tick % NUM_SLOTS]`.
    buckets: Vec<Bucket>,
    /// The chunks every bucket's entries live in.
    pool: ChunkPool,
    /// Occupancy bitmap over `buckets`, so advancing over empty buckets is
    /// a word scan, not a walk over bucket lengths.
    occ: [u64; OCC_WORDS],
    /// First tick of the current wheel window. Every bucketed entry has
    /// tick in `[base_tick, base_tick + NUM_SLOTS)`; every drained or late
    /// entry has tick `< base_tick`.
    base_tick: u64,
    /// The sorted drain buffer; live entries are `drain[drain_pos..]`.
    drain: Vec<Entry>,
    /// Cursor into `drain` (everything before it was popped).
    drain_pos: usize,
    /// Late pushes: entries whose tick had already drained when they
    /// arrived, ordered by key.
    late: BinaryHeap<Reverse<Entry>>,
    /// Events with tick at or beyond the window end, ordered by key.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Entries currently resident in wheel buckets.
    wheel_len: usize,
    /// Total entries (buckets + drain tail + late + overflow).
    len: usize,
}

/// One wheel slot's entries: a list of pool chunks, every one full but
/// the tail.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    len: usize,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// Fixed-size entry chunks shared by every bucket. `next` links a chunk to
/// the next one in its bucket, or — for a free chunk — in the free list.
/// A bucket's tail link is never followed: walks stop at the bucket's
/// `len`.
struct ChunkPool {
    chunks: Vec<[Entry; CHUNK]>,
    next: Vec<u32>,
    /// Head of the free list.
    free: u32,
}

impl ChunkPool {
    /// Appends `e` to bucket `b`, taking a chunk from the free list (or a
    /// new one) when the tail is full.
    #[inline]
    fn push(&mut self, b: &mut Bucket, e: Entry) {
        let at = b.len % CHUNK;
        if at == 0 {
            let c = self.alloc();
            if b.len == 0 {
                b.head = c;
            } else {
                self.next[b.tail as usize] = c;
            }
            b.tail = c;
        }
        self.chunks[b.tail as usize][at] = e;
        b.len += 1;
    }

    fn alloc(&mut self) -> u32 {
        let c = self.free;
        if c != NIL {
            self.free = self.next[c as usize];
            return c;
        }
        let c = u32::try_from(self.chunks.len())
            .ok()
            .filter(|&c| c != NIL)
            .expect("more than u32::MAX wheel chunks");
        self.chunks.push([Entry::VACANT; CHUNK]);
        self.next.push(NIL);
        c
    }

    /// The entries of bucket `b`, one chunk slice at a time, in arrival
    /// order.
    fn slices(&self, b: Bucket) -> impl Iterator<Item = &[Entry]> + '_ {
        let (mut c, mut left) = (b.head, b.len);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let n = left.min(CHUNK);
            let chunk = &self.chunks[c as usize][..n];
            left -= n;
            c = self.next[c as usize];
            Some(chunk)
        })
    }

    /// Appends bucket `b`'s entries to `out` and returns its chunks to the
    /// free list, most recently used first.
    fn take(&mut self, b: Bucket, out: &mut Vec<Entry>) {
        if b.len == 0 {
            return;
        }
        for chunk in self.slices(b) {
            out.extend_from_slice(chunk);
        }
        self.next[b.tail as usize] = self.free;
        self.free = b.head;
    }

    fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<[Entry; CHUNK]>()
            + self.next.capacity() * std::mem::size_of::<u32>()
    }
}

#[inline]
fn tick_of(time: SimTime) -> u64 {
    time.as_micros() >> GRANULARITY_SHIFT
}

impl WheelQueue {
    /// Heap bytes currently reserved by the wheel (bucket headers, chunk
    /// pool, drain buffer, late and overflow heaps) — memory accounting for
    /// million-node trials.
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<Entry>();
        self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + self.pool.heap_bytes()
            + self.drain.capacity() * entry
            + self.late.capacity() * entry
            + self.overflow.capacity() * entry
    }

    /// End of the wheel window (exclusive), in ticks.
    #[inline]
    fn window_end(&self) -> u64 {
        self.base_tick.saturating_add(NUM_SLOTS as u64)
    }

    /// Pulls overflow events whose tick has entered the window into their
    /// buckets. Called whenever `base_tick` advances.
    fn migrate_overflow(&mut self) {
        let end = self.window_end();
        while let Some(Reverse(head)) = self.overflow.peek() {
            if tick_of(head.key.time) >= end {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked overflow head vanished");
            self.bucket_push(e);
        }
    }

    /// Appends an in-window entry to its bucket and marks it occupied.
    #[inline]
    fn bucket_push(&mut self, e: Entry) {
        let idx = (tick_of(e.key.time) % NUM_SLOTS as u64) as usize;
        self.pool.push(&mut self.buckets[idx], e);
        self.occ[idx / 64] |= 1u64 << (idx % 64);
        self.wheel_len += 1;
    }

    /// Empties bucket `idx` onto `out`, returning its chunks to the pool.
    fn bucket_take(&mut self, idx: usize, out: &mut Vec<Entry>) {
        let b = std::mem::replace(&mut self.buckets[idx], Bucket::EMPTY);
        self.pool.take(b, out);
        self.occ[idx / 64] &= !(1u64 << (idx % 64));
        self.wheel_len -= b.len;
    }

    /// The smallest occupied tick in the window, or `None` if the wheel is
    /// empty. A cyclic bitmap scan starting at `base_tick`'s slot: the slot
    /// at cyclic distance `d` holds tick `base_tick + d`.
    fn next_occupied_tick(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.base_tick % NUM_SLOTS as u64) as usize;
        let (w0, b0) = (start / 64, start % 64);
        for k in 0..=OCC_WORDS {
            let w = (w0 + k) % OCC_WORDS;
            let mut word = self.occ[w];
            if k == 0 {
                word &= !0u64 << b0;
            } else if k == OCC_WORDS {
                // Wrapped fully around: only the bits before `b0` in the
                // start word remain unseen.
                word &= !(!0u64 << b0);
            }
            if word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                let dist = (idx + NUM_SLOTS - start) % NUM_SLOTS;
                return Some(self.base_tick + dist as u64);
            }
        }
        None
    }

    /// Ensures the head of the queue (if any) is `drain[drain_pos]` or the
    /// late heap's head: when both are empty, refills the drain buffer from
    /// the next due bucket, advancing the window and migrating overflow as
    /// needed.
    fn settle(&mut self) {
        loop {
            if self.drain_pos < self.drain.len() || !self.late.is_empty() {
                return;
            }
            self.drain.clear();
            self.drain_pos = 0;
            if self.len == 0 {
                return;
            }
            if self.wheel_len == 0 {
                // Nothing in-window: jump the window to the overflow head's
                // tick and migrate. `base_tick` only moves forward — the
                // head is at or beyond the old window end.
                let head_tick = {
                    let Reverse(head) = self.overflow.peek().expect("len > 0 with empty wheel");
                    tick_of(head.key.time)
                };
                self.base_tick = self.base_tick.max(head_tick);
                self.migrate_overflow();
                debug_assert!(self.wheel_len > 0);
                continue;
            }
            let due = self.next_occupied_tick().expect("wheel_len > 0");
            let idx = (due % NUM_SLOTS as u64) as usize;
            // Copy the bucket into the (empty) drain buffer, whose capacity
            // persists; the bucket's chunks go back to the pool.
            let mut drain = std::mem::take(&mut self.drain);
            self.bucket_take(idx, &mut drain);
            drain.sort_unstable_by_key(|e| e.key.packed());
            self.drain = drain;
            // Advance past the drained tick: later pushes for it are "late"
            // and go to the late heap instead.
            self.base_tick = due + 1;
            self.migrate_overflow();
            debug_assert!(!self.drain.is_empty());
            return;
        }
    }

    /// The head after [`Self::settle`], and whether it is the late heap's.
    /// Late and drained entries are all below `base_tick`, so the smaller
    /// of the two heads is the queue's.
    #[inline]
    fn head(&self) -> Option<(Entry, bool)> {
        let drained = self.drain.get(self.drain_pos).copied();
        match self.late.peek() {
            None => drained.map(|e| (e, false)),
            Some(&Reverse(l)) => match drained {
                Some(d) if d.key < l.key => Some((d, false)),
                _ => Some((l, true)),
            },
        }
    }

    /// Removes the head that [`Self::head`] reported.
    #[inline]
    fn advance(&mut self, late: bool) {
        if late {
            self.late.pop();
        } else {
            self.drain_pos += 1;
        }
        self.len -= 1;
    }
}

impl EventQueue for WheelQueue {
    const NAME: &'static str = "timer_wheel";

    fn with_capacity(cap: usize) -> Self {
        WheelQueue {
            buckets: vec![Bucket::EMPTY; NUM_SLOTS],
            pool: ChunkPool {
                chunks: Vec::new(),
                next: Vec::new(),
                free: NIL,
            },
            occ: [0; OCC_WORDS],
            base_tick: 0,
            drain: Vec::new(),
            drain_pos: 0,
            late: BinaryHeap::new(),
            overflow: BinaryHeap::with_capacity(cap.min(1 << 16)),
            wheel_len: 0,
            len: 0,
        }
    }

    fn push(&mut self, key: EventKey, slot: u32, dst: NodeIdx) {
        let e = Entry::new(key, slot, dst);
        self.len += 1;
        let tick = tick_of(key.time);
        if tick < self.base_tick {
            // Late push into an already-drained tick (e.g. a callback
            // scheduling work at the current instant).
            self.late.push(Reverse(e));
        } else if tick < self.window_end() {
            self.bucket_push(e);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    fn peek(&mut self) -> Option<Queued> {
        self.settle();
        self.head().map(|(e, _)| e.unpack())
    }

    fn pop(&mut self) -> Option<Queued> {
        self.settle();
        let (e, late) = self.head()?;
        self.advance(late);
        Some(e.unpack())
    }

    // Overrides the peek-then-pop default so the dispatch loop settles the
    // drain buffer once per event instead of twice.
    fn pop_before(&mut self, deadline: SimTime) -> Option<Queued> {
        self.settle();
        let (e, late) = self.head()?;
        if e.key.time > deadline {
            return None;
        }
        self.advance(late);
        Some(e.unpack())
    }

    fn len(&self) -> usize {
        self.len
    }

    fn snapshot(&mut self) -> Vec<Queued> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.drain[self.drain_pos..].iter().map(|e| e.unpack()));
        out.extend(self.late.iter().map(|Reverse(e)| e.unpack()));
        for &b in &self.buckets {
            for chunk in self.pool.slices(b) {
                out.extend(chunk.iter().map(|e| e.unpack()));
            }
        }
        out.extend(self.overflow.iter().map(|Reverse(e)| e.unpack()));
        out.sort_unstable_by_key(|(k, ..)| k.packed());
        out
    }

    fn remove(&mut self, key: EventKey) -> Option<(u32, NodeIdx)> {
        // The bands are disjoint by tick: drained and late entries sit
        // below `base_tick`, bucketed entries inside the window, spilled
        // entries at or beyond its end — so only one band is probed.
        let tick = tick_of(key.time);
        let found = if tick < self.base_tick {
            // The drain tail is sorted by key: binary search it first.
            let tail = &self.drain[self.drain_pos..];
            match tail.binary_search_by(|e| e.key.cmp(&key)) {
                Ok(i) => Some(self.drain.remove(self.drain_pos + i).cargo()),
                Err(_) => remove_from_heap(&mut self.late, key),
            }
        } else if tick < self.window_end() {
            // Empty the bucket and re-file all but `key`: arrival order
            // within a bucket is not observable.
            let idx = (tick % NUM_SLOTS as u64) as usize;
            let mut entries = Vec::new();
            self.bucket_take(idx, &mut entries);
            let pos = entries.iter().position(|e| e.key == key);
            let found = pos.map(|p| entries.remove(p).cargo());
            for e in entries {
                self.bucket_push(e);
            }
            found
        } else {
            remove_from_heap(&mut self.overflow, key)
        };
        if found.is_some() {
            self.len -= 1;
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(us: u64, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_micros(us),
            seq,
        }
    }

    /// The destination the tests file slot `slot` under: distinct per slot,
    /// so a record that came back with another record's cargo shows.
    fn dst_of(slot: u32) -> NodeIdx {
        slot as NodeIdx * 7 + 1
    }

    /// Pops everything from a queue, returning the record sequence.
    fn drain_all<Q: EventQueue>(q: &mut Q) -> Vec<Queued> {
        let mut out = Vec::new();
        while let Some(kv) = q.pop() {
            out.push(kv);
        }
        out
    }

    fn both_agree(pushes: &[(u64, u64, u32)]) {
        let mut heap = HeapQueue::with_capacity(8);
        let mut wheel = WheelQueue::with_capacity(8);
        for &(us, seq, slot) in pushes {
            heap.push(key(us, seq), slot, dst_of(slot));
            wheel.push(key(us, seq), slot, dst_of(slot));
        }
        assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    #[test]
    fn orders_by_time_then_seq() {
        both_agree(&[
            (500, 3, 0),
            (100, 4, 1),
            (100, 2, 2),
            (500, 1, 3),
            (0, 9, 4),
        ]);
    }

    #[test]
    fn same_bucket_orders_by_key_not_arrival() {
        // All five land in the same 64 µs bucket, pushed out of order.
        both_agree(&[(40, 5, 0), (10, 3, 1), (63, 1, 2), (10, 2, 3), (0, 7, 4)]);
    }

    #[test]
    fn far_future_spills_and_returns() {
        // Beyond the 65 ms window: must route through the overflow heap and
        // come back in order as the window advances.
        let span = (NUM_SLOTS as u64) << GRANULARITY_SHIFT;
        both_agree(&[
            (10 * span, 1, 0),
            (100, 2, 1),
            (3 * span + 17, 3, 2),
            (3 * span + 17, 4, 5),
            (span - 1, 5, 3),
            (span, 6, 4),
        ]);
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut wheel = WheelQueue::with_capacity(4);
        wheel.push(key(100, 0), 0, dst_of(0));
        wheel.push(key(200, 1), 1, dst_of(1));
        assert_eq!(wheel.pop_before(SimTime::from_micros(50)), None);
        assert_eq!(
            wheel.pop_before(SimTime::from_micros(100)),
            Some((key(100, 0), 0, dst_of(0)))
        );
        assert_eq!(wheel.pop_before(SimTime::from_micros(150)), None);
        assert_eq!(wheel.len(), 1);
        assert_eq!(
            wheel.pop_before(SimTime::MAX),
            Some((key(200, 1), 1, dst_of(1)))
        );
        assert!(wheel.is_empty());
    }

    #[test]
    fn late_push_lands_in_drained_bucket_order() {
        let mut heap = HeapQueue::with_capacity(4);
        let mut wheel = WheelQueue::with_capacity(4);
        for q in [&mut wheel as &mut dyn FnPush, &mut heap] {
            q.do_push(key(10, 0), 0);
            q.do_push(key(40, 1), 1);
        }
        // Pop the first event, then push into the same (now drained) bucket
        // at a time between the two — the late-heap path.
        assert_eq!(heap.pop(), wheel.pop());
        heap.push(key(20, 2), 2, dst_of(2));
        wheel.push(key(20, 2), 2, dst_of(2));
        assert_eq!(heap.peek(), wheel.peek());
        assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    /// Object-safe push shim so the test above can loop over both queues.
    trait FnPush {
        fn do_push(&mut self, key: EventKey, slot: u32);
    }
    impl FnPush for HeapQueue {
        fn do_push(&mut self, key: EventKey, slot: u32) {
            self.push(key, slot, dst_of(slot));
        }
    }
    impl FnPush for WheelQueue {
        fn do_push(&mut self, key: EventKey, slot: u32) {
            self.push(key, slot, dst_of(slot));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k-round differential loop is too slow under Miri")]
    fn interleaved_push_pop_over_window_wraps() {
        // A long-lived periodic pattern that repeatedly wraps the wheel:
        // mirrors a re-arming timer with a 97 µs stride.
        let mut heap = HeapQueue::with_capacity(4);
        let mut wheel = WheelQueue::with_capacity(4);
        let mut now = 0u64;
        for round in 0..10_000u64 {
            let delay = 97 + (round % 13) * 33;
            heap.push(key(now + delay, round), round as u32, dst_of(round as u32));
            wheel.push(key(now + delay, round), round as u32, dst_of(round as u32));
            let h = heap.pop().unwrap();
            assert_eq!(h, wheel.pop().unwrap(), "diverged at round {round}");
            let hk = h.0;
            now = hk.time.as_micros();
        }
        assert!(heap.is_empty() && wheel.is_empty());
    }

    #[test]
    fn pop_before_at_window_wrap_boundary() {
        // Events straddling the wheel window end: the last in-window µs,
        // the first out-of-window µs (overflow band), and deep overflow.
        // `pop_before` must honour deadlines across the wrap and the
        // overflow migration that `settle` performs at the boundary.
        let span = (NUM_SLOTS as u64) << GRANULARITY_SHIFT;
        let mut wheel = WheelQueue::with_capacity(4);
        wheel.push(key(span - 1, 0), 0, dst_of(0));
        wheel.push(key(span, 1), 1, dst_of(1));
        wheel.push(key(2 * span + 5, 2), 2, dst_of(2));
        assert_eq!(wheel.pop_before(SimTime::from_micros(span - 2)), None);
        assert_eq!(
            wheel.pop_before(SimTime::from_micros(span - 1)),
            Some((key(span - 1, 0), 0, dst_of(0)))
        );
        // The overflow head migrates into the advanced window but is not
        // yet due at the old deadline.
        assert_eq!(wheel.pop_before(SimTime::from_micros(span - 1)), None);
        assert_eq!(
            wheel.pop_before(SimTime::from_micros(span)),
            Some((key(span, 1), 1, dst_of(1)))
        );
        assert_eq!(wheel.pop_before(SimTime::from_micros(2 * span)), None);
        assert_eq!(
            wheel.pop_before(SimTime::MAX),
            Some((key(2 * span + 5, 2), 2, dst_of(2)))
        );
        assert!(wheel.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "2k-round wrap loop is too slow under Miri")]
    fn pop_before_across_many_window_wraps() {
        // A re-arming timer driven purely through `pop_before`, with a
        // stride chosen so `base_tick % NUM_SLOTS` cycles through the whole
        // occupancy bitmap (crossing word boundaries) over the run.
        let mut heap = HeapQueue::with_capacity(4);
        let mut wheel = WheelQueue::with_capacity(4);
        let stride = ((NUM_SLOTS as u64) << GRANULARITY_SHIFT) / 3 + 61;
        let mut now = 0u64;
        for round in 0..2_000u64 {
            heap.push(key(now + stride, round), round as u32, dst_of(round as u32));
            wheel.push(key(now + stride, round), round as u32, dst_of(round as u32));
            let early = SimTime::from_micros(now + stride - 1);
            assert_eq!(wheel.pop_before(early), None, "early pop at {round}");
            let h = heap.pop_before(SimTime::from_micros(now + stride));
            let w = wheel.pop_before(SimTime::from_micros(now + stride));
            assert_eq!(h, w, "diverged at round {round}");
            now = h.expect("event was due").0.time.as_micros();
        }
        assert!(heap.is_empty() && wheel.is_empty());
    }

    #[test]
    fn snapshot_and_remove_agree_across_bands() {
        let span = (NUM_SLOTS as u64) << GRANULARITY_SHIFT;
        let mut heap = HeapQueue::with_capacity(4);
        let mut wheel = WheelQueue::with_capacity(4);
        let pushes = [
            (10, 0, 0),
            (40, 1, 1),
            (span - 1, 2, 2),
            (span + 3, 3, 3),
            (3 * span, 4, 4),
        ];
        for &(us, seq, slot) in &pushes {
            heap.push(key(us, seq), slot, dst_of(slot));
            wheel.push(key(us, seq), slot, dst_of(slot));
        }
        // Pop one to open the drain band, then land a late push in the
        // tick just drained.
        assert_eq!(heap.pop(), wheel.pop());
        heap.push(key(12, 5), 5, dst_of(5));
        wheel.push(key(12, 5), 5, dst_of(5));
        assert_eq!(heap.snapshot(), wheel.snapshot());
        // Remove from each band — late heap, bucket, overflow — plus a
        // miss; lengths and snapshots must stay in lockstep.
        for k in [
            key(12, 5),
            key(40, 1),
            key(span - 1, 2),
            key(3 * span, 4),
            key(999, 9),
        ] {
            assert_eq!(heap.remove(k), wheel.remove(k), "removing {k:?}");
            assert_eq!(heap.len(), wheel.len());
        }
        assert_eq!(heap.snapshot(), wheel.snapshot());
        assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    #[test]
    fn snapshot_and_remove_on_far_future_overflow_band() {
        // The PR-9 exploration hooks (`snapshot`/`remove`) must see events
        // parked in the far-future heap band exactly as the reference heap
        // does — including events many windows out that no pop has come
        // near yet.
        let span = (NUM_SLOTS as u64) << GRANULARITY_SHIFT;
        let mut heap = HeapQueue::with_capacity(4);
        let mut wheel = WheelQueue::with_capacity(4);
        let far = [
            (2 * span + 7, 0, 10),
            (5 * span, 1, 11),
            (5 * span, 2, 12), // same µs, later seq — heap-band tiebreak
            (40 * span + 1, 3, 13),
        ];
        for &(us, seq, slot) in &far {
            heap.push(key(us, seq), slot, dst_of(slot));
            wheel.push(key(us, seq), slot, dst_of(slot));
        }
        // Snapshot with *everything* in overflow: sorted, complete.
        assert_eq!(heap.snapshot(), wheel.snapshot());
        assert_eq!(wheel.snapshot().len(), 4);
        // Remove straight out of the heap band, twice (head and interior),
        // plus a near-miss key one µs off an occupied slot.
        for k in [
            key(5 * span, 1),
            key(40 * span + 1, 3),
            key(2 * span + 6, 0),
        ] {
            assert_eq!(heap.remove(k), wheel.remove(k), "removing {k:?}");
            assert_eq!(heap.len(), wheel.len());
        }
        assert_eq!(heap.snapshot(), wheel.snapshot());
        assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    #[test]
    fn remove_then_advance_migration_keeps_bands_consistent() {
        // Removing from the overflow band and *then* advancing the window
        // (which migrates the survivors into wheel buckets) must not
        // resurrect the removed event or skew occupancy bookkeeping; and a
        // survivor that migrated must still be removable from its bucket.
        let span = (NUM_SLOTS as u64) << GRANULARITY_SHIFT;
        let mut heap = HeapQueue::with_capacity(4);
        let mut wheel = WheelQueue::with_capacity(4);
        let events = [
            (10, 0, 0),            // in-window anchor
            (span + 5, 1, 1),      // first out-of-window tick
            (span + 5, 2, 2),      // same tick, later seq
            (2 * span + 64, 3, 3), // a full window further out
        ];
        for &(us, seq, slot) in &events {
            heap.push(key(us, seq), slot, dst_of(slot));
            wheel.push(key(us, seq), slot, dst_of(slot));
        }
        // Remove one overflow event pre-migration.
        assert_eq!(
            heap.remove(key(span + 5, 1)),
            wheel.remove(key(span + 5, 1))
        );
        // Advance past the window edge: survivors migrate into buckets.
        let cut = SimTime::from_micros(span + 5);
        loop {
            let h = heap.pop_before(cut);
            let w = wheel.pop_before(cut);
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
        assert_eq!(heap.snapshot(), wheel.snapshot());
        // The removed key must not reappear post-migration...
        assert_eq!(heap.remove(key(span + 5, 1)), None);
        assert_eq!(wheel.remove(key(span + 5, 1)), None);
        // ...and a migrated survivor is removable from its new band.
        assert_eq!(
            heap.remove(key(span + 5, 2)),
            wheel.remove(key(span + 5, 2))
        );
        assert_eq!(heap.len(), wheel.len());
        assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    #[test]
    fn remove_from_a_bucket_spanning_chunks() {
        // 150 entries in one tick fill two chunks and part of a third;
        // removing from the first chunk, the tail and a miss must leave the
        // bucket draining exactly as the heap does.
        let mut heap = HeapQueue::with_capacity(4);
        let mut wheel = WheelQueue::with_capacity(4);
        for seq in 0..150u64 {
            let k = key(640 + (seq * 7) % 64, seq);
            heap.push(k, seq as u32, dst_of(seq as u32));
            wheel.push(k, seq as u32, dst_of(seq as u32));
        }
        for seq in [3, 149, 64, 200] {
            let k = key(640 + (seq * 7) % 64, seq);
            assert_eq!(heap.remove(k), wheel.remove(k), "removing {k:?}");
            assert_eq!(heap.len(), wheel.len());
        }
        assert_eq!(heap.snapshot(), wheel.snapshot());
        assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    #[test]
    #[cfg_attr(miri, ignore = "2M-entry fill is too slow under Miri")]
    fn memory_follows_what_is_in_flight() {
        // 512 consecutive ticks of 4,096 entries, each filled and drained
        // before the next: one `Vec` per slot would keep 512 ticks' worth
        // of capacity. The shared pool keeps one tick's chunks, the drain
        // buffer one more.
        const PER_TICK: u64 = 4_096;
        let tick_bytes = PER_TICK as usize * std::mem::size_of::<Entry>();
        let mut wheel = WheelQueue::with_capacity(16);
        let empty = wheel.heap_bytes();
        let mut seq = 0u64;
        for tick in 0..512u64 {
            for i in 0..PER_TICK {
                let k = key((tick << GRANULARITY_SHIFT) + (i * 37) % 64, seq);
                wheel.push(k, seq as u32, dst_of(seq as u32));
                seq += 1;
            }
            let mut last = None;
            while let Some((k, ..)) = wheel.pop() {
                assert!(last < Some(k), "out of order at tick {tick}");
                last = Some(k);
            }
            let held = wheel.heap_bytes() - empty;
            assert!(
                held <= 2 * tick_bytes + tick_bytes / 16,
                "tick {tick}: {held} B held for {tick_bytes} B in flight"
            );
        }
    }

    #[test]
    fn len_tracks_through_all_bands() {
        let span = (NUM_SLOTS as u64) << GRANULARITY_SHIFT;
        let mut wheel = WheelQueue::with_capacity(4);
        wheel.push(key(5, 0), 0, dst_of(0)); // wheel band
        wheel.push(key(2 * span, 1), 1, dst_of(1)); // overflow band
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.pop().map(|(k, ..)| k.seq), Some(0));
        wheel.push(key(3, 2), 2, dst_of(2)); // late push → late band
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.pop().map(|(k, ..)| k.seq), Some(2));
        assert_eq!(wheel.pop().map(|(k, ..)| k.seq), Some(1));
        assert_eq!(wheel.len(), 0);
    }
}
