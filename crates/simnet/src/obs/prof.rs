//! Deterministic engine self-profiling: counters and log-binned
//! histograms over the scheduler.
//!
//! Every quantity in an [`EngineProfile`] is *model-level*: it is defined
//! purely on simulated facts — event creation instants, due times,
//! destinations, region crossings, and the logical conservative-lookahead
//! window recurrence — never on implementation state like the wheel's
//! `base_tick` lag or thread scheduling. That is what makes a profile
//! byte-identical across `--jobs`: it is a function of the dispatched
//! event sequence alone. No wall-clock quantity is part of it.
//!
//! The counter semantics, in terms of the [`crate::queue::WheelQueue`]
//! geometry (`2^6` µs ticks, a `1024`-tick window):
//!
//! * **Scheduler bands** (`late` / `near` / `far`): each event is
//!   classified once, at *creation*, from the creating dispatch's clock
//!   `now` and the scheduled due time `at`. `tick(at) <= tick(now)` is a
//!   late push (the wheel would put it in its late heap), a due tick
//!   within the wheel window is a bucket push, and
//!   anything beyond spills to the overflow heap. This is the model
//!   approximation of the wheel's three push bands — the real wheel's
//!   `base_tick` can lag `now`, which is exactly the implementation
//!   detail this definition factors out.
//! * **`migrated`**: far-band events that were subsequently dispatched —
//!   each one had to migrate from the overflow heap into the wheel as the
//!   window advanced.
//! * **`horizon_us`**: histogram of `at - now` at creation.
//! * **`tick_occupancy`**: histogram of events per 64 µs tick over the
//!   whole run — the model surrogate for drain-buffer sort sizes.
//! * **Delivery groups** (`groups` / `singletons` / `batched_events`):
//!   a group is the set of dispatched events sharing one
//!   `(time, destination)`, excluding churn transitions. Groups are
//!   counted from the dispatched multiset, so the singleton ratio does not
//!   depend on same-instant tie-break order — it is the number that showed
//!   batched delivery was not worth keeping (DESIGN.md §12).
//! * **PDES windows**: the logical conservative-window recurrence. A new
//!   window opens at the first event time `T` at or past the previous
//!   window's end and spans `[T, min(T + L, deadline + 1))`, where `L` is
//!   the topology's inter-region delay lower bound: the windows a
//!   conservative parallel engine would synchronize on, replayed lazily
//!   at dispatch. `barrier_rounds = 3 * windows` (publish, exchange,
//!   advance) is what such an engine would pay in barriers.
//! * **Remote traffic** (`remote_msgs` / `remote_pairs` / `pair_volume`):
//!   events whose creator and destination live in different topology
//!   regions — the messages a region-partitioned engine would hand across
//!   partitions, keyed per `(source region, destination region)` pair.

use std::collections::BTreeMap;

use crate::engine::Store;
use crate::json::{Fixed6, ToJson, Writer};
use crate::obs::Histogram;
use crate::queue::{WHEEL_GRANULARITY_SHIFT, WHEEL_NUM_SLOTS};

/// Creation band: not classified (created before profiling was enabled).
pub const BAND_NONE: u8 = 0;
/// Creation band: due tick at or before the creating dispatch's tick.
pub const BAND_LATE: u8 = 1;
/// Creation band: due tick inside the wheel window.
pub const BAND_NEAR: u8 = 2;
/// Creation band: due tick beyond the wheel window (overflow spill).
pub const BAND_FAR: u8 = 3;

/// `at - now` at creation: within one tick / in-wheel / around the wheel
/// window span (1024 ticks = 65.5 ms) / long maintenance horizons.
const HORIZON_BOUNDS: &[u64] = &[64, 4_096, 65_536, 1_048_576];
/// Events per 64 µs tick (drain-sort-size surrogate).
const TICK_OCC_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1_024];
/// Same-`(time, destination)` delivery-group sizes.
const GROUP_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 64];
/// Events per conservative window.
const WINDOW_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1_024];
/// Messages per (source region, destination region) pair.
const PAIR_BOUNDS: &[u64] = &[16, 256, 4_096, 65_536];

/// The event loop's profiling collector.
///
/// The [`Simulator`](crate::sim::Simulator) owns one when profiling is
/// enabled. All methods are cheap enough for the dispatch path but only
/// run when profiling was explicitly enabled — the collector sits behind
/// an `Option` whose `None` branch is a single predictable test.
#[derive(Clone, Debug)]
pub struct EngineProf {
    lookahead_us: u64,
    /// Exclusive clamp on window ends (the current `deadline + 1`).
    clamp_us: u64,
    late: u64,
    near: u64,
    far: u64,
    migrated: u64,
    horizon: Histogram,
    /// Creation bands of queued events, one table per event store
    /// (`[payload slab, word store]`) indexed by the event's place in it,
    /// read back (and cleared) at dispatch. An event that stores nothing
    /// carries its band in its queue handle instead.
    band: [Vec<u8>; 2],
    /// Run-length `(tick, events)` over dispatch times (non-decreasing
    /// per engine loop).
    tick_runs: Vec<(u64, u64)>,
    groups: u64,
    singletons: u64,
    batched_events: u64,
    group_sizes: Histogram,
    /// Timestamp of the delivery-group accumulator below.
    cur_time: u64,
    /// Destinations of groupable events dispatched at `cur_time`.
    cur_dsts: Vec<u32>,
    windows: u64,
    window_end: u64,
    /// Events per window, indexed by window number.
    window_events: Vec<u64>,
    remote_msgs: u64,
    /// `(source region, destination region)` → cross-region messages.
    remote: BTreeMap<(u16, u16), u64>,
}

impl EngineProf {
    /// A collector for an engine whose conservative lookahead is
    /// `lookahead_us` (the topology's inter-region delay lower bound;
    /// zero for single-region topologies).
    pub fn new(lookahead_us: u64) -> Self {
        EngineProf {
            lookahead_us,
            clamp_us: u64::MAX,
            late: 0,
            near: 0,
            far: 0,
            migrated: 0,
            horizon: Histogram::new(HORIZON_BOUNDS),
            band: [Vec::new(), Vec::new()],
            tick_runs: Vec::new(),
            groups: 0,
            singletons: 0,
            batched_events: 0,
            group_sizes: Histogram::new(GROUP_BOUNDS),
            cur_time: u64::MAX,
            cur_dsts: Vec::new(),
            windows: 0,
            window_end: 0,
            window_events: Vec::new(),
            remote_msgs: 0,
            remote: BTreeMap::new(),
        }
    }

    /// Classifies one event creation (`now` = the creating dispatch's
    /// clock, `at` = the scheduled due time, both µs) into a scheduler
    /// band, recording the horizon histogram. Returns the band for
    /// [`EngineProf::note_band`].
    pub fn classify(&mut self, now_us: u64, at_us: u64) -> u8 {
        self.horizon.observe(at_us.saturating_sub(now_us));
        let dt =
            (at_us >> WHEEL_GRANULARITY_SHIFT).saturating_sub(now_us >> WHEEL_GRANULARITY_SHIFT);
        if dt == 0 {
            self.late += 1;
            BAND_LATE
        } else if dt < WHEEL_NUM_SLOTS as u64 {
            self.near += 1;
            BAND_NEAR
        } else {
            self.far += 1;
            BAND_FAR
        }
    }

    /// Parks a creation band against the event's place `index` in
    /// `store` so dispatch can count overflow migrations.
    pub(crate) fn note_band(&mut self, store: Store, index: u32, band: u8) {
        let table = &mut self.band[store as usize];
        let i = index as usize;
        if table.len() <= i {
            table.resize(i + 1, BAND_NONE);
        }
        table[i] = band;
    }

    /// The band [`EngineProf::note_band`] parked at `index` in `store`,
    /// clearing it ([`BAND_NONE`] if none was).
    pub(crate) fn take_band(&mut self, store: Store, index: u32) -> u8 {
        self.band[store as usize]
            .get_mut(index as usize)
            .map_or(BAND_NONE, |b| std::mem::replace(b, BAND_NONE))
    }

    /// Sets the exclusive clamp for lazily-opened windows (the current
    /// run's `deadline + 1`).
    pub fn set_window_clamp(&mut self, end_us: u64) {
        self.clamp_us = end_us;
    }

    /// Opens the next conservative window ending (exclusively) at
    /// `end_us`; [`EngineProf::on_dispatch`] opens them lazily.
    fn window_open(&mut self, end_us: u64) {
        self.windows += 1;
        self.window_events.push(0);
        self.window_end = end_us;
    }

    /// Accounts one dispatched event created in `band`: window recurrence,
    /// tick occupancy, overflow migration, and delivery-group accumulation.
    /// `groupable` is false for churn transitions (`Down`/`Up`).
    pub(crate) fn on_dispatch(&mut self, band: u8, t_us: u64, dst: usize, groupable: bool) {
        if t_us >= self.window_end {
            let end = t_us
                .saturating_add(self.lookahead_us.max(1))
                .min(self.clamp_us);
            self.window_open(end);
        }
        if let Some(w) = self.window_events.last_mut() {
            *w += 1;
        }
        let tick = t_us >> WHEEL_GRANULARITY_SHIFT;
        match self.tick_runs.last_mut() {
            Some((t, c)) if *t == tick => *c += 1,
            _ => self.tick_runs.push((tick, 1)),
        }
        if band == BAND_FAR {
            self.migrated += 1;
        }
        if groupable {
            if t_us != self.cur_time {
                self.flush_groups();
                self.cur_time = t_us;
            }
            self.cur_dsts.push(dst as u32);
        }
    }

    /// Counts one cross-region message from region `from` to region `to`
    /// (callers only invoke this when the regions differ).
    pub fn on_remote(&mut self, from: u16, to: u16) {
        self.remote_msgs += 1;
        *self.remote.entry((from, to)).or_insert(0) += 1;
    }

    /// Folds the accumulated same-timestamp destinations into group
    /// counts.
    fn flush_groups(&mut self) {
        if self.cur_dsts.is_empty() {
            return;
        }
        self.cur_dsts.sort_unstable();
        let mut i = 0;
        while i < self.cur_dsts.len() {
            let mut j = i + 1;
            while j < self.cur_dsts.len() && self.cur_dsts[j] == self.cur_dsts[i] {
                j += 1;
            }
            let c = (j - i) as u64;
            self.groups += 1;
            self.group_sizes.observe(c);
            if c == 1 {
                self.singletons += 1;
            } else {
                self.batched_events += c;
            }
            i = j;
        }
        self.cur_dsts.clear();
    }

    /// This collector's snapshot. The still-open trailing delivery group
    /// is counted without mutating the collector.
    pub fn snapshot(&self) -> EngineProfile {
        let mut out = EngineProfile {
            late: self.late,
            near: self.near,
            far: self.far,
            migrated: self.migrated,
            horizon_us: self.horizon.clone(),
            tick_occupancy: Histogram::new(TICK_OCC_BOUNDS),
            groups: self.groups,
            singletons: self.singletons,
            batched_events: self.batched_events,
            group_sizes: self.group_sizes.clone(),
            lookahead_us: self.lookahead_us,
            windows: self.windows,
            events_per_window: Histogram::new(WINDOW_BOUNDS),
            remote_msgs: self.remote_msgs,
            remote_pairs: self.remote.len() as u64,
            pair_volume: Histogram::new(PAIR_BOUNDS),
        };
        let mut pending = self.cur_dsts.clone();
        pending.sort_unstable();
        let mut i = 0;
        while i < pending.len() {
            let mut j = i + 1;
            while j < pending.len() && pending[j] == pending[i] {
                j += 1;
            }
            let c = (j - i) as u64;
            out.groups += 1;
            out.group_sizes.observe(c);
            if c == 1 {
                out.singletons += 1;
            } else {
                out.batched_events += c;
            }
            i = j;
        }
        // Dispatch times never decrease, so each tick has one run.
        for &(_, count) in &self.tick_runs {
            out.tick_occupancy.observe(count);
        }
        for &n in &self.window_events {
            out.events_per_window.observe(n);
        }
        for &n in self.remote.values() {
            out.pair_volume.observe(n);
        }
        out
    }
}

/// A serialized-ready engine-profile snapshot. See the module docs for
/// the exact semantics of each counter; all of them are byte-identical
/// across `--jobs` by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineProfile {
    /// Late-band event creations (due tick at or before the creator's).
    pub late: u64,
    /// Near-band event creations (due tick inside the wheel window).
    pub near: u64,
    /// Far-band event creations (overflow spill).
    pub far: u64,
    /// Far-band events later dispatched (overflow → wheel migrations).
    pub migrated: u64,
    /// Histogram of `at - now` at creation, µs.
    pub horizon_us: Histogram,
    /// Histogram of events per 64 µs tick (drain-sort-size surrogate).
    pub tick_occupancy: Histogram,
    /// Same-`(time, destination)` delivery groups.
    pub groups: u64,
    /// Groups of exactly one event (the singleton fast path).
    pub singletons: u64,
    /// Events delivered as part of multi-event groups.
    pub batched_events: u64,
    /// Histogram of delivery-group sizes.
    pub group_sizes: Histogram,
    /// The conservative lookahead bound used by the window recurrence, µs.
    pub lookahead_us: u64,
    /// Conservative windows in the logical window recurrence.
    pub windows: u64,
    /// Histogram of events per conservative window.
    pub events_per_window: Histogram,
    /// Cross-region messages (would cross a partition boundary in a
    /// region-partitioned engine).
    pub remote_msgs: u64,
    /// Distinct `(source region, destination region)` pairs with traffic.
    pub remote_pairs: u64,
    /// Histogram of per-region-pair message volume.
    pub pair_volume: Histogram,
}

impl EngineProfile {
    /// Fraction of delivery groups that were singletons, in `0..=1`
    /// (zero when no groups were observed).
    pub fn singleton_ratio(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.singletons as f64 / self.groups as f64
        }
    }

    /// Logical barrier rounds of the windowed protocol: three per window
    /// (publish `next_due`, exchange mailboxes, advance).
    pub fn barrier_rounds(&self) -> u64 {
        3 * self.windows
    }
}

/// Fixed key order, integer counters, and one fixed-precision ratio
/// ([`Fixed6`] formats the same on every platform).
impl ToJson for EngineProfile {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj().key("sched").begin_obj();
        w.field("late", self.late).field("near", self.near);
        w.field("far", self.far).field("migrated", self.migrated);
        w.field("horizon_us", &self.horizon_us);
        w.field("tick_occupancy", &self.tick_occupancy).end();
        w.key("batch").begin_obj();
        w.field("groups", self.groups);
        w.field("singletons", self.singletons);
        w.field("batched_events", self.batched_events);
        w.field("singleton_ratio", Fixed6(self.singleton_ratio()));
        w.field("group_sizes", &self.group_sizes).end();
        w.key("pdes").begin_obj();
        w.field("lookahead_us", self.lookahead_us);
        w.field("windows", self.windows);
        w.field("barrier_rounds", self.barrier_rounds());
        w.field("events_per_window", &self.events_per_window);
        w.field("remote_msgs", self.remote_msgs);
        w.field("remote_pairs", self.remote_pairs);
        w.field("pair_volume", &self.pair_volume).end().end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_bands_by_wheel_geometry() {
        let mut p = EngineProf::new(500);
        // Same tick → late; next tick → near; beyond the window → far.
        assert_eq!(p.classify(100, 100), BAND_LATE);
        assert_eq!(p.classify(100, 120), BAND_LATE, "same 64 us tick");
        assert_eq!(p.classify(100, 200), BAND_NEAR);
        let span = (WHEEL_NUM_SLOTS as u64) << WHEEL_GRANULARITY_SHIFT;
        assert_eq!(p.classify(0, span - 1), BAND_NEAR);
        assert_eq!(p.classify(0, span), BAND_FAR);
        let snap = p.snapshot();
        assert_eq!((snap.late, snap.near, snap.far), (2, 2, 1));
        assert_eq!(snap.horizon_us.total(), 5);
    }

    #[test]
    fn migration_counts_far_band_dispatches() {
        let mut p = EngineProf::new(500);
        let span = (WHEEL_NUM_SLOTS as u64) << WHEEL_GRANULARITY_SHIFT;
        let band = p.classify(0, 2 * span);
        p.note_band(Store::Word, 7, band);
        let near = p.classify(0, 200);
        p.note_band(Store::Payload, 7, near);
        // Each store keys its own table: index 7 names two events.
        let near = p.take_band(Store::Payload, 7);
        p.on_dispatch(near, 200, 0, true);
        let far = p.take_band(Store::Word, 7);
        p.on_dispatch(far, 2 * span, 1, true);
        // Cell 7 was re-used by an unclassified event: no double count.
        let again = p.take_band(Store::Word, 7);
        p.on_dispatch(again, 2 * span + 10, 1, true);
        assert_eq!((near, far, again), (BAND_NEAR, BAND_FAR, BAND_NONE));
        assert_eq!(p.take_band(Store::Payload, 1_000), BAND_NONE);
        assert_eq!(p.snapshot().migrated, 1);
    }

    #[test]
    fn delivery_groups_ignore_dispatch_interleaving() {
        // Same multiset of (time, dst) events in two different orders
        // must produce identical group stats.
        let orders: [&[(u64, usize)]; 2] = [
            &[(10, 0), (10, 1), (10, 0), (20, 2)],
            &[(10, 0), (10, 0), (10, 1), (20, 2)],
        ];
        let mut snaps = Vec::new();
        for order in orders {
            let mut p = EngineProf::new(1);
            for &(t, d) in order {
                p.on_dispatch(BAND_NONE, t, d, true);
            }
            snaps.push(p.snapshot());
        }
        assert_eq!(snaps[0], snaps[1]);
        // Groups: {10,0} x2, {10,1} x1, {20,2} x1 → 3 groups, 2 single.
        assert_eq!(snaps[0].groups, 3);
        assert_eq!(snaps[0].singletons, 2);
        assert_eq!(snaps[0].batched_events, 2);
        assert!((snaps[0].singleton_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn window_recurrence_matches_pre_opened_windows() {
        // Lazy window opening must agree with pre-opening the same
        // windows.
        let times = [0u64, 100, 400, 700, 1_500, 1_600];
        let lookahead = 500;
        let mut lazy = EngineProf::new(lookahead);
        for (i, &t) in times.iter().enumerate() {
            lazy.on_dispatch(BAND_NONE, t, i, true);
        }
        let mut eager = EngineProf::new(lookahead);
        // Windows: [0, 500), [700, 1200), [1500, 2000).
        for (start, evs) in [
            (0u64, &times[..3]),
            (700, &times[3..4]),
            (1_500, &times[4..]),
        ] {
            eager.window_open(start + lookahead);
            for &t in evs {
                eager.on_dispatch(BAND_NONE, t, 0, false);
            }
        }
        let (a, b) = (lazy.snapshot(), eager.snapshot());
        assert_eq!(a.windows, 3);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.events_per_window, b.events_per_window);
        assert_eq!(a.barrier_rounds(), 9);
    }

    #[test]
    fn json_is_deterministic_and_carries_ratio() {
        let mut p = EngineProf::new(250);
        p.on_remote(0, 1);
        p.on_remote(0, 1);
        p.on_remote(1, 0);
        for i in 0..4u32 {
            p.on_dispatch(BAND_NONE, 100 * u64::from(i), i as usize, true);
        }
        let snap = p.snapshot();
        let json = snap.to_json();
        assert_eq!(json, p.snapshot().to_json());
        assert!(json.starts_with("{\"sched\":{\"late\":"));
        assert!(json.contains("\"singleton_ratio\":1.000000"));
        assert!(json.contains("\"remote_msgs\":3,\"remote_pairs\":2"));
        assert!(json.contains("\"barrier_rounds\":"));
    }
}
