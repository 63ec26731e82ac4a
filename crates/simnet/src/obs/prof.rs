//! Deterministic engine self-profiling: counters and log-binned
//! histograms over the scheduler and shard runtime.
//!
//! Every quantity in an [`EngineProfile`] is *model-level*: it is defined
//! purely on simulated facts — event creation instants, due times,
//! destinations, region crossings, and the logical conservative-lookahead
//! window recurrence — never on implementation state like a particular
//! wheel's `base_tick` lag, the realized mailbox traffic of one shard
//! plan, or thread scheduling. That is what makes a profile byte-identical
//! across `--jobs` and `--shards`: the dispatched event multiset is
//! shard-count-invariant (the [`crate::shard`] contract), so functions of
//! it are too. Wall-clock phase timings are implementation-level by nature
//! and live in the separate [`WallProfile`] side channel, which is never
//! part of the golden stdout surface.
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
//!   `base_tick` can lag `now` per shard, which is exactly the
//!   implementation detail this definition factors out.
//! * **`migrated`**: far-band events that were subsequently dispatched —
//!   each one had to migrate from the overflow heap into the wheel as the
//!   window advanced.
//! * **`horizon_us`**: histogram of `at - now` at creation.
//! * **`tick_occupancy`**: histogram of events per 64 µs tick over the
//!   whole run — the model surrogate for drain-buffer sort sizes.
//! * **Delivery groups** (`groups` / `singletons` / `batched_events`):
//!   a group is the set of dispatched events sharing one
//!   `(time, destination)`, excluding churn transitions. Groups are
//!   counted from the dispatched multiset, so the singleton ratio is
//!   engine- and shard-count-invariant — it is the number that showed
//!   batched delivery was not worth keeping (DESIGN.md §12).
//! * **PDES windows**: the logical conservative-window recurrence. A new
//!   window opens at the first event time `T` at or past the previous
//!   window's end and spans `[T, min(T + L, deadline + 1))`, where `L` is
//!   the topology's inter-region delay lower bound. For a multi-shard run
//!   this is exactly the executed window sequence; a single-shard or
//!   sequential run replays the same recurrence lazily at dispatch, so
//!   `windows`, `events_per_window`, and the derived
//!   `barrier_rounds = 3 * windows` (publish/exchange/advance) agree at
//!   every shard count.
//! * **Remote traffic** (`remote_msgs` / `remote_pairs` / `pair_volume`):
//!   events whose creator and destination live in different topology
//!   regions — the messages that would cross a shard boundary under
//!   maximal sharding, keyed per `(source region, destination region)`
//!   pair.

use std::collections::BTreeMap;

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

/// The per-engine-loop profiling collector.
///
/// The sequential [`Simulator`](crate::sim::Simulator) owns one; each
/// [`ShardedSim`](crate::shard::ShardedSim) core owns one and the merged
/// snapshot ([`EngineProf::merged`]) is shard-count-invariant. All methods
/// are cheap enough for the dispatch path but only run when profiling was
/// explicitly enabled — the collector sits behind an `Option` whose `None`
/// branch is a single predictable test.
#[derive(Clone, Debug)]
pub struct EngineProf {
    lookahead_us: u64,
    /// Exclusive clamp on lazily-opened window ends (the current
    /// `deadline + 1`); parallel window loops pre-open their windows and
    /// never consult it.
    clamp_us: u64,
    late: u64,
    near: u64,
    far: u64,
    migrated: u64,
    horizon: Histogram,
    /// Slab slot → creation band, read back (and cleared) at dispatch.
    band: Vec<u8>,
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
            band: Vec::new(),
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

    /// Parks a creation band against the event's slab slot so dispatch
    /// can count overflow migrations.
    pub fn note_band(&mut self, slot: u32, band: u8) {
        let i = slot as usize;
        if self.band.len() <= i {
            self.band.resize(i + 1, BAND_NONE);
        }
        self.band[i] = band;
    }

    /// Sets the exclusive clamp for lazily-opened windows (the current
    /// run's `deadline + 1`).
    pub fn set_window_clamp(&mut self, end_us: u64) {
        self.clamp_us = end_us;
    }

    /// Opens the next conservative window ending (exclusively) at
    /// `end_us`. Parallel window loops call this once per window so every
    /// core's window numbering stays aligned; single-loop engines open
    /// windows lazily from [`EngineProf::on_dispatch`].
    pub fn window_open(&mut self, end_us: u64) {
        self.windows += 1;
        self.window_events.push(0);
        self.window_end = end_us;
    }

    /// Accounts one dispatched event: window recurrence, tick occupancy,
    /// overflow-migration readback, and delivery-group accumulation.
    /// `groupable` is false for churn transitions (`Down`/`Up`).
    pub fn on_dispatch(&mut self, slot: u32, t_us: u64, dst: usize, groupable: bool) {
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
        if let Some(b) = self.band.get_mut(slot as usize) {
            if *b == BAND_FAR {
                self.migrated += 1;
            }
            *b = BAND_NONE;
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

    /// This collector's snapshot (a one-element [`EngineProf::merged`]).
    pub fn snapshot(&self) -> EngineProfile {
        EngineProf::merged([self])
    }

    /// Merges per-core collectors into one shard-count-invariant
    /// [`EngineProfile`]: counters sum, per-window event counts sum
    /// elementwise (window numbering is aligned across cores by
    /// construction), tick runs and region pairs merge by key.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a EngineProf>) -> EngineProfile {
        let mut out = EngineProfile {
            horizon_us: Histogram::new(HORIZON_BOUNDS),
            tick_occupancy: Histogram::new(TICK_OCC_BOUNDS),
            group_sizes: Histogram::new(GROUP_BOUNDS),
            events_per_window: Histogram::new(WINDOW_BOUNDS),
            pair_volume: Histogram::new(PAIR_BOUNDS),
            ..EngineProfile::default()
        };
        let mut ticks: BTreeMap<u64, u64> = BTreeMap::new();
        let mut window_events: Vec<u64> = Vec::new();
        let mut remote: BTreeMap<(u16, u16), u64> = BTreeMap::new();
        for p in parts {
            out.late += p.late;
            out.near += p.near;
            out.far += p.far;
            out.migrated += p.migrated;
            out.horizon_us.merge(&p.horizon);
            out.groups += p.groups;
            out.singletons += p.singletons;
            out.batched_events += p.batched_events;
            out.group_sizes.merge(&p.group_sizes);
            // Count the still-open trailing group without mutating `p`.
            let mut pending = p.cur_dsts.clone();
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
            for &(tick, count) in &p.tick_runs {
                *ticks.entry(tick).or_insert(0) += count;
            }
            out.lookahead_us = out.lookahead_us.max(p.lookahead_us);
            out.windows = out.windows.max(p.windows);
            if window_events.len() < p.window_events.len() {
                window_events.resize(p.window_events.len(), 0);
            }
            for (acc, &n) in window_events.iter_mut().zip(&p.window_events) {
                *acc += n;
            }
            out.remote_msgs += p.remote_msgs;
            for (&pair, &n) in &p.remote {
                *remote.entry(pair).or_insert(0) += n;
            }
        }
        for &count in ticks.values() {
            out.tick_occupancy.observe(count);
        }
        for &n in &window_events {
            out.events_per_window.observe(n);
        }
        out.remote_pairs = remote.len() as u64;
        for &n in remote.values() {
            out.pair_volume.observe(n);
        }
        out
    }
}

/// A serialized-ready engine-profile snapshot. See the module docs for
/// the exact semantics of each counter; all of them are byte-identical
/// across `--jobs` and `--shards` by construction.
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
    /// Cross-region messages (would cross a shard boundary under maximal
    /// sharding).
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

    /// Sums another profile into this one (multi-trial aggregation).
    pub fn merge(&mut self, other: &EngineProfile) {
        self.late += other.late;
        self.near += other.near;
        self.far += other.far;
        self.migrated += other.migrated;
        self.horizon_us.merge(&other.horizon_us);
        self.tick_occupancy.merge(&other.tick_occupancy);
        self.groups += other.groups;
        self.singletons += other.singletons;
        self.batched_events += other.batched_events;
        self.group_sizes.merge(&other.group_sizes);
        self.lookahead_us = self.lookahead_us.max(other.lookahead_us);
        self.windows += other.windows;
        self.events_per_window.merge(&other.events_per_window);
        self.remote_msgs += other.remote_msgs;
        self.remote_pairs += other.remote_pairs;
        self.pair_volume.merge(&other.pair_volume);
    }

    /// Deterministic JSON rendering: fixed key order, integer counters,
    /// and one fixed-precision ratio (`{:.6}` formatting is
    /// platform-independent).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sched\":{{\"late\":{},\"near\":{},\"far\":{},\"migrated\":{},",
                "\"horizon_us\":{},\"tick_occupancy\":{}}},",
                "\"batch\":{{\"groups\":{},\"singletons\":{},\"batched_events\":{},",
                "\"singleton_ratio\":{:.6},\"group_sizes\":{}}},",
                "\"pdes\":{{\"lookahead_us\":{},\"windows\":{},\"barrier_rounds\":{},",
                "\"events_per_window\":{},\"remote_msgs\":{},\"remote_pairs\":{},",
                "\"pair_volume\":{}}}}}"
            ),
            self.late,
            self.near,
            self.far,
            self.migrated,
            hist_json(&self.horizon_us),
            hist_json(&self.tick_occupancy),
            self.groups,
            self.singletons,
            self.batched_events,
            self.singleton_ratio(),
            hist_json(&self.group_sizes),
            self.lookahead_us,
            self.windows,
            self.barrier_rounds(),
            hist_json(&self.events_per_window),
            self.remote_msgs,
            self.remote_pairs,
            hist_json(&self.pair_volume),
        )
    }
}

/// Renders a histogram in the same shape as
/// [`crate::obs::MetricsSnapshot`] histograms.
fn hist_json(h: &Histogram) -> String {
    let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
    let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
    format!(
        "{{\"bounds\":[{}],\"counts\":[{}]}}",
        bounds.join(","),
        counts.join(",")
    )
}

/// Wall-clock per-phase timings for one shard worker. Implementation-
/// level by nature (thread scheduling, host load): side-channel only,
/// never part of any golden surface.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardWall {
    /// Nanoseconds spent dispatching events inside windows.
    pub process_ns: u64,
    /// Nanoseconds spent blocked on window barriers.
    pub barrier_ns: u64,
    /// Nanoseconds spent pushing outboxes and draining inboxes.
    pub exchange_ns: u64,
    /// Cross-shard events this shard actually handed off.
    pub remote_sent: u64,
    /// Events this shard dispatched.
    pub events: u64,
}

/// The wall-clock side channel: per-shard phase timings for one run,
/// written only behind `--profile-wall PATH`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WallProfile {
    /// Shard count actually executed (after region clamping).
    pub shards: usize,
    /// The executed lookahead in µs (zero for a single shard).
    pub lookahead_us: u64,
    /// Per-shard timings, shard index order.
    pub per_shard: Vec<ShardWall>,
}

impl WallProfile {
    /// JSON rendering (fixed key order; the values themselves are
    /// nondeterministic wall-clock measurements).
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self
            .per_shard
            .iter()
            .map(|s| {
                format!(
                    concat!(
                        "{{\"process_ns\":{},\"barrier_ns\":{},\"exchange_ns\":{},",
                        "\"remote_sent\":{},\"events\":{}}}"
                    ),
                    s.process_ns, s.barrier_ns, s.exchange_ns, s.remote_sent, s.events
                )
            })
            .collect();
        format!(
            "{{\"shards\":{},\"lookahead_us\":{},\"per_shard\":[{}]}}",
            self.shards,
            self.lookahead_us,
            shards.join(",")
        )
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
        p.note_band(7, band);
        let near = p.classify(0, 200);
        p.note_band(3, near);
        p.on_dispatch(3, 200, 0, true);
        p.on_dispatch(7, 2 * span, 1, true);
        // Slot 7 was re-used by an unclassified event: no double count.
        p.on_dispatch(7, 2 * span + 10, 1, true);
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
            for (i, &(t, d)) in order.iter().enumerate() {
                p.on_dispatch(i as u32, t, d, true);
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
        // Lazy (single-loop) window opening must agree with a parallel
        // loop that pre-opens the same windows.
        let times = [0u64, 100, 400, 700, 1_500, 1_600];
        let lookahead = 500;
        let mut lazy = EngineProf::new(lookahead);
        for (i, &t) in times.iter().enumerate() {
            lazy.on_dispatch(i as u32, t, i, true);
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
                eager.on_dispatch(0, t, 0, false);
            }
        }
        let (a, b) = (lazy.snapshot(), eager.snapshot());
        assert_eq!(a.windows, 3);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.events_per_window, b.events_per_window);
        assert_eq!(a.barrier_rounds(), 9);
    }

    #[test]
    fn merged_cores_equal_single_core() {
        // Splitting the same event stream across two collectors (by
        // destination, as sharding would) must merge to the single-
        // collector profile.
        let events = [(0u64, 0usize), (0, 1), (500, 0), (500, 0), (700, 1)];
        let mut single = EngineProf::new(500);
        single.set_window_clamp(u64::MAX);
        for (i, &(t, d)) in events.iter().enumerate() {
            single.on_dispatch(i as u32, t, d, true);
        }
        let mut a = EngineProf::new(500);
        let mut b = EngineProf::new(500);
        // Both cores pre-open every window, then dispatch that window's
        // events — the parallel worker-loop interleaving.
        for (end, window) in [(500u64, &events[..2]), (1_000, &events[2..])] {
            a.window_open(end);
            b.window_open(end);
            for (i, &(t, d)) in window.iter().enumerate() {
                let core = if d == 0 { &mut a } else { &mut b };
                core.on_dispatch(i as u32, t, d, true);
            }
        }
        let merged = EngineProf::merged([&a, &b]);
        let solo = single.snapshot();
        assert_eq!(merged.windows, solo.windows);
        assert_eq!(merged.events_per_window, solo.events_per_window);
        assert_eq!(merged.groups, solo.groups);
        assert_eq!(merged.singletons, solo.singletons);
        assert_eq!(merged.tick_occupancy, solo.tick_occupancy);
    }

    #[test]
    fn json_is_deterministic_and_carries_ratio() {
        let mut p = EngineProf::new(250);
        p.on_remote(0, 1);
        p.on_remote(0, 1);
        p.on_remote(1, 0);
        for i in 0..4u32 {
            p.on_dispatch(i, 100 * u64::from(i), i as usize, true);
        }
        let snap = p.snapshot();
        let json = snap.to_json();
        assert_eq!(json, p.snapshot().to_json());
        assert!(json.starts_with("{\"sched\":{\"late\":"));
        assert!(json.contains("\"singleton_ratio\":1.000000"));
        assert!(json.contains("\"remote_msgs\":3,\"remote_pairs\":2"));
        assert!(json.contains("\"barrier_rounds\":"));
        // Merge doubles the counters and keeps the shape.
        let mut doubled = snap.clone();
        doubled.merge(&snap);
        assert_eq!(doubled.groups, 2 * snap.groups);
        assert_eq!(doubled.lookahead_us, snap.lookahead_us);
    }

    #[test]
    fn wall_profile_serializes() {
        let w = WallProfile {
            shards: 2,
            lookahead_us: 500,
            per_shard: vec![ShardWall::default(); 2],
        };
        let json = w.to_json();
        assert!(json.starts_with("{\"shards\":2,\"lookahead_us\":500,"));
        assert_eq!(json.matches("\"process_ns\"").count(), 2);
    }
}
