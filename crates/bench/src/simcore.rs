//! Simulator hot-path workloads shared by the `sim_core` criterion group
//! and the `simcore` perf scenario.
//!
//! Each workload is a deterministic pure function from sizes to a finished
//! [`Simulator`] run, returning the number of events processed; callers
//! wrap them in wall-clock timing to derive events/sec. Three pressure
//! points are covered:
//!
//! * **event churn** — many tiny messages hopping a ring: the raw cost of
//!   the heap + slab + scratch event loop;
//! * **multicast fan-out** — a model-sized payload disseminating down a
//!   k-ary tree, in both clone-per-child (the pre-optimization baseline)
//!   and [`Shared`] (reference-counted) flavors;
//! * **timer storm** — thousands of concurrently armed timers: heap
//!   pressure with zero-byte payloads.

use totoro_simnet::geo::{eua_regions_scaled, generate};
use totoro_simnet::{
    sub_rng, Application, Ctx, EngineProfile, EventQueue, LatencyModel, NodeIdx, NoopSink, Payload,
    RecordingSink, ShardedSim, Shared, SimDuration, Simulator, Topology, TraceRecord, WallProfile,
    WheelQueue,
};

/// Fixed per-hop delay for every workload: `Topology::uniform` with
/// `min == max` and jitter 0 never touches the RNG, so measured time is
/// pure event-loop cost.
fn flat_topology(n: usize) -> Topology {
    Topology::uniform(n, 100, 100)
}

// ---------------------------------------------------------------- churn --

#[derive(Clone)]
struct Hop(u64);

impl Payload for Hop {
    fn size_bytes(&self) -> usize {
        16
    }
}

struct ChurnNode {
    n: usize,
}

impl Application for ChurnNode {
    type Msg = Hop;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Hop>, _from: NodeIdx, msg: Hop) {
        if msg.0 > 0 {
            ctx.send((ctx.me() + 1) % self.n, Hop(msg.0 - 1));
        }
    }
}

/// Circulates `tokens` tokens around an `n`-ring, each making `hops + 1`
/// deliveries. Returns events processed (exactly
/// `n` starts + `tokens × (hops + 1)` deliveries).
pub fn run_event_churn(n: usize, tokens: usize, hops: u64) -> u64 {
    run_event_churn_on::<WheelQueue>(n, tokens, hops)
}

/// [`run_event_churn`] on an explicit [`EventQueue`] implementation — the
/// heap-vs-wheel comparison entry point.
pub fn run_event_churn_on<Q: EventQueue>(n: usize, tokens: usize, hops: u64) -> u64 {
    let mut sim =
        Simulator::<ChurnNode, NoopSink, Q>::with_queue(flat_topology(n), 1, NoopSink, |_| {
            ChurnNode { n }
        });
    let tokens = tokens.min(n);
    for t in 0..tokens {
        let _ = sim.with_app(t, |_node, ctx| {
            let next = (ctx.me() + 1) % n;
            ctx.send(next, Hop(hops));
        });
    }
    assert!(sim.run_until_quiet(u64::MAX));
    sim.events_processed()
}

/// [`run_event_churn_on`] with a [`RecordingSink`] installed: returns the
/// buffered trace records instead of the event count. The event stream —
/// and therefore the trace — is byte-identical across [`EventQueue`]
/// implementations; `totoro-trace diff` on a wheel-vs-heap pair proves it.
pub fn run_event_churn_traced<Q: EventQueue>(
    n: usize,
    tokens: usize,
    hops: u64,
) -> Vec<TraceRecord> {
    let mut sim = Simulator::<ChurnNode, RecordingSink, Q>::with_queue(
        flat_topology(n),
        1,
        RecordingSink::new(0),
        |_| ChurnNode { n },
    );
    let tokens = tokens.min(n);
    for t in 0..tokens {
        let _ = sim.with_app(t, |_node, ctx| {
            let next = (ctx.me() + 1) % n;
            ctx.send(next, Hop(hops));
        });
    }
    assert!(sim.run_until_quiet(u64::MAX));
    sim.into_sink().take_records()
}

/// [`run_event_churn`] with engine self-profiling enabled: returns the
/// deterministic [`EngineProfile`] of the run. Kept separate from the
/// timed entry points so profiling bookkeeping never shadows a
/// measurement.
pub fn profile_event_churn(n: usize, tokens: usize, hops: u64) -> EngineProfile {
    let mut sim = Simulator::<ChurnNode, NoopSink, WheelQueue>::with_queue(
        flat_topology(n),
        1,
        NoopSink,
        |_| ChurnNode { n },
    );
    sim.enable_profiling();
    let tokens = tokens.min(n);
    for t in 0..tokens {
        let _ = sim.with_app(t, |_node, ctx| {
            let next = (ctx.me() + 1) % n;
            ctx.send(next, Hop(hops));
        });
    }
    assert!(sim.run_until_quiet(u64::MAX));
    sim.engine_profile().expect("profiling enabled")
}

// ------------------------------------------------------------ multicast --

/// Multicast payload: either deep-copied per child (the pre-optimization
/// baseline) or reference-counted via [`Shared`].
#[derive(Clone)]
enum McMsg {
    Cloned(Vec<f32>),
    Shared(Shared<Vec<f32>>),
}

impl McMsg {
    fn weights(&self) -> usize {
        match self {
            McMsg::Cloned(w) => w.len(),
            McMsg::Shared(w) => w.len(),
        }
    }
}

impl Payload for McMsg {
    fn size_bytes(&self) -> usize {
        16 + self.weights() * 4
    }
}

struct TreeNode {
    fanout: usize,
    n: usize,
    received: u64,
}

impl TreeNode {
    fn forward(&self, ctx: &mut Ctx<'_, McMsg>, msg: &McMsg) {
        let first = ctx.me() * self.fanout + 1;
        for c in first..(first + self.fanout).min(self.n) {
            // The measured operation: for `Cloned` this deep-copies the
            // weights per child; for `Shared` it bumps a refcount.
            ctx.send(c, msg.clone());
        }
    }
}

impl Application for TreeNode {
    type Msg = McMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, McMsg>, _from: NodeIdx, msg: McMsg) {
        self.received += 1;
        self.forward(ctx, &msg);
    }
}

/// Disseminates a `weights`-float payload down a complete `fanout`-ary tree
/// of `n` nodes, `rounds` times; `shared` picks the payload flavor.
/// Returns events processed. Panics if any node missed a round.
pub fn run_multicast(n: usize, fanout: usize, weights: usize, rounds: u64, shared: bool) -> u64 {
    let mut sim = Simulator::new(flat_topology(n), 2, |_| TreeNode {
        fanout,
        n,
        received: 0,
    });
    for _ in 0..rounds {
        let _ = sim.with_app(0, |node, ctx| {
            let w = vec![0.5f32; weights];
            let msg = if shared {
                McMsg::Shared(Shared::new(w))
            } else {
                McMsg::Cloned(w)
            };
            node.forward(ctx, &msg);
        });
        assert!(sim.run_until_quiet(u64::MAX));
    }
    for i in 1..n {
        assert_eq!(sim.app(i).received, rounds, "node {i} missed a round");
    }
    sim.events_processed()
}

// ---------------------------------------------------------- timer storm --

struct TimerNode {
    timers: u64,
    refires: u64,
    fired: u64,
}

#[derive(Clone)]
struct Nil;

impl Payload for Nil {
    fn size_bytes(&self) -> usize {
        0
    }
}

impl Application for TimerNode {
    type Msg = Nil;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Nil>) {
        for t in 0..self.timers {
            // Stagger phases so firings interleave across nodes.
            let phase = (ctx.me() as u64 * 37 + t * 101) % 1_000;
            ctx.set_timer(SimDuration::from_micros(phase.saturating_add(100)), t);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Nil>, _from: NodeIdx, _msg: Nil) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Nil>, token: u64) {
        self.fired += 1;
        if self.fired < self.timers * self.refires {
            ctx.set_timer(
                SimDuration::from_micros((token % 97).saturating_add(500)),
                token,
            );
        }
    }
}

/// Arms `timers` timers on each of `n` nodes; every firing re-arms until
/// the node has fired `timers × refires` times, then the still-armed
/// timers drain (so each node fires `timers + timers × refires − 1` times
/// in total). Returns events processed.
pub fn run_timer_storm(n: usize, timers: u64, refires: u64) -> u64 {
    run_timer_storm_on::<WheelQueue>(n, timers, refires)
}

/// [`run_timer_storm`] on an explicit [`EventQueue`] implementation — the
/// heap-vs-wheel comparison entry point.
pub fn run_timer_storm_on<Q: EventQueue>(n: usize, timers: u64, refires: u64) -> u64 {
    let mut sim =
        Simulator::<TimerNode, NoopSink, Q>::with_queue(flat_topology(n), 3, NoopSink, |_| {
            TimerNode {
                timers,
                refires,
                fired: 0,
            }
        });
    assert!(sim.run_until_quiet(u64::MAX));
    sim.events_processed()
}

// --------------------------------------------------------- million node --

/// Builds the EUA-geography topology for the `million_node` workload:
/// the paper's 12 Australian regions scaled to `n` nodes, fixed
/// geographic latency (500 µs base + 5 µs/km, zero jitter, zero loss) so
/// the topology is RNG-free and therefore shardable
/// ([`Topology::delay_is_deterministic`]).
pub fn build_eua_topology(n: usize, seed: u64) -> Topology {
    let regions = eua_regions_scaled(n);
    let mut rng = sub_rng(seed, "million-node-geo");
    let placed = generate(&regions, &mut rng);
    Topology::from_placements(
        &placed,
        LatencyModel::Geo {
            base_us: 500,
            per_km_us: 5.0,
        },
    )
    .with_jitter(0.0)
}

/// Precomputes the gossip routing for [`run_million_node`]: each node's
/// successor on its zone's ring, and a mirror node in the next populated
/// zone for the periodic cross-zone beat.
pub fn zone_rings(topo: &Topology) -> (Vec<u32>, Vec<u32>) {
    let n = topo.len();
    let nregions = topo.num_regions().max(1);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); nregions];
    for i in 0..n {
        members[topo.region(i) as usize].push(i as u32);
    }
    let populated: Vec<usize> = (0..nregions).filter(|&r| !members[r].is_empty()).collect();
    let mut next = vec![0u32; n];
    let mut cross = vec![0u32; n];
    for (pi, &r) in populated.iter().enumerate() {
        let ring = &members[r];
        let other = &members[populated[(pi + 1) % populated.len()]];
        for (j, &g) in ring.iter().enumerate() {
            next[g as usize] = ring[(j + 1) % ring.len()];
            cross[g as usize] = other[g as usize % other.len()];
        }
    }
    (next, cross)
}

/// Zone gossip: a 1 kHz beat timer per node; every beat sends one small
/// message around the zone ring, and every 16th node also pings its
/// cross-zone mirror. Per-node state is 20 bytes.
struct GossipNode {
    next: u32,
    cross: u32,
    rounds: u32,
    round: u32,
    recvd: u32,
}

#[derive(Clone)]
struct Beat;

impl Payload for Beat {
    fn size_bytes(&self) -> usize {
        16
    }
}

impl Application for GossipNode {
    type Msg = Beat;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Beat>) {
        // Stagger beat phases so firings spread across the millisecond.
        let phase = 1 + (ctx.me() as u64 * 37) % 1_000;
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Beat>, _from: NodeIdx, _msg: Beat) {
        self.recvd += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Beat>, _token: u64) {
        ctx.send(self.next as usize, Beat);
        if ctx.me() % 16 == 0 {
            ctx.send(self.cross as usize, Beat);
        }
        self.round += 1;
        if self.round < self.rounds {
            ctx.set_timer(SimDuration::from_micros(1_000), 0);
        }
    }
}

/// Result of one [`run_million_node`] execution.
pub struct MillionRun {
    /// Events processed (deterministic: `n` starts + `n × rounds` timer
    /// firings + one delivery per ring send + one per cross-zone send).
    pub events: u64,
    /// Heap bytes of per-node simulator state
    /// ([`ShardedSim::state_bytes`]) — the memory-diet metric.
    pub state_bytes: usize,
}

/// Runs the zone-gossip workload over a prebuilt EUA topology on
/// `shards` shards. Topology construction is excluded (callers build it
/// once, outside timing). The clone below is a flat memcpy: cheap in time,
/// but not in memory — at 10⁶ nodes it is ~42 MB of resident set, about a
/// tenth of the run's peak.
pub fn run_million_node(
    topo: &Topology,
    next: &[u32],
    cross: &[u32],
    rounds: u32,
    shards: usize,
    seed: u64,
) -> MillionRun {
    let n = topo.len();
    let mut sim = ShardedSim::new(topo.clone(), seed, shards, |i| GossipNode {
        next: next[i],
        cross: cross[i],
        rounds,
        round: 0,
        recvd: 0,
    })
    .expect("EUA topology is shardable");
    sim.run_to_quiescence();
    let expected =
        n as u64 * u64::from(rounds) * 2 + n as u64 + n.div_ceil(16) as u64 * u64::from(rounds);
    assert_eq!(sim.events_processed(), expected, "gossip lost events");
    MillionRun {
        events: sim.events_processed(),
        state_bytes: sim.state_bytes(),
    }
}

/// [`run_million_node`] with engine self-profiling (and, when `wall` is
/// set, wall-clock phase timing) enabled. The [`EngineProfile`] is
/// derived from simulated state only, so it is identical for every
/// `shards` value; the optional [`WallProfile`] is real elapsed time and
/// belongs on a nondeterministic side channel, never on golden stdout.
pub fn run_million_node_profiled(
    topo: &Topology,
    next: &[u32],
    cross: &[u32],
    rounds: u32,
    shards: usize,
    seed: u64,
    wall: bool,
) -> (MillionRun, EngineProfile, Option<WallProfile>) {
    let n = topo.len();
    let mut sim = ShardedSim::new(topo.clone(), seed, shards, |i| GossipNode {
        next: next[i],
        cross: cross[i],
        rounds,
        round: 0,
        recvd: 0,
    })
    .expect("EUA topology is shardable")
    .with_profiling();
    if wall {
        sim = sim.with_wall_profiling();
    }
    sim.run_to_quiescence();
    let expected =
        n as u64 * u64::from(rounds) * 2 + n as u64 + n.div_ceil(16) as u64 * u64::from(rounds);
    assert_eq!(sim.events_processed(), expected, "gossip lost events");
    let profile = sim.engine_profile().expect("profiling enabled");
    let wall_profile = sim.wall_profile();
    (
        MillionRun {
            events: sim.events_processed(),
            state_bytes: sim.state_bytes(),
        },
        profile,
        wall_profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn million_node_is_shard_invariant_and_exact() {
        let topo = build_eua_topology(600, 42);
        let (next, cross) = zone_rings(&topo);
        let n = topo.len() as u64;
        let r1 = run_million_node(&topo, &next, &cross, 3, 1, 42);
        let r4 = run_million_node(&topo, &next, &cross, 3, 4, 42);
        assert_eq!(r1.events, r4.events);
        assert_eq!(r1.events, n + n * 6 + (n as usize).div_ceil(16) as u64 * 3);
        assert!(r1.state_bytes > 0);
    }

    #[test]
    fn zone_rings_stay_inside_zones() {
        let topo = build_eua_topology(500, 7);
        let (next, cross) = zone_rings(&topo);
        for i in 0..topo.len() {
            assert_eq!(topo.region(i), topo.region(next[i] as usize));
            assert_ne!(topo.region(i), topo.region(cross[i] as usize));
        }
    }

    #[test]
    fn churn_event_count_is_exact() {
        let events = run_event_churn(50, 4, 100);
        assert_eq!(events, 50 + 4 * 101);
    }

    #[test]
    fn multicast_flavors_process_identical_events() {
        let cloned = run_multicast(85, 4, 256, 2, false);
        let shared = run_multicast(85, 4, 256, 2, true);
        // The sharing optimization must be invisible to the event stream.
        assert_eq!(cloned, shared);
        // n starts + 2 rounds × (n - 1) deliveries.
        assert_eq!(cloned, 85 + 2 * 84);
    }

    #[test]
    fn slab_slot_sizes_are_pinned() {
        // `simnet.state_bytes` is slab capacity x slot size, and the
        // benchmark's exact ledger pins it: `engine_gossip`'s message, and
        // the overlay workloads' (`dissemination`, `churn_recovery`).
        use totoro_simnet::event_slot_bytes;
        type OverlayMsg = totoro_dht::DhtMsg<totoro_pubsub::TreeMsg<crate::setups::Blob>>;
        assert_eq!(event_slot_bytes::<Beat>(), 24);
        assert_eq!(event_slot_bytes::<OverlayMsg>(), 128);
    }

    #[test]
    fn timer_storm_fires_every_timer() {
        let events = run_timer_storm(20, 8, 3);
        // n starts + n × (timers + timers × refires − 1) firings.
        assert_eq!(events, 20 + 20 * (8 + 8 * 3 - 1));
    }

    #[test]
    fn traced_churn_is_queue_invariant() {
        use totoro_simnet::{jsonl_trace, HeapQueue};
        let wheel = run_event_churn_traced::<WheelQueue>(50, 4, 40);
        let heap = run_event_churn_traced::<HeapQueue>(50, 4, 40);
        assert!(!wheel.is_empty());
        assert_eq!(jsonl_trace(&wheel), jsonl_trace(&heap));
    }

    #[test]
    fn churn_profile_is_deterministic_and_counts_events() {
        let a = profile_event_churn(50, 4, 40);
        let b = profile_event_churn(50, 4, 40);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.groups > 0);
        let ratio = a.singleton_ratio();
        assert!((0.0..=1.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn million_node_profile_is_shard_invariant() {
        let topo = build_eua_topology(600, 42);
        let (next, cross) = zone_rings(&topo);
        let (r1, p1, w1) = run_million_node_profiled(&topo, &next, &cross, 3, 1, 42, false);
        let (r4, p4, w4) = run_million_node_profiled(&topo, &next, &cross, 3, 4, 42, true);
        assert_eq!(r1.events, r4.events);
        assert_eq!(
            p1.to_json(),
            p4.to_json(),
            "engine profile must not see shard count"
        );
        assert!(w1.is_none());
        let w4 = w4.expect("wall profiling requested");
        assert_eq!(w4.shards, 4);
        assert!(p1.windows > 0);
        assert!(p1.remote_msgs > 0);
    }

    #[test]
    fn queue_choice_is_invisible_to_event_counts() {
        use totoro_simnet::HeapQueue;
        assert_eq!(
            run_event_churn_on::<HeapQueue>(50, 4, 100),
            run_event_churn_on::<WheelQueue>(50, 4, 100),
        );
        assert_eq!(
            run_timer_storm_on::<HeapQueue>(20, 8, 3),
            run_timer_storm_on::<WheelQueue>(20, 8, 3),
        );
    }
}
