//! Simulator hot-path workloads: the event-churn and timer-storm probes
//! and the `engine_gossip` workload of the benchmark harness under
//! `benchmark/`.
//!
//! Each workload is a deterministic pure function from sizes to a finished
//! run, returning what the run processed; callers wrap them in wall-clock
//! timing to derive events/sec. Three pressure points are covered:
//!
//! * **event churn** — many tiny messages hopping a ring: the raw cost of
//!   the queue + slab + scratch event loop;
//! * **timer storm** — thousands of concurrently armed timers: queue
//!   pressure with zero-byte payloads;
//! * **million node** — zone gossip over the EUA geography, at up to 10⁶
//!   nodes.

use totoro_simnet::geo::{eua_regions_scaled, generate};
use totoro_simnet::{
    sub_rng, Application, Ctx, EngineProfile, LatencyModel, NodeIdx, NoopSink, Payload,
    RecordingSink, SimDuration, Simulator, Topology, TraceRecord, TraceSink,
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

/// Builds the `n`-ring the churn workload runs on.
fn churn_ring<S: TraceSink>(n: usize, sink: S) -> Simulator<ChurnNode, S> {
    Simulator::with_sink(flat_topology(n), 1, sink, |_| ChurnNode { n })
}

/// Launches `tokens` tokens (at most one per node), each with `hops` hops
/// to go.
fn launch_tokens<S: TraceSink>(sim: &mut Simulator<ChurnNode, S>, tokens: usize, hops: u64) {
    let n = sim.len();
    for t in 0..tokens.min(n) {
        let _ = sim.with_app(t, |_node, ctx| {
            let next = (ctx.me() + 1) % n;
            ctx.send(next, Hop(hops));
        });
    }
}

/// Circulates `tokens` tokens around an `n`-ring, each making `hops + 1`
/// deliveries. Returns events processed (exactly
/// `n` starts + `tokens × (hops + 1)` deliveries).
pub fn run_event_churn(n: usize, tokens: usize, hops: u64) -> u64 {
    let mut sim = churn_ring(n, NoopSink);
    launch_tokens(&mut sim, tokens, hops);
    assert!(sim.run_until_quiet(u64::MAX));
    sim.events_processed()
}

/// [`run_event_churn`] with a [`RecordingSink`] installed: returns the
/// buffered trace records instead of the event count.
pub fn run_event_churn_traced(n: usize, tokens: usize, hops: u64) -> Vec<TraceRecord> {
    let mut sim = churn_ring(n, RecordingSink::new(0));
    launch_tokens(&mut sim, tokens, hops);
    assert!(sim.run_until_quiet(u64::MAX));
    sim.into_sink().take_records()
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
    let mut sim = Simulator::new(flat_topology(n), 3, |_| TimerNode {
        timers,
        refires,
        fired: 0,
    });
    assert!(sim.run_until_quiet(u64::MAX));
    sim.events_processed()
}

// --------------------------------------------------------- million node --

/// Builds the EUA-geography topology for the `million_node` workload:
/// the paper's 12 Australian regions scaled to `n` nodes, fixed
/// geographic latency (500 µs base + 5 µs/km, zero jitter, zero loss) so
/// sampling a delay never draws from the RNG.
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
    /// ([`Simulator::state_bytes`]) — the memory-diet metric.
    pub state_bytes: usize,
}

/// The gossip simulator over a clone of `topo`. The clone shares the
/// topology's per-node tables rather than copying them (~42 MB at 10⁶
/// nodes), though `state_bytes` still counts them, as it counts every
/// simulator's topology.
fn gossip_sim(
    topo: &Topology,
    next: &[u32],
    cross: &[u32],
    rounds: u32,
    seed: u64,
) -> Simulator<GossipNode> {
    Simulator::new(topo.clone(), seed, |i| GossipNode {
        next: next[i],
        cross: cross[i],
        rounds,
        round: 0,
        recvd: 0,
    })
}

/// Runs `sim` to quiescence, checks that no event was lost, and reports.
fn finish_gossip(
    mut sim: Simulator<GossipNode>,
    rounds: u32,
) -> (MillionRun, Simulator<GossipNode>) {
    assert!(sim.run_until_quiet(u64::MAX));
    let n = sim.len() as u64;
    let expected = n * u64::from(rounds) * 2 + n + n.div_ceil(16) * u64::from(rounds);
    assert_eq!(sim.events_processed(), expected, "gossip lost events");
    let run = MillionRun {
        events: sim.events_processed(),
        state_bytes: sim.state_bytes(),
    };
    (run, sim)
}

/// Runs the zone-gossip workload over a prebuilt EUA topology. Topology
/// construction is excluded (callers build it once, outside timing).
///
/// The shard count is accepted and ignored: the benchmark harness under
/// `benchmark/` still passes one (1, and 2 for `simnet.shard2_run_s`),
/// and every run is one sequential event loop.
pub fn run_million_node(
    topo: &Topology,
    next: &[u32],
    cross: &[u32],
    rounds: u32,
    _shards: usize,
    seed: u64,
) -> MillionRun {
    finish_gossip(gossip_sim(topo, next, cross, rounds, seed), rounds).0
}

/// [`run_million_node`] with engine self-profiling enabled. The
/// [`EngineProfile`] is derived from simulated state only. The shard
/// count and the `wall` flag are accepted and ignored, kept for the
/// benchmark harness's call (it passes `wall = false` and binds the third
/// element to `_`).
pub fn run_million_node_profiled(
    topo: &Topology,
    next: &[u32],
    cross: &[u32],
    rounds: u32,
    _shards: usize,
    seed: u64,
    _wall: bool,
) -> (MillionRun, EngineProfile, ()) {
    let mut sim = gossip_sim(topo, next, cross, rounds, seed);
    sim.enable_profiling();
    let (run, sim) = finish_gossip(sim, rounds);
    let profile = sim.engine_profile().expect("profiling enabled");
    (run, profile, ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use totoro_simnet::json::ToJson;

    #[test]
    fn million_node_is_shard_invariant_and_exact() {
        // The harness still passes `shards` 1 and 2; both run the same
        // sequential loop.
        let topo = build_eua_topology(600, 42);
        let (next, cross) = zone_rings(&topo);
        let n = topo.len() as u64;
        let r1 = run_million_node(&topo, &next, &cross, 3, 1, 42);
        let r2 = run_million_node(&topo, &next, &cross, 3, 2, 42);
        assert_eq!(r1.events, n + n * 6 + n.div_ceil(16) * 3);
        assert_eq!((r1.events, r1.state_bytes), (r2.events, r2.state_bytes));
        assert!(r1.state_bytes > topo.heap_bytes());
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
    fn slab_slot_sizes_are_pinned() {
        // The payload slab's slot, which only deliveries occupy (timers and
        // failure bounces take 8-byte word cells). `engine_gossip`'s
        // `simnet.state_bytes` counts slab capacity x this size, but its
        // committed ledger is the benchmark's one known drift, so it does
        // not guard these sizes; this test does. The overlay workloads'
        // (`dissemination`, `churn_recovery`) `state_bytes` is protocol
        // state, which does not include the slab.
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
    fn churn_profile_is_deterministic_and_counts_events() {
        let profile = || {
            let mut sim = churn_ring(50, NoopSink);
            sim.enable_profiling();
            launch_tokens(&mut sim, 4, 40);
            assert!(sim.run_until_quiet(u64::MAX));
            sim.engine_profile().expect("profiling enabled")
        };
        let (a, b) = (profile(), profile());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.groups > 0);
        let ratio = a.singleton_ratio();
        assert!((0.0..=1.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn million_node_profile_is_shard_invariant() {
        // Neither the shard count nor `wall` reaches the run.
        let topo = build_eua_topology(600, 42);
        let (next, cross) = zone_rings(&topo);
        let plain = run_million_node(&topo, &next, &cross, 3, 1, 42);
        let (p1, profile1, ()) = run_million_node_profiled(&topo, &next, &cross, 3, 1, 42, false);
        let (p2, profile2, ()) = run_million_node_profiled(&topo, &next, &cross, 3, 2, 42, true);
        assert_eq!((p1.events, p1.state_bytes), (p2.events, p2.state_bytes));
        assert_eq!(p1.events, plain.events);
        assert_eq!(profile1.to_json(), profile2.to_json());
        assert!(profile1.windows > 0);
        assert!(profile1.remote_msgs > 0);
    }
}
