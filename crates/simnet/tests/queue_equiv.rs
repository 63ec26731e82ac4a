//! Differential tests pinning the [`EventQueue`] equivalence contract:
//! for any schedule, [`HeapQueue`] and [`WheelQueue`] yield the identical
//! `(time, seq)` → `(slot, dst)` sequence, so swapping the simulator's queue can
//! never change a result byte. Random schedules (including re-arming
//! rotations, cancellations, wheel-overflow spill, same-bucket ties, and
//! one-tick bursts that cross many bucket-chunk boundaries) are replayed
//! through both queues, and whole simulations are run once per queue and
//! compared field for field.

use proptest::prelude::*;
use totoro_simnet::queue::{EventKey, EventQueue, HeapQueue, WheelQueue};
use totoro_simnet::sim::{Application, Ctx, Payload, Simulator};
use totoro_simnet::{
    ChurnSchedule, NodeIdx, NoopSink, SimDuration, SimTime, Topology, TrialReport,
};

/// One step of a random schedule, mirroring how the simulator drives its
/// queue: pushes are clamped to the current time, pops advance it.
#[derive(Clone, Debug)]
enum Op {
    /// Push an event `delta` µs after the current time.
    Push { delta: u64 },
    /// Pop the head (a no-op on an empty queue).
    Pop,
    /// Pop the head only if due within `window` µs of the current time.
    PopBefore { window: u64 },
    /// Pop the head and re-arm it `delta` µs later under a fresh seq — a
    /// timer rotation. Dropping the popped identity is a cancellation.
    Rotate { delta: u64 },
    /// Push `count` events into the one 64 µs tick starting at the first
    /// multiple of 64 at or after `now + delta`: many chunks of one bucket,
    /// or of the late heap when that tick has already drained.
    Burst { delta: u64, count: u64 },
}

/// Decodes a `(selector, raw)` pair into an [`Op`]. Push deltas span all
/// three queue bands: same-bucket ties (< 64 µs), the wheel window
/// (~65 ms), and far-future overflow spill; bursts land in a drained tick,
/// a bucket, or the overflow band.
fn decode(sel: u8, raw: u64) -> Op {
    match sel {
        0 => Op::Push { delta: raw % 64 },
        1 => Op::Push {
            delta: 64 + raw % 70_000,
        },
        2 => Op::Push {
            delta: 70_000 + raw % 130_000,
        },
        3 => Op::Push {
            delta: 10_000_000 + raw % 90_000_000,
        },
        4 | 5 => Op::Pop,
        6 => Op::PopBefore {
            window: raw % 150_000,
        },
        7 => Op::Rotate {
            delta: raw % 200_000,
        },
        _ => Op::Burst {
            delta: match (raw >> 16) % 4 {
                0 => 0,
                _ => (raw >> 18) % 140_000,
            },
            count: 200 + raw % 4_801,
        },
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..9, any::<u64>()).prop_map(|(sel, raw)| decode(sel, raw))
}

/// The destination filed with `slot`: distinct per slot, so a record that
/// came back carrying another record's cargo is caught.
fn dst_of(slot: u32) -> NodeIdx {
    slot as NodeIdx * 3 + 1
}

/// Replays `ops` through both queues in lockstep, asserting every
/// observation — peeks, pops, lengths — is identical.
fn replay(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut heap = HeapQueue::with_capacity(16);
    let mut wheel = WheelQueue::with_capacity(16);
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut slot = 0u32;
    for op in ops {
        match op {
            Op::Push { delta } => {
                let key = EventKey {
                    time: SimTime::from_micros(now + delta),
                    seq,
                };
                heap.push(key, slot, dst_of(slot));
                wheel.push(key, slot, dst_of(slot));
                seq += 1;
                slot = slot.wrapping_add(1);
            }
            Op::Pop => {
                let (h, w) = (heap.pop(), wheel.pop());
                prop_assert_eq!(h, w);
                if let Some((key, s, dst)) = h {
                    prop_assert_eq!(dst, dst_of(s), "record lost its destination");
                    prop_assert!(key.time.as_micros() >= now, "time went backwards");
                    now = key.time.as_micros();
                }
            }
            Op::PopBefore { window } => {
                let deadline = SimTime::from_micros(now + window);
                let (h, w) = (heap.pop_before(deadline), wheel.pop_before(deadline));
                prop_assert_eq!(h, w);
                if let Some((key, ..)) = h {
                    prop_assert!(key.time <= deadline, "popped past the deadline");
                    now = key.time.as_micros();
                }
            }
            Op::Rotate { delta } => {
                let (h, w) = (heap.pop(), wheel.pop());
                prop_assert_eq!(h, w);
                if let Some((key, s, dst)) = h {
                    now = key.time.as_micros();
                    let rekey = EventKey {
                        time: SimTime::from_micros(now + delta),
                        seq,
                    };
                    heap.push(rekey, s, dst);
                    wheel.push(rekey, s, dst);
                    seq += 1;
                }
            }
            Op::Burst { delta, count } => {
                let tick_start = (now + delta).next_multiple_of(64);
                for i in 0..*count {
                    let key = EventKey {
                        time: SimTime::from_micros(tick_start + (i * 37) % 64),
                        seq,
                    };
                    heap.push(key, slot, dst_of(slot));
                    wheel.push(key, slot, dst_of(slot));
                    seq += 1;
                    slot = slot.wrapping_add(1);
                }
            }
        }
        prop_assert_eq!(heap.len(), wheel.len());
        prop_assert_eq!(heap.peek(), wheel.peek());
    }
    // Drain whatever remains: the tails must agree too.
    loop {
        let (h, w) = (heap.pop(), wheel.pop());
        prop_assert_eq!(h, w);
        if h.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    /// Random push/pop/pop_before/rotate interleavings drain identically
    /// from heap and wheel, spill bands included.
    #[test]
    fn heap_and_wheel_agree_on_random_schedules(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        replay(&ops)?;
    }

    /// Dense same-time ties: many keys share one due time, so ordering
    /// falls entirely to `seq` — the batched-delivery grouping case.
    #[test]
    fn ties_resolve_by_seq_identically(
        times in proptest::collection::vec(0u64..256, 2..64),
        pops in 1usize..32
    ) {
        let mut heap = HeapQueue::with_capacity(16);
        let mut wheel = WheelQueue::with_capacity(16);
        for (seq, t) in times.iter().enumerate() {
            let key = EventKey { time: SimTime::from_micros(*t), seq: seq as u64 };
            heap.push(key, seq as u32, dst_of(seq as u32));
            wheel.push(key, seq as u32, dst_of(seq as u32));
        }
        for _ in 0..pops {
            prop_assert_eq!(heap.pop(), wheel.pop());
        }
        // Late pushes below the already-drained horizon still order
        // correctly against the surviving entries.
        let reseq = times.len() as u64;
        for (i, t) in times.iter().take(8).enumerate() {
            let key = EventKey { time: SimTime::from_micros(*t), seq: reseq + i as u64 };
            heap.push(key, 1_000 + i as u32, dst_of(i as u32));
            wheel.push(key, 1_000 + i as u32, dst_of(i as u32));
        }
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            prop_assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }
}

/// The sharded engine's start phase at a tenth of `engine_gossip`'s scale:
/// every node's `Start` at time zero, one pop, then the first callbacks'
/// sends closed to 1–63 µs — late pushes into the tick just drained, each
/// landing among 100 k drained keys.
#[test]
fn start_phase_late_pushes_agree() {
    const NODES: u64 = 100_000;
    let mut heap = HeapQueue::with_capacity(NODES as usize);
    let mut wheel = WheelQueue::with_capacity(NODES as usize);
    // Sharded keys: `(origin << 40) | per-origin counter`.
    for node in 0..NODES {
        let key = EventKey {
            time: SimTime::ZERO,
            seq: node << 40,
        };
        heap.push(key, node as u32, dst_of(node as u32));
        wheel.push(key, node as u32, dst_of(node as u32));
    }
    assert_eq!(heap.pop(), wheel.pop());
    for j in 0..6_300u64 {
        let origin = (j * 15) % NODES;
        let key = EventKey {
            time: SimTime::from_micros(1 + j % 63),
            seq: (origin << 40) | 1,
        };
        let slot = (NODES + j) as u32;
        heap.push(key, slot, dst_of(slot));
        wheel.push(key, slot, dst_of(slot));
    }
    assert_eq!(heap.len(), wheel.len());
    assert_eq!(heap.peek(), wheel.peek());
    let mut drained = 0;
    loop {
        let (h, w) = (heap.pop(), wheel.pop());
        assert_eq!(h, w, "diverged after {drained} pops");
        if h.is_none() {
            break;
        }
        drained += 1;
    }
    assert_eq!(drained, NODES - 1 + 6_300);
}

// --------------------------------------------------------- sim level ----

/// A ring protocol with periodic timers: exercises sends, re-arming
/// timers, failure bounces, and churn — every enqueue source at once.
struct RingNode {
    n: usize,
    hops_left: u64,
    ticks: u64,
}

#[derive(Clone)]
struct Token(u64);

impl Payload for Token {
    fn size_bytes(&self) -> usize {
        64
    }
}

impl Application for RingNode {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
        if ctx.me() == 0 {
            ctx.send(1 % self.n, Token(1));
        }
        ctx.set_timer(SimDuration::from_micros(500 + ctx.me() as u64 * 37), 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: NodeIdx, msg: Token) {
        if msg.0 < self.hops_left {
            ctx.send((ctx.me() + 1) % self.n, Token(msg.0 + 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Token>, token: u64) {
        self.ticks += 1;
        if self.ticks < 50 {
            // Re-arm with a drifting stride so firings spread over buckets.
            ctx.set_timer(SimDuration::from_micros(300 + self.ticks * 91), token);
        }
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, Token>) {
        ctx.set_timer(SimDuration::from_micros(200), 1);
    }
}

fn run_ring<Q: EventQueue>(seed: u64, churn: bool) -> TrialReport {
    let n = 24;
    let topology = Topology::uniform(n, 800, 9_000).with_loss(0.01);
    let mut sim =
        Simulator::<RingNode, NoopSink, Q>::with_queue(topology, seed, NoopSink, |_| RingNode {
            n,
            hops_left: 400,
            ticks: 0,
        });
    if churn {
        let candidates: Vec<NodeIdx> = (0..n).collect();
        let mut churn_rng = totoro_simnet::sub_rng(seed, "queue-equiv-churn");
        let schedule = ChurnSchedule::continuous(
            &candidates,
            SimTime::from_micros(1_000),
            SimTime::from_micros(40_000),
            SimDuration::from_micros(4_000),
            SimDuration::from_micros(15_000),
            &mut churn_rng,
        );
        schedule.apply(&mut sim);
    }
    sim.run_until_quiet(2_000_000);
    TrialReport::capture(&sim)
}

/// The full simulator — sends, timers, churn, bounces, drops — produces an
/// identical trial report on both queue implementations.
#[test]
fn simulations_agree_across_queues() {
    for seed in [1u64, 7, 42] {
        for churn in [false, true] {
            let heap = run_ring::<HeapQueue>(seed, churn);
            let wheel = run_ring::<WheelQueue>(seed, churn);
            assert_eq!(
                heap.to_json(),
                wheel.to_json(),
                "seed {seed} churn {churn}: heap and wheel diverged"
            );
        }
    }
}

/// `step_before` honours deadlines identically on both queues, including
/// refusing not-yet-due heads without disturbing them.
#[test]
fn step_before_deadlines_agree_across_queues() {
    fn drive<Q: EventQueue>() -> Vec<(Option<u64>, usize)> {
        let topology = Topology::uniform(6, 1_000, 2_000);
        let mut sim =
            Simulator::<RingNode, NoopSink, Q>::with_queue(topology, 3, NoopSink, |_| RingNode {
                n: 6,
                hops_left: 40,
                ticks: 0,
            });
        let mut observed = Vec::new();
        let mut deadline = 0u64;
        loop {
            let t = sim.step_before(SimTime::from_micros(deadline));
            observed.push((t.map(|t| t.as_micros()), sim.pending_events()));
            match t {
                Some(_) => {}
                None if sim.pending_events() == 0 => break,
                None => deadline += 700,
            }
            if observed.len() > 100_000 {
                break;
            }
        }
        observed
    }
    assert_eq!(drive::<HeapQueue>(), drive::<WheelQueue>());
}
