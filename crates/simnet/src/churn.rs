//! Churn schedule generation.
//!
//! Edge nodes "fail or lag unexpectedly" (§2.2.2); the adaptivity
//! experiments (Figure 12) kill 5% of each tree's nodes simultaneously. A
//! [`ChurnSchedule`] is a reproducible list of down/up events that an
//! experiment driver feeds into the simulator before running.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::time::{SimDuration, SimTime};
use crate::topology::NodeIdx;

/// One scheduled availability change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the change happens.
    pub at: SimTime,
    /// Which node changes state.
    pub node: NodeIdx,
    /// `true` = node goes down, `false` = node comes back up.
    pub down: bool,
}

/// A reproducible list of churn events, sorted by time.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// An empty schedule (no churn).
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Kills a random `fraction` of `candidates` simultaneously at `at`,
    /// never reviving them — the Figure 12 workload.
    pub fn mass_failure(
        candidates: &[NodeIdx],
        fraction: f64,
        at: SimTime,
        rng: &mut StdRng,
    ) -> Self {
        let mut pool: Vec<NodeIdx> = candidates.to_vec();
        pool.shuffle(rng);
        let k = ((candidates.len() as f64 * fraction).round() as usize).min(pool.len());
        let events = pool[..k]
            .iter()
            .map(|&node| ChurnEvent {
                at,
                node,
                down: true,
            })
            .collect();
        ChurnSchedule { events }
    }

    /// Continuous churn: over `[start, end)`, each event at an exponential
    /// inter-arrival time with mean `mean_gap` takes a random up node down
    /// for `outage` and then revives it.
    pub fn continuous(
        candidates: &[NodeIdx],
        start: SimTime,
        end: SimTime,
        mean_gap: SimDuration,
        outage: SimDuration,
        rng: &mut StdRng,
    ) -> Self {
        let mut events = Vec::new();
        let mut t = start;
        loop {
            let gap = exponential(mean_gap, rng);
            t += gap;
            if t >= end || candidates.is_empty() {
                break;
            }
            let node = candidates[rng.gen_range(0..candidates.len())];
            events.push(ChurnEvent {
                at: t,
                node,
                down: true,
            });
            events.push(ChurnEvent {
                at: t + outage,
                node,
                down: false,
            });
        }
        events.sort_by_key(|e| (e.at, e.node));
        ChurnSchedule { events }
    }

    /// A schedule built from explicit events (sorted canonically).
    pub fn from_events(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.node, e.down));
        ChurnSchedule { events }
    }

    /// Merges two schedules into one canonical event list.
    ///
    /// The result is sorted by `(at, node, down)`, so merging is
    /// commutative and the merged schedule drives the simulator identically
    /// regardless of which plan contributed which event.
    pub fn merge(mut self, other: ChurnSchedule) -> Self {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| (e.at, e.node, e.down));
        self
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last event, if any.
    pub fn last_event_at(&self) -> Option<SimTime> {
        self.events.iter().map(|e| e.at).max()
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of distinct nodes that go down at least once.
    pub fn nodes_affected(&self) -> usize {
        let mut nodes: Vec<NodeIdx> = self
            .events
            .iter()
            .filter(|e| e.down)
            .map(|e| e.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Applies the schedule to a simulator.
    pub fn apply<A: crate::sim::Application, S: crate::obs::TraceSink>(
        &self,
        sim: &mut crate::sim::Simulator<A, S>,
    ) {
        for e in &self.events {
            if e.down {
                sim.schedule_down(e.node, e.at);
            } else {
                sim.schedule_up(e.node, e.at);
            }
        }
    }
}

fn exponential(mean: SimDuration, rng: &mut StdRng) -> SimDuration {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::sub_rng;

    #[test]
    fn mass_failure_kills_expected_fraction() {
        let mut rng = sub_rng(1, "churn");
        let candidates: Vec<NodeIdx> = (0..200).collect();
        let s =
            ChurnSchedule::mass_failure(&candidates, 0.05, SimTime::from_micros(1_000), &mut rng);
        assert_eq!(s.events().len(), 10);
        assert_eq!(s.nodes_affected(), 10);
        assert!(s.events().iter().all(|e| e.down));
        assert!(s
            .events()
            .iter()
            .all(|e| e.at == SimTime::from_micros(1_000)));
    }

    #[test]
    fn mass_failure_has_no_duplicates() {
        let mut rng = sub_rng(2, "churn");
        let candidates: Vec<NodeIdx> = (0..50).collect();
        let s = ChurnSchedule::mass_failure(&candidates, 0.5, SimTime::ZERO, &mut rng);
        let mut nodes: Vec<NodeIdx> = s.events().iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), s.events().len());
    }

    #[test]
    fn continuous_churn_pairs_down_with_up() {
        let mut rng = sub_rng(3, "churn");
        let candidates: Vec<NodeIdx> = (0..20).collect();
        let s = ChurnSchedule::continuous(
            &candidates,
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
            &mut rng,
        );
        let downs = s.events().iter().filter(|e| e.down).count();
        let ups = s.events().iter().filter(|e| !e.down).count();
        assert_eq!(downs, ups);
        assert!(downs > 10, "expected many events, got {downs}");
        // Sorted by time.
        assert!(s.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn empty_candidates_yield_empty_schedule() {
        let mut rng = sub_rng(4, "churn");
        let s = ChurnSchedule::mass_failure(&[], 0.5, SimTime::ZERO, &mut rng);
        assert!(s.events().is_empty());
    }

    #[test]
    fn merge_basics() {
        let a = ChurnSchedule::from_events(vec![ChurnEvent {
            at: SimTime::from_micros(5),
            node: 1,
            down: true,
        }]);
        let b = ChurnSchedule::none();
        assert!(b.is_empty());
        assert!(!a.is_empty());
        assert_eq!(a.last_event_at(), Some(SimTime::from_micros(5)));
        assert_eq!(b.last_event_at(), None);
        let m = a.clone().merge(b);
        assert_eq!(m.events(), a.events());
    }

    /// Satellite property: merging two schedules preserves the union of
    /// events, canonical ordering, and per-node down/up pairing — and is
    /// commutative, so a merged [`crate::chaos::FaultPlan`] schedules the
    /// exact same simulator down/up events as its parts would.
    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        fn arb_schedule(seed_lo: u64) -> impl Strategy<Value = ChurnSchedule> {
            (seed_lo..seed_lo + 1_000u64, 0usize..30).prop_map(|(seed, n)| {
                let mut rng = sub_rng(seed, "churn-prop");
                let candidates: Vec<NodeIdx> = (0..16).collect();
                let mut events = Vec::new();
                for _ in 0..n {
                    let node = candidates[rng.gen_range(0..candidates.len())];
                    let at = SimTime::from_micros(rng.gen_range(0..1_000_000));
                    let outage = SimDuration::from_micros(rng.gen_range(1..100_000));
                    events.push(ChurnEvent {
                        at,
                        node,
                        down: true,
                    });
                    events.push(ChurnEvent {
                        at: at + outage,
                        node,
                        down: false,
                    });
                }
                ChurnSchedule::from_events(events)
            })
        }

        fn down_up_counts(s: &ChurnSchedule) -> BTreeMap<NodeIdx, (usize, usize)> {
            let mut counts: BTreeMap<NodeIdx, (usize, usize)> = BTreeMap::new();
            for e in s.events() {
                let c = counts.entry(e.node).or_default();
                if e.down {
                    c.0 += 1;
                } else {
                    c.1 += 1;
                }
            }
            counts
        }

        fn sorted_union(a: &ChurnSchedule, b: &ChurnSchedule) -> Vec<ChurnEvent> {
            let mut all: Vec<ChurnEvent> = a.events().iter().chain(b.events()).copied().collect();
            all.sort_by_key(|e| (e.at, e.node, e.down));
            all
        }

        proptest! {
            #[test]
            #[cfg_attr(miri, ignore = "proptest persistence and case volume break under Miri")]
            fn merge_is_union_sorted_and_commutative(
                a in arb_schedule(0),
                b in arb_schedule(10_000),
            ) {
                let ab = a.clone().merge(b.clone());
                let ba = b.clone().merge(a.clone());
                // Multiset union, canonically ordered.
                let union = sorted_union(&a, &b);
                prop_assert_eq!(ab.events(), union.as_slice());
                // Commutative.
                prop_assert_eq!(ab.events(), ba.events());
                // Canonical sort key holds.
                prop_assert!(ab
                    .events()
                    .windows(2)
                    .all(|w| (w[0].at, w[0].node, w[0].down)
                        <= (w[1].at, w[1].node, w[1].down)));
                prop_assert_eq!(
                    ab.last_event_at(),
                    a.last_event_at().max(b.last_event_at())
                );
            }

            #[test]
            #[cfg_attr(miri, ignore = "proptest persistence and case volume break under Miri")]
            fn merge_preserves_down_up_pairing(
                a in arb_schedule(20_000),
                b in arb_schedule(30_000),
            ) {
                // Each generated schedule pairs every down with an up; the
                // merged per-node counts are the sums of the parts, so no
                // pairing is created or destroyed by merging.
                let merged = down_up_counts(&a.clone().merge(b.clone()));
                let (ca, cb) = (down_up_counts(&a), down_up_counts(&b));
                for (node, &(downs, ups)) in &merged {
                    prop_assert_eq!(downs, ups, "node {} unpaired after merge", node);
                    let pa = ca.get(node).copied().unwrap_or((0, 0));
                    let pb = cb.get(node).copied().unwrap_or((0, 0));
                    prop_assert_eq!((downs, ups), (pa.0 + pb.0, pa.1 + pb.1));
                }
            }

            #[test]
            #[cfg_attr(miri, ignore = "proptest persistence and case volume break under Miri")]
            fn merge_is_deterministic(a in arb_schedule(40_000), b in arb_schedule(50_000)) {
                let once = a.clone().merge(b.clone());
                let twice = a.merge(b);
                prop_assert_eq!(once.events(), twice.events());
            }
        }
    }
}
