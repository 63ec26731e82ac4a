//! Composable deterministic fault injection and live invariant checking.
//!
//! DESIGN.md names the goal directly: "kill nodes mid-round and verify
//! recovery" under "churn schedules, link-loss spikes, straggler
//! injection". This module supplies the two halves of that harness:
//!
//! * A [`FaultPlan`] — a composable list of windowed [`Fault`]s (Bernoulli
//!   link-loss spikes, zone partitions, per-node straggler delay
//!   multipliers, message duplication) plus a [`ChurnSchedule`]. Plans are
//!   pure data: they merge, they shrink (drop one atom at a time), and they
//!   compile into a [`ChaosInjector`] whose every stochastic decision comes
//!   from a per-fault RNG stream derived from the fault's *content*, so a
//!   fault behaves identically whether its plan runs alone or merged into a
//!   larger one, and every run is reproducible from `(plan, seed)`.
//! * An [`Invariant`] trait evaluated live at configurable sim-time
//!   checkpoints by [`run_with_invariants`] — FoundationDB-style continuous
//!   checking rather than a single end-of-run assertion. Invariants declare
//!   a [`InvariantPhase`]: `Always` oracles (e.g. aggregation conservation)
//!   run at every checkpoint, `Quiescent` oracles (e.g. routing
//!   consistency, tree coverage) only after the last fault has cleared and
//!   the protocols had time to repair.
//!
//! The injector is consulted in the simulator's send path *after* the
//! normal loss/delay sampling, so installing no chaos leaves the main RNG
//! stream — and therefore every golden fixture — untouched.

use rand::rngs::StdRng;
use rand::Rng;

use crate::churn::ChurnSchedule;
use crate::rng::sub_rng;
use crate::sim::{Application, Simulator};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeIdx, Topology};

/// The kind of one injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Bernoulli link loss: every message sent while the fault is active is
    /// dropped with probability `prob` (on top of the topology's base loss).
    LossSpike {
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
    },
    /// Network partition by zone: messages crossing the boundary between
    /// the listed topology regions and the rest of the network are dropped.
    Partition {
        /// Topology regions on one side of the cut.
        zones: Vec<u16>,
    },
    /// Stragglers: network delay to or from the listed nodes is multiplied
    /// by `factor` (modelling slow uplinks / overloaded devices that lag
    /// without failing).
    Straggler {
        /// The lagging nodes.
        nodes: Vec<NodeIdx>,
        /// Delay multiplier (≥ 1).
        factor: u64,
    },
    /// Message duplication: every message sent while the fault is active is
    /// delivered twice with probability `prob` (modelling retransmission
    /// bugs / at-least-once transports).
    Duplicate {
        /// Per-message duplication probability in `[0, 1]`.
        prob: f64,
    },
}

/// One windowed fault: `kind` is active for `from <= now < until`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// When the fault starts.
    pub from: SimTime,
    /// When the fault clears (exclusive).
    pub until: SimTime,
    /// What the fault does.
    pub kind: FaultKind,
}

impl Fault {
    /// Builds a fault active over `[from, until)`.
    pub fn new(from: SimTime, until: SimTime, kind: FaultKind) -> Self {
        assert!(from <= until, "fault window ends before it starts");
        Fault { from, until, kind }
    }

    /// A stable, content-derived label naming this fault.
    ///
    /// The label seeds the fault's private RNG stream (via
    /// [`crate::rng::derive_seed`]), so it depends only on *what* the fault
    /// is — never on its position in a plan. Merging plans therefore
    /// preserves every fault's random stream exactly.
    pub fn label(&self) -> String {
        let window = format!("@{}..{}", self.from.as_micros(), self.until.as_micros());
        match &self.kind {
            FaultKind::LossSpike { prob } => format!("loss[{prob}]{window}"),
            FaultKind::Partition { zones } => format!("partition[{zones:?}]{window}"),
            FaultKind::Straggler { nodes, factor } => {
                format!("straggler[x{factor},{nodes:?}]{window}")
            }
            FaultKind::Duplicate { prob } => format!("dup[{prob}]{window}"),
        }
    }
}

/// A composable, seed-reproducible fault schedule: windowed faults plus a
/// churn schedule. The unit of composition (and of shrinking) is an *atom*:
/// each fault is one atom, the churn schedule (when non-empty) is one more.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    churn: ChurnSchedule,
}

impl FaultPlan {
    /// An empty plan (no faults, no churn).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds one fault.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Merges `churn` into the plan's churn schedule.
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        self.churn = std::mem::take(&mut self.churn).merge(churn);
        self
    }

    /// Merges two plans: the union of their faults and churn events.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.faults.extend(other.faults);
        self.churn = std::mem::take(&mut self.churn).merge(other.churn);
        self
    }

    /// The plan's faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The plan's churn schedule.
    pub fn churn(&self) -> &ChurnSchedule {
        &self.churn
    }

    /// Number of shrinkable atoms: one per fault, plus one when the churn
    /// schedule is non-empty.
    pub fn atom_count(&self) -> usize {
        self.faults.len() + usize::from(!self.churn.is_empty())
    }

    /// Human-readable label of atom `i` (faults first, churn last).
    pub fn atom_label(&self, i: usize) -> String {
        if i < self.faults.len() {
            self.faults[i].label()
        } else {
            format!(
                "churn[{} events,{} nodes]",
                self.churn.events().len(),
                self.churn.nodes_affected()
            )
        }
    }

    /// Labels of every atom, in atom order.
    pub fn describe(&self) -> Vec<String> {
        (0..self.atom_count()).map(|i| self.atom_label(i)).collect()
    }

    /// The plan restricted to the atoms where `mask` is `true` (`mask`
    /// indexes atoms as [`FaultPlan::atom_label`] does). The backbone of
    /// greedy shrinking: drop one atom, re-run, keep the drop if the
    /// violation persists.
    pub fn retain_atoms(&self, mask: &[bool]) -> FaultPlan {
        assert_eq!(mask.len(), self.atom_count(), "mask covers every atom");
        let faults = self
            .faults
            .iter()
            .zip(mask)
            .filter(|(_, &keep)| keep)
            .map(|(f, _)| f.clone())
            .collect();
        let churn = if mask.last().copied().unwrap_or(false) && !self.churn.is_empty() {
            self.churn.clone()
        } else {
            ChurnSchedule::none()
        };
        FaultPlan { faults, churn }
    }

    /// When the last fault (or churn event) clears; [`SimTime::ZERO`] for an
    /// empty plan. Quiescent invariants should only be evaluated after this
    /// plus a protocol-dependent settle time.
    pub fn last_fault_clear(&self) -> SimTime {
        let faults = self.faults.iter().map(|f| f.until).max();
        let churn = self.churn.last_event_at();
        faults.max(churn).unwrap_or(SimTime::ZERO)
    }

    /// Compiles the plan's faults into an injector whose per-fault RNG
    /// streams derive from `(seed, fault label)`.
    pub fn injector(&self, seed: u64) -> ChaosInjector {
        ChaosInjector {
            streams: self
                .faults
                .iter()
                .map(|f| FaultStream {
                    rng: sub_rng(seed, &f.label()),
                    fault: f.clone(),
                })
                .collect(),
            stats: ChaosStats::default(),
        }
    }

    /// Installs the whole plan on `sim`: the fault injector (seeded from
    /// `seed`) plus the churn schedule's down/up events.
    pub fn apply<A: Application, S: crate::obs::TraceSink>(
        &self,
        sim: &mut Simulator<A, S>,
        seed: u64,
    ) {
        sim.install_chaos(self.injector(seed));
        self.churn.apply(sim);
    }
}

/// One compiled fault with its private random stream.
struct FaultStream {
    fault: Fault,
    rng: StdRng,
}

/// Counters of what the injector actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Messages dropped by loss spikes or partitions.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages whose delay was inflated by a straggler fault.
    pub delayed: u64,
}

/// The injector's decision about one message send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendVerdict {
    /// Drop the message.
    pub drop: bool,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Multiply the sampled network delay by this factor (≥ 1).
    pub delay_factor: u64,
}

/// Compiled fault state consulted by the simulator on every message send.
///
/// Every active fault is evaluated on every send — no short-circuiting —
/// so each fault's stream position depends only on the send sequence, never
/// on which other faults are present. That is what makes plan merging
/// preserve per-stream determinism.
pub struct ChaosInjector {
    streams: Vec<FaultStream>,
    /// What the injector has done so far.
    pub stats: ChaosStats,
}

impl ChaosInjector {
    /// Decides the fate of one message sent at `now` from `src` to `dst`.
    pub fn on_send(
        &mut self,
        now: SimTime,
        src: NodeIdx,
        dst: NodeIdx,
        topology: &Topology,
    ) -> SendVerdict {
        let mut verdict = SendVerdict {
            drop: false,
            duplicate: false,
            delay_factor: 1,
        };
        for s in &mut self.streams {
            let active = now >= s.fault.from && now < s.fault.until;
            match &s.fault.kind {
                FaultKind::LossSpike { prob } => {
                    // Draw only while the window is open: the stream then
                    // advances one step per in-window send, independent of
                    // every other fault.
                    let prob = *prob;
                    if active && s.rng.gen::<f64>() < prob {
                        verdict.drop = true;
                    }
                }
                FaultKind::Partition { zones } => {
                    if active {
                        let src_in = zones.contains(&topology.region(src));
                        let dst_in = zones.contains(&topology.region(dst));
                        if src_in != dst_in {
                            verdict.drop = true;
                        }
                    }
                }
                FaultKind::Straggler { nodes, factor } => {
                    if active && (nodes.contains(&src) || nodes.contains(&dst)) {
                        verdict.delay_factor = verdict.delay_factor.max((*factor).max(1));
                    }
                }
                FaultKind::Duplicate { prob } => {
                    let prob = *prob;
                    if active && s.rng.gen::<f64>() < prob {
                        verdict.duplicate = true;
                    }
                }
            }
        }
        if verdict.drop {
            self.stats.dropped += 1;
        } else {
            if verdict.duplicate {
                self.stats.duplicated += 1;
            }
            if verdict.delay_factor > 1 {
                self.stats.delayed += 1;
            }
        }
        verdict
    }
}

/// A message filter for protocol-aware sabotage: return `true` to drop.
///
/// This is the "deliberately injected bug" hook of the chaos harness —
/// e.g. "drop every repair JOIN" — kept separate from [`ChaosInjector`]
/// (which is message-type-agnostic) so oracles can be validated against
/// known-bad protocol behaviour.
pub type FaultFilter<M> = Box<dyn FnMut(SimTime, NodeIdx, NodeIdx, &M) -> bool + Send>;

/// When an invariant is eligible for evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantPhase {
    /// At every checkpoint, faults active or not.
    Always,
    /// Only once the last fault has cleared and the settle time passed
    /// (`now >= quiesce_at` in [`CheckpointConfig`]).
    Quiescent,
}

/// One recorded invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant that fired.
    pub invariant: String,
    /// Simulated time of the failing checkpoint.
    pub at: SimTime,
    /// What exactly was wrong.
    pub detail: String,
}

/// A live protocol oracle, evaluated at sim-time checkpoints while (and
/// after) faults fire.
///
/// Implementations may keep state across checkpoints (e.g. "coverage held
/// at the previous checkpoint, so repair traffic must have stopped"), which
/// is why `check` takes `&mut self`.
pub trait Invariant<A: Application, S: crate::obs::TraceSink = crate::obs::NoopSink> {
    /// Short stable name, used in violation reports.
    fn name(&self) -> &'static str;

    /// When this invariant may be evaluated.
    fn phase(&self) -> InvariantPhase {
        InvariantPhase::Always
    }

    /// Checks the invariant against the current simulator state, returning
    /// a human-readable description of the violation if it does not hold.
    fn check(&mut self, sim: &Simulator<A, S>) -> Result<(), String>;
}

/// Checkpoint schedule for [`run_with_invariants`].
#[derive(Clone, Copy, Debug)]
pub struct CheckpointConfig {
    /// Gap between invariant checkpoints.
    pub every: SimDuration,
    /// When the run ends.
    pub end: SimTime,
    /// When `Quiescent` invariants become eligible (last fault clear plus a
    /// protocol settle time; see [`FaultPlan::last_fault_clear`]).
    pub quiesce_at: SimTime,
}

/// Runs `sim` to `cfg.end`, pausing every `cfg.every` of simulated time to
/// (1) let `driver` inject experiment work (e.g. broadcast the next FL
/// round) and (2) evaluate every eligible invariant.
///
/// Each invariant records at most its *first* violation — after firing it
/// is retired, so a persistent breakage yields one report, not hundreds.
/// Returns all recorded violations in checkpoint order.
pub fn run_with_invariants<A: Application, S: crate::obs::TraceSink>(
    sim: &mut Simulator<A, S>,
    cfg: &CheckpointConfig,
    invariants: &mut [Box<dyn Invariant<A, S> + '_>],
    mut driver: impl FnMut(&mut Simulator<A, S>),
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut tripped = vec![false; invariants.len()];
    let mut checkpoint = sim.now();
    while checkpoint < cfg.end {
        checkpoint = (checkpoint + cfg.every).min(cfg.end);
        sim.run_until(checkpoint);
        driver(sim);
        for (k, inv) in invariants.iter_mut().enumerate() {
            if tripped[k] {
                continue;
            }
            let eligible = match inv.phase() {
                InvariantPhase::Always => true,
                InvariantPhase::Quiescent => sim.now() >= cfg.quiesce_at,
            };
            if !eligible {
                continue;
            }
            if let Err(detail) = inv.check(sim) {
                tripped[k] = true;
                violations.push(Violation {
                    invariant: inv.name().to_string(),
                    at: sim.now(),
                    detail,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_micros(secs * 1_000_000)
    }

    fn loss_fault() -> Fault {
        Fault::new(t(10), t(20), FaultKind::LossSpike { prob: 0.5 })
    }

    fn dup_fault() -> Fault {
        Fault::new(t(12), t(30), FaultKind::Duplicate { prob: 0.3 })
    }

    fn straggler_fault() -> Fault {
        Fault::new(
            t(5),
            t(25),
            FaultKind::Straggler {
                nodes: vec![1, 3],
                factor: 8,
            },
        )
    }

    /// A synthetic send sequence spanning before/during/after the windows.
    fn send_sequence() -> Vec<(SimTime, NodeIdx, NodeIdx)> {
        let mut rng = sub_rng(99, "chaos-test-sends");
        (0..400)
            .map(|k| {
                let at = SimTime::from_micros(k * 100_000); // 0..40s
                let src = rng.gen_range(0..8usize);
                let dst = rng.gen_range(0..8usize);
                (at, src, dst)
            })
            .collect()
    }

    fn verdicts(plan: &FaultPlan, seed: u64) -> Vec<SendVerdict> {
        let topo = Topology::uniform(8, 1_000, 2_000);
        let mut inj = plan.injector(seed);
        send_sequence()
            .into_iter()
            .map(|(at, s, d)| inj.on_send(at, s, d, &topo))
            .collect()
    }

    #[test]
    fn injector_is_seed_reproducible() {
        let plan = FaultPlan::none()
            .with_fault(loss_fault())
            .with_fault(dup_fault());
        assert_eq!(verdicts(&plan, 7), verdicts(&plan, 7));
        assert_ne!(verdicts(&plan, 7), verdicts(&plan, 8));
    }

    /// The satellite property: merging two plans preserves each fault's
    /// private RNG stream. Plan A's drops and plan B's duplicates are
    /// bit-identical whether the plans run alone or merged.
    #[test]
    fn merging_plans_preserves_per_stream_determinism() {
        let a = FaultPlan::none().with_fault(loss_fault());
        let b = FaultPlan::none()
            .with_fault(dup_fault())
            .with_fault(straggler_fault());
        let merged = a.clone().merge(b.clone());
        assert_eq!(merged.atom_count(), 3);

        let va = verdicts(&a, 42);
        let vb = verdicts(&b, 42);
        let vm = verdicts(&merged, 42);
        for k in 0..va.len() {
            // A is the only drop source; B the only duplicate/delay source.
            assert_eq!(vm[k].drop, va[k].drop, "send {k}: loss stream perturbed");
            assert_eq!(
                vm[k].duplicate, vb[k].duplicate,
                "send {k}: dup stream perturbed"
            );
            assert_eq!(
                vm[k].delay_factor, vb[k].delay_factor,
                "send {k}: straggler perturbed"
            );
        }
        // Merge order does not matter either.
        let vm2 = verdicts(&b.merge(a), 42);
        assert_eq!(vm, vm2);
    }

    #[test]
    fn faults_are_silent_outside_their_window() {
        let plan = FaultPlan::none()
            .with_fault(loss_fault())
            .with_fault(dup_fault())
            .with_fault(straggler_fault());
        let topo = Topology::uniform(8, 1_000, 2_000);
        let mut inj = plan.injector(3);
        for probe in [t(0), t(4), t(35), t(100)] {
            let v = inj.on_send(probe, 1, 3, &topo);
            assert_eq!(
                v,
                SendVerdict {
                    drop: false,
                    duplicate: false,
                    delay_factor: 1
                },
                "verdict at {probe:?}"
            );
        }
        assert_eq!(inj.stats, ChaosStats::default());
    }

    #[test]
    fn partition_cuts_only_cross_boundary_links() {
        let topo = Topology::uniform(4, 1_000, 2_000); // All regions are 0.
        let plan = FaultPlan::none().with_fault(Fault::new(
            t(0),
            t(10),
            FaultKind::Partition { zones: vec![1] },
        ));
        let mut inj = plan.injector(0);
        // No node is in zone 1, so nothing crosses the boundary.
        assert!(!inj.on_send(t(1), 0, 2, &topo).drop);
        let plan = FaultPlan::none().with_fault(Fault::new(
            t(0),
            t(10),
            FaultKind::Partition { zones: vec![0] },
        ));
        let mut inj = plan.injector(0);
        // Every node is inside the cut set: intra-set traffic survives.
        assert!(!inj.on_send(t(1), 0, 2, &topo).drop);
    }

    #[test]
    fn straggler_scales_delay_without_rng() {
        let topo = Topology::uniform(8, 1_000, 2_000);
        let plan = FaultPlan::none().with_fault(straggler_fault());
        let mut inj = plan.injector(11);
        assert_eq!(inj.on_send(t(6), 1, 5, &topo).delay_factor, 8);
        assert_eq!(inj.on_send(t(6), 5, 3, &topo).delay_factor, 8);
        assert_eq!(inj.on_send(t(6), 5, 6, &topo).delay_factor, 1);
        assert_eq!(inj.stats.delayed, 2);
    }

    #[test]
    fn retain_atoms_shrinks_faults_and_churn() {
        let mut rng = sub_rng(5, "churn");
        let churn = ChurnSchedule::mass_failure(&[0, 1, 2, 3], 0.5, t(15), &mut rng);
        let plan = FaultPlan::none()
            .with_fault(loss_fault())
            .with_fault(dup_fault())
            .with_churn(churn);
        assert_eq!(plan.atom_count(), 3);
        assert_eq!(plan.last_fault_clear(), t(30));

        let no_loss = plan.retain_atoms(&[false, true, true]);
        assert_eq!(no_loss.faults().len(), 1);
        assert!(!no_loss.churn().is_empty());

        let no_churn = plan.retain_atoms(&[true, true, false]);
        assert_eq!(no_churn.faults().len(), 2);
        assert!(no_churn.churn().is_empty());
        assert_eq!(no_churn.last_fault_clear(), t(30));

        let empty = plan.retain_atoms(&[false, false, false]);
        assert_eq!(empty.atom_count(), 0);
        assert_eq!(empty.last_fault_clear(), SimTime::ZERO);
    }

    #[test]
    fn labels_are_content_stable() {
        assert_eq!(loss_fault().label(), loss_fault().label());
        assert_ne!(loss_fault().label(), dup_fault().label());
        // Same kind, different window: distinct stream.
        let other = Fault::new(t(10), t(21), FaultKind::LossSpike { prob: 0.5 });
        assert_ne!(loss_fault().label(), other.label());
    }
}
