//! Workspace-level tests of the chaos harness: determinism of a full
//! chaos trial, live invariant checking over a churn plan, and the
//! planted-bug drill (the oracle must catch it and shrinking must reduce
//! the plan to a minimal fault set).

use totoro_bench::chaos::{run_chaos_trial, shrink, BugKind, ChaosOutcome, ChaosSpec};

fn spec(plan: &str, nodes: usize, seed: u64, bug: Option<BugKind>) -> ChaosSpec {
    ChaosSpec {
        nodes,
        trees: 2,
        plan: plan.to_string(),
        seed,
        bug,
    }
}

/// Everything a trial reports, flattened for equality comparison.
fn fingerprint(o: &ChaosOutcome) -> (String, Vec<String>, u64, u64, u64, u64, u64, u64) {
    (
        format!("{:?}", o.violations),
        o.atoms.clone(),
        o.rounds,
        o.sim.events,
        o.sim.dropped(),
        o.chaos.dropped,
        o.chaos.duplicated,
        o.chaos.delayed,
    )
}

#[test]
fn chaos_trial_is_deterministic_and_clean() {
    let s = spec("loss-spike", 60, 7, None);
    let a = run_chaos_trial(&s, None);
    let b = run_chaos_trial(&s, None);
    assert_eq!(fingerprint(&a), fingerprint(&b), "trial is not replayable");
    assert!(
        a.violations.is_empty(),
        "loss-spike plan violated an invariant: {:?}",
        a.violations
    );
    assert!(a.rounds > 0, "the driver never broadcast a round");
    assert!(
        a.chaos.dropped > 0,
        "the loss spike never dropped a message"
    );
}

#[test]
fn churn_plan_passes_live_and_quiescent_invariants() {
    // The churn+stragglers plan downs real subscribers mid-round and
    // revives them; the six oracles — aggregation conservation, DHT
    // consistency, rendezvous uniqueness, forest structure, bounded
    // recovery, and repair quiescence — must all stay green, live at every
    // checkpoint and after the quiescence settle.
    let outcome = run_chaos_trial(&spec("churn+stragglers", 60, 3, None), None);
    assert!(
        outcome.violations.is_empty(),
        "churn plan violated an invariant: {:?}",
        outcome.violations
    );
    assert!(
        outcome.atoms.iter().any(|a| a.contains("churn")),
        "plan lost its churn atoms: {:?}",
        outcome.atoms
    );
}

#[test]
fn planted_bug_is_caught_and_shrunk_to_a_minimal_plan() {
    // Drill for the whole pipeline: plant a repair-JOIN-dropping bug, let
    // the churn plan trigger it, and check an oracle fires. The same spec
    // without the bug is clean, so the oracles are blaming the bug, not
    // the faults. Shrinking must then cut the plan to its churn atom alone,
    // in four trial runs (the full plan included).
    let buggy = spec("churn+stragglers", 80, 1, Some(BugKind::DropRepairJoin));
    let outcome = run_chaos_trial(&buggy, None);
    assert!(
        !outcome.violations.is_empty(),
        "the planted bug went undetected"
    );

    let clean = run_chaos_trial(&spec("churn+stragglers", 80, 1, None), None);
    assert!(
        clean.violations.is_empty(),
        "control run without the bug is not clean: {:?}",
        clean.violations
    );

    let shrunk = shrink(&buggy);
    assert_eq!(shrunk.atoms, ["churn[8 events,6 nodes]"]);
    assert_eq!(shrunk.runs, 4);
}
