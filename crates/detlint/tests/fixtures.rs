//! The deliberate-violation tree under `tests/fixtures/ws/`: one breach
//! per rule site, pinned to its file:line:col, and decoys (proofs,
//! strings, comments, `#[cfg(test)]` bodies) that must stay silent.

use std::path::Path;

use totoro_detlint::{lint_root, AllowRecord, LintReport};

fn report() -> LintReport {
    lint_root(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")).expect("lints")
}

fn sites<'a>(allows: impl Iterator<Item = &'a AllowRecord>) -> Vec<String> {
    allows
        .map(|r| format!("{}:{}", r.file, r.allow.line))
        .collect()
}

#[test]
fn fixture_tree_yields_exactly_one_violation_per_rule_site() {
    let at = |f: &totoro_detlint::rules::Finding| {
        format!("{} {}:{}:{}", f.rule.code, f.file, f.line, f.col)
    };
    let got: Vec<String> = report().findings.iter().map(at).collect();
    let want = [
        "DET009 crates/bandit/src/stats.rs:3:15",
        "DET005 crates/core/src/lib.rs:4:1",
        "DET005 crates/core/src/lib.rs:5:15",
        "DET005 crates/core/src/lib.rs:6:15",
        "DET004 crates/dht/src/lib.rs:1:1",
        "DET007 crates/simnet/src/atomics.rs:10:16",
        "DET007 crates/simnet/src/atomics.rs:11:15",
        "DET010 crates/simnet/src/clock.rs:3:14",
    ];
    assert_eq!(got, want);
}

#[test]
fn fixture_decoy_suppressions_appear_in_the_allow_audit() {
    // Valid and malformed allows alike: the audit view hides nothing.
    let audit = totoro_detlint::diag::render_allows(&report().allows);
    for class in ["float", "speed", "golden_out", "ordering", "time"] {
        assert!(audit.contains(&format!("allow({class})")), "{audit}");
    }
}

#[test]
fn exactly_the_stale_decoy_is_reported_stale() {
    // Malformed allows (core's) are DET005 violations, never stale.
    let stale = sites(report().stale_allows().into_iter());
    assert_eq!(stale, ["crates/simnet/src/atomics.rs:8"]);
}

#[test]
fn each_rule_fires_and_each_annotated_decoy_is_silent() {
    let report = report();
    let used = sites(report.allows.iter().filter(|r| r.used));
    let (stats, atomics) = (
        "crates/bandit/src/stats.rs:6",
        "crates/simnet/src/atomics.rs:6",
    );
    assert_eq!(used, [stats, atomics, "crates/simnet/src/clock.rs:7"]);
}
