//! End-to-end rule checks against the deliberate-violation fixture tree
//! under `tests/fixtures/ws/` — one breach per rule site, plus decoys
//! (annotated sites, strings, comments, `#[cfg(test)]` bodies) that must
//! stay silent. Asserting the *exact* diagnostic set pins file, line,
//! and column reporting for all ten rules.

use std::path::Path;

use totoro_detlint::lint_root;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("ws")
}

#[test]
fn fixture_tree_yields_exactly_one_violation_per_rule_site() {
    let report = lint_root(&fixture_root()).expect("fixture tree lints");
    let got: Vec<(String, String, u32, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.code().to_string(), f.file.clone(), f.line, f.col))
        .collect();
    let want: Vec<(String, String, u32, u32)> = [
        ("DET009", "crates/bandit/src/stats.rs", 6, 15),
        ("DET003", "crates/bench/src/bin/run.rs", 4, 5),
        ("DET005", "crates/core/src/lib.rs", 6, 1),
        ("DET005", "crates/core/src/lib.rs", 8, 15),
        ("DET004", "crates/dht/src/lib.rs", 1, 1),
        ("DET008", "crates/pubsub/src/cache.rs", 6, 11),
        ("DET001", "crates/pubsub/src/lib.rs", 8, 17),
        ("DET005", "crates/pubsub/src/lib.rs", 12, 5),
        ("DET001", "crates/pubsub/src/lib.rs", 13, 17),
        ("DET007", "crates/simnet/src/atomics.rs", 20, 19),
        ("DET007", "crates/simnet/src/atomics.rs", 21, 18),
        ("DET010", "crates/simnet/src/clock.rs", 6, 14),
        ("DET006", "crates/simnet/src/runner.rs", 5, 18),
        ("DET002", "crates/simnet/src/sim.rs", 5, 17),
    ]
    .into_iter()
    .map(|(r, f, l, c)| (r.to_string(), f.to_string(), l, c))
    .collect();
    assert_eq!(got, want, "full diagnostic set:\n{:#?}", report.findings);
}

#[test]
fn fixture_decoy_suppressions_appear_in_the_allow_audit() {
    let report = lint_root(&fixture_root()).expect("fixture tree lints");
    // The valid suppressions (one per suppressible rule class) are
    // listed with their reasons; the malformed ones in core are listed
    // too — the audit view hides nothing.
    let classes: Vec<&str> = report
        .allows
        .iter()
        .map(|r| r.allow.class.as_str())
        .collect();
    for class in ["entropy", "parallel", "ordering", "lock", "float", "time"] {
        assert!(classes.contains(&class), "missing {class} in {classes:?}");
    }
    for retired_or_unknown in ["unordered", "speed"] {
        assert!(
            classes.contains(&retired_or_unknown),
            "malformed allows stay auditable"
        );
    }
}

#[test]
fn exactly_the_stale_decoy_is_reported_stale() {
    let report = lint_root(&fixture_root()).expect("fixture tree lints");
    let stale: Vec<(String, u32)> = report
        .stale_allows()
        .iter()
        .map(|r| (r.file.clone(), r.allow.line))
        .collect();
    assert_eq!(
        stale,
        vec![("crates/simnet/src/atomics.rs".to_string(), 18)],
        "the deliberate stale allow (and only it) is surfaced"
    );
    // Malformed allows (unknown class, missing reason) are DET005
    // violations, never counted as stale.
    assert!(report
        .allows
        .iter()
        .filter(|r| r.file.contains("core"))
        .all(|r| !r.stale()));
}

#[test]
fn each_rule_fires_and_each_annotated_decoy_is_silent() {
    let report = lint_root(&fixture_root()).expect("fixture tree lints");
    let codes: Vec<&str> = report.findings.iter().map(|f| f.rule.code()).collect();
    for rule in [
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET006", "DET007", "DET008", "DET009",
        "DET010",
    ] {
        assert!(codes.contains(&rule), "{rule} must fire on its fixture");
    }
    // DET001 takes no allow: the HashMap in pubsub's `Annotated` struct
    // (line 13) fires although annotated, and the retired `unordered`
    // class on line 12 is an unknown class.
    let pubsub_lib: Vec<(&str, u32)> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/pubsub/src/lib.rs" && f.line > 8)
        .map(|f| (f.rule.code(), f.line))
        .collect();
    assert_eq!(pubsub_lib, [("DET005", 12), ("DET001", 13)]);
    // The suppressed env::var in simnet/sim.rs (line 11) and the allowed
    // lock in pubsub/cache.rs (line 11) must not be flagged.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.line == 11 && (f.file.contains("sim.rs") || f.file.contains("cache.rs"))),
        "suppressed decoy was flagged"
    );
    // The allowed module may print.
    assert!(!report.findings.iter().any(|f| f.file.contains("report.rs")));
}
