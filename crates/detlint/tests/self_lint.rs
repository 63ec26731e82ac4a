//! The workspace self-lint: `cargo test` fails if any determinism rule
//! (DESIGN.md §11, §16) is violated anywhere in the live tree.
//!
//! This is the static half of the determinism contract — the golden
//! tests in `crates/bench/tests/golden.rs` catch a nondeterminism bug
//! *after* it skews output; this test rejects the code shape that breeds
//! such bugs before it ever runs. Every suppression must carry a written
//! reason (`totoro-detlint --list-allows` audits them; the current set is
//! committed to DESIGN.md §11 and checked against the tree here), and
//! every suppression must actually suppress something — stale allows rot
//! into false confidence.

use std::path::Path;

use totoro_detlint::{diag, lint_root};

/// `crates/detlint` → workspace root.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/detlint sits two levels below the workspace root")
}

#[test]
fn workspace_has_no_determinism_violations() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let report = lint_root(root).expect("workspace lints");
    assert!(
        report.findings.is_empty(),
        "determinism violations in the workspace:\n{}",
        diag::render_report(
            &report.findings,
            &report.stale_allows(),
            report.files_scanned
        )
    );
    // Sanity: the walk actually saw the tree (all 8 protocol/bench crates
    // plus detlint, tests, examples, and the vendored stubs).
    assert!(
        report.files_scanned > 100,
        "only {} files scanned — discovery is broken",
        report.files_scanned
    );
}

#[test]
fn every_suppression_in_the_tree_carries_a_reason() {
    let report = lint_root(workspace_root()).expect("workspace lints");
    for r in &report.allows {
        assert!(
            !r.allow.reason.trim().is_empty(),
            "{}:{} det: allow({}) has no reason",
            r.file,
            r.allow.line,
            r.allow.class
        );
    }
    assert!(
        !report.allows.is_empty(),
        "the tree documents its known-safe sites via det: allow annotations"
    );
}

#[test]
fn no_suppression_in_the_tree_is_stale() {
    let report = lint_root(workspace_root()).expect("workspace lints");
    let stale: Vec<String> = report
        .stale_allows()
        .iter()
        .map(|r| format!("{}:{} allow({})", r.file, r.allow.line, r.allow.class))
        .collect();
    assert!(
        stale.is_empty(),
        "stale det: allow annotations (suppress nothing — remove or fix):\n{}",
        stale.join("\n")
    );
}

/// A `--list-allows` listing with each line's number dropped
/// (`file:line: allow(class) — reason` becomes `file: allow(class) —
/// reason`): moving code then leaves the committed audit alone, while
/// adding or removing a proof does not.
fn without_line_numbers(listing: &str) -> Vec<String> {
    listing
        .lines()
        .map(|line| match line.split_once(": allow(") {
            Some((at, rest)) => {
                let file = at.rsplit_once(':').map_or(at, |(file, _)| file);
                format!("{file}: allow({rest}")
            }
            None => line.to_string(),
        })
        .collect()
}

#[test]
fn design_doc_suppression_audit_matches_the_tree() {
    let root = workspace_root();
    let report = lint_root(root).expect("workspace lints");
    let fresh = diag::render_allows(&report.allows);
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let committed = design
        .split_once("### Current suppression audit")
        .and_then(|(_, section)| section.split_once("```text\n"))
        .and_then(|(_, block)| block.split_once("```"))
        .map(|(block, _)| block)
        .expect("DESIGN.md §11 has a ```text block under \"Current suppression audit\"");
    assert!(
        without_line_numbers(committed) == without_line_numbers(&fresh),
        "DESIGN.md §11's suppression audit no longer matches the tree; replace its block \
         with `totoro-detlint --list-allows`:\n\n```text\n{fresh}```\n"
    );
}
