//! The workspace self-lint: `cargo test` fails if a rule detlint holds
//! (DESIGN.md §11, §16) is broken anywhere in the live tree, or if a
//! `det: allow` lacks a reason, suppresses nothing, or is missing from
//! DESIGN.md §11's committed audit. The path bans are clippy's, and fail
//! CI's `cargo clippy --workspace --all-targets -- -D warnings` instead.

use std::path::Path;

use totoro_detlint::{diag, lint_root, LintReport};

fn report() -> LintReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    lint_root(&root).expect("the workspace lints")
}

#[test]
fn workspace_has_no_determinism_violations() {
    let r = report();
    let rendered = diag::render_report(&r.findings, &r.stale_allows(), r.files_scanned);
    assert!(r.findings.is_empty(), "determinism violations:\n{rendered}");
    // Sanity: the walk saw the whole tree, vendored stubs included.
    assert!(r.files_scanned > 100, "discovery is broken: {rendered}");
}

#[test]
fn every_suppression_in_the_tree_carries_a_reason() {
    let r = report();
    assert!(
        !r.allows.is_empty(),
        "the tree documents its known-safe sites"
    );
    let missing: Vec<_> = r
        .allows
        .iter()
        .filter(|a| a.allow.reason.is_empty())
        .collect();
    assert!(missing.is_empty(), "no reason: {missing:?}");
}

#[test]
fn no_suppression_in_the_tree_is_stale() {
    let r = report();
    let stale = r.stale_allows();
    assert!(stale.is_empty(), "stale det: allow annotations: {stale:?}");
}

#[test]
fn design_doc_suppression_audit_matches_the_tree() {
    let fresh = diag::render_allows(&report().allows);
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
    let design = design.expect("DESIGN.md is readable");
    let committed = design
        .split_once("### Current suppression audit")
        .and_then(|(_, section)| section.split_once("```text\n"))
        .and_then(|(_, block)| block.split_once("```"))
        .expect("DESIGN.md §11 has a ```text block under \"Current suppression audit\"")
        .0;
    assert!(
        committed == fresh,
        "DESIGN.md §11's suppression audit no longer matches the tree; replace it with:\n\n\
         ```text\n{fresh}```\n"
    );
}
