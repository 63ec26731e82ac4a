//! Rendering: rustc-style diagnostics for a failing self-lint, and the
//! suppression audit that DESIGN.md §11 commits.

use crate::rules::Finding;
use crate::AllowRecord;

/// Findings, then stale-allow warnings, then a summary line.
pub fn render_report(findings: &[Finding], stale: &[&AllowRecord], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let (code, name, message) = (f.rule.code, f.rule.name, &f.message);
        out += &format!("error[{code}]: {message}\n");
        out += &format!("  --> {}:{}:{}  ({name})\n", f.file, f.line, f.col);
    }
    for r in stale {
        let (class, file, line) = (&r.allow.class, &r.file, r.allow.line);
        out += &format!("warning[stale-allow]: det: allow({class}) suppresses nothing\n");
        out += &format!("  --> {file}:{line}\n");
    }
    out += &match findings.len() {
        0 => format!("detlint: {files_scanned} files scanned, no determinism violations"),
        n => format!("detlint: {n} violation(s) in {files_scanned} files scanned"),
    };
    if !stale.is_empty() {
        out += &format!(", {} stale suppression(s)", stale.len());
    }
    out + "\n"
}

/// Every `det: allow` with its reason, one line each, stale ones marked.
/// Line numbers are left out, so moving code does not churn the audit.
pub fn render_allows(allows: &[AllowRecord]) -> String {
    let mut out = String::new();
    for r in allows {
        let mark = if r.stale() { " [STALE]" } else { "" };
        let (file, class, reason) = (&r.file, &r.allow.class, &r.allow.reason);
        out += &format!("{file}: allow({class}) — {reason}{mark}\n");
    }
    out + &format!("{} suppression(s) in the tree\n", allows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn record(comment: &str, used: bool) -> AllowRecord {
        let allow = lex(comment).allows.remove(0);
        AllowRecord {
            file: "crates/ml/src/nn.rs".into(),
            allow,
            used,
        }
    }

    #[test]
    fn empty_report_is_a_clean_summary() {
        let r = render_report(&[], &[], 42);
        assert_eq!(r, "detlint: 42 files scanned, no determinism violations\n");
    }

    #[test]
    fn stale_allows_render_as_warnings_and_stale_marks() {
        let live = record("// det: allow(float: max is exactly commutative)", true);
        let stale = record("// det: allow(time: old reason)", false);
        let report = render_report(&[], &[&stale], 10);
        assert!(report.starts_with("warning[stale-allow]: det: allow(time)"));
        assert!(report.ends_with("no determinism violations, 1 stale suppression(s)\n"));
        let listing = render_allows(&[live, stale]);
        assert!(listing.ends_with("old reason [STALE]\n2 suppression(s) in the tree\n"));
        assert!(!record("// det: allow(float)", false).stale(), "malformed");
    }
}
