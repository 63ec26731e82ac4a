//! Diagnostic rendering: rustc-style text, machine-readable JSON, and
//! the `--list-allows` audit view.

use crate::rules::{Finding, ALL_RULES};
use crate::AllowRecord;

/// Renders one finding rustc-style:
///
/// ```text
/// error[DET001]: `HashMap` in a protocol crate: ...
///   --> crates/pubsub/src/forest.rs:135:20
/// ```
pub fn render_text(f: &Finding) -> String {
    format!(
        "error[{}]: {}\n  --> {}:{}:{}  ({})\n",
        f.rule.code(),
        f.message,
        f.file,
        f.line,
        f.col,
        f.rule.name()
    )
}

/// Renders one stale-suppression warning (exit-0 diagnostic class):
///
/// ```text
/// warning[stale-allow]: det: allow(entropy) suppresses nothing
///   --> crates/pubsub/src/forest.rs:135
/// ```
pub fn render_stale(r: &AllowRecord) -> String {
    format!(
        "warning[stale-allow]: det: allow({}) suppresses nothing — remove it or fix the \
         rule it was written for\n  --> {}:{}\n",
        r.allow.class, r.file, r.allow.line
    )
}

/// Renders the whole report as text: findings, then stale-allow
/// warnings, then a summary line.
pub fn render_report(findings: &[Finding], stale: &[&AllowRecord], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&render_text(f));
    }
    for r in stale {
        out.push_str(&render_stale(r));
    }
    if findings.is_empty() {
        out.push_str(&format!(
            "detlint: {files_scanned} files scanned, no determinism violations"
        ));
    } else {
        out.push_str(&format!(
            "detlint: {} violation(s) in {files_scanned} files scanned",
            findings.len()
        ));
    }
    if !stale.is_empty() {
        out.push_str(&format!(", {} stale suppression(s)", stale.len()));
    }
    out.push('\n');
    out
}

/// Renders the report as JSON (hand-rolled; no serde in this crate):
/// `files_scanned`, a per-rule `rule_counts` summary block (every rule
/// code present, zero or not — CI greps for this key), the `violations`
/// array, and the `stale_allows` array.
pub fn render_json(findings: &[Finding], stale: &[&AllowRecord], files_scanned: usize) -> String {
    let mut out = String::from("{\n  \"files_scanned\": ");
    out.push_str(&files_scanned.to_string());
    out.push_str(",\n  \"rule_counts\": {");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let n = findings.iter().filter(|f| f.rule == *rule).count();
        out.push_str(&format!("\n    {}: {n}", json_str(rule.code())));
    }
    out.push_str("\n  },\n  \"violations\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"name\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \
             \"token\": {}, \"message\": {}}}",
            json_str(f.rule.code()),
            json_str(f.rule.name()),
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.token),
            json_str(&f.message),
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"stale_allows\": [");
    for (i, r) in stale.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"class\": {}, \"reason\": {}}}",
            json_str(&r.file),
            r.allow.line,
            json_str(&r.allow.class),
            json_str(&r.allow.reason),
        ));
    }
    if !stale.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders the `--list-allows` audit view: every suppression in the tree
/// with its reason, one line each, sorted by path; stale suppressions
/// carry a `[STALE]` mark.
pub fn render_allows(allows: &[AllowRecord]) -> String {
    let mut out = String::new();
    let mut stale = 0usize;
    for r in allows {
        let mark = if r.stale() {
            stale += 1;
            " [STALE]"
        } else {
            ""
        };
        out.push_str(&format!(
            "{}:{}: allow({}) — {}{mark}\n",
            r.file,
            r.allow.applies_to,
            r.allow.class,
            if r.allow.reason.is_empty() {
                "<MISSING REASON>"
            } else {
                &r.allow.reason
            }
        ));
    }
    out.push_str(&format!("{} suppression(s) in the tree", allows.len()));
    if stale > 0 {
        out.push_str(&format!(", {stale} STALE"));
    }
    out.push('\n');
    out
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Allow;
    use crate::rules::RuleId;

    fn record(class: &str, reason: &str, used: bool) -> AllowRecord {
        AllowRecord {
            file: "crates/pubsub/src/forest.rs".into(),
            allow: Allow {
                line: 135,
                col: 1,
                applies_to: 135,
                class: class.into(),
                reason: reason.into(),
            },
            used,
        }
    }

    #[test]
    fn text_and_json_round_position_through() {
        let f = Finding {
            rule: RuleId::UnorderedCollections,
            file: "crates/pubsub/src/forest.rs".into(),
            line: 135,
            col: 20,
            token: "HashMap".into(),
            message: "msg with \"quotes\"".into(),
        };
        let text = render_text(&f);
        assert!(text.contains("error[DET001]"));
        assert!(text.contains("crates/pubsub/src/forest.rs:135:20"));
        let json = render_json(std::slice::from_ref(&f), &[], 7);
        assert!(json.contains("\"rule\": \"DET001\""));
        assert!(json.contains("\"line\": 135"));
        assert!(json.contains("msg with \\\"quotes\\\""));
        assert!(json.contains("\"files_scanned\": 7"));
    }

    #[test]
    fn empty_report_is_a_clean_summary() {
        let r = render_report(&[], &[], 42);
        assert!(r.contains("42 files scanned, no determinism violations"));
        let j = render_json(&[], &[], 42);
        assert!(j.contains("\"violations\": []"));
        assert!(j.contains("\"stale_allows\": []"));
    }

    #[test]
    fn rule_counts_block_names_all_ten_rules() {
        let f = Finding {
            rule: RuleId::TimeArithmetic,
            file: "crates/simnet/src/shard.rs".into(),
            line: 1,
            col: 1,
            token: "as_micros".into(),
            message: "m".into(),
        };
        let j = render_json(std::slice::from_ref(&f), &[], 3);
        for code in [
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006", "DET007", "DET008",
            "DET009", "DET010",
        ] {
            assert!(j.contains(&format!("\"{code}\": ")), "missing {code}: {j}");
        }
        assert!(j.contains("\"DET010\": 1"));
        assert!(j.contains("\"DET001\": 0"));
    }

    #[test]
    fn stale_allows_render_as_warnings_and_stale_marks() {
        let live = record("float", "max is exactly commutative", true);
        let stale = record("entropy", "old reason", false);
        let report = render_report(&[], &[&stale], 10);
        assert!(report.contains("warning[stale-allow]"));
        assert!(report.contains("1 stale suppression(s)"));
        let listing = render_allows(&[live, stale]);
        assert_eq!(listing.matches("[STALE]").count(), 1);
        assert!(listing.contains("2 suppression(s) in the tree, 1 STALE"));
        let no_reason = record("float", "", false);
        assert!(!no_reason.stale(), "malformed allows are DET005, not stale");
    }

    #[test]
    fn stale_allows_appear_in_json() {
        let stale = record("time", "obsolete proof", false);
        let j = render_json(&[], &[&stale], 5);
        assert!(j.contains("\"stale_allows\": ["));
        assert!(j.contains("\"class\": \"time\""));
        assert!(j.contains("\"reason\": \"obsolete proof\""));
    }
}
