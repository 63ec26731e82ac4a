//! # totoro-detlint
//!
//! The determinism rules of DESIGN.md §11 and §16 that clippy cannot
//! express: the path bans (DET001–DET003, DET006, DET008) and `#[expect]`
//! hygiene are clippy configuration, and this crate holds the rules that
//! read code shapes ([`rules`]: DET004, DET007, DET009, DET010) and the
//! `// det: allow(<class>: <reason>)` annotations they take (DET005, and
//! the stale-allow check). `tests/self_lint.rs` runs it in `cargo test`.

#![forbid(unsafe_code)]

pub mod diag;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::io;
use std::path::Path;

/// One `det: allow` seen in the tree, and whether it suppressed a finding.
#[derive(Debug)]
pub struct AllowRecord {
    pub file: String,
    pub allow: lexer::Allow,
    pub used: bool,
}

impl AllowRecord {
    /// Well-formed (known class, written reason) but suppressing nothing.
    /// A malformed allow is a DET005 violation, not a stale one.
    pub fn stale(&self) -> bool {
        !self.used
            && !self.allow.reason.is_empty()
            && rules::ALLOW_CLASSES.contains(&self.allow.class.as_str())
    }
}

/// Result of linting a tree: findings and allows in path, then line order.
#[derive(Debug)]
pub struct LintReport {
    pub findings: Vec<rules::Finding>,
    pub allows: Vec<AllowRecord>,
    pub files_scanned: usize,
}

impl LintReport {
    pub fn stale_allows(&self) -> Vec<&AllowRecord> {
        self.allows.iter().filter(|r| r.stale()).collect()
    }
}

/// Lints every workspace `.rs` source under `root`, one file at a time.
pub fn lint_root(root: &Path) -> io::Result<LintReport> {
    let files = workspace::discover(root)?;
    let (mut findings, mut allows) = (Vec::new(), Vec::new());
    for sf in &files {
        let lexed = lexer::lex(&std::fs::read_to_string(root.join(&sf.rel))?);
        allows.extend(rules::scan_file(sf, lexed, &mut findings));
    }
    let files_scanned = files.len();
    Ok(LintReport {
        findings,
        allows,
        files_scanned,
    })
}
