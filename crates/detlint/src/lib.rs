//! # totoro-detlint
//!
//! A from-scratch static determinism linter for the Totoro workspace
//! (DESIGN.md §11, §16). Every artifact the benchmark harness
//! regenerates rests on a byte-identical-output contract across
//! `--jobs`, `--shards`, seeds, and trace sinks; this crate enforces the
//! coding rules behind that contract *statically*, before a golden file
//! ever diverges:
//!
//! * **DET001 `unordered-collections`** — `HashMap`/`HashSet`/
//!   `RandomState` are banned in protocol crates, renames included: hash
//!   order must not be able to reach protocol decisions, RNG draws, or
//!   report output. Not suppressible.
//! * **DET002 `ambient-entropy`** — `Instant::now`, `SystemTime`,
//!   `thread_rng`, `rand::random`, `env::var` are forbidden in
//!   sim/protocol/bench crates (simulated time and seeded streams only).
//! * **DET003 `golden-surface`** — `println!`/`print!`/`eprintln!`/
//!   `eprint!`/`dbg!` are forbidden outside `crates/bench`'s report and
//!   logging modules: stdout is the golden surface, stderr goes through
//!   the leveled logger.
//! * **DET004 `unsafe-forbid`** — every crate root keeps
//!   `#![forbid(unsafe_code)]`.
//! * **DET005 `bad-annotation`** — suppressions must name a known class
//!   and carry a written reason.
//! * **DET006 `thread-primitives`** — `thread::spawn`/`thread::scope`,
//!   `Mutex`, and `mpsc` are forbidden in protocol crates (and in
//!   detlint itself) outside the sanctioned shard runner
//!   (`crates/simnet/src/shard.rs`): ad-hoc threading makes event order
//!   scheduler-dependent.
//! * **DET007 `atomic-ordering`** — every atomic op names an explicit
//!   memory `Ordering`, and `Ordering::Relaxed` carries a written
//!   `det: allow(ordering: …)` proof.
//! * **DET008 `lock-discipline`** — `.lock()` outside the shard runner
//!   is a violation; inside it, acquisitions must follow the canonical
//!   mailbox order and guard scopes must never nest.
//! * **DET009 `float-determinism`** — order-sensitive f32/f64
//!   reductions in protocol crates must live in the canonical-order
//!   helpers (`crates/simnet/src/numeric.rs`) or carry a commutativity
//!   proof.
//! * **DET010 `time-arithmetic`** — unchecked `+`/`-` on raw simulated
//!   timestamps outside `crates/simnet/src/time.rs`.
//!
//! Built on a hand-rolled lexer ([`lexer`]) that masks comments and
//! string literals exactly (nested block comments, raw strings, byte
//! strings, char-vs-lifetime quotes), so rules match code and only code.
//! The DET007–DET010 pack additionally consults a lightweight item
//! tracker ([`items`]) over the masked text: enclosing fn/impl/mod,
//! inline `#[cfg(test)]` spans, and `use ... as` aliases. No `syn`, no
//! registry dependencies: the linter runs on a tree whose build is
//! broken and can never perturb what it checks.

#![forbid(unsafe_code)]

pub mod diag;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::io;
use std::path::Path;

use lexer::Allow;
use rules::Finding;

/// One `det: allow` annotation seen in the tree, with whether it
/// actually suppressed a finding.
#[derive(Debug)]
pub struct AllowRecord {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub allow: Allow,
    /// Whether this annotation suppressed at least one finding.
    pub used: bool,
}

impl AllowRecord {
    /// A stale suppression: well-formed (known class, written reason)
    /// but suppressing nothing. Malformed allows are DET005 violations,
    /// not stale warnings.
    pub fn stale(&self) -> bool {
        !self.used
            && !self.allow.reason.is_empty()
            && rules::ALLOW_CLASSES.contains(&self.allow.class.as_str())
    }
}

/// Result of linting a workspace tree.
#[derive(Debug)]
pub struct LintReport {
    /// All diagnostics, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Every `det: allow` annotation seen, sorted by `(file, line)`.
    pub allows: Vec<AllowRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// The stale suppressions (exit-0 warnings).
    pub fn stale_allows(&self) -> Vec<&AllowRecord> {
        self.allows.iter().filter(|r| r.stale()).collect()
    }
}

/// Per-file scan output, produced by the worker threads.
struct FileResult {
    findings: Vec<Finding>,
    allows: Vec<AllowRecord>,
}

fn scan_one(root: &Path, sf: &workspace::SourceFile) -> io::Result<FileResult> {
    let src = std::fs::read_to_string(root.join(&sf.rel))?;
    let lexed = lexer::lex(&src);
    let mut findings = Vec::new();
    let used = rules::scan_file(sf, &lexed, &mut findings);
    let allows = lexed
        .allows
        .into_iter()
        .zip(used)
        .map(|(allow, used)| AllowRecord {
            file: sf.rel.clone(),
            allow,
            used,
        })
        .collect();
    Ok(FileResult { findings, allows })
}

/// Lints every workspace `.rs` source under `root`.
///
/// Files are scanned by a pool of scoped worker threads (the tree is
/// 140+ files and the scan is pure per-file work), but the output is
/// byte-identical to a sequential scan: each worker owns a contiguous
/// chunk of the path-sorted file list, chunk results are stitched back
/// in order, and the final sort keys contain no scheduling artifact.
pub fn lint_root(root: &Path) -> io::Result<LintReport> {
    let files = workspace::discover(root)?;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8);
    let chunk = files.len().div_ceil(threads).max(1);
    // det: allow(parallel: per-file scans share nothing; results are stitched in path order)
    let per_file: Vec<io::Result<Vec<FileResult>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = files
            .chunks(chunk)
            .map(|batch| scope.spawn(move || batch.iter().map(|sf| scan_one(root, sf)).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("detlint scan worker panicked"))
            .collect()
    });
    let mut findings = Vec::new();
    let mut allows = Vec::new();
    for batch in per_file {
        for fr in batch? {
            findings.extend(fr.findings);
            allows.extend(fr.allows);
        }
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    allows.sort_by(|a, b| (a.file.as_str(), a.allow.line).cmp(&(b.file.as_str(), b.allow.line)));
    Ok(LintReport {
        findings,
        allows,
        files_scanned: files.len(),
    })
}
