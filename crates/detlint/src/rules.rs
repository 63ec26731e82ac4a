//! The determinism rule set (DESIGN.md §11, §16).
//!
//! Each rule scans the *masked* text produced by [`crate::lexer`] — so
//! comments and string literals can never trigger or hide a finding —
//! and reports rustc-style `file:line:col` diagnostics. Findings are
//! suppressible per line with `// det: allow(<class>: <reason>)`, except
//! `unordered-collections`, a plain ban, and `unsafe-forbid` and
//! `bad-annotation`, which guard the suppression mechanism itself.
//!
//! DET001–DET006 are token rules over the mask. The concurrency/numerics
//! pack (DET007–DET010) additionally consults the item tracker
//! ([`crate::items`]): inline `#[cfg(test)]` bodies are out of scope,
//! DET009 reads the enclosing function's return type, and DET001/DET006
//! chase `use ... as` renames that would smuggle a forbidden name past a
//! plain token match.

use crate::items::{self, ItemMap};
use crate::lexer::{Allow, Lexed};
use crate::workspace::{FileKind, SourceFile};

/// Crates whose iteration order, RNG draws, and protocol decisions feed
/// golden output: no unordered collection may appear there at all.
pub const PROTOCOL_CRATES: &[&str] = &[
    "simnet",
    "dht",
    "pubsub",
    "core",
    "baselines",
    "bandit",
    "ml",
    "mc",
];

/// Crates where ambient entropy (wall clocks, OS RNG, environment) is
/// forbidden: the protocol crates plus the harness that renders goldens.
pub const ENTROPY_CRATES: &[&str] = &[
    "simnet",
    "dht",
    "pubsub",
    "core",
    "baselines",
    "bandit",
    "ml",
    "mc",
    "bench",
];

/// The only modules allowed to write to stdout/stderr directly: stdout is
/// the golden surface (report emission) and stderr goes through the
/// leveled logger. Everything else must route through these.
pub const GOLDEN_ALLOWED_FILES: &[&str] =
    &["crates/bench/src/report.rs", "crates/bench/src/logging.rs"];

/// Crates outside the protocol set that still submit to the thread-
/// primitive rule: the linter itself scans files in parallel and must
/// carry its own written `det: allow(parallel: ...)` sanction.
pub const THREAD_RULE_EXTRA_CRATES: &[&str] = &["detlint"];

/// The sanctioned canonical-order float-reduction helpers (DET009): the
/// one place float sums/folds may live without a per-site proof.
pub const FLOAT_REDUCTION_FILES: &[&str] = &["crates/simnet/src/numeric.rs"];

/// The sanctioned home of raw simulated-time arithmetic (DET010):
/// `SimTime`/`SimDuration` define saturating operators here so nothing
/// else needs unchecked `+`/`-` on raw microsecond counters.
pub const TIME_AXIOM_FILES: &[&str] = &["crates/simnet/src/time.rs"];

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// DET001: unordered collection in a protocol crate (not suppressible).
    UnorderedCollections,
    /// DET002: ambient entropy (wall clock, OS RNG, env) in sim crates.
    AmbientEntropy,
    /// DET003: direct stdout/stderr writes outside report/logging.
    GoldenSurface,
    /// DET004: crate root missing `#![forbid(unsafe_code)]`.
    UnsafeForbid,
    /// DET005: malformed `det: allow` (unknown class or missing reason).
    BadAnnotation,
    /// DET006: raw thread primitives in a protocol crate.
    ThreadPrimitives,
    /// DET007: atomic op without an explicit `Ordering`, or `Relaxed`
    /// without a written proof.
    AtomicOrdering,
    /// DET008: `Mutex` acquisition without a written proof.
    LockDiscipline,
    /// DET009: order-sensitive f32/f64 reduction outside the sanctioned
    /// canonical-order helpers, without a commutativity proof.
    FloatDeterminism,
    /// DET010: unchecked `+`/`-` on raw simulated-time microseconds
    /// outside `time.rs`.
    TimeArithmetic,
}

/// All rules, in diagnostic-code order (drives `rule_counts` rendering).
pub const ALL_RULES: &[RuleId] = &[
    RuleId::UnorderedCollections,
    RuleId::AmbientEntropy,
    RuleId::GoldenSurface,
    RuleId::UnsafeForbid,
    RuleId::BadAnnotation,
    RuleId::ThreadPrimitives,
    RuleId::AtomicOrdering,
    RuleId::LockDiscipline,
    RuleId::FloatDeterminism,
    RuleId::TimeArithmetic,
];

impl RuleId {
    /// `DET0xx` code used in diagnostics and the JSON report.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::UnorderedCollections => "DET001",
            RuleId::AmbientEntropy => "DET002",
            RuleId::GoldenSurface => "DET003",
            RuleId::UnsafeForbid => "DET004",
            RuleId::BadAnnotation => "DET005",
            RuleId::ThreadPrimitives => "DET006",
            RuleId::AtomicOrdering => "DET007",
            RuleId::LockDiscipline => "DET008",
            RuleId::FloatDeterminism => "DET009",
            RuleId::TimeArithmetic => "DET010",
        }
    }

    /// Human rule name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnorderedCollections => "unordered-collections",
            RuleId::AmbientEntropy => "ambient-entropy",
            RuleId::GoldenSurface => "golden-surface",
            RuleId::UnsafeForbid => "unsafe-forbid",
            RuleId::BadAnnotation => "bad-annotation",
            RuleId::ThreadPrimitives => "thread-primitives",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::LockDiscipline => "lock-discipline",
            RuleId::FloatDeterminism => "float-determinism",
            RuleId::TimeArithmetic => "time-arithmetic",
        }
    }

    /// The `det: allow(<class>: ...)` class that suppresses this rule,
    /// if it is suppressible at all.
    pub fn allow_class(self) -> Option<&'static str> {
        match self {
            RuleId::AmbientEntropy => Some("entropy"),
            RuleId::GoldenSurface => Some("golden_out"),
            RuleId::ThreadPrimitives => Some("parallel"),
            RuleId::AtomicOrdering => Some("ordering"),
            RuleId::LockDiscipline => Some("lock"),
            RuleId::FloatDeterminism => Some("float"),
            RuleId::TimeArithmetic => Some("time"),
            RuleId::UnorderedCollections | RuleId::UnsafeForbid | RuleId::BadAnnotation => None,
        }
    }
}

/// Every valid annotation class (for `bad-annotation` validation).
pub const ALLOW_CLASSES: &[&str] = &[
    "entropy",
    "golden_out",
    "parallel",
    "ordering",
    "lock",
    "float",
    "time",
];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based position of the offending token.
    pub line: u32,
    pub col: u32,
    /// The matched token (empty for file-level findings).
    pub token: String,
    pub message: String,
}

/// Tokens DET001 hunts for: unordered std collections and the hasher
/// that seeds them. Matched as whole identifiers in code.
const UNORDERED_TOKENS: &[&str] = &["HashMap", "HashSet", "RandomState"];

/// Identifier paths DET002 hunts for. Multi-segment patterns match the
/// exact `a::b` sequence (whitespace-tolerant); the single-segment ones
/// match a bare identifier.
const ENTROPY_PATTERNS: &[&[&str]] = &[
    &["Instant", "now"],
    &["SystemTime"],
    &["thread_rng"],
    &["rand", "random"],
    &["env", "var"],
];

/// Macros DET003 forbids outside the allowed modules. `eprint` before
/// `print` so the longest name wins nothing — matches are whole-ident.
const GOLDEN_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Identifier paths DET006 hunts for: spawning threads and the sync
/// primitives that make event order scheduler-dependent. `Mutex` and
/// `mpsc` are matched bare so both `std::sync::Mutex` and a `use`d name
/// trip the rule.
const THREAD_PATTERNS: &[&[&str]] = &[
    &["thread", "spawn"],
    &["thread", "scope"],
    &["Mutex"],
    &["mpsc"],
];

/// Bare tokens whose `use ... as` renames DET006 chases.
const THREAD_ALIAS_TARGETS: &[&str] = &["Mutex", "mpsc"];

/// Atomic method names DET007 audits for an explicit `Ordering` argument
/// (engaged only in files that mention an `Atomic*` type).
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Identifiers that satisfy DET007's explicit-ordering requirement when
/// they appear in an atomic call's argument list.
const ORDERING_IDENTS: &[&str] = &[
    "Ordering", "SeqCst", "AcqRel", "Acquire", "Release", "Relaxed",
];

/// Duration accessors DET010 watches for adjacent raw arithmetic.
const TIME_ACCESSORS: &[&str] = &["as_micros", "as_millis", "as_secs", "as_nanos"];

/// Time constructors DET010 audits for unchecked arithmetic in the
/// argument list.
const TIME_CONSTRUCTORS: &[&str] = &["from_micros", "from_millis", "from_secs"];

/// Per-file scan state: the masked text, the item map, and which allows
/// actually suppressed something (stale-suppression detection).
struct Scan<'a> {
    sf: &'a SourceFile,
    masked: &'a str,
    allows: &'a [Allow],
    items: ItemMap,
    used: Vec<bool>,
}

impl<'a> Scan<'a> {
    /// Marks the matching allow used and reports whether `rule` is
    /// suppressed on `line`.
    fn suppressed(&mut self, rule: RuleId, line: u32) -> bool {
        let Some(class) = rule.allow_class() else {
            return false;
        };
        if let Some(i) = self
            .allows
            .iter()
            .position(|a| a.applies_to == line && a.class == class && !a.reason.is_empty())
        {
            self.used[i] = true;
            return true;
        }
        false
    }

    fn push(&mut self, findings: &mut Vec<Finding>, finding: Finding) {
        if !self.suppressed(finding.rule, finding.line) {
            findings.push(finding);
        }
    }

    fn finding(&self, rule: RuleId, at: (u32, u32), token: &str, message: String) -> Finding {
        Finding {
            rule,
            file: self.sf.rel.clone(),
            line: at.0,
            col: at.1,
            token: token.to_string(),
            message,
        }
    }

    /// Whether the byte offset sits in an inline `#[cfg(test)]` body —
    /// out of scope for the DET007–DET010 pack, like test files are for
    /// every line rule.
    fn in_test(&self, off: usize) -> bool {
        self.items.in_test(off)
    }
}

/// Runs every applicable rule over one lexed file. Returns a mask,
/// parallel to `lexed.allows`, of which annotations suppressed at least
/// one finding (the rest are stale).
pub fn scan_file(sf: &SourceFile, lexed: &Lexed, findings: &mut Vec<Finding>) -> Vec<bool> {
    let mut s = Scan {
        sf,
        masked: &lexed.masked,
        allows: &lexed.allows,
        items: items::build(&lexed.masked),
        used: vec![false; lexed.allows.len()],
    };
    validate_allows(&s, findings);

    // Line rules look at hand-written code only: `src/` files. Test and
    // bench code asserts over the protocol, it does not produce protocol
    // decisions or golden bytes.
    if sf.kind == FileKind::Src {
        let protocol = in_crates(&sf.crate_name, PROTOCOL_CRATES);
        let entropy = in_crates(&sf.crate_name, ENTROPY_CRATES);
        if protocol {
            scan_unordered(&mut s, findings);
        }
        if protocol || in_crates(&sf.crate_name, THREAD_RULE_EXTRA_CRATES) {
            scan_thread_primitives(&mut s, findings);
        }
        if entropy {
            scan_entropy(&mut s, findings);
            scan_atomic_ordering(&mut s, findings);
            scan_lock_discipline(&mut s, findings);
            if !TIME_AXIOM_FILES.contains(&sf.rel.as_str()) {
                scan_time_arithmetic(&mut s, findings);
            }
        }
        if entropy && !GOLDEN_ALLOWED_FILES.contains(&sf.rel.as_str()) {
            scan_golden_surface(&mut s, findings);
        }
        if protocol && !FLOAT_REDUCTION_FILES.contains(&sf.rel.as_str()) {
            scan_float_determinism(&mut s, findings);
        }
    }

    if sf.is_crate_root {
        scan_unsafe_forbid(&mut s, findings);
    }
    s.used
}

fn in_crates(name: &str, list: &[&str]) -> bool {
    list.contains(&name)
}

/// DET005: every annotation must name a known class and carry a reason.
fn validate_allows(s: &Scan, findings: &mut Vec<Finding>) {
    for a in s.allows {
        if !ALLOW_CLASSES.contains(&a.class.as_str()) {
            findings.push(Finding {
                rule: RuleId::BadAnnotation,
                file: s.sf.rel.clone(),
                line: a.line,
                col: a.col,
                token: a.class.clone(),
                message: format!(
                    "unknown det: allow class `{}` (expected one of: {})",
                    a.class,
                    ALLOW_CLASSES.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            findings.push(Finding {
                rule: RuleId::BadAnnotation,
                file: s.sf.rel.clone(),
                line: a.line,
                col: a.col,
                token: a.class.clone(),
                message: format!(
                    "det: allow({}: ...) requires a written reason — suppressions without \
                     justification defeat the audit trail",
                    a.class
                ),
            });
        }
    }
}

/// DET001: unordered collections in protocol crates.
fn scan_unordered(s: &mut Scan, findings: &mut Vec<Finding>) {
    for tok in UNORDERED_TOKENS {
        for (line, col) in find_ident(s.masked, tok) {
            let f = s.finding(
                RuleId::UnorderedCollections,
                (line, col),
                tok,
                format!(
                    "`{tok}` in a protocol crate: iteration order is hash-seed dependent; \
                     use an ordered collection (a `Vec` indexed by a dense id, a sorted \
                     column, a `BTreeMap`) — this rule takes no `det: allow`"
                ),
            );
            s.push(findings, f);
        }
    }
    scan_alias_evasion(s, findings, UNORDERED_TOKENS, RuleId::UnorderedCollections);
}

/// Flags every use of a local alias that renames a forbidden token
/// (`use std::sync::Mutex as Lock;` then `Lock::new(..)`): the rename
/// site itself is caught by the plain token scan, the *uses* only by the
/// alias table.
fn scan_alias_evasion(s: &mut Scan, findings: &mut Vec<Finding>, targets: &[&str], rule: RuleId) {
    let aliases: Vec<(String, String, u32, u32)> = s
        .items
        .aliases
        .iter()
        .filter(|a| targets.contains(&a.target.as_str()) && a.alias != a.target)
        .map(|a| (a.target.clone(), a.alias.clone(), a.line, a.col))
        .collect();
    for (target, alias, a_line, a_col) in aliases {
        for (line, col) in find_ident(s.masked, &alias) {
            if (line, col) == (a_line, a_col) {
                continue; // the rename itself; the target token is flagged there
            }
            let f = s.finding(
                rule,
                (line, col),
                &alias,
                format!(
                    "`{alias}` is a local rename of `{target}` (`use ... as {alias}`): the \
                     alias carries the same determinism hazard as the name it hides"
                ),
            );
            s.push(findings, f);
        }
    }
}

/// DET002: ambient entropy sources in sim/protocol/bench crates.
fn scan_entropy(s: &mut Scan, findings: &mut Vec<Finding>) {
    for pat in ENTROPY_PATTERNS {
        for (line, col) in find_path(s.masked, pat) {
            let shown = pat.join("::");
            let f = s.finding(
                RuleId::AmbientEntropy,
                (line, col),
                &shown,
                format!(
                    "`{shown}` is ambient entropy: simulated time and seeded RNG streams \
                     are the only randomness allowed here; add \
                     `// det: allow(entropy: <why this cannot reach golden output>)` if the \
                     value is provably outside the deterministic surface"
                ),
            );
            s.push(findings, f);
        }
    }
}

/// DET003: direct stdout/stderr writes outside report/logging.
fn scan_golden_surface(s: &mut Scan, findings: &mut Vec<Finding>) {
    for mac in GOLDEN_MACROS {
        for (line, col) in find_macro(s.masked, mac) {
            let f = s.finding(
                RuleId::GoldenSurface,
                (line, col),
                mac,
                format!(
                    "`{mac}!` writes directly to the process streams: stdout is the golden \
                     surface (route through totoro_bench::report) and stderr goes through \
                     totoro_bench::logging; or add \
                     `// det: allow(golden_out: <why this stream is not a golden surface>)`"
                ),
            );
            s.push(findings, f);
        }
    }
}

/// DET006: thread primitives in determinism-scoped crates.
fn scan_thread_primitives(s: &mut Scan, findings: &mut Vec<Finding>) {
    for pat in THREAD_PATTERNS {
        for (line, col) in find_path(s.masked, pat) {
            let shown = pat.join("::");
            let f = s.finding(
                RuleId::ThreadPrimitives,
                (line, col),
                &shown,
                format!(
                    "`{shown}` in a determinism-scoped crate: threads, locks, and channels \
                     make event order scheduler-dependent; add \
                     `// det: allow(parallel: <why scheduling cannot reach simulated state>)`"
                ),
            );
            s.push(findings, f);
        }
    }
    scan_alias_evasion(s, findings, THREAD_ALIAS_TARGETS, RuleId::ThreadPrimitives);
}

/// DET004: crate roots must forbid `unsafe`.
fn scan_unsafe_forbid(s: &mut Scan, findings: &mut Vec<Finding>) {
    let normalized: String = s.masked.chars().filter(|c| !c.is_whitespace()).collect();
    if !normalized.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            rule: RuleId::UnsafeForbid,
            file: s.sf.rel.clone(),
            line: 1,
            col: 1,
            token: String::new(),
            message: "crate root is missing `#![forbid(unsafe_code)]` — every workspace crate \
                      must forbid unsafe at the root"
                .to_string(),
        });
    }
}

/// DET007: every atomic op names an explicit `Ordering`, and `Relaxed`
/// carries a written proof. The missing-argument check engages only in
/// files that mention an `Atomic*` type, so `slice.swap(i, j)` in
/// atomic-free code stays silent.
fn scan_atomic_ordering(s: &mut Scan, findings: &mut Vec<Finding>) {
    // (a) `Ordering::Relaxed` demands a per-site proof: a relaxed load
    // can observe a stale value published by another thread and silently
    // split the byte-identity contract.
    for (line, col) in find_path(s.masked, &["Ordering", "Relaxed"]) {
        if s.in_test(offset_of(s.masked, line, col)) {
            continue;
        }
        let f = s.finding(
            RuleId::AtomicOrdering,
            (line, col),
            "Ordering::Relaxed",
            "`Ordering::Relaxed` provides no happens-before edge: cross-thread \
             publication uses `SeqCst` (DESIGN.md §16); add \
             `// det: allow(ordering: <why relaxed cannot reorder into simulated state>)` \
             with the proof, or strengthen the ordering"
                .to_string(),
        );
        s.push(findings, f);
    }
    // (b) atomic calls must pass an ordering at all.
    if !s.masked.contains("Atomic") {
        return;
    }
    for method in ATOMIC_METHODS {
        for off in find_method_calls(s.masked, method) {
            if s.in_test(off) {
                continue;
            }
            let Some((args_start, args_end)) = call_args(s.masked, off + method.len()) else {
                continue;
            };
            let args = &s.masked[args_start..args_end];
            if ORDERING_IDENTS
                .iter()
                .any(|id| !find_ident(args, id).is_empty())
            {
                continue;
            }
            let at = line_col(s.masked, off);
            let f = s.finding(
                RuleId::AtomicOrdering,
                at,
                method,
                format!(
                    "`.{method}(..)` in a file using atomics does not name a memory \
                     `Ordering`: every atomic op must make its ordering explicit \
                     (DESIGN.md §16); if this is not an atomic, add \
                     `// det: allow(ordering: <what type this method belongs to>)`"
                ),
            );
            s.push(findings, f);
        }
    }
}

/// DET008: lock discipline. Any `.lock()` is a violation unless it
/// carries a written proof (DET006 catches the `Mutex` *type*; this
/// catches acquisitions through aliases or passed-in guards).
fn scan_lock_discipline(s: &mut Scan, findings: &mut Vec<Finding>) {
    for off in find_method_calls(s.masked, "lock") {
        if s.in_test(off) {
            continue;
        }
        let at = line_col(s.masked, off);
        let f = s.finding(
            RuleId::LockDiscipline,
            at,
            "lock",
            "`.lock()` in a determinism-scoped crate: mutex acquisition order is \
             scheduler state; add \
             `// det: allow(lock: <why this guard cannot order simulated state>)`"
                .to_string(),
        );
        s.push(findings, f);
    }
}

/// DET009: order-sensitive float reductions in protocol crates. IEEE
/// addition is not associative, so the byte-identity contract across
/// `--jobs` forbids folding f32/f64 in incidental order. Detected
/// shapes: float-turbofish `sum`/`product`, `fold` seeded with a float,
/// and untyped `sum()`/`product()` whose statement or enclosing function
/// visibly deals in floats.
fn scan_float_determinism(s: &mut Scan, findings: &mut Vec<Finding>) {
    // (a)+(c)+(d): `.sum(..)` / `.product(..)`.
    for method in ["sum", "product"] {
        for off in find_method_calls_or_turbofish(s.masked, method) {
            if s.in_test(off) {
                continue;
            }
            let reason = float_reduction_reason(s, off, method);
            let Some(reason) = reason else { continue };
            let at = line_col(s.masked, off);
            let f = s.finding(
                RuleId::FloatDeterminism,
                at,
                method,
                format!(
                    "float reduction{}: {reason}; IEEE addition is order-sensitive, so \
                     this must use the canonical-order helpers in \
                     crates/simnet/src/numeric.rs or add \
                     `// det: allow(float: <commutativity or canonical-order proof>)`",
                    in_fn_suffix(s, off)
                ),
            );
            s.push(findings, f);
        }
    }
    // (b): `.fold(seed, ..)` with a float seed.
    for off in find_method_calls(s.masked, "fold") {
        if s.in_test(off) {
            continue;
        }
        let Some((args_start, args_end)) = call_args(s.masked, off + "fold".len()) else {
            continue;
        };
        let args = &s.masked[args_start..args_end];
        if !mentions_float(args) {
            continue;
        }
        let at = line_col(s.masked, off);
        let f = s.finding(
            RuleId::FloatDeterminism,
            at,
            "fold",
            format!(
                "`.fold(..)` seeded with a float{}: the accumulation order decides the \
                 bytes unless the operator is exactly commutative and associative \
                 (min/max are; `+`/`*` are not); use the canonical-order helpers in \
                 crates/simnet/src/numeric.rs or add \
                 `// det: allow(float: <commutativity or canonical-order proof>)`",
                in_fn_suffix(s, off)
            ),
        );
        s.push(findings, f);
    }
}

/// Why a `sum`/`product` call at `off` is a float reduction, if it is.
fn float_reduction_reason(s: &Scan, off: usize, method: &str) -> Option<String> {
    let after = &s.masked[off + method.len()..];
    let trimmed = after.trim_start();
    // (a) turbofish: `.sum::<f64>()`.
    if let Some(rest) = trimmed.strip_prefix("::") {
        let ty = rest.trim_start().strip_prefix('<')?.trim_start();
        if ty.starts_with("f32") || ty.starts_with("f64") {
            return Some(format!("`{method}::<{}>`", &ty[..3]));
        }
        return None;
    }
    if !trimmed.starts_with('(') {
        return None;
    }
    // (c) statement mentions a float type or literal.
    let stmt_start = statement_start(s.masked, off);
    if mentions_float(&s.masked[stmt_start..off]) {
        return Some("the statement names an f32/f64".to_string());
    }
    // (d) the enclosing fn returns a float.
    let ret = &s.items.enclosing_fn(off)?.ret;
    if !find_ident(ret, "f32").is_empty() || !find_ident(ret, "f64").is_empty() {
        return Some(format!("the enclosing fn returns `{}`", ret.trim()));
    }
    None
}

/// ` in fn \`name\`` when the item tracker knows the enclosing function.
fn in_fn_suffix(s: &Scan, off: usize) -> String {
    match s.items.enclosing_fn(off) {
        Some(f) if !f.name.is_empty() => format!(" in fn `{}`", f.name),
        _ => String::new(),
    }
}

/// DET010: unchecked arithmetic on raw simulated-time integers outside
/// `time.rs`. `SimTime`/`SimDuration` already define saturating
/// operators; the hazard is the raw-`u64` escape hatch — `as_micros()`
/// followed by `+`/`-`, or `from_micros(a + b)` — which wraps in release
/// builds and panics in debug, exactly the class the mc closeout clamp
/// papers over.
fn scan_time_arithmetic(s: &mut Scan, findings: &mut Vec<Finding>) {
    let b = s.masked.as_bytes();
    let mut hit_lines: Vec<u32> = Vec::new();
    // (b) constructors with `+`/`-` inside the argument list.
    for ctor in TIME_CONSTRUCTORS {
        for (line, col) in find_ident(s.masked, ctor) {
            let off = offset_of(s.masked, line, col);
            if s.in_test(off) {
                continue;
            }
            let Some((args_start, args_end)) = call_args(s.masked, off + ctor.len()) else {
                continue;
            };
            if !has_raw_add_sub(&s.masked[args_start..args_end]) {
                continue;
            }
            hit_lines.push(line);
            let f = s.finding(
                RuleId::TimeArithmetic,
                (line, col),
                ctor,
                format!(
                    "unchecked `+`/`-` inside `{ctor}(..)`: raw microsecond arithmetic \
                     wraps on overflow and skews simulated time silently; use \
                     `saturating_add`/`saturating_sub`/`checked_*` (the `SimTime` \
                     operators in crates/simnet/src/time.rs already saturate) or add \
                     `// det: allow(time: <overflow bound proof>)`"
                ),
            );
            s.push(findings, f);
        }
    }
    // (a) accessor immediately followed by a raw `+`/`-`.
    for acc in TIME_ACCESSORS {
        for off in find_method_calls(s.masked, acc) {
            if s.in_test(off) {
                continue;
            }
            let Some((_, args_end)) = call_args(s.masked, off + acc.len()) else {
                continue;
            };
            let mut i = args_end + 1; // past the closing paren
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            let hazard = match b.get(i) {
                Some(&b'+') => b.get(i + 1) != Some(&b'='),
                Some(&b'-') => b.get(i + 1) != Some(&b'>'),
                _ => false,
            };
            if !hazard {
                continue;
            }
            let at = line_col(s.masked, off);
            if hit_lines.contains(&at.0) {
                continue; // already reported via the constructor on this line
            }
            hit_lines.push(at.0);
            let f = s.finding(
                RuleId::TimeArithmetic,
                at,
                acc,
                format!(
                    "raw `+`/`-` on `.{acc}()`: unchecked integer arithmetic on simulated \
                     timestamps wraps on overflow; use `saturating_add`/`saturating_sub`/\
                     `checked_*` or the `SimTime`/`SimDuration` operators \
                     (crates/simnet/src/time.rs), or add \
                     `// det: allow(time: <overflow bound proof>)`"
                ),
            );
            s.push(findings, f);
        }
    }
}

/// Whether `text` contains a binary `+` or `-` between value-like
/// operands (`->` arrows and unary minus excluded).
fn has_raw_add_sub(text: &str) -> bool {
    let b = text.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'+' && c != b'-' {
            continue;
        }
        if c == b'-' && b.get(i + 1) == Some(&b'>') {
            continue;
        }
        // Binary only: the previous non-whitespace byte must end a value.
        let mut p = i;
        while p > 0 && b[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p == 0 {
            continue;
        }
        let prev = b[p - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            return true;
        }
    }
    false
}

/// Whether `text` visibly deals in floats: an `f32`/`f64` ident or a
/// float literal (`1.5`, `0.0f32`).
fn mentions_float(text: &str) -> bool {
    if !find_ident(text, "f32").is_empty() || !find_ident(text, "f64").is_empty() {
        return true;
    }
    let b = text.as_bytes();
    b.iter().enumerate().any(|(i, &c)| {
        c == b'.'
            && i > 0
            && b[i - 1].is_ascii_digit()
            && b.get(i + 1).is_some_and(u8::is_ascii_digit)
    })
}

/// Byte offset where the statement containing `off` starts (one past the
/// nearest `;`, `{`, `}`, or `,` — commas bound struct-literal fields).
fn statement_start(masked: &str, off: usize) -> usize {
    masked[..off]
        .rfind([';', '{', '}', ','])
        .map(|p| p + 1)
        .unwrap_or(0)
}

/// Offsets of `name` appearing as a method call: `.name(`, whitespace
/// tolerant on both sides of the identifier.
fn find_method_calls(masked: &str, name: &str) -> Vec<usize> {
    method_call_offsets(masked, name, false)
}

/// Like [`find_method_calls`] but also matches `.name::<..>(` turbofish.
fn find_method_calls_or_turbofish(masked: &str, name: &str) -> Vec<usize> {
    method_call_offsets(masked, name, true)
}

fn method_call_offsets(masked: &str, name: &str, turbofish: bool) -> Vec<usize> {
    let b = masked.as_bytes();
    find_ident(masked, name)
        .into_iter()
        .map(|(line, col)| offset_of(masked, line, col))
        .filter(|&off| {
            // Preceded by `.`.
            let mut p = off;
            while p > 0 && b[p - 1].is_ascii_whitespace() {
                p -= 1;
            }
            if p == 0 || b[p - 1] != b'.' {
                return false;
            }
            // Followed by `(` (or `::<..>(` when turbofish is allowed).
            let after = &masked[off + name.len()..];
            let trimmed = after.trim_start();
            trimmed.starts_with('(') || (turbofish && trimmed.starts_with("::"))
        })
        .collect()
}

/// The argument span `(inner_start, inner_end)` of a call whose opening
/// paren follows `from` (whitespace tolerant); `inner_end` is the offset
/// of the closing paren.
fn call_args(masked: &str, from: usize) -> Option<(usize, usize)> {
    let b = masked.as_bytes();
    let mut i = from;
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    if b.get(i) != Some(&b'(') {
        return None;
    }
    let start = i + 1;
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some((start, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Yields `(line, col)` of each whole-identifier occurrence of `ident`.
fn find_ident(masked: &str, ident: &str) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let b = masked.as_bytes();
    let mut from = 0usize;
    while let Some(p) = masked[from..].find(ident) {
        let at = from + p;
        let end = at + ident.len();
        let bounded =
            (at == 0 || !is_ident_byte(b[at - 1])) && (end == b.len() || !is_ident_byte(b[end]));
        if bounded {
            out.push(line_col(masked, at));
        }
        from = end;
    }
    out
}

/// Yields `(line, col)` of each `a::b::c` path occurrence: the first
/// segment matched as a whole identifier, then `::` and the following
/// segments with arbitrary whitespace between tokens.
fn find_path(masked: &str, segments: &[&str]) -> Vec<(u32, u32)> {
    if segments.len() == 1 {
        return find_ident(masked, segments[0]);
    }
    let mut out = Vec::new();
    let b = masked.as_bytes();
    for (line, col) in find_ident(masked, segments[0]) {
        let at = offset_of(masked, line, col);
        let mut i = at + segments[0].len();
        let mut ok = true;
        for seg in &segments[1..] {
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if !masked[i..].starts_with("::") {
                ok = false;
                break;
            }
            i += 2;
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if !masked[i..].starts_with(seg)
                || masked[i + seg.len()..]
                    .bytes()
                    .next()
                    .is_some_and(is_ident_byte)
            {
                ok = false;
                break;
            }
            i += seg.len();
        }
        if ok {
            out.push((line, col));
        }
    }
    out
}

/// Yields `(line, col)` of each `name!` macro invocation.
fn find_macro(masked: &str, name: &str) -> Vec<(u32, u32)> {
    let b = masked.as_bytes();
    find_ident(masked, name)
        .into_iter()
        .filter(|&(line, col)| {
            let mut i = offset_of(masked, line, col) + name.len();
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            b.get(i) == Some(&b'!')
        })
        .collect()
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offset of 1-based `(line, col)` in `text`.
fn offset_of(text: &str, line: u32, col: u32) -> usize {
    let mut remaining = line - 1;
    let mut off = 0usize;
    for (i, c) in text.char_indices() {
        if remaining == 0 {
            return i + (col as usize - 1);
        }
        if c == '\n' {
            remaining -= 1;
            off = i + 1;
        }
    }
    off + (col as usize - 1)
}

/// 1-based `(line, col)` of byte offset `at` in `text`.
fn line_col(text: &str, at: usize) -> (u32, u32) {
    let before = &text[..at];
    let line = before.matches('\n').count() as u32 + 1;
    let col = (at - before.rfind('\n').map(|p| p + 1).unwrap_or(0)) as u32 + 1;
    (line, col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn src_file(rel: &str, crate_name: &str, kind: FileKind, root: bool) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            is_crate_root: root,
        }
    }

    fn scan(rel: &str, crate_name: &str, src: &str) -> Vec<Finding> {
        let sf = src_file(rel, crate_name, FileKind::Src, rel.ends_with("src/lib.rs"));
        let lexed = lex(src);
        let mut findings = Vec::new();
        scan_file(&sf, &lexed, &mut findings);
        findings
    }

    fn scan_used(rel: &str, crate_name: &str, src: &str) -> (Vec<Finding>, Vec<bool>) {
        let sf = src_file(rel, crate_name, FileKind::Src, rel.ends_with("src/lib.rs"));
        let lexed = lex(src);
        let mut findings = Vec::new();
        let used = scan_file(&sf, &lexed, &mut findings);
        (findings, used)
    }

    #[test]
    fn hashmap_in_protocol_crate_is_flagged_with_position() {
        let f = scan(
            "crates/pubsub/src/forest.rs",
            "pubsub",
            "use std::collections::BTreeMap;\nlet m: HashMap<u8, u8> = x();\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnorderedCollections);
        assert_eq!((f[0].line, f[0].col), (2, 8));
    }

    #[test]
    fn annotated_hashmap_still_fires_trailing_and_preceding() {
        // DET001 takes no allow: the old `unordered` class is unknown, so
        // the annotation is itself a DET005 and suppresses nothing.
        for src in [
            "let m: HashMap<u8, u8> = x(); // det: allow(unordered: key-only lookups)\n",
            "// det: allow(unordered: key-only lookups)\nlet m: HashMap<u8, u8> = x();\n",
        ] {
            let (f, used) = scan_used("crates/pubsub/src/forest.rs", "pubsub", src);
            let rules: Vec<RuleId> = f.iter().map(|x| x.rule).collect();
            assert!(rules.contains(&RuleId::UnorderedCollections), "{f:?}");
            assert!(rules.contains(&RuleId::BadAnnotation), "{f:?}");
            assert_eq!(used, vec![false]);
        }
        assert_eq!(RuleId::UnorderedCollections.allow_class(), None);
    }

    #[test]
    fn allow_without_reason_does_not_suppress_and_is_itself_flagged() {
        let f = scan(
            "crates/simnet/src/sim.rs",
            "simnet",
            "let t = Instant::now(); // det: allow(entropy)\n",
        );
        let rules: Vec<RuleId> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&RuleId::AmbientEntropy));
        assert!(rules.contains(&RuleId::BadAnnotation));
    }

    #[test]
    fn unknown_allow_class_is_flagged() {
        let f = scan(
            "crates/dht/src/node.rs",
            "dht",
            "let x = 1; // det: allow(speed: because)\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::BadAnnotation);
    }

    #[test]
    fn entropy_paths_are_matched_across_whitespace() {
        let f = scan(
            "crates/simnet/src/sim.rs",
            "simnet",
            "let t = Instant ::\n    now();\nlet v = std::env::var(\"X\");\n",
        );
        let tokens: Vec<&str> = f.iter().map(|x| x.token.as_str()).collect();
        assert!(tokens.contains(&"Instant::now"));
        assert!(tokens.contains(&"env::var"));
    }

    #[test]
    fn instant_import_alone_is_not_flagged() {
        let f = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "use std::time::Instant;\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn env_args_is_not_env_var() {
        let f = scan(
            "crates/bench/src/bin/x.rs",
            "bench",
            "let a: Vec<String> = std::env::args().collect();\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn println_flagged_everywhere_but_allowed_modules() {
        let f = scan(
            "crates/bench/src/bin/totoro_bench.rs",
            "bench",
            "println!(\"hi\");\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::GoldenSurface);
        let ok = scan(
            "crates/bench/src/logging.rs",
            "bench",
            "eprintln!(\"hi\");\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn eprint_does_not_shadow_print_boundaries() {
        // `eprint!` must match eprint (1 finding), not also `print`.
        let f = scan("crates/core/src/x.rs", "core", "eprint!(\"a\");\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "eprint");
    }

    #[test]
    fn non_macro_print_identifier_is_not_flagged() {
        let f = scan(
            "crates/core/src/x.rs",
            "core",
            "fn print(x: u8) {}\nprint(3);\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn crate_root_without_forbid_unsafe_is_flagged() {
        let sf = src_file("crates/foo/src/lib.rs", "foo", FileKind::Src, true);
        let lexed = lex("pub fn f() {}\n");
        let mut f = Vec::new();
        scan_file(&sf, &lexed, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnsafeForbid);
        let lexed = lex("#![forbid(unsafe_code)]\npub fn f() {}\n");
        let mut ok = Vec::new();
        scan_file(&sf, &lexed, &mut ok);
        assert!(ok.is_empty());
    }

    #[test]
    fn forbid_attr_inside_comment_does_not_satisfy_det004() {
        let sf = src_file("crates/foo/src/lib.rs", "foo", FileKind::Src, true);
        let lexed = lex("// #![forbid(unsafe_code)]\npub fn f() {}\n");
        let mut f = Vec::new();
        scan_file(&sf, &lexed, &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn non_protocol_crates_are_out_of_scope_for_collections() {
        let f = scan(
            "crates/detlint/src/rules.rs",
            "detlint",
            "let m: HashMap<u8,u8> = x();\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn tests_and_benches_are_out_of_scope_for_line_rules() {
        let sf = src_file(
            "crates/pubsub/tests/forest.rs",
            "pubsub",
            FileKind::Tests,
            false,
        );
        let lexed = lex("let m: HashMap<u8,u8> = x(); println!(\"t\");\n");
        let mut f = Vec::new();
        scan_file(&sf, &lexed, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn hashmap_inside_raw_string_or_comment_is_not_flagged() {
        let f = scan(
            "crates/pubsub/src/forest.rs",
            "pubsub",
            "// a HashMap lives here\nlet s = r#\"HashMap\"#;\nlet t = \"HashMap\";\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn thread_spawn_in_protocol_crate_is_flagged_with_position() {
        let f = scan(
            "crates/dht/src/node.rs",
            "dht",
            "let h = std::thread::spawn(|| {});\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::ThreadPrimitives);
        assert_eq!((f[0].line, f[0].col), (1, 14));
        assert_eq!(f[0].token, "thread::spawn");
    }

    #[test]
    fn mutex_and_mpsc_are_flagged_and_allow_parallel_suppresses() {
        let f = scan(
            "crates/pubsub/src/forest.rs",
            "pubsub",
            "use std::sync::{mpsc, Mutex};\n",
        );
        let tokens: Vec<&str> = f.iter().map(|x| x.token.as_str()).collect();
        assert!(tokens.contains(&"Mutex"), "{f:?}");
        assert!(tokens.contains(&"mpsc"), "{f:?}");
        let ok = scan(
            "crates/pubsub/src/forest.rs",
            "pubsub",
            "let m = Mutex::new(0); // det: allow(parallel: host-only metric)\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn thread_primitives_outside_determinism_crates_are_not_flagged() {
        let ok = scan(
            "vendor/rand/src/util.rs",
            "vendor/rand",
            "let h = std::thread::spawn(|| {});\nlet m = Mutex::new(0);\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn detlint_itself_submits_to_the_thread_rule() {
        let f = scan(
            "crates/detlint/src/lib.rs",
            "detlint",
            "#![forbid(unsafe_code)]\nstd::thread::scope(|s| { let _ = s; });\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::ThreadPrimitives);
        let ok = scan(
            "crates/detlint/src/lib.rs",
            "detlint",
            "#![forbid(unsafe_code)]\n// det: allow(parallel: path-ordered merge)\nstd::thread::scope(|s| { let _ = s; });\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn thread_primitives_in_tests_are_out_of_scope() {
        let sf = src_file(
            "crates/simnet/tests/queue_equiv.rs",
            "simnet",
            FileKind::Tests,
            false,
        );
        let lexed = lex("let (tx, rx) = mpsc::channel();\n");
        let mut f = Vec::new();
        scan_file(&sf, &lexed, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn use_alias_of_forbidden_names_is_chased_to_the_use_sites() {
        let f = scan(
            "crates/pubsub/src/forest.rs",
            "pubsub",
            "use std::collections::HashMap as Map;\nlet m: Map<u8, u8> = Map::new();\n",
        );
        // The rename site (HashMap token) plus both Map uses.
        let det001 = f
            .iter()
            .filter(|x| x.rule == RuleId::UnorderedCollections)
            .count();
        assert_eq!(det001, 3, "{f:?}");
        let f = scan(
            "crates/dht/src/node.rs",
            "dht",
            "use std::sync::Mutex as Lock;\nlet g = Lock::new(0);\n",
        );
        let det006: Vec<_> = f
            .iter()
            .filter(|x| x.rule == RuleId::ThreadPrimitives)
            .collect();
        assert_eq!(det006.len(), 2, "{f:?}");
        assert_eq!((det006[1].line, det006[1].col), (2, 9));
    }

    // ---- DET007 atomic-ordering ----

    #[test]
    fn relaxed_ordering_requires_a_written_proof() {
        let f = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "use std::sync::atomic::{AtomicU64, Ordering};\nx.store(1, Ordering::Relaxed);\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::AtomicOrdering);
        assert_eq!((f[0].line, f[0].col), (2, 12));
        let ok = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "use std::sync::atomic::{AtomicU64, Ordering};\nx.store(1, Ordering::Relaxed); // det: allow(ordering: host-only counter, never read back into simulated state)\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn atomic_call_without_ordering_is_flagged_seqcst_is_clean() {
        let f = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "let a = AtomicU64::new(0);\nlet v = a.load();\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::AtomicOrdering);
        assert_eq!(f[0].token, "load");
        let ok = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "let a = AtomicU64::new(0);\nlet v = a.load(Ordering::SeqCst);\na.store(2, Ordering::SeqCst);\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn slice_swap_in_atomic_free_file_is_not_an_atomic_op() {
        let ok = scan(
            "crates/simnet/src/sim.rs",
            "simnet",
            "v.swap(0, 1);\nlet x = q.load();\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn relaxed_inside_cfg_test_is_exempt() {
        let ok = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "#[cfg(test)]\nmod tests {\n    fn f() { x.store(1, Ordering::Relaxed); }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    // ---- DET008 lock-discipline ----

    #[test]
    fn every_lock_is_flagged_even_without_mutex_token() {
        let f = scan(
            "crates/dht/src/node.rs",
            "dht",
            "fn f(g: &SomeGuardable) { let v = g.lock(); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::LockDiscipline);
        let ok = scan(
            "crates/dht/src/node.rs",
            "dht",
            "fn f(g: &SomeGuardable) { let v = g.lock(); } // det: allow(lock: host-side metrics sink)\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        // No file is exempt and no acquisition shape is sanctioned: each
        // of two nested mailbox-style guards needs its own proof.
        let f = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "fn nested() {\n    let a = mailboxes[id][j].lock().unwrap();\n    let b = mailboxes[id][k].lock().unwrap();\n}\n",
        );
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [2, 3], "{f:?}");
        assert!(f.iter().all(|x| x.rule == RuleId::LockDiscipline));
    }

    // ---- DET009 float-determinism ----

    #[test]
    fn float_turbofish_sum_is_flagged() {
        let f = scan(
            "crates/ml/src/nn.rs",
            "ml",
            "fn f(xs: &[f32]) { let s = xs.iter().sum::<f32>(); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::FloatDeterminism);
    }

    #[test]
    fn float_typed_let_sum_is_flagged_and_integer_sum_is_not() {
        let f = scan(
            "crates/ml/src/nn.rs",
            "ml",
            "fn f() {\n    let total: u64 = xs.iter().sum();\n    let s: f32 = exps.iter().sum();\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn sum_in_float_returning_fn_is_flagged_via_item_tracker() {
        let f = scan(
            "crates/bandit/src/graph.rs",
            "bandit",
            "pub fn path_delay(&self, path: &[EdgeId]) -> f64 {\n    path.iter().map(|&e| self.expected_delay(e)).sum()\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("path_delay"),
            "message names the enclosing fn: {}",
            f[0].message
        );
    }

    #[test]
    fn float_seeded_fold_is_flagged_and_allow_float_suppresses() {
        let f = scan(
            "crates/ml/src/compress.rs",
            "ml",
            "fn m(v: &[f32]) { let max = v.iter().fold(0.0f32, |m, &x| m.max(x.abs())); }\n",
        );
        assert!(
            f.iter()
                .any(|x| x.rule == RuleId::FloatDeterminism && x.token == "fold"),
            "{f:?}"
        );
        let ok = scan(
            "crates/ml/src/compress.rs",
            "ml",
            "fn m(v: &[u32]) {\n    // det: allow(float: max is exactly commutative and associative)\n    let max = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn integer_fold_and_usize_sums_are_not_flagged() {
        let ok = scan(
            "crates/simnet/src/geo.rs",
            "simnet",
            "fn f(regions: &[Region]) -> usize {\n    let full: usize = regions.iter().map(|r| r.count).sum();\n    let acc = xs.iter().fold(0u64, |a, b| a + b);\n    full\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn float_reduction_in_cfg_test_is_exempt() {
        let ok = scan(
            "crates/ml/src/nn.rs",
            "ml",
            "#[cfg(test)]\nmod tests {\n    fn f() { let s: f32 = p.iter().sum(); }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn numeric_helper_module_is_sanctioned_for_det009() {
        let ok = scan(
            "crates/simnet/src/numeric.rs",
            "simnet",
            "pub fn sum_f64(xs: &[f64]) -> f64 { xs.iter().sum() }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    // ---- DET010 time-arithmetic ----

    #[test]
    fn unchecked_add_inside_from_micros_is_flagged() {
        let f = scan(
            "crates/bench/src/scenarios/fig13.rs",
            "bench",
            "fn f() { let t = SimTime::from_micros(t.as_micros() + step.as_micros()); }\n",
        );
        assert_eq!(f.len(), 1, "one finding per hazard line: {f:?}");
        assert_eq!(f[0].rule, RuleId::TimeArithmetic);
        assert_eq!(f[0].token, "from_micros");
    }

    #[test]
    fn subtraction_after_as_micros_is_flagged() {
        let f = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "fn f() { let d = end.as_micros() - 1; }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].token, "as_micros");
    }

    #[test]
    fn saturating_and_constant_time_arithmetic_are_clean() {
        let ok = scan(
            "crates/bench/src/scenarios/fig13.rs",
            "bench",
            "fn f() {\n    let t = SimTime::from_micros(t.as_micros().saturating_add(step.as_micros()));\n    let m = SimTime::from_micros(48 * 3_600 * 1_000_000);\n    let c = x.as_micros().saturating_sub(1);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn closure_arrows_in_constructor_args_are_not_subtraction() {
        let ok = scan(
            "crates/simnet/src/chaos.rs",
            "simnet",
            "fn f() { let t = SimTime::from_micros(pick(|k| -> u64 { k })); }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn time_rs_is_the_sanctioned_home_of_raw_time_arithmetic() {
        let ok = scan(
            "crates/simnet/src/time.rs",
            "simnet",
            "fn f() { let d = a.as_micros() - b.as_micros(); }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn time_arithmetic_in_cfg_test_is_exempt() {
        let ok = scan(
            "crates/simnet/src/queue.rs",
            "simnet",
            "#[cfg(test)]\nmod tests {\n    fn f() { let t = SimTime::from_micros(span - 2); }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn allow_time_with_proof_suppresses() {
        let ok = scan(
            "crates/simnet/src/engine.rs",
            "simnet",
            "fn f() {\n    // det: allow(time: end_us >= 1 is debug-asserted two lines up)\n    let bound = SimTime::from_micros(end_us - 1);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    // ---- stale-allow usage tracking ----

    #[test]
    fn used_mask_distinguishes_live_and_stale_allows() {
        let (f, used) = scan_used(
            "crates/simnet/src/sim.rs",
            "simnet",
            "let t = Instant::now(); // det: allow(entropy: host-only timing)\nlet n = 1; // det: allow(entropy: nothing here to suppress)\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(used, vec![true, false]);
    }

    #[test]
    fn malformed_allows_are_not_marked_used() {
        let (f, used) = scan_used(
            "crates/simnet/src/sim.rs",
            "simnet",
            "let t = Instant::now(); // det: allow(entropy)\n",
        );
        assert!(f.iter().any(|x| x.rule == RuleId::BadAnnotation));
        assert_eq!(used, vec![false]);
    }
}
