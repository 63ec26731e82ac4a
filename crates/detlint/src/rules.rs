//! The rules detlint holds (DESIGN.md §11, §16). Each scans the *masked*
//! text of [`crate::lexer`], so comments and literals never trigger or
//! hide a finding. DET007, DET009 and DET010 skip `#[cfg(test)]` bodies
//! and take a per-line `// det: allow(<class>: <reason>)`.

use std::ops::Range;

use crate::items::{self, ItemMap};
use crate::lexer::{find_ident, is_ident_byte, Lexed};
use crate::workspace::SourceFile;
use crate::AllowRecord;

/// Crates whose protocol decisions feed golden output: DET009's scope,
/// and with the harness (`bench`) that of DET007 and DET010.
const PROTOCOL_CRATES: &str = "simnet dht pubsub core baselines bandit ml mc";

/// The canonical-order float-reduction helpers, exempt from DET009.
const FLOAT_REDUCTION_FILE: &str = "crates/simnet/src/numeric.rs";

/// The `SimTime`/`SimDuration` operators, exempt from DET010.
const TIME_AXIOM_FILE: &str = "crates/simnet/src/time.rs";

/// Every valid annotation class. A site that breaks a clippy ban takes
/// `#[expect(clippy::disallowed_*, reason = "...")]`, not an annotation.
pub const ALLOW_CLASSES: &[&str] = &["ordering", "float", "time"];

/// A rule: its `DET0xx` code, its name, and the `det: allow` class that
/// suppresses it (DET004 and DET005 guard the mechanism and take none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rule {
    pub code: &'static str,
    pub name: &'static str,
    pub class: Option<&'static str>,
}

const fn rule(code: &'static str, name: &'static str, class: Option<&'static str>) -> Rule {
    Rule { code, name, class }
}

/// A crate root without `#![forbid(unsafe_code)]`.
pub const UNSAFE_FORBID: Rule = rule("DET004", "unsafe-forbid", None);
/// A `det: allow` with an unknown class or no reason.
pub const BAD_ANNOTATION: Rule = rule("DET005", "bad-annotation", None);
/// An atomic op naming no `Ordering`, or an unproven `Relaxed`.
pub const ATOMIC_ORDERING: Rule = rule("DET007", "atomic-ordering", Some("ordering"));
/// An order-sensitive f32/f64 reduction without a proof.
pub const FLOAT_DETERMINISM: Rule = rule("DET009", "float-determinism", Some("float"));
/// Unchecked `+`/`-` on raw simulated-time microseconds.
pub const TIME_ARITHMETIC: Rule = rule("DET010", "time-arithmetic", Some("time"));

/// One diagnostic, at a 1-based position in a workspace-relative file.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A rule's hit before suppression: the rule, a byte offset, a message.
type Hit = (Rule, usize, String);

/// Runs every applicable rule over one lexed file, appending its findings
/// in position order, and returns its allows with whether each was used.
pub fn scan_file(sf: &SourceFile, lexed: Lexed, findings: &mut Vec<Finding>) -> Vec<AllowRecord> {
    let (masked, allows, first) = (lexed.masked.as_str(), &lexed.allows, findings.len());
    let mut hits: Vec<Hit> = Vec::new();
    for a in allows {
        if !ALLOW_CLASSES.contains(&a.class.as_str()) || a.reason.is_empty() {
            let message = format!(
                "det: allow({}) needs one of the classes {ALLOW_CLASSES:?} and a written reason",
                a.class
            );
            hits.push((BAD_ANNOTATION, a.at, message));
        }
    }
    let items = items::build(masked);
    let protocol = PROTOCOL_CRATES.split(' ').any(|c| c == sf.crate_name);
    if sf.is_src && (protocol || sf.crate_name == "bench") {
        atomic_ordering(masked, &mut hits);
        if sf.rel != TIME_AXIOM_FILE {
            time_arithmetic(masked, &mut hits);
        }
        if protocol && sf.rel != FLOAT_REDUCTION_FILE {
            float_determinism(masked, &items, &mut hits);
        }
    }
    let normalized: String = masked.split_whitespace().collect();
    if sf.is_crate_root && !normalized.contains("#![forbid(unsafe_code)]") {
        let message = "crate root is missing `#![forbid(unsafe_code)]`".to_string();
        hits.push((UNSAFE_FORBID, 0, message));
    }
    // DET007/009/010 skip test bodies (DET004/005 hold everywhere); one
    // finding per rule and line, the first hit in scan order.
    let mut used = vec![false; allows.len()];
    let mut seen: Vec<(Rule, u32)> = Vec::new();
    for (rule, at, message) in hits {
        let (line, col) = line_col(masked, at);
        if (rule.class.is_some() && items.in_test(at)) || seen.contains(&(rule, line)) {
            continue;
        }
        seen.push((rule, line));
        let allow = allows.iter().position(|a| {
            a.applies_to == line && Some(a.class.as_str()) == rule.class && !a.reason.is_empty()
        });
        match allow {
            Some(i) => used[i] = true,
            None => findings.push(Finding {
                rule,
                file: sf.rel.clone(),
                line,
                col,
                message,
            }),
        }
    }
    findings[first..].sort_by_key(|f| (f.line, f.col, f.rule));
    let records = lexed.allows.into_iter().zip(used);
    let file = || sf.rel.clone();
    records
        .map(|(allow, used)| AllowRecord {
            file: file(),
            allow,
            used,
        })
        .collect()
}

/// DET007: `Ordering::Relaxed` needs a written proof, and in a file that
/// mentions an `Atomic*` type every atomic op names an `Ordering` (so
/// `slice.swap(i, j)` in atomic-free code stays silent).
fn atomic_ordering(masked: &str, hits: &mut Vec<Hit>) {
    for at in find_ident(masked, "Ordering") {
        let rest = masked[at + "Ordering".len()..].trim_start();
        let relaxed = rest.strip_prefix("::").map(str::trim_start);
        if relaxed.is_some_and(|r| find_ident(r, "Relaxed").first() == Some(&0)) {
            let message = "`Ordering::Relaxed` gives no happens-before edge (DESIGN.md §16); \
                           strengthen it or add `// det: allow(ordering: <proof>)`";
            hits.push((ATOMIC_ORDERING, at, message.to_string()));
        }
    }
    if !masked.contains("Atomic") {
        return;
    }
    let methods = "load store swap fetch_add fetch_sub fetch_and fetch_nand fetch_or fetch_xor \
                   fetch_max fetch_min fetch_update compare_exchange compare_exchange_weak";
    let orderings = "Ordering SeqCst AcqRel Acquire Release Relaxed";
    for method in methods.split(' ') {
        for at in method_calls(masked, method, false) {
            let Some(args) = call_args(masked, at + method.len()) else {
                continue;
            };
            let args = &masked[args];
            if orderings.split(' ').all(|o| find_ident(args, o).is_empty()) {
                let message = format!(
                    "`.{method}(..)` in a file using atomics names no `Ordering`; if it is \
                     not an atomic, add `// det: allow(ordering: <what type this is>)`"
                );
                hits.push((ATOMIC_ORDERING, at, message));
            }
        }
    }
}

/// DET009: IEEE addition is not associative, so an f32/f64 fold in
/// incidental order breaks byte-identity. Flags float-turbofish
/// `sum`/`product`, a `fold` seeded with a float, and an untyped
/// `sum()`/`product()` whose statement or enclosing fn names a float.
fn float_determinism(masked: &str, items: &ItemMap, hits: &mut Vec<Hit>) {
    let fix = "use the canonical-order helpers in crates/simnet/src/numeric.rs or add \
               `// det: allow(float: <commutativity or canonical-order proof>)`";
    let in_fn = |at| {
        let f = items.enclosing_fn(at);
        f.map_or(String::new(), |f| format!(" in fn `{}`", f.name))
    };
    for method in ["sum", "product"] {
        for at in method_calls(masked, method, true) {
            if let Some(why) = float_reduction(masked, items, at, method) {
                let message = format!("float reduction{}: {why}; {fix}", in_fn(at));
                hits.push((FLOAT_DETERMINISM, at, message));
            }
        }
    }
    for at in method_calls(masked, "fold", false) {
        if call_args(masked, at + 4).is_some_and(|args| mentions_float(&masked[args])) {
            let message = format!("`.fold(..)` seeded with a float{}; {fix}", in_fn(at));
            hits.push((FLOAT_DETERMINISM, at, message));
        }
    }
}

/// Why the `sum`/`product` call at `at` is a float reduction, if it is.
fn float_reduction(masked: &str, items: &ItemMap, at: usize, method: &str) -> Option<String> {
    let after = masked[at + method.len()..].trim_start();
    if let Some(rest) = after.strip_prefix("::") {
        let ty = rest.trim_start().strip_prefix('<')?.trim_start();
        let float = ["f32", "f64"].into_iter().find(|f| ty.starts_with(f))?;
        return Some(format!("`{method}::<{float}>`"));
    }
    let statement = masked[..at]
        .rfind([';', '{', '}', ','])
        .map_or(0, |p| p + 1);
    if mentions_float(&masked[statement..at]) {
        return Some("the statement names an f32/f64".to_string());
    }
    let ret = &items.enclosing_fn(at)?.ret;
    mentions_float(ret).then(|| format!("the enclosing fn returns `{ret}`"))
}

/// DET010: raw `u64` micros arithmetic wraps in release builds and panics
/// in debug. Flags `from_micros(a + b)`-style constructors and an
/// accessor like `.as_micros()` followed by `+`/`-`.
fn time_arithmetic(masked: &str, hits: &mut Vec<Hit>) {
    let fix = "use `saturating_*`/`checked_*` or the `SimTime`/`SimDuration` operators, or \
               add `// det: allow(time: <overflow bound proof>)`";
    for ctor in ["from_micros", "from_millis", "from_secs"] {
        for at in find_ident(masked, ctor) {
            let args = call_args(masked, at + ctor.len());
            if args.is_some_and(|args| has_raw_add_sub(&masked[args])) {
                let message = format!("unchecked `+`/`-` inside `{ctor}(..)`; {fix}");
                hits.push((TIME_ARITHMETIC, at, message));
            }
        }
    }
    for acc in ["as_micros", "as_millis", "as_secs", "as_nanos"] {
        for at in method_calls(masked, acc, false) {
            let Some(args) = call_args(masked, at + acc.len()) else {
                continue;
            };
            let hazard = match masked[args.end + 1..].trim_start().as_bytes() {
                [b'+', rest @ ..] => rest.first() != Some(&b'='),
                [b'-', rest @ ..] => rest.first() != Some(&b'>'),
                _ => false,
            };
            if hazard {
                let message = format!("raw `+`/`-` on `.{acc}()`; {fix}");
                hits.push((TIME_ARITHMETIC, at, message));
            }
        }
    }
}

/// Whether `text` holds a binary `+` or `-` (not `->`, not unary minus).
fn has_raw_add_sub(text: &str) -> bool {
    let b = text.as_bytes();
    b.iter().enumerate().any(|(i, &c)| {
        if c != b'+' && (c != b'-' || b.get(i + 1) == Some(&b'>')) {
            return false;
        }
        let prev = text[..i].trim_end().bytes().last();
        prev.is_some_and(|p| is_ident_byte(p) || p == b')' || p == b']')
    })
}

/// Whether `text` names `f32`/`f64` or holds a float literal (`1.5`).
fn mentions_float(text: &str) -> bool {
    let literal = |w: &[u8]| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit();
    let names = |ty| !find_ident(text, ty).is_empty();
    names("f32") || names("f64") || text.as_bytes().windows(3).any(literal)
}

/// Offsets of `.name(` calls (with `turbofish`, also `.name::<..>(`).
fn method_calls(masked: &str, name: &str, turbofish: bool) -> Vec<usize> {
    let mut calls = find_ident(masked, name);
    calls.retain(|&at| {
        let after = masked[at + name.len()..].trim_start();
        masked[..at].trim_end().ends_with('.')
            && (after.starts_with('(') || (turbofish && after.starts_with("::")))
    });
    calls
}

/// The argument span of a call whose `(` follows `from`, if it closes:
/// one past the `(` to the matching `)`.
fn call_args(masked: &str, from: usize) -> Option<Range<usize>> {
    let open = from + masked[from..].len() - masked[from..].trim_start().len();
    let close = items::matching(masked, open, b'(', b')')?;
    Some(open + 1..close)
}

/// 1-based `(line, col)` of byte offset `at` in `text`.
fn line_col(text: &str, at: usize) -> (u32, u32) {
    let line_start = text[..at].rfind('\n').map_or(0, |p| p + 1);
    let line = text[..at].matches('\n').count() + 1;
    (line as u32, (at - line_start) as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::workspace::classify;

    /// `src` linted as the file `rel`: each finding as `CODE@line:col`
    /// (and its message), then which allows were used.
    fn lint(rel: &str, src: &str) -> (Vec<String>, Vec<String>, Vec<bool>) {
        let mut findings = Vec::new();
        let records = scan_file(&classify(rel).unwrap(), lex(src), &mut findings);
        let used = records.iter().map(|r| r.used).collect();
        let at = |f: &Finding| format!("{}@{}:{}", f.rule.code, f.line, f.col);
        let messages = findings.iter().map(|f| f.message.clone()).collect();
        (findings.iter().map(at).collect(), messages, used)
    }

    fn scan(rel: &str, src: &str) -> Vec<String> {
        lint(rel, src).0
    }

    const NN: &str = "crates/ml/src/nn.rs";
    const ENGINE: &str = "crates/simnet/src/engine.rs";

    #[test]
    fn allow_without_reason_does_not_suppress_and_is_itself_flagged() {
        let src = "fn f(x: &[f32]) { x.iter().sum::<f32>(); } // det: allow(float)\n";
        assert_eq!(scan(NN, src), ["DET009@1:28", "DET005@1:44"]);
    }

    #[test]
    fn unknown_allow_class_is_flagged() {
        // `speed` never existed; `golden_out` and `lock` are clippy's now.
        for class in ["speed", "golden_out", "lock"] {
            let src = format!("let x = 1; // det: allow({class}: because)\n");
            assert_eq!(scan("crates/dht/src/node.rs", &src), ["DET005@1:12"]);
        }
    }

    #[test]
    fn crate_root_without_forbid_unsafe_is_flagged() {
        assert_eq!(scan("crates/x/src/lib.rs", "fn f() {}\n"), ["DET004@1:1"]);
        assert!(scan("crates/x/src/lib.rs", "#![forbid( unsafe_code )]\n").is_empty());
    }

    #[test]
    fn forbid_attr_inside_comment_does_not_satisfy_det004() {
        let f = scan("crates/x/src/lib.rs", "// #![forbid(unsafe_code)]\n");
        assert_eq!(f, ["DET004@1:1"]);
    }

    #[test]
    fn tests_and_benches_are_out_of_scope_for_line_rules() {
        let src = "fn f(x: &[f32]) -> f32 { a.store(1, Ordering::Relaxed); x.iter().sum() }\n";
        assert!(scan("crates/ml/tests/t.rs", src).is_empty());
        assert!(scan("crates/ml/benches/b.rs", src).is_empty());
        assert_eq!(scan(NN, src).len(), 2);
    }

    #[test]
    fn relaxed_ordering_requires_a_written_proof() {
        let src = "use std::sync::atomic::AtomicU64;\nx.store(1, Ordering ::\n Relaxed);\n";
        assert_eq!(scan(ENGINE, src), ["DET007@2:12"]);
        let proven = "x.store(1, Ordering::Relaxed); // det: allow(ordering: host-only flag)\n";
        assert!(scan("crates/bench/src/logging.rs", proven).is_empty());
    }

    #[test]
    fn atomic_call_without_ordering_is_flagged_seqcst_is_clean() {
        let src = "let a = AtomicU64::new(0);\nlet v = a.load();\n";
        assert_eq!(scan(ENGINE, src), ["DET007@2:11"]);
        let ok = "let a = AtomicU64::new(0);\na.load(Ordering::SeqCst);\na.store(2, SeqCst);\n";
        assert!(scan(ENGINE, ok).is_empty());
    }

    #[test]
    fn slice_swap_in_atomic_free_file_is_not_an_atomic_op() {
        assert!(scan(ENGINE, "v.swap(0, 1);\nlet x = q.load();\n").is_empty());
    }

    #[test]
    fn relaxed_inside_cfg_test_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.store(1, Ordering::Relaxed); }\n}\n";
        assert!(scan(ENGINE, src).is_empty());
    }

    #[test]
    fn float_turbofish_sum_is_flagged() {
        let src = "fn f(xs: &[f32]) { let s = xs.iter().sum::<f32>(); }\n";
        assert_eq!(scan(NN, src), ["DET009@1:38"]);
    }

    #[test]
    fn float_typed_let_sum_is_flagged_and_integer_sum_is_not() {
        let src =
            "fn f() {\n    let n: u64 = xs.iter().sum();\n    let s: f32 = e.iter().sum();\n}\n";
        assert_eq!(scan(NN, src), ["DET009@3:27"]);
    }

    #[test]
    fn sum_in_float_returning_fn_is_flagged_via_item_tracker() {
        let src =
            "pub fn path_delay(&self) -> f64 {\n    self.path.iter().map(|&e| d(e)).sum()\n}\n";
        let (_, messages, _) = lint("crates/bandit/src/graph.rs", src);
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(messages[0].contains("in fn `path_delay`: the enclosing fn returns `f64`"));
    }

    #[test]
    fn float_seeded_fold_is_flagged_and_allow_float_suppresses() {
        let src = "fn m(v: &[u32]) { v.iter().fold(0.0f32, |m, &x| m.max(x)); }\n";
        assert_eq!(scan(NN, src), ["DET009@1:28"]);
        let proven = format!("// det: allow(float: max is exactly commutative)\n{src}");
        assert!(scan(NN, &proven).is_empty());
    }

    #[test]
    fn integer_fold_and_usize_sums_are_not_flagged() {
        let src = "fn f(r: &[R]) -> usize {\n    let n: usize = r.iter().map(|r| r.n).sum();\n    \
                   xs.iter().fold(0u64, |a, b| a + b);\n    n\n}\n";
        assert!(scan("crates/simnet/src/geo.rs", src).is_empty());
    }

    #[test]
    fn float_reduction_in_cfg_test_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let s: f32 = p.iter().sum(); }\n}\n";
        assert!(scan(NN, src).is_empty());
    }

    #[test]
    fn numeric_helper_module_is_sanctioned_for_det009() {
        let src = "pub fn sum_f64(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
        assert!(scan(FLOAT_REDUCTION_FILE, src).is_empty());
    }

    #[test]
    fn unchecked_add_inside_from_micros_is_flagged() {
        let src = "fn f() { SimTime::from_micros(t.as_micros() + s.as_micros()); }\n";
        assert_eq!(scan("crates/bench/src/fig13.rs", src), ["DET010@1:19"]);
    }

    #[test]
    fn subtraction_after_as_micros_is_flagged() {
        let src = "let d = end.as_micros() - 1;\n";
        assert_eq!(scan(ENGINE, src), ["DET010@1:13"]);
    }

    #[test]
    fn saturating_and_constant_time_arithmetic_are_clean() {
        let src = "SimTime::from_micros(t.as_micros().saturating_add(s.as_micros()));\n\
                   SimTime::from_micros(48 * 3_600);\nx.as_micros() += 1;\nfrom_micros(-1);\n";
        assert!(scan(ENGINE, src).is_empty());
    }

    #[test]
    fn closure_arrows_in_constructor_args_are_not_subtraction() {
        let src = "let t = SimTime::from_micros(pick(|k| -> u64 { k }));\n";
        assert!(scan(ENGINE, src).is_empty());
    }

    #[test]
    fn time_rs_is_the_sanctioned_home_of_raw_time_arithmetic() {
        let src = "fn f() { let d = a.as_micros() - b.as_micros(); }\n";
        assert!(scan(TIME_AXIOM_FILE, src).is_empty());
    }

    #[test]
    fn time_arithmetic_in_cfg_test_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { SimTime::from_micros(span - 2); }\n}\n";
        assert!(scan(ENGINE, src).is_empty());
    }

    #[test]
    fn allow_time_with_proof_suppresses() {
        let src = "// det: allow(time: end_us >= 1 is asserted above)\nfrom_micros(end_us - 1);\n";
        assert!(scan(ENGINE, src).is_empty());
    }

    #[test]
    fn used_mask_distinguishes_live_and_stale_allows() {
        let src = "let d = e.as_micros() - 1; // det: allow(time: e >= 1)\n\
                   let n = 1; // det: allow(time: nothing here to suppress)\n";
        let (findings, _, used) = lint(ENGINE, src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used, [true, false]);
    }

    #[test]
    fn malformed_allows_are_not_marked_used() {
        let src = "let d = e.as_micros() - 1; // det: allow(time)\n";
        let (findings, _, used) = lint(ENGINE, src);
        assert_eq!(findings, ["DET010@1:11", "DET005@1:28"]);
        assert_eq!(used, [false]);
    }
}
