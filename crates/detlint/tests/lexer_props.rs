//! The lexer and the rules over its mask never panic, whatever the input:
//! unterminated strings, raw strings and block comments, char literals
//! next to lifetimes, multi-byte characters and stray attributes. The
//! mask keeps the source's byte length and every newline where it was,
//! which is what makes a finding's line:col point into the source.

use proptest::prelude::*;
use totoro_detlint::lexer::lex;
use totoro_detlint::rules::scan_file;
use totoro_detlint::workspace::classify;

/// Pieces of Rust surface syntax, joined at random. Each can end a file
/// mid-token, so every opener appears without its closer too.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "\"", "\\", "\\\"", "r\"", "r#\"", "\"#", "br##\"", "\"##", "b\"", "c\"", "cr#\"", "r#type",
    "'", "'a", "'x'", "'\\n'", "'\\u{1F600}'", "'é'", "é", "€", "/*", "*/", "//", "///",
    "// det: allow(", "// det: allow(float: proof)", "// det: allow(time)", ")", "(", "{", "}",
    "[", "]", "#[", "#![", "#[cfg(test)]", "mod t ", "fn f() -> f64 ", "impl T ", ";", ",", ".",
    "::", "<", ">", "+", "-", "->", "=", "x", "0", "1.5", " ", "\n", "\r\n", "\t", ".sum()",
    ".sum::<f32>()", ".fold(0.0, ", ".load()", ".store(1, Ordering::Relaxed)", "Atomic",
    "from_micros(", ".as_micros()", "#![forbid(unsafe_code)]",
];

proptest! {
    #[test]
    fn lex_and_scan_never_panic_and_the_mask_keeps_the_layout(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..48),
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let lexed = lex(&src);
        let newlines = |s: &str| s.match_indices('\n').map(|(at, _)| at).collect::<Vec<_>>();
        prop_assert_eq!(lexed.masked.len(), src.len(), "{:?}", src);
        prop_assert_eq!(newlines(&lexed.masked), newlines(&src), "{:?}", src);
        // Every rule reads this file: a protocol crate's root.
        let sf = classify("crates/ml/src/lib.rs").expect("in scope");
        let allows = lexed.allows.len();
        prop_assert_eq!(scan_file(&sf, lexed, &mut Vec::new()).len(), allows);
    }
}
