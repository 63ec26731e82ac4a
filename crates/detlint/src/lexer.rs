//! A hand-rolled Rust surface lexer: masks out everything that is not
//! code, and harvests `// det: allow(...)` annotations on the way.
//!
//! The rule scanners in [`crate::rules`] work on the *masked* text — the
//! original source with every comment, string literal, char literal, and
//! raw-string body overwritten with spaces (newlines preserved, so
//! byte offsets, line numbers, and columns are identical to the input).
//! That is exactly the property the rules need: a `HashMap` inside a
//! doc comment or a `r#"raw string"#` must never trigger a diagnostic,
//! and a `println!` smuggled into a nested block comment must not hide
//! one. No `syn`, no proc-macro expansion: the lexer understands just
//! enough of Rust's lexical grammar (nested block comments, escape
//! sequences, raw strings with arbitrary `#` counts, byte strings,
//! lifetimes vs. char literals) to be exact about what is code.

/// One `// det: allow(class: reason)` annotation found in a line comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// 1-based column of the `//` that opens the comment.
    pub col: u32,
    /// 1-based line this annotation suppresses: its own line for a
    /// trailing comment, the next line holding code for an own-line
    /// comment (resolved by [`lex`] after the scan).
    pub applies_to: u32,
    /// Allow class (`entropy`, `golden_out`, `float`, ...).
    pub class: String,
    /// Mandatory human reason. Empty string if the author omitted it —
    /// the `bad-annotation` rule turns that into a diagnostic.
    pub reason: String,
}

/// Result of lexing one source file.
#[derive(Debug)]
pub struct Lexed {
    /// The source with non-code bytes blanked to spaces (newlines kept).
    pub masked: String,
    /// Every `det: allow` annotation, with suppression targets resolved.
    pub allows: Vec<Allow>,
}

/// The marker that introduces an annotation inside a line comment.
const MARKER: &str = "det: allow(";

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lexes `src`, producing the code-only mask and the annotation list.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut masked = b.to_vec();
    let mut allows: Vec<Allow> = Vec::new();
    // (line, col, text) of every line comment, for annotation parsing.
    let mut line = 1u32;
    let mut col = 1u32;
    let mut i = 0usize;

    // Blanks masked[from..to], preserving line structure.
    let blank = |masked: &mut [u8], from: usize, to: usize| {
        for m in masked.iter_mut().take(to).skip(from) {
            if *m != b'\n' && *m != b'\r' {
                *m = b' ';
            }
        }
    };
    // Advances line/col bookkeeping over src[from..to].
    fn advance(b: &[u8], from: usize, to: usize, line: &mut u32, col: &mut u32) {
        for &c in b.iter().take(to).skip(from) {
            if c == b'\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
        }
    }

    while i < b.len() {
        let c = b[i];
        // Line comment (covers `//`, `///`, `//!`).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            let (start_line, start_col) = (line, col);
            // Own-line if only whitespace precedes the `//` on this line.
            let line_start = src[..start].rfind('\n').map(|p| p + 1).unwrap_or(0);
            let own_line = src[line_start..start].chars().all(char::is_whitespace);
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            if let Some(mut a) = parse_allow(&src[start..i], start_line, start_col) {
                // `applies_to == 0` marks "next code line"; resolved below.
                a.applies_to = if own_line { 0 } else { start_line };
                allows.push(a);
            }
            blank(&mut masked, start, i);
            advance(b, start, i, &mut line, &mut col);
            continue;
        }
        // Block comment, possibly nested.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            i += 2;
            let mut depth = 1usize;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut masked, start, i);
            advance(b, start, i, &mut line, &mut col);
            continue;
        }
        // String literal (with escapes). Byte strings arrive here via the
        // identifier branch below, which recognizes `b"`/`r"`/`br"` heads.
        if c == b'"' {
            let start = i;
            i = skip_string(b, i);
            blank(&mut masked, start, i);
            advance(b, start, i, &mut line, &mut col);
            continue;
        }
        // `'x'` char literal vs `'a` lifetime. A quote opens a char
        // literal iff it closes within a couple of chars or starts an
        // escape; otherwise it is a lifetime and stays in the mask
        // (lifetimes are inert for every rule).
        if c == b'\'' {
            let is_char = match b.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => b.get(i + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                let start = i;
                i += 1; // opening quote
                if b.get(i) == Some(&b'\\') {
                    i += 2; // escape introducer + escaped char
                    while i < b.len() && b[i] != b'\'' {
                        i += 1; // e.g. \u{1F600}
                    }
                } else {
                    i += 1;
                }
                i = (i + 1).min(b.len()); // closing quote
                blank(&mut masked, start, i);
                advance(b, start, i, &mut line, &mut col);
            } else {
                i += 1;
                col += 1;
            }
            continue;
        }
        // Identifier — may be a raw/byte string prefix.
        if is_ident_char(c) && !c.is_ascii_digit() {
            let start = i;
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            let ident = &src[start..i];
            let raw = matches!(ident, "r" | "br");
            let stringy = raw || matches!(ident, "b" | "c" | "cr");
            if stringy && i < b.len() && (b[i] == b'"' || (raw && b[i] == b'#')) {
                // Raw string: r"..." / r#"..."# / br##"..."##. The body
                // ends at `"` followed by the same number of `#`.
                if ident.contains('r') {
                    let mut hashes = 0usize;
                    while i < b.len() && b[i] == b'#' {
                        hashes += 1;
                        i += 1;
                    }
                    i += 1; // opening quote
                    'raw: while i < b.len() {
                        if b[i] == b'"' {
                            let mut k = 0usize;
                            while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        i += 1;
                    }
                } else {
                    i = skip_string(b, i);
                }
                blank(&mut masked, start, i);
            }
            advance(b, start, i, &mut line, &mut col);
            continue;
        }
        if c == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
        i += 1;
    }

    // Resolve own-line annotations to the next line that holds code.
    let masked = String::from_utf8(masked).expect("mask preserves UTF-8: only ASCII replaced");
    let code_lines: Vec<&str> = masked.lines().collect();
    for a in &mut allows {
        if a.applies_to == 0 {
            let mut target = a.line + 1;
            while (target as usize) <= code_lines.len()
                && code_lines[target as usize - 1].trim().is_empty()
            {
                target += 1;
            }
            a.applies_to = target;
        }
    }
    Lexed { masked, allows }
}

/// Skips a `"`-delimited (byte) string starting at the opening quote;
/// returns the index one past the closing quote.
fn skip_string(b: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Parses `det: allow(class: reason)` out of a line comment's text.
///
/// The annotation must be the comment's *content* — `//` (or `///`,
/// `//!`) followed only by whitespace and then the marker. Prose that
/// merely mentions the grammar (docs, this linter's own sources) never
/// registers as a suppression.
fn parse_allow(comment: &str, line: u32, col: u32) -> Option<Allow> {
    let content = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    if !content.starts_with(MARKER) {
        return None;
    }
    let rest = &content[MARKER.len()..];
    let close = rest.rfind(')').unwrap_or(rest.len());
    let inner = &rest[..close];
    let (class, reason) = match inner.find(':') {
        Some(p) => (inner[..p].trim(), inner[p + 1..].trim()),
        None => (inner.trim(), ""),
    };
    Some(Allow {
        line,
        col,
        applies_to: line,
        class: class.to_string(),
        reason: reason.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(src: &str) -> String {
        lex(src).masked
    }

    #[test]
    fn line_comments_are_blanked() {
        let m = masked("let x = 1; // HashMap here\nlet y = 2;\n");
        assert!(!m.contains("HashMap"));
        assert!(m.contains("let x = 1;"));
        assert!(m.contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments_are_blanked_to_the_outer_close() {
        let m = masked("a /* outer /* inner */ still comment HashMap */ b\n");
        assert!(!m.contains("HashMap"));
        assert!(!m.contains("still"));
        assert!(m.starts_with("a "));
        assert!(m.trim_end().ends_with('b'));
    }

    #[test]
    fn strings_are_blanked_but_code_is_kept() {
        let m = masked(r#"call("HashMap::new()"); let m = HashMap::new();"#);
        let first = m.find("HashMap").expect("code occurrence survives");
        assert!(m[first..].starts_with("HashMap::new()"));
        assert_eq!(m.matches("HashMap").count(), 1);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let m = masked(r#"let s = "a \" HashMap \" b"; let t = 1;"#);
        assert!(!m.contains("HashMap"));
        assert!(m.contains("let t = 1;"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"contains HashMap and \"quotes\" too\"#; let u = 9;\n";
        let m = masked(src);
        assert!(!m.contains("HashMap"));
        assert!(m.contains("let u = 9;"));
    }

    #[test]
    fn raw_strings_with_two_hashes_and_byte_strings() {
        let m = masked("let s = br##\"HashMap \"# not the end\"##; let v = 3;\n");
        assert!(!m.contains("HashMap"));
        assert!(m.contains("let v = 3;"));
        let m = masked("let s = b\"HashMap\"; let w = 4;\n");
        assert!(!m.contains("HashMap"));
        assert!(m.contains("let w = 4;"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string_head() {
        // `for` ends in `r`; a naive prefix check would eat the string
        // opener as a raw string and derail the whole mask.
        let m = masked("for x in var { y(\"HashMap\"); }\n");
        assert!(!m.contains("HashMap"));
        assert!(m.contains("for x in var"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = masked("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(m.contains("fn f<'a>(x: &'a str)"));
        let m = masked("let c = 'x'; let nl = '\\n'; let u = '\\u{1F600}'; done();\n");
        assert!(!m.contains('x'));
        assert!(m.contains("done();"));
    }

    #[test]
    fn multiline_strings_preserve_line_structure() {
        let src = "let s = \"line one\nline two HashMap\";\nlet z = 1;\n";
        let m = masked(src);
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(!m.contains("HashMap"));
        assert!(m.contains("let z = 1;"));
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let lexed = lex("let m = x(); // det: allow(float: canonical order)\n");
        assert_eq!(lexed.allows.len(), 1);
        let a = &lexed.allows[0];
        assert_eq!((a.line, a.applies_to), (1, 1));
        assert_eq!(a.class, "float");
        assert_eq!(a.reason, "canonical order");
    }

    #[test]
    fn own_line_allow_applies_to_next_code_line() {
        let src = "// det: allow(entropy: wall-clock)\n\nlet t = now();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].applies_to, 3);
    }

    #[test]
    fn own_line_allow_skips_interleaved_comment_lines() {
        let src = "// det: allow(float: canonical order)\n// explains more\nlet m = f();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows[0].applies_to, 3);
    }

    #[test]
    fn allow_with_missing_reason_is_preserved_for_bad_annotation_rule() {
        let lexed = lex("x(); // det: allow(float)\ny(); // det: allow(entropy:   )\n");
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].reason, "");
        assert_eq!(lexed.allows[1].reason, "");
    }

    #[test]
    fn allow_marker_inside_string_is_not_an_annotation() {
        let lexed = lex("let s = \"// det: allow(float: nope)\";\n");
        assert!(lexed.allows.is_empty());
    }

    #[test]
    fn columns_and_lines_survive_masking() {
        let src = "/* c */ let a = 1;\nlet b = HashMap::new();\n";
        let lexed = lex(src);
        let pos = lexed.masked.find("HashMap").unwrap();
        let line = lexed.masked[..pos].matches('\n').count() + 1;
        assert_eq!(line, 2);
        // Byte length is unchanged, so offsets map 1:1 onto the source.
        assert_eq!(lexed.masked.len(), src.len());
    }
}
