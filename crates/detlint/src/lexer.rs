//! A hand-rolled Rust surface lexer. The *masked* text it makes is the
//! source with every comment and string, char and raw-string literal
//! blanked to spaces, newlines kept, so offsets match the input and a
//! `sum` in a doc comment or a `r#"raw string"#` never triggers a rule.
//! It knows just enough of the lexical grammar (nested block comments,
//! escapes, raw strings, byte and C strings, raw identifiers, lifetimes
//! vs. char literals) to be exact, and harvests `det: allow` annotations.

/// One `// det: allow(class: reason)` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Byte offset and 1-based line of the comment's `//`.
    pub at: usize,
    pub line: u32,
    /// The line it suppresses: its own for a trailing comment, the next
    /// line holding code for a comment on a line of its own.
    pub applies_to: u32,
    pub class: String,
    /// Empty if the author omitted it, which is a DET005 violation.
    pub reason: String,
}

/// One lexed source file.
#[derive(Debug)]
pub struct Lexed {
    pub masked: String,
    pub allows: Vec<Allow>,
}

/// Lexes `src` into its code-only mask and its annotations.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut masked = b.to_vec();
    let mut allows: Vec<(Allow, bool)> = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let start = i;
        let next = b.get(i + 1).copied();
        // Where the token starting here ends, and whether it is blanked.
        let (end, blank) = match b[i] {
            b'/' if next == Some(b'/') => {
                let end = src[i..].find('\n').map_or(b.len(), |p| i + p);
                allows.extend(parse_allow(src, start, end));
                (end, true)
            }
            b'/' if next == Some(b'*') => (skip_block_comment(b, i), true),
            b'"' => (skip_string(b, i), true),
            // A quote opens a char literal iff it starts an escape or one
            // char later closes; otherwise it is a lifetime, left as code.
            b'\'' if next == Some(b'\\') => {
                let from = (i + 3).min(b.len());
                let close = b[from..].iter().position(|&q| q == b'\'');
                (close.map_or(b.len(), |p| from + p + 1), true)
            }
            b'\'' => {
                let len = src[i + 1..].chars().next().map_or(0, char::len_utf8);
                let closes = len > 0 && b.get(i + 1 + len) == Some(&b'\'');
                (if closes { i + 2 + len } else { i + 1 }, closes)
            }
            c if is_ident_byte(c) && !c.is_ascii_digit() => {
                let len = b[i..].iter().take_while(|&&c| is_ident_byte(c)).count();
                let literal = prefixed_literal_end(&src[i..i + len], b, i + len);
                literal.map_or((i + len, false), |end| (end, true))
            }
            _ => (i + 1, false),
        };
        i = end.min(b.len());
        if blank {
            for m in &mut masked[start..i] {
                if *m != b'\n' && *m != b'\r' {
                    *m = b' ';
                }
            }
        }
    }
    let masked = String::from_utf8(masked).expect("only whole characters are blanked");
    let lines: Vec<&str> = masked.lines().collect();
    let resolve = |(mut a, own_line): (Allow, bool)| {
        if own_line {
            let after = lines.iter().skip(a.line as usize);
            a.applies_to = a.line + 1 + after.take_while(|l| l.trim().is_empty()).count() as u32;
        }
        a
    };
    let allows = allows.into_iter().map(resolve).collect();
    Lexed { masked, allows }
}

pub(crate) fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offsets of each whole-identifier occurrence of `ident` in `text`.
pub(crate) fn find_ident(text: &str, ident: &str) -> Vec<usize> {
    let b = text.as_bytes();
    let bounded = |&at: &usize| {
        let end = at + ident.len();
        (at == 0 || !is_ident_byte(b[at - 1])) && (end == b.len() || !is_ident_byte(b[end]))
    };
    text.match_indices(ident)
        .map(|(at, _)| at)
        .filter(bounded)
        .collect()
}

/// One past the end of the nested block comment opening at `i`.
fn skip_block_comment(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i + 1 < b.len() {
        match &b[i..i + 2] {
            b"/*" => depth += 1,
            b"*/" => depth -= 1,
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
        if depth == 0 {
            return i;
        }
    }
    b.len()
}

/// One past the closing quote of the string whose opening quote is at `i`.
fn skip_string(b: &[u8], mut i: usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// If identifier `prefix` (ending at `at`) opens a byte, C or raw string,
/// one past its end. A raw string ends at `"` and as many `#` as opened
/// it; `r#ident` is a raw identifier, not a literal.
fn prefixed_literal_end(prefix: &str, b: &[u8], at: usize) -> Option<usize> {
    match prefix {
        "b" | "c" if b.get(at) == Some(&b'"') => Some(skip_string(b, at)),
        "r" | "br" | "cr" => {
            let hashes = b[at..].iter().take_while(|&&c| c == b'#').count();
            if b.get(at + hashes) != Some(&b'"') {
                return None;
            }
            let body = at + hashes + 1;
            let close = [b"\"".as_slice(), &b[at..at + hashes]].concat();
            let end = b[body..].windows(close.len()).position(|w| w == close);
            Some(end.map_or(b.len(), |p| body + p + close.len()))
        }
        _ => None,
    }
}

/// Parses `det: allow(class: reason)` out of the line comment at
/// `src[start..end]`, with whether the comment has its line to itself.
/// The annotation must be the comment's whole content, so prose that
/// mentions the grammar never registers.
fn parse_allow(src: &str, start: usize, end: usize) -> Option<(Allow, bool)> {
    let content = src[start..end].trim_start_matches(['/', '!']).trim_start();
    let rest = content.strip_prefix("det: allow(")?;
    let inner = &rest[..rest.rfind(')').unwrap_or(rest.len())];
    let (class, reason) = inner.split_once(':').unwrap_or((inner, ""));
    let line_start = src[..start].rfind('\n').map_or(0, |p| p + 1);
    let line = src[..start].matches('\n').count() as u32 + 1;
    let allow = Allow {
        at: start,
        line,
        applies_to: line,
        class: class.trim().to_string(),
        reason: reason.trim().to_string(),
    };
    Some((allow, src[line_start..start].trim().is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that masking `src` blanks `gone` and keeps `kept`.
    fn masks(src: &str, gone: &str, kept: &str) {
        let m = lex(src).masked;
        assert!(!m.contains(gone) && m.contains(kept), "{m:?}");
    }

    #[test]
    fn line_comments_are_blanked() {
        let m = lex("let x = 1; // HashMap here\nlet y = 2;\n").masked;
        assert_eq!(m, "let x = 1;                \nlet y = 2;\n");
    }

    #[test]
    fn nested_block_comments_are_blanked_to_the_outer_close() {
        let m = lex("a /* outer /* inner */ still comment HashMap */ b\n").masked;
        assert_eq!(m.split_whitespace().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn strings_are_blanked_but_code_is_kept() {
        let m = lex(r#"call("HashMap::new()"); let m = HashMap::new();"#).masked;
        assert_eq!(m.matches("HashMap").count(), 1);
        assert!(m.ends_with("let m = HashMap::new();"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = r#"let s = "a \" HashMap \" b"; let t = 1;"#;
        masks(src, "HashMap", "; let t = 1;");
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"a HashMap \"quoted\"\"#; let u = 9;\n";
        masks(src, "HashMap", "; let u = 9;");
        // A raw identifier is code, not the head of a raw string.
        let src = "let r#type = 1; let s = \"HashMap\";\n";
        masks(src, "HashMap", "r#type = 1;");
    }

    #[test]
    fn raw_strings_with_two_hashes_and_byte_strings() {
        let src = "let s = br##\"HashMap \"# not the end\"##; let v = 3;\n";
        masks(src, "HashMap", "; let v = 3;");
        let src = "let s = b\"HashMap\"; let w = c\"x\"; z();\n";
        masks(src, "HashMap", "z();");
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string_head() {
        // `for` ends in `r`; a naive prefix check would eat the string
        // opener as a raw string and derail the whole mask.
        let src = "for x in var { y(\"HashMap\"); }\n";
        masks(src, "HashMap", "for x in var");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { 'x' }\n";
        masks(src, "x'", "fn f<'a>(x: &'a str)");
        let src = "let e = 'é'; let u = '\\u{1F600}'; let f = 'y; f();\n";
        masks(src, "1F600", "'y; f();");
        masks(src, "é", "'y; f();");
    }

    #[test]
    fn multiline_strings_preserve_line_structure() {
        let src = "let s = \"line one\nline two HashMap\";\nlet z = 1;\n";
        assert_eq!(lex(src).masked.lines().count(), src.lines().count());
        masks(src, "HashMap", "let z = 1;");
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let lexed = lex("let m = x(); // det: allow(float: canonical order)\n");
        let a = &lexed.allows[0];
        assert_eq!((a.at, a.line, a.applies_to), (13, 1, 1));
        assert_eq!(
            (a.class.as_str(), a.reason.as_str()),
            ("float", "canonical order")
        );
    }

    #[test]
    fn own_line_allow_applies_to_next_code_line() {
        let lexed = lex("// det: allow(time: bounded)\n\nlet t = now();\n");
        assert_eq!(lexed.allows[0].applies_to, 3);
    }

    #[test]
    fn own_line_allow_skips_interleaved_comment_lines() {
        let src = "// det: allow(float: canonical order)\n// explains more\nlet m = f();\n";
        assert_eq!(lex(src).allows[0].applies_to, 3);
    }

    #[test]
    fn allow_with_missing_reason_is_preserved_for_bad_annotation_rule() {
        let lexed = lex("x(); // det: allow(float)\ny(); // det: allow(time:   )\n");
        let reasons: Vec<&str> = lexed.allows.iter().map(|a| a.reason.as_str()).collect();
        assert_eq!(reasons, ["", ""]);
    }

    #[test]
    fn allow_marker_inside_string_is_not_an_annotation() {
        let lexed = lex("let s = \"// det: allow(float: nope)\";\n");
        assert!(lexed.allows.is_empty());
    }

    #[test]
    fn columns_and_lines_survive_masking() {
        let src = "/* c */ let a = 1;\nlet b = HashMap::new();\n";
        let m = lex(src).masked;
        assert_eq!(m.len(), src.len());
        assert_eq!(m.find("HashMap"), src.find("HashMap"));
    }
}
