//! A lightweight item tracker over the masked text: each `fn`'s name,
//! return type and body, and the bodies under `#[cfg(test)]`. Not a
//! parser — a keyword and brace walk, exact enough for DET009 to read the
//! enclosing fn's return type and for every rule to skip test code.

use std::ops::Range;

use crate::lexer::{find_ident, is_ident_byte};

/// One `fn` with a braced body.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: String,
    /// The text after the signature's last `->` (empty for unit).
    pub ret: String,
    /// Byte span of the body, braces included.
    pub body: Range<usize>,
}

/// The fns and test bodies of one masked file.
#[derive(Debug, Default)]
pub struct ItemMap {
    pub fns: Vec<Item>,
    /// Bodies of the items that carry `#[cfg(test)]`.
    pub tests: Vec<Range<usize>>,
}

impl ItemMap {
    /// Whether `at` sits inside a `#[cfg(test)]` item, at any depth.
    pub fn in_test(&self, at: usize) -> bool {
        self.tests.iter().any(|body| body.contains(&at))
    }

    /// The innermost `fn` whose body contains `at`.
    pub fn enclosing_fn(&self, at: usize) -> Option<&Item> {
        let around = self.fns.iter().filter(|f| f.body.contains(&at));
        around.min_by_key(|f| f.body.len())
    }
}

/// Builds the item map for one masked file.
pub fn build(masked: &str) -> ItemMap {
    let mut map = ItemMap::default();
    for at in find_ident(masked, "fn") {
        let sig = at + "fn".len();
        let Some(body) = body_after(masked, sig) else {
            continue;
        };
        let name = masked[sig..].trim_start();
        let len = name.bytes().take_while(|&c| is_ident_byte(c)).count();
        let sig = &masked[sig..body.start];
        let ret = sig.rfind("->").map_or("", |p| sig[p + 2..].trim());
        let (name, ret) = (name[..len].to_string(), ret.to_string());
        map.fns.push(Item { name, ret, body });
    }
    for (at, _) in masked.match_indices("#[") {
        let Some(close) = matching(masked, at + 1, b'[', b']') else {
            continue;
        };
        let attr: String = masked[at + 2..close].split_whitespace().collect();
        if attr == "cfg(test)" {
            map.tests.extend(body_after(masked, close));
        }
    }
    map
}

/// The braced body of the item declared after `from`: its first `{`
/// through the matching `}`, unless a `;` ends the item first.
fn body_after(masked: &str, from: usize) -> Option<Range<usize>> {
    let open = from + masked[from..].find(['{', ';'])?;
    let close = matching(masked, open, b'{', b'}')?;
    Some(open..close + 1)
}

/// Offset of the `close` byte matching the `open` byte at `at`.
pub(crate) fn matching(masked: &str, at: usize, open: u8, close: u8) -> Option<usize> {
    let b = masked.as_bytes();
    if b.get(at) != Some(&open) {
        return None;
    }
    let mut depth = 0usize;
    (at..b.len()).find(|&i| {
        depth += usize::from(b[i] == open);
        depth -= usize::from(b[i] == close);
        depth == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn in_test(src: &str, needle: &str) -> bool {
        build(&lex(src).masked).in_test(src.find(needle).unwrap())
    }

    /// `name -> ret` of the fn around `needle`.
    fn fn_at(src: &str, needle: &str) -> Option<String> {
        let map = build(&lex(src).masked);
        let f = map.enclosing_fn(src.find(needle).unwrap())?;
        Some(format!("{} -> {}", f.name, f.ret))
    }

    #[test]
    fn fn_mod_impl_nesting_and_names() {
        let src = "mod m {\n    impl Widget {\n        fn area(&self) -> f64 { 1.0 }\n    }\n}\n";
        assert_eq!(fn_at(src, "1.0").as_deref(), Some("area -> f64"));
        assert_eq!(fn_at(src, "impl"), None);
    }

    #[test]
    fn cfg_test_module_spans_are_detected_and_propagated() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { work(); }\n}\n";
        assert!(!in_test(src, "live") && in_test(src, "work"));
        assert_eq!(fn_at(src, "work").as_deref(), Some("helper -> "));
    }

    #[test]
    fn cfg_test_fn_attribute_applies_to_that_fn_only() {
        let src = "#[cfg(test)]\nfn probe() { x(); }\nfn live() { y(); }\n";
        assert!(in_test(src, "x()") && !in_test(src, "y()"));
        let src = "#[cfg(test)]\n#[derive(Debug)]\nstruct P { a: u8 }\nfn live() { y(); }\n";
        assert!(!in_test(src, "y()"));
    }

    #[test]
    fn dangling_cfg_test_is_discarded_at_semicolons_and_use() {
        for head in ["const K: u32 = 1;", "use std::fmt;"] {
            let src = format!("#[cfg(test)]\n{head}\nfn live() {{ z(); }}\n");
            assert!(!in_test(&src, "z()"), "{head}");
        }
    }

    #[test]
    fn cfg_all_is_not_cfg_test() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod tests { fn f() { q(); } }\n";
        assert!(!in_test(src, "q()"));
    }

    #[test]
    fn impl_trait_return_does_not_clobber_the_fn() {
        let src = "fn iter(&self, f: fn(u8) -> u8) -> impl Iterator<Item = u32> { body() }\n";
        let want = "iter -> impl Iterator<Item = u32>";
        assert_eq!(fn_at(src, "body").as_deref(), Some(want));
    }

    #[test]
    fn anonymous_blocks_do_not_leak_items() {
        let src = "fn f() -> u32 { match x { A { .. } => 1, _ => { 2 } } }\nfn g() { tail(); }\n";
        assert_eq!(fn_at(src, "tail").as_deref(), Some("g -> "));
    }

    #[test]
    fn trait_fn_declarations_without_bodies_are_skipped() {
        let src = "trait T {\n    fn decl(&self) -> f32;\n    fn with_body(&self) { b(); }\n}\n";
        assert_eq!(fn_at(src, "b()").as_deref(), Some("with_body -> "));
        assert!(!build(&lex(src).masked).fns.iter().any(|f| f.name == "decl"));
    }
}
