//! Which `.rs` files the rules read, and what role each plays. Build
//! output, dot-directories and `**/tests/fixtures/**` are skipped.

use std::io;
use std::path::Path;

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// `pubsub` for `crates/pubsub/**`, `tests`, `examples`, `vendor/rand`.
    pub crate_name: String,
    /// Under `src/` (bins included): the only code the line rules read.
    pub is_src: bool,
    /// `src/lib.rs`, subject to DET004.
    pub is_crate_root: bool,
}

/// Every lintable `.rs` file under `root`, sorted by path.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk(root, "", &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(dir: &Path, rel: &str, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let child = format!("{rel}{name}");
        if path.is_dir() && !matches!(name, "target" | "results") && !name.starts_with('.') {
            walk(&path, &format!("{child}/"), out)?;
        } else if name.ends_with(".rs") {
            out.extend(classify(&child));
        }
    }
    Ok(())
}

/// Maps a workspace-relative path to its crate and role; `None` outside
/// the lint scope.
pub fn classify(rel: &str) -> Option<SourceFile> {
    if rel.contains("/tests/fixtures/") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest) = match parts.as_slice() {
        ["crates", c, rest @ ..] => (c.to_string(), rest),
        ["vendor", c, rest @ ..] => (format!("vendor/{c}"), rest),
        [c @ ("tests" | "examples"), rest @ ..] => (c.to_string(), rest),
        _ => return None,
    };
    Some(SourceFile {
        rel: rel.to_string(),
        crate_name,
        is_src: rest.first() == Some(&"src"),
        is_crate_root: rest == ["src", "lib.rs"],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_crates_tests_examples_vendor() {
        let cases = [
            ("crates/pubsub/src/forest.rs", "pubsub", true, false),
            ("crates/dht/src/lib.rs", "dht", true, true),
            ("crates/bench/tests/golden.rs", "bench", false, false),
            ("tests/tests/full_stack.rs", "tests", false, false),
            ("tests/src/lib.rs", "tests", true, true),
            ("vendor/rand/src/lib.rs", "vendor/rand", true, true),
            ("examples/src/bin/quickstart.rs", "examples", true, false),
        ];
        for (rel, krate, src, root) in cases {
            let sf = classify(rel).expect("in scope");
            let role = (sf.crate_name.as_str(), sf.is_src, sf.is_crate_root);
            assert_eq!(role, (krate, src, root), "{rel}");
        }
    }

    #[test]
    fn fixture_trees_and_stray_files_are_excluded() {
        assert!(classify("crates/detlint/tests/fixtures/ws/crates/dht/src/lib.rs").is_none());
        assert!(classify("scripts/foo.rs").is_none());
        assert!(classify("build.rs").is_none());
    }
}
