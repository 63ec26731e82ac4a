//! Workspace discovery: which `.rs` files exist and what role each plays.
//!
//! Hand-rolled `read_dir` walk — no globbing dependency — that mirrors the
//! workspace layout (`crates/*`, `tests/`, `examples/`, `vendor/*`). Build
//! artifacts (`target/`), VCS metadata, and the linter's own violation
//! fixtures (`**/tests/fixtures/**`, deliberate rule breaches used by
//! detlint's test suite) are excluded.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where a file sits inside its crate, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Hand-written crate code: `src/**` including `src/bin/`.
    Src,
    /// Integration tests: `tests/**`.
    Tests,
    /// Criterion benches: `benches/**`.
    Benches,
    /// Anything else (build scripts, etc.).
    Other,
}

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable diagnostics).
    pub rel: String,
    /// Owning crate: `pubsub` for `crates/pubsub/**`, `tests` for the
    /// workspace test crate, `vendor/rand` for vendored stubs.
    pub crate_name: String,
    pub kind: FileKind,
    /// Whether this is a crate root (`src/lib.rs`), subject to DET004.
    pub is_crate_root: bool,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "node_modules"];

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Walks `root` and returns every lintable `.rs` file, sorted by path so
/// diagnostics come out in a stable order on every filesystem.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if let Some(sf) = classify(&rel) {
                out.push(sf);
            }
        }
    }
    Ok(())
}

/// Maps a workspace-relative path to its crate and kind; `None` for
/// files outside the lint scope.
fn classify(rel: &str) -> Option<SourceFile> {
    // Deliberate-violation fixtures used by detlint's own tests.
    if rel.contains("/tests/fixtures/") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (String, &[&str]) = match parts.as_slice() {
        ["crates", c, rest @ ..] => ((*c).to_string(), rest),
        ["vendor", c, rest @ ..] => (format!("vendor/{c}"), rest),
        ["tests", rest @ ..] => ("tests".to_string(), rest),
        ["examples", rest @ ..] => ("examples".to_string(), rest),
        _ => return None,
    };
    let kind = match rest.first() {
        Some(&"src") => FileKind::Src,
        Some(&"tests") => FileKind::Tests,
        Some(&"benches") => FileKind::Benches,
        _ => FileKind::Other,
    };
    let is_crate_root = rest == ["src", "lib.rs"];
    Some(SourceFile {
        rel: rel.to_string(),
        crate_name,
        kind,
        is_crate_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_crates_tests_examples_vendor() {
        let sf = classify("crates/pubsub/src/forest.rs").unwrap();
        assert_eq!(sf.crate_name, "pubsub");
        assert_eq!(sf.kind, FileKind::Src);
        assert!(!sf.is_crate_root);

        let sf = classify("crates/dht/src/lib.rs").unwrap();
        assert!(sf.is_crate_root);

        let sf = classify("crates/bench/tests/golden.rs").unwrap();
        assert_eq!(sf.kind, FileKind::Tests);

        let sf = classify("crates/bench/benches/microbench.rs").unwrap();
        assert_eq!(sf.kind, FileKind::Benches);

        let sf = classify("tests/tests/full_stack.rs").unwrap();
        assert_eq!(sf.crate_name, "tests");
        assert_eq!(sf.kind, FileKind::Tests);

        let sf = classify("tests/src/lib.rs").unwrap();
        assert!(sf.is_crate_root);

        let sf = classify("vendor/rand/src/lib.rs").unwrap();
        assert_eq!(sf.crate_name, "vendor/rand");
        assert!(sf.is_crate_root);

        let sf = classify("examples/src/bin/quickstart.rs").unwrap();
        assert_eq!(sf.crate_name, "examples");
        assert_eq!(sf.kind, FileKind::Src);
    }

    #[test]
    fn fixture_trees_and_stray_files_are_excluded() {
        assert!(classify("crates/detlint/tests/fixtures/ws/crates/pubsub/src/lib.rs").is_none());
        assert!(classify("scripts/foo.rs").is_none());
        assert!(classify("build.rs").is_none());
    }
}
