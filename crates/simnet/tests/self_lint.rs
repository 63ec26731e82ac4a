//! The tree's own determinism facts (DESIGN.md §11), checked by `cargo
//! test` because the clippy bans run only in CI:
//!
//! * DET004 as a fact about manifests: the root manifest forbids
//!   `unsafe_code` for the workspace, and every member that its `members`
//!   globs name opts into the workspace lints. A new crate, or a vendored
//!   stand-in, that leaves out `[lints] workspace = true` fails here.
//! * Every `[workspace.dependencies]` entry is used by some member, so a
//!   deletion cannot leave a dependency (or a vendored stub) behind.
//! * DET005 as a fact about sources: every lint suppression is an
//!   `#[expect]` (which fails once it suppresses nothing) with a reason.
//! * DESIGN.md §11's list of the sites that break a ban matches the tree.
//! * No time is built from another time's raw micros (DET010).
//!
//! Sources are read line by line: rustfmt (a CI gate) starts every
//! attribute on its own line.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The lines of `[section]` in a manifest, up to the next header.
fn section<'a>(manifest: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect(),
    )
}

/// The member directories that the root's `members` entries name, with
/// a trailing `/*` expanded to every subdirectory holding a manifest.
fn members(manifest: &str) -> Vec<PathBuf> {
    let list = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("the root manifest lists its members on one line")
        .0;
    let mut dirs = Vec::new();
    for entry in list.split(',').map(|e| e.trim().trim_matches('"')) {
        if entry.is_empty() {
            continue;
        }
        match entry.strip_suffix("/*") {
            Some(parent) => {
                let read =
                    fs::read_dir(root().join(parent)).expect("a members glob names a directory");
                let mut found: Vec<PathBuf> = read
                    .map(|e| e.expect("a readable directory entry").path())
                    .filter(|p| p.join("Cargo.toml").is_file())
                    .collect();
                found.sort();
                dirs.extend(found);
            }
            None => dirs.push(root().join(entry)),
        }
    }
    dirs
}

#[test]
fn the_workspace_forbids_unsafe_code() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("the root manifest");
    let lints =
        section(&manifest, "[workspace.lints.rust]").expect("a [workspace.lints.rust] table");
    assert!(lints.contains(&r#"unsafe_code = "forbid""#), "{lints:?}");
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("the root manifest");
    let dirs = members(&manifest);
    // crates/*, tests and vendor/*: the globs must expand.
    assert!(dirs.len() >= 12, "members resolved to {dirs:?}");
    let missing: Vec<_> = dirs
        .iter()
        .filter(|dir| {
            let member = fs::read_to_string(dir.join("Cargo.toml")).expect("a member manifest");
            !section(&member, "[lints]").is_some_and(|l| l.contains(&"workspace = true"))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "members without `[lints] workspace = true`: {missing:?}"
    );
}

/// The dependency names a manifest section declares, from `name = …` or
/// `name.workspace = true` lines.
fn dependency_names(lines: &[&str]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|l| l.split(['=', '.']).next())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn every_workspace_dependency_is_used_by_a_member() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("the root manifest");
    let declared =
        section(&manifest, "[workspace.dependencies]").expect("a [workspace.dependencies] table");
    let declared = dependency_names(&declared);
    assert!(declared.contains(&"rand".to_string()), "{declared:?}");
    let mut used = Vec::new();
    for dir in members(&manifest) {
        let member = fs::read_to_string(dir.join("Cargo.toml")).expect("a member manifest");
        for header in ["[dependencies]", "[dev-dependencies]"] {
            if let Some(lines) = section(&member, header) {
                used.extend(dependency_names(&lines));
            }
        }
    }
    let unused: Vec<_> = declared.iter().filter(|d| !used.contains(d)).collect();
    assert!(
        unused.is_empty(),
        "[workspace.dependencies] entries no member uses: {unused:?}"
    );
}

/// Every `.rs` file under the workspace's source directories, as
/// `(path relative to the root, contents)`, sorted by path.
fn rust_files(dirs: &[&str]) -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let read = fs::read_dir(dir).expect("a readable source directory");
        for entry in read {
            let path = entry.expect("a readable directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let root = root();
    let mut paths = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut paths);
    }
    let mut files: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the root");
            let text = fs::read_to_string(path).expect("a readable source file");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect();
    files.sort();
    files
}

const SOURCES: [&str; 3] = ["crates", "tests", "vendor"];

/// A lint-level attribute that silences a lint: `#[expect(…)]`,
/// `#[allow(…)]`, their inner `#![…]` forms, or either inside a
/// `cfg_attr`.
struct Suppression {
    file: String,
    line: usize,
    /// `"expect"` or `"allow"`.
    level: &'static str,
    /// The attribute, its lines joined.
    text: String,
}

fn suppressions(files: &[(String, String)]) -> Vec<Suppression> {
    let mut found = Vec::new();
    for (file, source) in files {
        let mut lines = source.lines().enumerate();
        while let Some((i, line)) = lines.next() {
            let t = line.trim_start();
            let Some(body) = t.strip_prefix("#[").or_else(|| t.strip_prefix("#![")) else {
                continue;
            };
            let mut text = t.to_string();
            let mut depth = bracket_depth(t);
            while depth > 0 {
                let Some((_, more)) = lines.next() else { break };
                text.push(' ');
                text.push_str(more.trim());
                depth += bracket_depth(more);
            }
            let cfg = body.starts_with("cfg_attr(");
            let level = if body.starts_with("allow(") || cfg && text.contains(" allow(") {
                "allow"
            } else if body.starts_with("expect(") || cfg && text.contains(" expect(") {
                "expect"
            } else {
                continue;
            };
            found.push(Suppression {
                file: file.clone(),
                line: i + 1,
                level,
                text,
            });
        }
    }
    found
}

fn show(list: &[&Suppression]) -> String {
    let lines: Vec<String> = list
        .iter()
        .map(|s| format!("{}:{}: {}", s.file, s.line, s.text))
        .collect();
    lines.join("\n")
}

/// `[` minus `]` on one line, outside string literals.
fn bracket_depth(line: &str) -> i32 {
    let (mut depth, mut in_str, mut escaped) = (0, false, false);
    for c in line.chars() {
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (_, false, '"') => in_str = !in_str,
            (false, _, '[') => depth += 1,
            (false, _, ']') => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// The lint-suppression attributes that name a clippy ban, outside the
/// `det_bans.rs` fixtures, counted per file relative to `crates/`.
fn ban_sites(all: &[Suppression]) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for s in all {
        let file = s.file.strip_prefix("crates/").unwrap_or(&s.file);
        if !s.text.contains("clippy::disallowed_") || file.ends_with("/det_bans.rs") {
            continue;
        }
        match counts.iter_mut().find(|(f, _)| f == file) {
            Some((_, n)) => *n += 1,
            None => counts.push((file.to_string(), 1)),
        }
    }
    counts
}

#[test]
fn every_suppression_in_the_tree_carries_a_reason() {
    let all = suppressions(&rust_files(&SOURCES));
    // The bans' fixtures alone hold dozens; far fewer means the scan
    // went blind.
    assert!(
        all.len() > 50,
        "found only {}",
        show(&all.iter().collect::<Vec<_>>())
    );
    let missing: Vec<_> = all
        .iter()
        .filter(|s| {
            let reason = s.text.split_once("reason").map(|(_, r)| r.trim_start());
            !reason.is_some_and(|r| r.starts_with("= \"") && !r.starts_with("= \"\""))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "suppressions without a reason:\n{}",
        show(&missing)
    );
}

#[test]
fn no_suppression_in_the_tree_is_stale() {
    // An `#[expect]` that suppresses nothing fails the build (rustc lints)
    // or CI's clippy step (clippy lints); an `#[allow]` would rot silently.
    let all = suppressions(&rust_files(&SOURCES));
    let allows: Vec<_> = all.iter().filter(|s| s.level == "allow").collect();
    assert!(
        allows.is_empty(),
        "write these as `#[expect(…, reason = \"…\")]`:\n{}",
        show(&allows)
    );
}

#[test]
fn design_doc_suppression_audit_matches_the_tree() {
    let fresh = ban_sites(&suppressions(&rust_files(&["crates"])));
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md is readable");
    let section = design
        .split_once("### Current determinism `#[expect]`s")
        .expect("DESIGN.md §11 lists the current determinism `#[expect]`s")
        .1;
    let mut listed: Vec<&str> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .filter_map(|row| row.split('|').nth(1))
        .map(|cell| cell.trim().trim_matches('`'))
        .collect();
    listed.sort_unstable();
    listed.dedup();
    let mut files: Vec<&str> = fresh.iter().map(|(f, _)| f.as_str()).collect();
    files.sort_unstable();
    assert_eq!(
        listed, files,
        "DESIGN.md §11's table names other files than the tree"
    );
    let total: usize = fresh.iter().map(|(_, n)| n).sum();
    let claim = format!("{total} attributes in all");
    assert!(
        section.contains(&claim),
        "DESIGN.md §11 should say \"{claim}\": {fresh:?}"
    );
}

#[test]
fn workspace_has_no_determinism_violations() {
    let files = rust_files(&["crates", "tests"]);
    assert!(
        files.len() > 100,
        "discovery is broken: {} files",
        files.len()
    );
    // DET010: outside `time.rs`, a time is built with the saturating
    // operators, never by feeding one time's raw micros to a constructor.
    let mut raw = Vec::new();
    for (file, source) in &files {
        if file == "crates/simnet/src/time.rs" {
            continue;
        }
        for (at, _) in source.match_indices(concat!("::from", "_micros(")) {
            let args = &source[at..];
            let mut depth = 0;
            let end = args
                .char_indices()
                .find_map(|(i, c)| {
                    match c {
                        '(' => depth += 1,
                        ')' if depth == 1 => return Some(i),
                        ')' => depth -= 1,
                        _ => {}
                    }
                    None
                })
                .unwrap_or(args.len());
            if args[..end].contains("as_micros") {
                let line = source[..at].lines().count();
                raw.push(format!("{file}:{line}: {}", &args[..end]));
            }
        }
    }
    assert!(
        raw.is_empty(),
        "raw-micros time arithmetic:\n{}",
        raw.join("\n")
    );
    // The retired comment syntax suppresses nothing any more; a leftover
    // one would claim a proof that no checker reads.
    let retired = concat!("det", ": allow");
    let stale: Vec<_> = files
        .iter()
        .filter(|(_, source)| source.contains(retired))
        .map(|(file, _)| file)
        .collect();
    assert!(
        stale.is_empty(),
        "retired `{retired}` comments in {stale:?}"
    );
}
