//! A minimal leveled stderr logger for the bench binaries.
//!
//! Scenario output (tables, JSON) goes to **stdout** and is golden-tested
//! byte-for-byte; everything human-facing — progress, warnings, errors —
//! goes through here to **stderr** so verbosity flags can never perturb a
//! golden. Levels: `--quiet` silences progress, `--verbose` adds debug
//! detail, errors always print.

#![expect(
    clippy::disallowed_macros,
    reason = "the leveled logger is the one writer of human-facing stderr lines"
)]

use std::sync::atomic::Ordering;

/// How chatty stderr is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Errors only (`--quiet`).
    Quiet = 0,
    /// Errors and progress (default).
    Normal = 1,
    /// Everything (`--verbose`).
    Verbose = 2,
}

#[expect(
    clippy::disallowed_types,
    reason = "DET007: a host-only stderr verbosity flag, written once in main before any sim runs; it gates log lines only, never simulated state or golden bytes"
)]
static LEVEL: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(Level::Normal as u8);

/// Installs the global verbosity (call once from `main` after flag parsing).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Resolves `--quiet`/`--verbose` flags into a [`Level`] (quiet wins).
pub fn level_from_flags(quiet: bool, verbose: bool) -> Level {
    if quiet {
        Level::Quiet
    } else if verbose {
        Level::Verbose
    } else {
        Level::Normal
    }
}

fn enabled(at: Level) -> bool {
    LEVEL.load(Ordering::Relaxed) >= at as u8
}

/// Unconditional error line on stderr.
pub fn error(msg: impl std::fmt::Display) {
    eprintln!("error: {msg}");
}

/// Progress line on stderr; suppressed by `--quiet`.
pub fn info(msg: impl std::fmt::Display) {
    if enabled(Level::Normal) {
        eprintln!("{msg}");
    }
}

/// Debug detail on stderr; printed only with `--verbose`.
pub fn debug(msg: impl std::fmt::Display) {
    if enabled(Level::Verbose) {
        eprintln!("debug: {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_beats_verbose_and_default_is_normal() {
        assert_eq!(level_from_flags(false, false), Level::Normal);
        assert_eq!(level_from_flags(true, true), Level::Quiet);
        assert_eq!(level_from_flags(false, true), Level::Verbose);
    }
}
