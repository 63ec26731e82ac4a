//! Plain-text rendering helpers shared by the scenarios.
//!
//! Every figure/table scenario renders (a) a human-readable markdown table
//! mirroring the paper's artifact and (b) machine-readable CSV blocks
//! (`# csv:<name>` sentinel lines) that downstream plotting can consume.
//! All helpers build and return `String`s — scenarios never print directly,
//! which is what makes rendered output comparable byte-for-byte across
//! `--jobs` settings.

/// Writes rendered report text to stdout, verbatim.
///
/// This is the *only* stdout write in the workspace outside tests: stdout
/// is the golden surface (byte-compared by `crates/bench/tests/golden.rs`
/// across `--jobs`, seeds, and trace sinks), so every byte that reaches it
/// funnels through here. Clippy's `disallowed_macros` ban on the print
/// macros (DET003, `crates/bench/clippy.toml`) enforces this statically;
/// human-facing chatter belongs on stderr via [`crate::logging`].
#[expect(
    clippy::disallowed_macros,
    reason = "the golden stdout surface: every report byte funnels through here"
)]
pub fn emit(text: impl std::fmt::Display) {
    print!("{text}");
}

/// [`emit`] with a trailing newline, for usage/listing lines that are not
/// golden-compared but still belong to a binary's stdout contract.
#[expect(
    clippy::disallowed_macros,
    reason = "usage and listing lines of a binary's stdout contract funnel through here"
)]
pub fn emitln(text: impl std::fmt::Display) {
    println!("{text}");
}

/// Renders a markdown table.
pub fn markdown_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n## {title}\n\n"));
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}|\n",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Renders a CSV block with a sentinel header for scripted extraction.
pub fn csv_block(name: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n# csv:{name}\n"));
    out.push_str(&format!("{}\n", headers.join(",")));
    for row in rows {
        out.push_str(&format!("{}\n", row.join(",")));
    }
    out.push_str(&format!("# end-csv:{name}\n"));
    out
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a speedup as the paper does ("3.7x").
pub fn speedup(x: f64) -> String {
    format!("{x:.1}x")
}

/// Simple descriptive statistics of a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Sample size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes [`Stats`] over `xs`.
pub fn stats(xs: &[f64]) -> Stats {
    if xs.is_empty() {
        return Stats::default();
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    Stats {
        n,
        mean,
        sd: var.sqrt(),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Nearest-rank percentile of `xs` (not necessarily sorted).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(stats(&[]).n, 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
    }

    #[test]
    fn tables_render_to_strings() {
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        let md = markdown_table("T", &["a", "b"], &rows);
        assert!(md.contains("## T"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = csv_block("t", &["a", "b"], &rows);
        assert!(csv.starts_with("\n# csv:t\n"));
        assert!(csv.ends_with("# end-csv:t\n"));
        assert!(csv.contains("1,2"));
    }
}
