//! Trace analytics behind `totoro-bench trace`.
//!
//! Consumes the JSONL execution traces written by `totoro-bench --trace
//! PATH.jsonl` (one [`totoro_simnet::TraceRecord`] object per line, each
//! tagged with its trial index) and derives:
//!
//! * **summary** — per-layer/per-event counts, byte totals, and link-latency
//!   statistics with a log-binned histogram;
//! * **critical path** — the longest causal send chain across all spans,
//!   with a per-hop breakdown (link latency + handler dwell);
//! * **timeline** — bucketed in-flight message depth (the simulated-network
//!   analogue of queue depth) plus per-bucket send/deliver/drop counts;
//! * **matrix** — a source-bucket × destination-bucket traffic matrix;
//! * **diff** — all of the above for two traces side by side, with a
//!   byte-level verdict (`--jobs 1` and `--jobs 2` runs of the same
//!   scenario must produce *identical* traces, and the diff proves it).
//!
//! Everything here is a pure function of the input text: analytics on a
//! deterministic trace are themselves deterministic, so rendered output can
//! be pinned byte-for-byte in golden tests. Reading a trace
//! ([`parse_jsonl`]) and writing JSON belong to `totoro_simnet`: the JSONL
//! schema lives beside the writer in `obs`, and both go through the one
//! codec in `totoro_simnet::json`, whose parser this module re-exports.

use std::collections::BTreeMap;
use std::process::ExitCode;

use totoro_simnet::json::{self, ToJson, Writer};
pub use totoro_simnet::json::{parse_json, Json};
use totoro_simnet::{parse_jsonl, TraceEvent};

use crate::report;
use crate::scenario::{Grammar, Params};

// ---------------------------------------------------------------------------
// Summary: per-layer/per-event statistics.
// ---------------------------------------------------------------------------

/// Link-latency histogram boundaries, microseconds (log-binned).
const LAT_BOUNDS: &[u64] = &[128, 512, 2_048, 8_192, 32_768];

/// Aggregate statistics for one `(layer, ev)` group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupStat {
    /// Number of records in the group.
    pub count: u64,
    /// Total message bytes across the group.
    pub bytes: u64,
    /// Sum of link latencies (sends only: `arrive_at_us - at_us`).
    pub lat_sum_us: u64,
    /// Number of latency samples folded into `lat_sum_us`.
    pub lat_n: u64,
    /// Minimum observed link latency.
    pub lat_min_us: u64,
    /// Maximum observed link latency.
    pub lat_max_us: u64,
    /// Latency histogram counts per [`LAT_BOUNDS`] bucket (+1 overflow).
    pub lat_hist: Vec<u64>,
}

impl GroupStat {
    fn observe_latency(&mut self, us: u64) {
        if self.lat_n == 0 {
            self.lat_min_us = us;
            self.lat_max_us = us;
        } else {
            self.lat_min_us = self.lat_min_us.min(us);
            self.lat_max_us = self.lat_max_us.max(us);
        }
        self.lat_sum_us += us;
        self.lat_n += 1;
        if self.lat_hist.is_empty() {
            self.lat_hist = vec![0; LAT_BOUNDS.len() + 1];
        }
        let bucket = LAT_BOUNDS.iter().position(|&b| us <= b);
        self.lat_hist[bucket.unwrap_or(LAT_BOUNDS.len())] += 1;
    }

    /// Mean latency in tenths of a microsecond (integer arithmetic keeps
    /// rendering deterministic).
    pub fn lat_mean_tenths(&self) -> u64 {
        (self.lat_sum_us * 10).checked_div(self.lat_n).unwrap_or(0)
    }
}

/// The full per-group breakdown of a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// `(layer, ev)` → statistics, in sorted key order.
    pub groups: BTreeMap<(String, String), GroupStat>,
    /// Number of distinct trials seen.
    pub trials: u64,
    /// Number of distinct causal spans seen.
    pub spans: u64,
    /// Last record time, microseconds.
    pub end_us: u64,
}

/// Builds the [`Summary`] of a trace.
pub fn summarize(events: &[TraceEvent]) -> Summary {
    let mut s = Summary::default();
    let mut trials = std::collections::BTreeSet::new();
    let mut spans = std::collections::BTreeSet::new();
    for e in events {
        let g = s.groups.entry((e.layer.clone(), e.ev.clone())).or_default();
        g.count += 1;
        g.bytes += e.bytes;
        if e.ev == "send" {
            if let Some(arrive) = e.arrive_at_us {
                g.observe_latency(arrive.saturating_sub(e.at_us));
            }
        }
        trials.insert(e.trial);
        if let Some(t) = e.trace {
            spans.insert((e.trial, t));
        }
        s.end_us = s.end_us.max(e.at_us);
    }
    s.trials = trials.len() as u64;
    s.spans = spans.len() as u64;
    s
}

fn hist_cells(hist: &[u64]) -> String {
    if hist.is_empty() {
        return "-".to_string();
    }
    let cells: Vec<String> = hist.iter().map(u64::to_string).collect();
    cells.join("/")
}

/// Renders a [`Summary`] as a human table.
pub fn render_summary(name: &str, s: &Summary) -> String {
    let mut rows = Vec::new();
    for ((layer, ev), g) in &s.groups {
        let (min, mean, max) = if g.lat_n == 0 {
            ("-".to_string(), "-".to_string(), "-".to_string())
        } else {
            let m = g.lat_mean_tenths();
            (
                g.lat_min_us.to_string(),
                format!("{}.{}", m / 10, m % 10),
                g.lat_max_us.to_string(),
            )
        };
        rows.push(vec![
            layer.clone(),
            ev.clone(),
            g.count.to_string(),
            g.bytes.to_string(),
            min,
            mean,
            max,
            hist_cells(&g.lat_hist),
        ]);
    }
    let mut out = format!(
        "# trace summary: {name}\n\ntrials: {}  spans: {}  records: {}  end: {} us\n",
        s.trials,
        s.spans,
        s.groups.values().map(|g| g.count).sum::<u64>(),
        s.end_us,
    );
    out.push_str(&report::markdown_table(
        "per-layer events",
        &[
            "layer",
            "ev",
            "count",
            "bytes",
            "lat min (us)",
            "lat mean (us)",
            "lat max (us)",
            &format!("lat hist (<= {:?} us, +inf)", LAT_BOUNDS),
        ],
        &rows,
    ));
    out
}

/// Renders a [`Summary`] as machine JSON.
pub fn summary_json(s: &Summary) -> String {
    json::render(|w| {
        w.begin_obj().field("trials", s.trials);
        w.field("spans", s.spans);
        w.field("end_us", s.end_us).key("groups").begin_arr(",");
        for ((layer, ev), g) in &s.groups {
            w.begin_obj().field("layer", layer).field("ev", ev);
            w.field("count", g.count).field("bytes", g.bytes);
            w.field("lat_n", g.lat_n).field("lat_sum_us", g.lat_sum_us);
            w.field("lat_min_us", g.lat_min_us);
            w.field("lat_max_us", g.lat_max_us);
            w.field("lat_hist", &g.lat_hist).end();
        }
        w.end().end();
    })
}

// ---------------------------------------------------------------------------
// Critical path: the longest causal send chain.
// ---------------------------------------------------------------------------

/// One hop of a critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathHop {
    /// Sending node.
    pub from: u64,
    /// Destination node.
    pub to: u64,
    /// Layer of the hop's message.
    pub layer: String,
    /// Kind of the hop's message.
    pub kind: String,
    /// Send time, microseconds.
    pub depart_us: u64,
    /// Scheduled arrival, microseconds.
    pub arrive_us: u64,
    /// Time the sender sat on the causing message before this send
    /// (`depart - parent.arrive`; 0 for the span root).
    pub dwell_us: u64,
}

/// The longest causal chain of one trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Trial the chain belongs to.
    pub trial: u64,
    /// Span (trace id) the chain belongs to.
    pub trace: u64,
    /// Hops, root first.
    pub hops: Vec<PathHop>,
    /// Root send time.
    pub start_us: u64,
    /// Final scheduled arrival.
    pub end_us: u64,
}

/// Extracts the critical path: over every `(trial, span)`, the causal send
/// chain with the most hops (ties broken by longest end-to-end time, then
/// by smallest `(trial, trace)` for determinism). Returns `None` when the
/// trace carries no traced sends.
pub fn critical_path(events: &[TraceEvent]) -> Option<CriticalPath> {
    // (trial, id) -> send event, for parent-chain walking.
    let mut sends: BTreeMap<(u64, u64), &TraceEvent> = BTreeMap::new();
    for e in events {
        if e.ev == "send" {
            if let Some(id) = e.id {
                sends.insert((e.trial, id), e);
            }
        }
    }
    // Chain length to each send, memoized over the parent DAG (a forest:
    // each send has at most one parent).
    fn depth(
        key: (u64, u64),
        sends: &BTreeMap<(u64, u64), &TraceEvent>,
        memo: &mut BTreeMap<(u64, u64), u64>,
    ) -> u64 {
        if let Some(&d) = memo.get(&key) {
            return d;
        }
        let d = match sends.get(&key).and_then(|e| e.parent) {
            Some(p) if sends.contains_key(&(key.0, p)) => 1 + depth((key.0, p), sends, memo),
            _ => 0,
        };
        memo.insert(key, d);
        d
    }
    let mut memo = BTreeMap::new();
    let mut best: Option<((u64, u64), u64, u64)> = None; // (tail key, depth, span us)
    for (&key, e) in &sends {
        let d = depth(key, &sends, &mut memo);
        let end = e.arrive_at_us.unwrap_or(e.at_us);
        // Root time: walk is O(depth); fine for selection because we only
        // need the span length of candidates that beat the current best.
        let candidate_better = match best {
            None => true,
            Some((_, bd, _)) => d >= bd,
        };
        if !candidate_better {
            continue;
        }
        let mut root = e;
        while let Some(p) = root.parent {
            match sends.get(&(key.0, p)) {
                Some(parent) => root = parent,
                None => break,
            }
        }
        let span_us = end.saturating_sub(root.at_us);
        let better = match best {
            None => true,
            Some((bkey, bd, bspan)) => {
                (d, span_us, std::cmp::Reverse(key)) > (bd, bspan, std::cmp::Reverse(bkey))
            }
        };
        if better {
            best = Some((key, d, span_us));
        }
    }
    let (tail_key, _, _) = best?;
    // Rebuild the chain root-first.
    let mut chain: Vec<&TraceEvent> = Vec::new();
    let mut cur = sends[&tail_key];
    loop {
        chain.push(cur);
        match cur.parent.and_then(|p| sends.get(&(tail_key.0, p))) {
            Some(parent) => cur = parent,
            None => break,
        }
    }
    chain.reverse();
    let hops: Vec<PathHop> = chain
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let dwell = if i == 0 {
                0
            } else {
                let parent_arrive = chain[i - 1].arrive_at_us.unwrap_or(chain[i - 1].at_us);
                e.at_us.saturating_sub(parent_arrive)
            };
            PathHop {
                from: e.node,
                to: e.to.unwrap_or(e.node),
                layer: e.layer.clone(),
                kind: e.kind.clone(),
                depart_us: e.at_us,
                arrive_us: e.arrive_at_us.unwrap_or(e.at_us),
                dwell_us: dwell,
            }
        })
        .collect();
    let start_us = chain.first().map(|e| e.at_us).unwrap_or(0);
    let end_us = chain
        .last()
        .map(|e| e.arrive_at_us.unwrap_or(e.at_us))
        .unwrap_or(0);
    Some(CriticalPath {
        trial: tail_key.0,
        trace: sends[&tail_key].trace.unwrap_or(tail_key.1),
        hops,
        start_us,
        end_us,
    })
}

/// One-line summary of a critical path (also used by `diff`).
pub fn path_summary(p: &CriticalPath) -> String {
    format!(
        "critical path: trial {} trace {}: {} hops, {} us end-to-end ({} -> {} us)",
        p.trial,
        p.trace,
        p.hops.len(),
        p.end_us.saturating_sub(p.start_us),
        p.start_us,
        p.end_us,
    )
}

/// How many leading/trailing hops [`render_critical_path`] prints before
/// eliding the middle of very long chains.
const PATH_EDGE_HOPS: usize = 10;

/// Renders a critical path as a human table; long chains print the first
/// and last [`PATH_EDGE_HOPS`] hops with an elision note.
pub fn render_critical_path(name: &str, path: Option<&CriticalPath>) -> String {
    let Some(p) = path else {
        return format!("# critical path: {name}\n\nno traced spans in this trace\n");
    };
    let mut rows = Vec::new();
    let total = p.hops.len();
    let elide = total > 2 * PATH_EDGE_HOPS + 4;
    for (i, h) in p.hops.iter().enumerate() {
        if elide && i == PATH_EDGE_HOPS {
            rows.push(vec![
                format!("... {} hops elided ...", total - 2 * PATH_EDGE_HOPS),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        if elide && i >= PATH_EDGE_HOPS && i < total - PATH_EDGE_HOPS {
            continue;
        }
        rows.push(vec![
            i.to_string(),
            format!("{} -> {}", h.from, h.to),
            format!("{}/{}", h.layer, h.kind),
            h.depart_us.to_string(),
            h.arrive_us.to_string(),
            h.arrive_us.saturating_sub(h.depart_us).to_string(),
            h.dwell_us.to_string(),
        ]);
    }
    let mut out = format!("# critical path: {name}\n\n{}\n", path_summary(p));
    out.push_str(&report::markdown_table(
        "hops (root first)",
        &[
            "hop",
            "link",
            "layer/kind",
            "depart (us)",
            "arrive (us)",
            "link (us)",
            "dwell (us)",
        ],
        &rows,
    ));
    out
}

/// Machine JSON for a critical path.
pub fn path_json(path: Option<&CriticalPath>) -> String {
    json::render(|w| {
        w.begin_obj().field("critical_path", path).end();
    })
}

impl ToJson for CriticalPath {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj().field("trial", self.trial);
        w.field("trace", self.trace);
        w.field("start_us", self.start_us);
        w.field("end_us", self.end_us);
        w.field("hops", &self.hops).end();
    }
}

impl ToJson for PathHop {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj().field("from", self.from).field("to", self.to);
        w.field("layer", &self.layer).field("kind", &self.kind);
        w.field("depart_us", self.depart_us);
        w.field("arrive_us", self.arrive_us);
        w.field("dwell_us", self.dwell_us).end();
    }
}

// ---------------------------------------------------------------------------
// Timeline: bucketed in-flight depth.
// ---------------------------------------------------------------------------

/// One timeline bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Bucket start, microseconds.
    pub t_us: u64,
    /// Maximum concurrently in-flight messages during the bucket.
    pub in_flight_max: u64,
    /// Sends departing in the bucket.
    pub sends: u64,
    /// Delivers landing in the bucket.
    pub delivers: u64,
    /// Drops recorded in the bucket.
    pub drops: u64,
}

/// Buckets the trace into `bucket_us`-wide windows with the in-flight
/// message depth (sends count from departure to scheduled arrival) and
/// per-bucket event counts. Empty buckets inside the span are kept so the
/// timeline has no gaps.
pub fn timeline(events: &[TraceEvent], bucket_us: u64) -> Vec<TimelineBucket> {
    let bucket_us = bucket_us.max(1);
    let end = events.iter().map(|e| e.at_us).max().unwrap_or(0);
    let nbuckets = (end / bucket_us + 1) as usize;
    let mut buckets: Vec<TimelineBucket> = (0..nbuckets)
        .map(|i| TimelineBucket {
            t_us: i as u64 * bucket_us,
            ..TimelineBucket::default()
        })
        .collect();
    // Sweep in-flight depth over (time, delta) edges.
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for e in events {
        let b = (e.at_us / bucket_us) as usize;
        match e.ev.as_str() {
            "send" => {
                buckets[b].sends += 1;
                if let Some(arrive) = e.arrive_at_us {
                    edges.push((e.at_us, 1));
                    edges.push((arrive.max(e.at_us), -1));
                }
            }
            "deliver" => buckets[b].delivers += 1,
            "drop" => buckets[b].drops += 1,
            _ => {}
        }
    }
    edges.sort_unstable();
    // Walk buckets in order, carrying the live depth across boundaries: a
    // bucket's max is the depth entering it or any peak reached by edges
    // inside it. Closing edges past the last bucket only lower the depth
    // and are irrelevant to any max, so they go unprocessed.
    let mut depth: i64 = 0;
    let mut ei = 0usize;
    for (b, bucket) in buckets.iter_mut().enumerate() {
        let end_t = (b as u64 + 1) * bucket_us;
        let mut max_d = depth.max(0) as u64;
        while ei < edges.len() && edges[ei].0 < end_t {
            depth += edges[ei].1;
            max_d = max_d.max(depth.max(0) as u64);
            ei += 1;
        }
        bucket.in_flight_max = max_d;
    }
    buckets
}

/// Renders a timeline as a CSV block (`# csv:timeline`).
pub fn render_timeline(name: &str, buckets: &[TimelineBucket], bucket_us: u64) -> String {
    let rows: Vec<Vec<String>> = buckets
        .iter()
        .map(|b| {
            vec![
                b.t_us.to_string(),
                b.in_flight_max.to_string(),
                b.sends.to_string(),
                b.delivers.to_string(),
                b.drops.to_string(),
            ]
        })
        .collect();
    let mut out = format!("# timeline: {name} (bucket {bucket_us} us)\n");
    out.push_str(&report::csv_block(
        "timeline",
        &["t_us", "in_flight_max", "sends", "delivers", "drops"],
        &rows,
    ));
    out
}

// ---------------------------------------------------------------------------
// Matrix: bucketed src × dst traffic.
// ---------------------------------------------------------------------------

/// A source-bucket × destination-bucket traffic matrix over send records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Matrix {
    /// Number of node buckets per axis.
    pub buckets: usize,
    /// Nodes per bucket (`ceil((max_node + 1) / buckets)`).
    pub nodes_per_bucket: u64,
    /// Message counts, row = source bucket.
    pub msgs: Vec<Vec<u64>>,
    /// Byte totals, row = source bucket.
    pub bytes: Vec<Vec<u64>>,
}

/// Builds the traffic [`Matrix`]. With contiguous zone layouts (the EUA
/// topology places nodes region by region) buckets approximate zones.
pub fn matrix(events: &[TraceEvent], buckets: usize) -> Matrix {
    let buckets = buckets.max(1);
    let max_node = events
        .iter()
        .flat_map(|e| [Some(e.node), e.to, e.from])
        .flatten()
        .max()
        .unwrap_or(0);
    let per = (max_node + 1).div_ceil(buckets as u64).max(1);
    let mut m = Matrix {
        buckets,
        nodes_per_bucket: per,
        msgs: vec![vec![0; buckets]; buckets],
        bytes: vec![vec![0; buckets]; buckets],
    };
    for e in events {
        if e.ev != "send" {
            continue;
        }
        let Some(to) = e.to else { continue };
        let src = ((e.node / per) as usize).min(buckets - 1);
        let dst = ((to / per) as usize).min(buckets - 1);
        m.msgs[src][dst] += 1;
        m.bytes[src][dst] += e.bytes;
    }
    m
}

/// Renders a traffic matrix as a human table (messages; bytes in a second
/// table).
pub fn render_matrix(name: &str, m: &Matrix) -> String {
    let headers: Vec<String> = std::iter::once("src\\dst".to_string())
        .chain((0..m.buckets).map(|i| format!("b{i}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let row_of = |grid: &[Vec<u64>], i: usize| -> Vec<String> {
        std::iter::once(format!("b{i}"))
            .chain(grid[i].iter().map(u64::to_string))
            .collect()
    };
    let msg_rows: Vec<Vec<String>> = (0..m.buckets).map(|i| row_of(&m.msgs, i)).collect();
    let byte_rows: Vec<Vec<String>> = (0..m.buckets).map(|i| row_of(&m.bytes, i)).collect();
    let mut out = format!(
        "# traffic matrix: {name} ({} buckets x {} nodes)\n",
        m.buckets, m.nodes_per_bucket
    );
    out.push_str(&report::markdown_table("messages", &header_refs, &msg_rows));
    out.push_str(&report::markdown_table("bytes", &header_refs, &byte_rows));
    out
}

// ---------------------------------------------------------------------------
// Diff: two traces side by side.
// ---------------------------------------------------------------------------

/// Renders the diff of two traces: per-group counts side by side, both
/// critical-path summaries, and a byte-level verdict. Deterministic runs of
/// the same scenario under different worker counts (`--jobs 1` vs
/// `--jobs 2`) must diff clean — that equality is the point of the
/// comparison.
pub fn render_diff(
    a_name: &str,
    a_text: &str,
    a: &[TraceEvent],
    b_name: &str,
    b_text: &str,
    b: &[TraceEvent],
) -> String {
    let sa = summarize(a);
    let sb = summarize(b);
    let keys: std::collections::BTreeSet<&(String, String)> =
        sa.groups.keys().chain(sb.groups.keys()).collect();
    let mut rows = Vec::new();
    let mut differing = 0u64;
    for key in keys {
        let ga = sa.groups.get(key).cloned().unwrap_or_default();
        let gb = sb.groups.get(key).cloned().unwrap_or_default();
        let delta = gb.count as i64 - ga.count as i64;
        if ga != gb {
            differing += 1;
        }
        rows.push(vec![
            key.0.clone(),
            key.1.clone(),
            ga.count.to_string(),
            gb.count.to_string(),
            format!("{delta:+}"),
            ga.bytes.to_string(),
            gb.bytes.to_string(),
        ]);
    }
    let mut out = format!("# trace diff: {a_name} vs {b_name}\n");
    out.push_str(&report::markdown_table(
        "per-layer events",
        &[
            "layer", "ev", "count A", "count B", "delta", "bytes A", "bytes B",
        ],
        &rows,
    ));
    let pa = critical_path(a);
    let pb = critical_path(b);
    out.push_str(&format!(
        "\nA {}\nB {}\n",
        pa.as_ref().map_or_else(
            || "critical path: no traced spans".to_string(),
            path_summary
        ),
        pb.as_ref().map_or_else(
            || "critical path: no traced spans".to_string(),
            path_summary
        ),
    ));
    if a_text == b_text {
        out.push_str("\nverdict: traces are byte-identical\n");
    } else if differing == 0 && pa == pb {
        out.push_str(
            "\nverdict: traces differ in bytes but agree on every per-layer statistic \
             and the critical path\n",
        );
    } else {
        out.push_str(&format!(
            "\nverdict: traces differ ({differing} per-layer groups changed)\n"
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// The `totoro-bench trace` command.
// ---------------------------------------------------------------------------

/// The command line `totoro-bench trace` takes.
pub const GRAMMAR: Grammar<'static> = Grammar {
    name: "trace",
    keys: &["bucket-us", "buckets"],
    shared: false,
    flags: &["json"],
    positionals: Some("<summary|critical-path|timeline|matrix> TRACE.jsonl | diff A.jsonl B.jsonl"),
};

/// Reads and parses one JSONL trace, keeping its text for the diff's
/// byte-level verdict.
fn load(path: &str) -> Result<(String, Vec<TraceEvent>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((text, events))
}

/// `totoro-bench trace <command> FILE...`: prints one analysis of a trace,
/// or the diff of two. `Err` is a usage error or a trace that cannot be
/// read or parsed; either prints nothing on stdout.
pub fn run(params: &Params) -> Result<ExitCode, String> {
    let bucket_us: u64 = params.num("bucket-us")?.unwrap_or(1_000);
    let buckets: usize = params.num("buckets")?.unwrap_or(8);
    if buckets == 0 {
        return Err(params.reject("buckets", "--buckets needs a positive integer value"));
    }
    let Some((command, paths)) = params.positional.split_first() else {
        return Err("missing command".into());
    };
    let files = match command.as_str() {
        "summary" | "critical-path" | "timeline" | "matrix" => 1,
        "diff" => 2,
        other => return Err(format!("unknown command {other:?}")),
    };
    if paths.len() != files {
        return Err(format!("{command} takes exactly {files} trace file(s)"));
    }
    let traces = paths
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let path = paths[0].as_str();
    let events = &traces[0].1;
    let out = match command.as_str() {
        "summary" if params.json => summary_json(&summarize(events)),
        "summary" => render_summary(path, &summarize(events)),
        "critical-path" if params.json => path_json(critical_path(events).as_ref()),
        "critical-path" => render_critical_path(path, critical_path(events).as_ref()),
        "timeline" => render_timeline(path, &timeline(events, bucket_us), bucket_us),
        "matrix" => render_matrix(path, &matrix(events, buckets)),
        _ => {
            let ((a_text, a), (b_text, b)) = (&traces[0], &traces[1]);
            report::emit(render_diff(path, a_text, a, &paths[1], b_text, b));
            return Ok(ExitCode::SUCCESS);
        }
    };
    report::emit(out);
    if params.json {
        report::emitln("");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(hops: u64) -> Vec<TraceEvent> {
        // A single span 0 -> 1 -> 2 ... with 100 us links and 10 us dwell.
        let mut events = Vec::new();
        for h in 0..hops {
            let depart = h * 110;
            events.push(TraceEvent {
                at_us: depart,
                node: h,
                layer: "app".into(),
                kind: "hop".into(),
                ev: "send".into(),
                to: Some(h + 1),
                bytes: 16,
                arrive_at_us: Some(depart + 100),
                trace: Some(7),
                id: Some(h + 1),
                parent: (h > 0).then_some(h),
                hop: h,
                ..TraceEvent::default()
            });
        }
        events
    }

    #[test]
    fn critical_path_walks_the_longest_chain() {
        let mut events = chain(5);
        // A shorter rival span must lose.
        events.push(TraceEvent {
            at_us: 0,
            node: 9,
            layer: "app".into(),
            kind: "hop".into(),
            ev: "send".into(),
            to: Some(8),
            bytes: 16,
            arrive_at_us: Some(1_000_000),
            trace: Some(99),
            id: Some(100),
            parent: None,
            hop: 0,
            ..TraceEvent::default()
        });
        let p = critical_path(&events).unwrap();
        assert_eq!(p.trace, 7);
        assert_eq!(p.hops.len(), 5);
        assert_eq!(p.start_us, 0);
        assert_eq!(p.end_us, 4 * 110 + 100);
        assert_eq!(p.hops[1].dwell_us, 10);
        assert_eq!(p.hops[0].dwell_us, 0);
    }

    #[test]
    fn critical_path_handles_untraced_traces() {
        let line = "{\"at_us\":0,\"node\":0,\"layer\":\"sim\",\"kind\":\"timer\",\"ev\":\"timer\"}";
        let events = parse_jsonl(line).unwrap();
        assert!(critical_path(&events).is_none());
        assert!(render_critical_path("t", None).contains("no traced spans"));
    }

    #[test]
    fn summary_aggregates_latency_deterministically() {
        let events = chain(3);
        let s = summarize(&events);
        let g = &s.groups[&("app".to_string(), "send".to_string())];
        assert_eq!(g.count, 3);
        assert_eq!(g.lat_n, 3);
        assert_eq!(g.lat_min_us, 100);
        assert_eq!(g.lat_max_us, 100);
        assert_eq!(g.lat_mean_tenths(), 1000);
        assert_eq!(s.spans, 1);
        let r1 = render_summary("t", &s);
        let r2 = render_summary("t", &summarize(&events));
        assert_eq!(r1, r2);
        assert!(summary_json(&s).starts_with("{\"trials\":1,\"spans\":1,"));
    }

    #[test]
    fn json_documents_escape_what_the_trace_holds() {
        // A layer or kind read from a trace is arbitrary text; the JSON
        // documents must still parse, and give the text back.
        let text = "{\"at_us\":0,\"node\":0,\"layer\":\"d\\\"ht\",\"kind\":\"a\\\\b\",\
                    \"ev\":\"send\",\"to\":1,\"arrive_at_us\":9,\"trace\":1,\"id\":1}";
        let events = parse_jsonl(text).unwrap();
        assert_eq!(
            (events[0].layer.as_str(), events[0].kind.as_str()),
            ("d\"ht", "a\\b")
        );
        let summary = parse_json(&summary_json(&summarize(&events))).unwrap();
        let group = &summary.get("groups").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(group.get("layer").and_then(Json::as_str), Some("d\"ht"));
        let path = parse_json(&path_json(critical_path(&events).as_ref())).unwrap();
        let hop = &path
            .get("critical_path")
            .and_then(|p| p.get("hops"))
            .and_then(Json::as_arr)
            .unwrap()[0];
        assert_eq!(hop.get("kind").and_then(Json::as_str), Some("a\\b"));
    }

    #[test]
    fn timeline_tracks_in_flight_depth() {
        let events = chain(3);
        let buckets = timeline(&events, 100);
        assert_eq!(buckets.len(), 3);
        assert!(buckets.iter().all(|b| b.in_flight_max >= 1));
        assert_eq!(buckets.iter().map(|b| b.sends).sum::<u64>(), 3);
    }

    #[test]
    fn matrix_buckets_sends() {
        let events = chain(4);
        let m = matrix(&events, 2);
        let total: u64 = m.msgs.iter().flatten().sum();
        assert_eq!(total, 4);
        assert!(render_matrix("t", &m).contains("src\\dst"));
    }

    #[test]
    fn diff_verdict_spots_identity_and_change() {
        let a = chain(4);
        let atext = "same";
        let clean = render_diff("A", atext, &a, "B", atext, &a);
        assert!(clean.contains("byte-identical"));
        let b = chain(3);
        let dirty = render_diff("A", "x", &a, "B", "y", &b);
        assert!(dirty.contains("traces differ ("));
    }
}
