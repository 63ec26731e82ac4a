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
//!   byte-level verdict (wheel-vs-heap or shards-1-vs-4 runs of the same
//!   scenario must produce *identical* traces, and the diff proves it).
//!
//! Everything here is a pure function of the input text: analytics on a
//! deterministic trace are themselves deterministic, so rendered output can
//! be pinned byte-for-byte in golden tests. The module carries its own
//! minimal JSON parser ([`parse_json`]) because the bench crate
//! deliberately has no JSON dependency — traces are machine-written, so a
//! strict, small grammar is enough.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::scenario::{Grammar, Params};
use crate::{logging, report};

// ---------------------------------------------------------------------------
// Minimal JSON value parser.
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object keys keep file order (`Vec`, not a map):
/// trace files are machine-written with a fixed key order and tests assert
/// on it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (traces only use non-negative integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. Nothing the workspace writes
/// nests more than a few levels; the bound keeps the recursive descent
/// from overflowing the stack on hostile input.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// Every error names the byte offset it was detected at.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    let quote = *pos;
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(format!("unterminated string at byte {quote}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Traces never emit surrogate pairs; reject them
                        // rather than silently mis-decoding.
                        let c = char::from_u32(code).ok_or_else(|| {
                            format!("\\u{code:04x} is not a scalar value at byte {pos}")
                        })?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe
                // to do bytewise by finding the next char boundary).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                );
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {s:?} at byte {start}"))
}

// ---------------------------------------------------------------------------
// Trace model.
// ---------------------------------------------------------------------------

/// One trace record, decoded from a JSONL line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceEvent {
    /// Trial index (`"trial"` key; 0 for single-trial traces).
    pub trial: u64,
    /// Simulated time of the record, microseconds.
    pub at_us: u64,
    /// The node the record is about.
    pub node: u64,
    /// Protocol layer tag.
    pub layer: String,
    /// Message kind / event name.
    pub kind: String,
    /// Event type: `send`, `deliver`, `drop`, `chaos`, `timer`, `down`,
    /// `up`, `compute`.
    pub ev: String,
    /// Destination (sends and drops).
    pub to: Option<u64>,
    /// Source (delivers).
    pub from: Option<u64>,
    /// Serialized message size, when the record is about a message.
    pub bytes: u64,
    /// Scheduled arrival time (sends).
    pub arrive_at_us: Option<u64>,
    /// Causal span id, when the message is traced.
    pub trace: Option<u64>,
    /// Message id within the trace run.
    pub id: Option<u64>,
    /// Causing message id (`None` for span roots).
    pub parent: Option<u64>,
    /// Causal hop count from the span root.
    pub hop: u64,
}

/// Parses a JSONL trace (empty lines ignored). Errors carry the 1-based
/// line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    if text.trim_start().starts_with("{\"traceEvents\"") {
        return Err(
            "this is a Chrome trace_event file; totoro-bench trace consumes JSONL traces \
             (re-run the scenario with --trace PATH.jsonl)"
                .to_string(),
        );
    }
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let u = |key: &str| obj.get(key).and_then(Json::as_u64);
        let s = |key: &str| obj.get(key).and_then(Json::as_str).map(str::to_string);
        let required = |key: &str| {
            u(key).ok_or_else(|| format!("line {}: missing or non-integer {key:?}", lineno + 1))
        };
        out.push(TraceEvent {
            trial: u("trial").unwrap_or(0),
            at_us: required("at_us")?,
            node: required("node")?,
            layer: s("layer").unwrap_or_default(),
            kind: s("kind").unwrap_or_default(),
            ev: s("ev").unwrap_or_default(),
            to: u("to"),
            from: u("from"),
            bytes: u("bytes").unwrap_or(0),
            arrive_at_us: u("arrive_at_us"),
            trace: u("trace"),
            id: u("id"),
            parent: match obj.get("parent") {
                Some(Json::Null) | None => None,
                Some(v) => v.as_u64(),
            },
            hop: u("hop").unwrap_or(0),
        });
    }
    Ok(out)
}

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
    let groups: Vec<String> = s
        .groups
        .iter()
        .map(|((layer, ev), g)| {
            format!(
                "{{\"layer\":\"{layer}\",\"ev\":\"{ev}\",\"count\":{},\"bytes\":{},\
                 \"lat_n\":{},\"lat_sum_us\":{},\"lat_min_us\":{},\"lat_max_us\":{},\
                 \"lat_hist\":[{}]}}",
                g.count,
                g.bytes,
                g.lat_n,
                g.lat_sum_us,
                g.lat_min_us,
                g.lat_max_us,
                g.lat_hist
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            )
        })
        .collect();
    format!(
        "{{\"trials\":{},\"spans\":{},\"end_us\":{},\"groups\":[{}]}}",
        s.trials,
        s.spans,
        s.end_us,
        groups.join(","),
    )
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
    let Some(p) = path else {
        return "{\"critical_path\":null}".to_string();
    };
    let hops: Vec<String> = p
        .hops
        .iter()
        .map(|h| {
            format!(
                "{{\"from\":{},\"to\":{},\"layer\":\"{}\",\"kind\":\"{}\",\
                 \"depart_us\":{},\"arrive_us\":{},\"dwell_us\":{}}}",
                h.from, h.to, h.layer, h.kind, h.depart_us, h.arrive_us, h.dwell_us,
            )
        })
        .collect();
    format!(
        "{{\"critical_path\":{{\"trial\":{},\"trace\":{},\"start_us\":{},\"end_us\":{},\
         \"hops\":[{}]}}}}",
        p.trial,
        p.trace,
        p.start_us,
        p.end_us,
        hops.join(","),
    )
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
/// the same scenario under different engines (wheel vs heap, shards 1 vs 4)
/// must diff clean — that equality is the point of the comparison.
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
/// or the diff of two. Exits 1 when a trace cannot be read or parsed;
/// `Err` is a usage error, raised before any file is read.
pub fn run(params: &Params) -> Result<ExitCode, String> {
    let bucket_us: u64 = params.num("bucket-us")?.unwrap_or(1_000);
    let buckets: usize = params.num("buckets")?.unwrap_or(8);
    if buckets == 0 {
        return Err("--buckets needs a positive integer value".into());
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
    let traces = match paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>() {
        Ok(traces) => traces,
        Err(e) => {
            logging::error(e);
            return Ok(ExitCode::FAILURE);
        }
    };
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

    #[test]
    fn json_parser_roundtrips_trace_shapes() {
        let v =
            parse_json("{\"a\":1,\"b\":null,\"c\":[true,false,\"x\\n\\u0041\"],\"d\":{\"e\":2.5}}")
                .unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b"), Some(&Json::Null));
        let arr = v.get("c").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[2].as_str(), Some("x\nA"));
        assert_eq!(v.get("d").and_then(|d| d.get("e")), Some(&Json::Num(2.5)));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let err = parse_json(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // At the bound itself the document still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
    }

    /// JSON-ish fragments, so generated inputs get past the first byte.
    const FRAGMENTS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "00e9", "d800", "\\n", "u", "0", "17",
        "-", ".", "e", "+", "null", "nul", "true", "false", "f", " ", "\n", "\"k\":", "é", "😀",
        "x",
    ];

    proptest::proptest! {
        /// Arbitrary input never panics, and every rejection says where.
        #[test]
        fn parse_json_never_panics_and_errors_carry_a_position(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..64),
        ) {
            let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            if let Err(e) = parse_json(&text) {
                proptest::prop_assert!(e.contains(" at byte "), "{e:?} from {text:?}");
            }
            if let Err(e) = parse_jsonl(&text) {
                proptest::prop_assert!(
                    e.starts_with("line ") || e.contains("Chrome trace_event"),
                    "{e:?} from {text:?}"
                );
            }
        }
    }

    fn line(at: u64, node: u64, ev: &str, extra: &str) -> String {
        format!(
            "{{\"trial\":0,\"at_us\":{at},\"node\":{node},\"layer\":\"app\",\
             \"kind\":\"hop\",\"ev\":\"{ev}\"{extra}}}"
        )
    }

    #[test]
    fn jsonl_parses_and_rejects_chrome() {
        let text = format!(
            "{}\n{}\n",
            line(0, 0, "send", ",\"to\":1,\"bytes\":16,\"arrive_at_us\":100"),
            line(100, 1, "deliver", ",\"from\":0,\"bytes\":16"),
        );
        let events = parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].to, Some(1));
        assert_eq!(events[1].from, Some(0));
        assert!(parse_jsonl("{\"traceEvents\":[]}").is_err());
        assert!(parse_jsonl("{\"node\":0}").is_err());
    }

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
        let events = parse_jsonl(&line(0, 0, "timer", ",\"token\":3")).unwrap();
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
