//! Deterministic observability: structured trace records, per-layer
//! metrics, and causal message-path spans.
//!
//! The simulator is generic over a [`TraceSink`] installed at construction
//! time. The default sink is [`NoopSink`], whose `ENABLED` constant is
//! `false`: every record-emission site in the hot path is gated on that
//! associated constant, so with the default sink the compiler removes the
//! observability code entirely and the event loop is byte- and
//! cycle-identical to an untraced build. Installing a [`RecordingSink`]
//! turns on:
//!
//! * **Structured records** ([`TraceRecord`]) for message send / deliver /
//!   drop, timer fires, node churn, compute charges, and chaos-atom
//!   effects, emitted in event-dispatch order — which is `(sim_time, seq)`
//!   order, so a trace for a fixed `(scenario, seed)` is byte-identical
//!   regardless of how many worker threads run *other* trials.
//! * **A metrics registry** ([`MetricsRegistry`]): per-layer counters,
//!   per-layer per-node counters, and fixed-bin histograms quantized with
//!   the same boundary scheme as [`crate::binning`] (see
//!   [`crate::binning::level_of`]). Snapshots serialize deterministically.
//! * **Causal spans**: every message carries a [`MsgMeta`] — a trace id
//!   plus a parent message id — assigned by the simulator. A send issued
//!   while handling a delivered message inherits that message's trace and
//!   becomes its child; a send issued from a timer, node start, or driver
//!   injection roots a fresh trace. A DHT route, a forest JOIN path, or an
//!   aggregation round can therefore be reconstructed hop-by-hop with
//!   [`span_records`] and exported to Chrome `trace_event` JSON
//!   ([`chrome_trace`]) or JSONL ([`jsonl_trace`]).

use std::collections::BTreeMap;

use crate::binning::level_of;
use crate::json::{self, Json, ToJson, Writer};
use crate::topology::NodeIdx;

pub mod prof;

/// Sentinel parent id marking the first message of a span.
pub const ROOT_PARENT: u64 = u64::MAX;

/// Causal identity of one in-flight message.
///
/// Assigned by the simulator on every send when tracing is enabled; with a
/// [`NoopSink`] every message carries [`MsgMeta::NONE`] and no ids are
/// computed. Ids are per-simulator counters starting at 1, so `0` never
/// names a real message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgMeta {
    /// Id of the span's root message (a root message's `trace` is its own
    /// `id`).
    pub trace: u64,
    /// This message's unique id.
    pub id: u64,
    /// Id of the delivered message whose handler issued this send, or
    /// [`ROOT_PARENT`] for a span root.
    pub parent: u64,
    /// Causal depth: 0 for a span root, parent's hop + 1 otherwise.
    pub hop: u16,
}

impl MsgMeta {
    /// The "untraced" meta carried by every message under a [`NoopSink`].
    pub const NONE: MsgMeta = MsgMeta {
        trace: 0,
        id: 0,
        parent: 0,
        hop: 0,
    };

    /// Whether this meta names a real traced message.
    pub fn is_traced(&self) -> bool {
        self.id != 0
    }
}

/// Why a message never reached its destination's handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The topology's stochastic (UDP-like) loss model ate it.
    Loss,
    /// The destination was down when it arrived (TCP-RST-like).
    DeadDest,
    /// A chaos fault (loss spike or partition) dropped it at send time.
    Chaos,
    /// The installed protocol-aware fault filter dropped it at send time.
    Filter,
}

impl DropReason {
    /// Stable lower-case name used in serialized traces.
    pub fn name(&self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::DeadDest => "dead_dest",
            DropReason::Chaos => "chaos",
            DropReason::Filter => "filter",
        }
    }
}

/// What one trace record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceBody {
    /// `node` put a message on the wire toward `to`.
    Send {
        /// Destination node.
        to: NodeIdx,
        /// Serialized message size.
        bytes: usize,
        /// Causal identity of the message.
        meta: MsgMeta,
        /// Scheduled arrival time in microseconds.
        arrive_at_us: u64,
    },
    /// A message from `from` was delivered to `node`'s handler.
    Deliver {
        /// Source node.
        from: NodeIdx,
        /// Serialized message size.
        bytes: usize,
        /// Causal identity of the message.
        meta: MsgMeta,
    },
    /// A message died before reaching a handler.
    Drop {
        /// Intended destination.
        to: NodeIdx,
        /// Serialized message size.
        bytes: usize,
        /// Why it died.
        reason: DropReason,
        /// Causal identity of the message.
        meta: MsgMeta,
    },
    /// A chaos atom acted on a message without dropping it.
    ChaosEffect {
        /// Destination of the affected message.
        to: NodeIdx,
        /// `"duplicate"` or `"delay"`.
        effect: &'static str,
    },
    /// A timer armed by `node` fired with `token`.
    TimerFire {
        /// The timer's token.
        token: u64,
    },
    /// Churn took `node` down.
    NodeDown,
    /// Churn brought `node` back up.
    NodeUp,
    /// `node` charged simulated CPU time.
    Compute {
        /// `"fl"` or `"dht"`.
        task: &'static str,
        /// Charged microseconds.
        us: u64,
    },
}

/// One structured observability record.
///
/// Records are emitted in event-dispatch order; their position in the
/// sink's buffer is the deterministic `(sim_time, seq)` total order the
/// determinism contract pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the record in microseconds.
    pub at_us: u64,
    /// The node the record is about (sender, receiver, timer owner, ...).
    pub node: NodeIdx,
    /// Protocol layer tag from [`crate::sim::Payload::layer`] (`"sim"` for
    /// simulator-level records like timers and churn).
    pub layer: &'static str,
    /// Message kind from [`crate::sim::Payload::kind`], or the event name.
    pub kind: &'static str,
    /// What happened.
    pub body: TraceBody,
}

impl TraceRecord {
    /// The causal meta of this record, if it is about a traced message.
    pub fn meta(&self) -> Option<MsgMeta> {
        match self.body {
            TraceBody::Send { meta, .. }
            | TraceBody::Deliver { meta, .. }
            | TraceBody::Drop { meta, .. } => Some(meta),
            _ => None,
        }
    }

    /// Writes this record as one JSONL object, led by `"trial"` when the
    /// trace holds several trials. The key names, and which keys each
    /// event carries, are the schema [`parse_jsonl`] reads.
    fn write_jsonl(&self, w: &mut Writer, trial: Option<u64>) {
        w.begin_obj();
        if let Some(trial) = trial {
            w.field("trial", trial);
        }
        w.field("at_us", self.at_us).field("node", self.node);
        w.field("layer", self.layer).field("kind", self.kind);
        match self.body {
            TraceBody::Send {
                to,
                bytes,
                arrive_at_us,
                ..
            } => {
                w.field("ev", "send").field("to", to).field("bytes", bytes);
                w.field("arrive_at_us", arrive_at_us)
            }
            TraceBody::Deliver { from, bytes, .. } => {
                w.field("ev", "deliver").field("from", from);
                w.field("bytes", bytes)
            }
            TraceBody::Drop {
                to, bytes, reason, ..
            } => {
                w.field("ev", "drop").field("to", to).field("bytes", bytes);
                w.field("reason", reason.name())
            }
            TraceBody::ChaosEffect { to, effect } => {
                w.field("ev", "chaos").field("to", to);
                w.field("effect", effect)
            }
            TraceBody::TimerFire { token } => w.field("ev", "timer").field("token", token),
            TraceBody::NodeDown => w.field("ev", "down"),
            TraceBody::NodeUp => w.field("ev", "up"),
            TraceBody::Compute { task, us } => {
                w.field("ev", "compute").field("task", task).field("us", us)
            }
        };
        if let Some(m) = self.meta().filter(MsgMeta::is_traced) {
            w.field("trace", m.trace).field("id", m.id);
            let parent = (m.parent != ROOT_PARENT).then_some(m.parent);
            w.field("parent", parent).field("hop", m.hop);
        }
        w.end();
    }
}

/// Receiver of trace records, installed on the simulator at construction.
///
/// `ENABLED` is an associated *constant* so that every emission site — and
/// all the meta/size computation feeding it — folds away statically for
/// [`NoopSink`]. Implementations must be cheap: `record` runs inside the
/// event loop.
pub trait TraceSink {
    /// Whether the simulator should compute and emit records at all.
    const ENABLED: bool = true;

    /// Receives one record. Called in deterministic dispatch order.
    fn record(&mut self, rec: TraceRecord);

    /// A metrics snapshot for trial reports, if this sink aggregates one.
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// Takes the buffered records out of the sink, if it buffers any.
    /// Lets sink-generic experiment code recover a trace without knowing
    /// the concrete sink type.
    fn drain_records(&mut self) -> Option<Vec<TraceRecord>> {
        None
    }
}

/// The default sink: tracing off, statically removed from the hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _rec: TraceRecord) {}
}

/// A sink that only counts calls — the zero-allocation probe used to test
/// that record emission sites fire (and that [`NoopSink`] elides them).
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingSink {
    /// Number of records received.
    pub records: u64,
}

impl TraceSink for CountingSink {
    #[inline(always)]
    fn record(&mut self, _rec: TraceRecord) {
        self.records += 1;
    }
}

/// Message-size histogram boundaries (bytes): control / small / MTU-ish /
/// bulk / huge.
const SIZE_BOUNDS: &[u64] = &[64, 256, 1_460, 65_536];
/// Causal-hop histogram boundaries.
const HOP_BOUNDS: &[u64] = &[1, 2, 4, 8, 16];

/// The full-capture sink: buffers every record and aggregates a
/// [`MetricsRegistry`] as records arrive.
#[derive(Debug, Default)]
pub struct RecordingSink {
    records: Vec<TraceRecord>,
    metrics: MetricsRegistry,
    filter: Option<String>,
    nodes: usize,
}

impl RecordingSink {
    /// A sink for a simulation of `nodes` nodes (sizes per-node counters).
    pub fn new(nodes: usize) -> Self {
        RecordingSink {
            records: Vec::new(),
            metrics: MetricsRegistry::default(),
            filter: None,
            nodes,
        }
    }

    /// Restricts *buffered* records to the given layer tags — one tag or
    /// a comma-separated list (`"forest,dht"`). Metrics still aggregate
    /// over every layer, so a filtered trace keeps its full registry
    /// snapshot.
    pub fn with_layer_filter(mut self, layer: Option<String>) -> Self {
        self.filter = layer;
        self
    }

    /// The buffered records, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Takes the buffered records out of the sink.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// The aggregated metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, rec: TraceRecord) {
        self.metrics.observe(&rec, self.nodes);
        if let Some(filter) = &self.filter {
            if !filter.split(',').any(|layer| layer == rec.layer) {
                return;
            }
        }
        self.records.push(rec);
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }

    fn drain_records(&mut self) -> Option<Vec<TraceRecord>> {
        Some(self.take_records())
    }
}

/// A fixed-bin histogram quantized like [`crate::binning`]: `k` boundaries
/// produce `k + 1` bins, and a value lands in
/// [`crate::binning::level_of`]`(bounds, value)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bin boundaries (ascending).
    pub bounds: Vec<u64>,
    /// Per-bin observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[level_of(&self.bounds, value)] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// `{"bounds":[..],"counts":[..]}`, the one histogram shape of every
/// report.
impl ToJson for Histogram {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj().field("bounds", &self.bounds);
        w.field("counts", &self.counts).end();
    }
}

/// Per-layer counters and histograms keyed by static names.
///
/// All maps are `BTreeMap`s so iteration — and therefore serialization —
/// is deterministically ordered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    /// `(layer, name)` → count.
    counters: BTreeMap<(&'static str, &'static str), u64>,
    /// `(layer, name)` → per-node counts.
    per_node: BTreeMap<(&'static str, &'static str), Vec<u64>>,
    /// `(layer, name)` → histogram.
    histograms: BTreeMap<(&'static str, &'static str), Histogram>,
}

impl MetricsRegistry {
    /// Adds `by` to counter `(layer, name)`.
    pub fn add(&mut self, layer: &'static str, name: &'static str, by: u64) {
        *self.counters.entry((layer, name)).or_insert(0) += by;
    }

    /// Adds `by` to per-node counter `(layer, name)` for `node`.
    pub fn add_node(
        &mut self,
        layer: &'static str,
        name: &'static str,
        node: NodeIdx,
        nodes: usize,
        by: u64,
    ) {
        let v = self
            .per_node
            .entry((layer, name))
            .or_insert_with(|| vec![0; nodes.max(node + 1)]);
        if v.len() <= node {
            v.resize(node + 1, 0);
        }
        v[node] += by;
    }

    /// Records `value` in histogram `(layer, name)` over `bounds`.
    pub fn observe_hist(
        &mut self,
        layer: &'static str,
        name: &'static str,
        bounds: &[u64],
        value: u64,
    ) {
        self.histograms
            .entry((layer, name))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Counter `(layer, name)`, zero if never touched.
    pub fn counter(&self, layer: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|((l, n), _)| *l == layer && *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Folds one record into the registry.
    pub fn observe(&mut self, rec: &TraceRecord, nodes: usize) {
        match rec.body {
            TraceBody::Send { bytes, meta, .. } => {
                self.add(rec.layer, "sends", 1);
                self.add(rec.layer, "send_bytes", bytes as u64);
                self.add_node(rec.layer, "node_sends", rec.node, nodes, 1);
                self.observe_hist(rec.layer, "send_bytes_hist", SIZE_BOUNDS, bytes as u64);
                if meta.is_traced() {
                    self.observe_hist(rec.layer, "causal_hops", HOP_BOUNDS, u64::from(meta.hop));
                }
            }
            TraceBody::Deliver { bytes, .. } => {
                self.add(rec.layer, "delivers", 1);
                self.add(rec.layer, "deliver_bytes", bytes as u64);
                self.add_node(rec.layer, "node_delivers", rec.node, nodes, 1);
            }
            TraceBody::Drop { reason, .. } => {
                self.add(rec.layer, "drops", 1);
                let name = match reason {
                    DropReason::Loss => "drops_loss",
                    DropReason::DeadDest => "drops_dead",
                    DropReason::Chaos => "drops_chaos",
                    DropReason::Filter => "drops_filter",
                };
                self.add(rec.layer, name, 1);
            }
            TraceBody::ChaosEffect { effect, .. } => {
                let name = match effect {
                    "duplicate" => "chaos_duplicates",
                    _ => "chaos_delays",
                };
                self.add(rec.layer, name, 1);
            }
            TraceBody::TimerFire { .. } => self.add(rec.layer, "timer_fires", 1),
            TraceBody::NodeDown => self.add(rec.layer, "node_downs", 1),
            TraceBody::NodeUp => self.add(rec.layer, "node_ups", 1),
            TraceBody::Compute { task, us } => {
                let name = match task {
                    "fl" => "compute_fl_us",
                    _ => "compute_dht_us",
                };
                self.add(rec.layer, name, us);
            }
        }
    }

    /// A plain-value snapshot for embedding in trial reports.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(&(l, n), &v)| (format!("{l}.{n}"), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&(l, n), h)| (format!("{l}.{n}"), h.clone()))
                .collect(),
            per_node: self
                .per_node
                .iter()
                .map(|(&(l, n), v)| (format!("{l}.{n}"), v.clone()))
                .collect(),
        }
    }
}

/// A serializable snapshot of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `layer.name` → count, sorted by key.
    pub counters: BTreeMap<String, u64>,
    /// `layer.name` → histogram, sorted by key.
    pub histograms: BTreeMap<String, Histogram>,
    /// `layer.name` → per-node counts, sorted by key.
    pub per_node: BTreeMap<String, Vec<u64>>,
}

/// Keys in `BTreeMap` order, fixed field order, integers only.
impl ToJson for MetricsSnapshot {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj().field("counters", &self.counters);
        w.field("histograms", &self.histograms);
        w.field("per_node", &self.per_node).end();
    }
}

// ---------------------------------------------------------------------------
// Span reconstruction and exporters.
// ---------------------------------------------------------------------------

/// All records belonging to trace `trace`, in emission order.
pub fn span_records(records: &[TraceRecord], trace: u64) -> Vec<&TraceRecord> {
    records
        .iter()
        .filter(|r| r.meta().is_some_and(|m| m.trace == trace))
        .collect()
}

/// Groups every traced record by its trace id (emission order within each
/// span preserved).
pub fn spans(records: &[TraceRecord]) -> BTreeMap<u64, Vec<&TraceRecord>> {
    let mut out: BTreeMap<u64, Vec<&TraceRecord>> = BTreeMap::new();
    for r in records {
        if let Some(m) = r.meta() {
            out.entry(m.trace).or_default().push(r);
        }
    }
    out
}

/// The trace id of the last delivered message in `layer` at or before
/// `at_us` — "what message chain was in flight when the violation fired".
pub fn last_trace_before(records: &[TraceRecord], layer: &str, at_us: u64) -> Option<u64> {
    records
        .iter()
        .rev()
        .filter(|r| r.at_us <= at_us && r.layer == layer)
        .find_map(|r| match r.body {
            TraceBody::Deliver { meta, .. } if meta.is_traced() => Some(meta.trace),
            _ => None,
        })
}

/// Renders one span as human-readable hop lines (for violation reports and
/// debugging): one line per record, `+offset_us` relative to the span root.
pub fn span_report(records: &[TraceRecord], trace: u64) -> Vec<String> {
    let span = span_records(records, trace);
    let t0 = span.first().map(|r| r.at_us).unwrap_or(0);
    span.iter()
        .map(|r| {
            let m = r.meta().expect("span records carry meta");
            let what = match r.body {
                TraceBody::Send { to, .. } => format!("send {} -> {to}", r.node),
                TraceBody::Deliver { from, .. } => format!("deliver {from} -> {}", r.node),
                TraceBody::Drop { to, reason, .. } => {
                    format!("drop {} -> {to} ({})", r.node, reason.name())
                }
                _ => format!("event @{}", r.node),
            };
            format!(
                "+{}us {}/{} {} [msg {} hop {}]",
                r.at_us - t0,
                r.layer,
                r.kind,
                what,
                m.id,
                m.hop
            )
        })
        .collect()
}

/// Exports records as Chrome `trace_event` JSON (load in `chrome://tracing`
/// or Perfetto). Each send becomes a complete (`X`) slice on the sender's
/// track lasting until scheduled arrival; drops, timers, and churn become
/// instant (`i`) events. Output is deterministic.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    chrome_trace_multi(&[(0, records)])
}

/// [`chrome_trace`] over several record groups (one per trial); each group
/// renders as its own `pid` so trials appear as separate processes in the
/// trace viewer.
pub fn chrome_trace_multi(groups: &[(u64, &[TraceRecord])]) -> String {
    json::render(|w| {
        w.begin_obj().key("traceEvents").begin_arr(",\n").ws("\n");
        for &(pid, records) in groups {
            for r in records {
                write_chrome_event(w, r, pid);
            }
        }
        w.ws("\n").end().end().ws("\n");
    })
}

/// Writes one record as a Chrome `trace_event` object.
fn write_chrome_event(w: &mut Writer, r: &TraceRecord, pid: u64) {
    let msg = || format!("{}/{}", r.layer, r.kind);
    // A slice's duration, or `None` for an instant event.
    let (name, dur) = match r.body {
        TraceBody::Send { arrive_at_us, .. } => {
            (msg(), Some(arrive_at_us.saturating_sub(r.at_us).max(1)))
        }
        TraceBody::Deliver { .. } => (msg(), None),
        TraceBody::Drop { reason, .. } => (format!("{} drop:{}", msg(), reason.name()), None),
        TraceBody::ChaosEffect { effect, .. } => (format!("chaos:{effect}"), None),
        TraceBody::TimerFire { .. } => ("timer".to_string(), None),
        TraceBody::NodeDown => ("node down".to_string(), None),
        TraceBody::NodeUp => ("node up".to_string(), None),
        TraceBody::Compute { task, us } => (format!("compute:{task}"), Some(us.max(1))),
    };
    w.begin_obj().field("name", name);
    match dur {
        Some(dur) => w.field("ph", "X").field("ts", r.at_us).field("dur", dur),
        None => {
            // Churn is process-scoped; every other instant is the node's.
            let churn = matches!(r.body, TraceBody::NodeDown | TraceBody::NodeUp);
            let scope = if churn { "p" } else { "t" };
            w.field("ph", "i").field("s", scope).field("ts", r.at_us)
        }
    };
    w.field("pid", pid).field("tid", r.node);
    let arg = match r.body {
        TraceBody::Send { to, .. }
        | TraceBody::Drop { to, .. }
        | TraceBody::ChaosEffect { to, .. } => Some(("to", to as u64)),
        TraceBody::Deliver { from, .. } => Some(("from", from as u64)),
        TraceBody::TimerFire { token } => Some(("token", token)),
        _ => None,
    };
    if let Some((key, v)) = arg {
        w.key("args").begin_obj().field(key, v);
        if let TraceBody::Send { bytes, meta, .. } | TraceBody::Deliver { bytes, meta, .. } = r.body
        {
            w.field("bytes", bytes);
            if meta.is_traced() {
                w.field("trace", meta.trace).field("id", meta.id);
                w.field("hop", meta.hop);
            }
        }
        w.end();
    }
    w.end();
}

/// Exports records as JSONL: one record object per line.
pub fn jsonl_trace(records: &[TraceRecord]) -> String {
    json::render(|w| {
        for r in records {
            r.write_jsonl(w, None);
            w.ws("\n");
        }
    })
}

/// [`jsonl_trace`] over several record groups (one per trial); each line
/// gains a leading `"trial":<index>` key identifying its group.
pub fn jsonl_trace_multi(groups: &[(u64, &[TraceRecord])]) -> String {
    json::render(|w| {
        for &(trial, records) in groups {
            for r in records {
                r.write_jsonl(w, Some(trial));
                w.ws("\n");
            }
        }
    })
}

/// One JSONL trace line read back by [`parse_jsonl`]: a [`TraceRecord`]
/// with owned strings, flattened, plus its trial index.
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
    /// Destination (sends, drops and chaos effects).
    pub to: Option<u64>,
    /// Source (delivers).
    pub from: Option<u64>,
    /// Serialized message size, when the record is about a message.
    pub bytes: u64,
    /// Scheduled arrival time (sends).
    pub arrive_at_us: Option<u64>,
    /// Why a message was dropped ([`DropReason::name`]).
    pub reason: Option<String>,
    /// What a chaos atom did: `duplicate` or `delay`.
    pub effect: Option<String>,
    /// A fired timer's token.
    pub token: Option<u64>,
    /// A compute charge's task: `fl` or `dht`.
    pub task: Option<String>,
    /// A compute charge's microseconds.
    pub us: Option<u64>,
    /// Causal span id, when the message is traced.
    pub trace: Option<u64>,
    /// Message id within the trace run.
    pub id: Option<u64>,
    /// Causing message id (`None` for span roots).
    pub parent: Option<u64>,
    /// Causal hop count from the span root.
    pub hop: u64,
}

/// Parses a JSONL trace written by [`jsonl_trace`] or
/// [`jsonl_trace_multi`] (empty lines ignored). `at_us` and `node` are
/// required; every other key may be absent, but a key that is present
/// must hold its type — an integer in `0..=2^53`, a string, or `null` for
/// a span root's `parent`. Errors carry the 1-based line number.
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
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        let obj = json::parse_json(line).map_err(at)?;
        let int = |key: &str| {
            let bad = || at(format!("{key:?} is not an integer in 0..=2^53"));
            obj.get(key).map(|v| v.as_u64().ok_or_else(bad)).transpose()
        };
        let text = |key: &str| {
            let bad = || at(format!("{key:?} is not a string"));
            let read = |v: &Json| v.as_str().map(str::to_string).ok_or_else(bad);
            obj.get(key).map(read).transpose()
        };
        let required = |key: &str| int(key)?.ok_or_else(|| at(format!("missing {key:?}")));
        out.push(TraceEvent {
            trial: int("trial")?.unwrap_or(0),
            at_us: required("at_us")?,
            node: required("node")?,
            layer: text("layer")?.unwrap_or_default(),
            kind: text("kind")?.unwrap_or_default(),
            ev: text("ev")?.unwrap_or_default(),
            to: int("to")?,
            from: int("from")?,
            bytes: int("bytes")?.unwrap_or(0),
            arrive_at_us: int("arrive_at_us")?,
            reason: text("reason")?,
            effect: text("effect")?,
            token: int("token")?,
            task: text("task")?,
            us: int("us")?,
            trace: int("trace")?,
            id: int("id")?,
            parent: match obj.get("parent") {
                Some(Json::Null) => None,
                _ => int("parent")?,
            },
            hop: int("hop")?.unwrap_or(0),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(at: u64, node: usize, to: usize, meta: MsgMeta) -> TraceRecord {
        TraceRecord {
            at_us: at,
            node,
            layer: "forest",
            kind: "join",
            body: TraceBody::Send {
                to,
                bytes: 96,
                meta,
                arrive_at_us: at + 500,
            },
        }
    }

    fn deliver(at: u64, from: usize, node: usize, meta: MsgMeta) -> TraceRecord {
        TraceRecord {
            at_us: at,
            node,
            layer: "forest",
            kind: "join",
            body: TraceBody::Deliver {
                from,
                bytes: 96,
                meta,
            },
        }
    }

    fn chain() -> Vec<TraceRecord> {
        // 0 -> 1 -> 2 -> 3, one trace rooted at msg 10.
        let m0 = MsgMeta {
            trace: 10,
            id: 10,
            parent: ROOT_PARENT,
            hop: 0,
        };
        let m1 = MsgMeta {
            trace: 10,
            id: 11,
            parent: 10,
            hop: 1,
        };
        let m2 = MsgMeta {
            trace: 10,
            id: 12,
            parent: 11,
            hop: 2,
        };
        vec![
            send(0, 0, 1, m0),
            deliver(500, 0, 1, m0),
            send(500, 1, 2, m1),
            deliver(1_000, 1, 2, m1),
            send(1_000, 2, 3, m2),
            deliver(1_500, 2, 3, m2),
        ]
    }

    #[test]
    fn span_records_follow_parent_links() {
        let recs = chain();
        let span = span_records(&recs, 10);
        assert_eq!(span.len(), 6);
        // Every non-root message's parent is an earlier message in the span.
        let mut seen = std::collections::BTreeSet::new();
        for r in &span {
            let m = r.meta().unwrap();
            if m.parent != ROOT_PARENT {
                assert!(seen.contains(&m.parent), "parent {} unseen", m.parent);
            }
            seen.insert(m.id);
        }
        assert!(span_records(&recs, 99).is_empty());
    }

    #[test]
    fn spans_group_by_trace() {
        let mut recs = chain();
        let other = MsgMeta {
            trace: 50,
            id: 50,
            parent: ROOT_PARENT,
            hop: 0,
        };
        recs.push(send(2_000, 4, 5, other));
        let by_trace = spans(&recs);
        assert_eq!(by_trace.len(), 2);
        assert_eq!(by_trace[&10].len(), 6);
        assert_eq!(by_trace[&50].len(), 1);
    }

    #[test]
    fn last_trace_before_finds_in_flight_chain() {
        let recs = chain();
        assert_eq!(last_trace_before(&recs, "forest", 1_200), Some(10));
        assert_eq!(last_trace_before(&recs, "forest", 0), None);
        assert_eq!(last_trace_before(&recs, "dht", 9_999), None);
    }

    #[test]
    fn histogram_bins_match_binning_levels() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5_000] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 2, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn registry_snapshot_is_deterministic() {
        let mut reg = MetricsRegistry::default();
        for r in chain() {
            reg.observe(&r, 4);
        }
        assert_eq!(reg.counter("forest", "sends"), 3);
        assert_eq!(reg.counter("forest", "delivers"), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.to_json(), reg.snapshot().to_json());
    }

    #[test]
    fn exporters_are_deterministic_and_well_formed() {
        let recs = chain();
        let chrome = chrome_trace(&recs);
        assert_eq!(chrome, chrome_trace(&recs));
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        let jsonl = jsonl_trace(&recs);
        assert_eq!(jsonl.lines().count(), 6);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"layer\":\"forest\""));
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

    #[test]
    fn jsonl_rejects_a_present_key_of_the_wrong_type() {
        // 2^64 parses to a float that `as u64` would saturate; the line
        // must be refused, not read as a latency of 2^64 - 1.
        let huge = line(
            0,
            0,
            "send",
            ",\"to\":1,\"arrive_at_us\":18446744073709551616",
        );
        let text = format!("{}\n\n{huge}\n", line(0, 0, "timer", ""));
        assert_eq!(
            parse_jsonl(&text).unwrap_err(),
            "line 3: \"arrive_at_us\" is not an integer in 0..=2^53"
        );
        for (extra, key) in [
            (",\"to\":-1", "to"),
            (",\"bytes\":1.5", "bytes"),
            (",\"hop\":\"2\"", "hop"),
            (",\"parent\":true", "parent"),
            (",\"trace\":null", "trace"),
        ] {
            let err = parse_jsonl(&line(0, 0, "send", extra)).unwrap_err();
            assert!(err.starts_with(&format!("line 1: \"{key}\" ")), "{err}");
        }
        let err = parse_jsonl("{\"at_us\":0,\"node\":0,\"layer\":7}").unwrap_err();
        assert_eq!(err, "line 1: \"layer\" is not a string");
        let err = parse_jsonl("{\"at_us\":0}").unwrap_err();
        assert_eq!(err, "line 1: missing \"node\"");
        // A span root's `null` parent and absent optional keys still read.
        let root = parse_jsonl(&line(5, 2, "send", ",\"trace\":9,\"id\":9,\"parent\":null"));
        let root = &root.unwrap()[0];
        assert_eq!(
            (root.trace, root.parent, root.to, root.bytes),
            (Some(9), None, None, 0)
        );
    }

    #[test]
    fn counting_sink_counts_without_buffering() {
        let mut sink = CountingSink::default();
        for r in chain() {
            sink.record(r);
        }
        assert_eq!(sink.records, 6);
        assert!(sink.snapshot().is_none());
        const { assert!(!NoopSink::ENABLED) };
        const { assert!(CountingSink::ENABLED) };
    }

    #[test]
    fn recording_sink_filters_records_but_not_metrics() {
        let mut sink = RecordingSink::new(8).with_layer_filter(Some("dht".to_string()));
        for r in chain() {
            sink.record(r);
        }
        assert!(sink.records().is_empty(), "forest records filtered out");
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counters["forest.sends"], 3);
    }

    #[test]
    fn recording_sink_filter_accepts_comma_separated_layer_lists() {
        let mut sink = RecordingSink::new(8).with_layer_filter(Some("forest,dht".to_string()));
        for r in chain() {
            sink.record(r);
        }
        assert_eq!(sink.records().len(), 6, "forest is in the filter list");
        let mut sink = RecordingSink::new(8).with_layer_filter(Some("dht,sim".to_string()));
        for r in chain() {
            sink.record(r);
        }
        assert!(sink.records().is_empty(), "forest is not in the list");
    }
}
