//! The harness's own [`TraceSink`]: counts and bytes per
//! `(layer, kind, event)`, nothing buffered. Installed only on traced runs.

use std::collections::BTreeMap;

use totoro_simnet::{NoopSink, TraceBody, TraceRecord, TraceSink};

/// What a record reports about its message or timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ev {
    /// Put on the wire.
    Send,
    /// Handed to the destination's handler.
    Deliver,
    /// Lost in flight or refused by a dead destination.
    Drop,
    /// A timer fired.
    Timer,
}

/// Count and byte total of one `(layer, kind, event)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cell {
    /// Records seen.
    pub count: u64,
    /// Serialized message bytes (0 for timers).
    pub bytes: u64,
}

/// Counting sink keyed by `(layer, kind, event)`.
#[derive(Debug, Default)]
pub struct LayerCounts {
    cells: BTreeMap<(&'static str, &'static str, Ev), Cell>,
}

impl LayerCounts {
    /// Sum over every kind of `layer` for `ev`.
    pub fn layer(&self, layer: &str, ev: Ev) -> Cell {
        self.sum(|l, _, e| l == layer && e == ev)
    }

    /// The `(layer, kind, ev)` cell.
    pub fn kind(&self, layer: &str, kind: &str, ev: Ev) -> Cell {
        self.sum(|l, k, e| l == layer && k == kind && e == ev)
    }

    /// Sum over every layer and kind for `ev`.
    pub fn all(&self, ev: Ev) -> Cell {
        self.sum(|_, _, e| e == ev)
    }

    fn sum(&self, keep: impl Fn(&str, &str, Ev) -> bool) -> Cell {
        let mut out = Cell::default();
        for (&(l, k, e), c) in &self.cells {
            if keep(l, k, e) {
                out.count += c.count;
                out.bytes += c.bytes;
            }
        }
        out
    }
}

impl TraceSink for LayerCounts {
    #[inline]
    fn record(&mut self, rec: TraceRecord) {
        let (ev, bytes) = match rec.body {
            TraceBody::Send { bytes, .. } => (Ev::Send, bytes),
            TraceBody::Deliver { bytes, .. } => (Ev::Deliver, bytes),
            TraceBody::Drop { bytes, .. } => (Ev::Drop, bytes),
            TraceBody::TimerFire { .. } => (Ev::Timer, 0),
            _ => return,
        };
        let cell = self.cells.entry((rec.layer, rec.kind, ev)).or_default();
        cell.count += 1;
        cell.bytes += bytes as u64;
    }
}

/// Lets a workload that is generic over its sink read the counts back, or
/// learn that the run was untraced.
pub trait MaybeCounts: TraceSink {
    /// The counts, when this sink keeps any.
    fn counts(&self) -> Option<&LayerCounts>;
}

impl MaybeCounts for NoopSink {
    fn counts(&self) -> Option<&LayerCounts> {
        None
    }
}

impl MaybeCounts for LayerCounts {
    fn counts(&self) -> Option<&LayerCounts> {
        Some(self)
    }
}
