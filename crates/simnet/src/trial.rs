//! Per-trial accounting reports.
//!
//! A *trial* is one self-contained simulation run (one `Simulator` with its
//! own RNG streams). [`TrialReport`] captures that run's accounting *by
//! value* when the trial ends, so independent trials can run concurrently
//! on worker threads and be serialized or rendered later — in trial order,
//! independent of completion order. A report holds one run.
//!
//! The report is a plain value: building one never mutates the simulator,
//! and its [`TrialReport::to_json`] serialization is deterministic (fixed
//! field order, no floats formatted with locale- or platform-dependent
//! code paths), which the benchmark harness relies on for byte-identical
//! output across `--jobs` settings.

use crate::json::{ToJson, Writer};
use crate::obs::prof::EngineProfile;
use crate::obs::{MetricsSnapshot, TraceSink};
use crate::sim::{Application, Simulator};
use crate::traffic::TrafficTotals;

/// Accounting captured from one finished simulation trial.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrialReport {
    /// Number of simulated nodes.
    pub nodes: usize,
    /// Simulated clock at capture time, in microseconds.
    pub sim_end_us: u64,
    /// Events processed by the simulator.
    pub events: u64,
    /// Messages dropped in flight (link loss, chaos faults, fault filters).
    pub dropped_loss: u64,
    /// Messages dropped on arrival at a dead destination.
    pub dropped_dead: u64,
    /// Aggregate traffic counters across all nodes.
    pub traffic: TrafficTotals,
    /// Total FL-task CPU microseconds across all nodes.
    pub fl_us: u64,
    /// Total DHT-task CPU microseconds across all nodes.
    pub dht_us: u64,
    /// Total application state bytes across all nodes at capture time.
    pub memory_bytes: u64,
    /// Observability metrics snapshot, when the trial ran with a metrics-
    /// aggregating trace sink installed (`None` with the default
    /// [`crate::obs::NoopSink`], keeping untraced JSON unchanged).
    pub obs: Option<MetricsSnapshot>,
    /// Deterministic engine self-profile ([`crate::obs::prof`]), when the
    /// trial ran with profiling enabled (`None` otherwise, keeping
    /// unprofiled JSON unchanged). Byte-identical across `--jobs` for a
    /// fixed `(scenario, seed)`.
    pub engine_profile: Option<EngineProfile>,
}

impl TrialReport {
    /// Captures a report from a simulator (any installed trace sink; a
    /// metrics-aggregating sink contributes its snapshot as `obs`).
    pub fn capture<A: Application, S: TraceSink>(sim: &Simulator<A, S>) -> Self {
        let memory_bytes = sim.apps().map(|a| a.memory_bytes() as u64).sum();
        TrialReport {
            nodes: sim.len(),
            sim_end_us: sim.now().as_micros(),
            events: sim.events_processed(),
            dropped_loss: sim.dropped_loss(),
            dropped_dead: sim.dropped_dead(),
            traffic: sim.traffic().totals(),
            fl_us: sim.compute().fl_us,
            dht_us: sim.compute().dht_us,
            memory_bytes,
            obs: sim.sink().snapshot(),
            engine_profile: sim.engine_profile(),
        }
    }

    /// Total messages dropped, for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_dead
    }

    /// Mean TCP wire bytes sent per node.
    pub fn mean_tcp_sent(&self) -> f64 {
        self.traffic
            .mean_per_node(self.traffic.tcp_sent, self.nodes)
    }

    /// Mean UDP wire bytes sent per node.
    pub fn mean_udp_sent(&self) -> f64 {
        self.traffic
            .mean_per_node(self.traffic.udp_sent, self.nodes)
    }
}

/// Fixed key order, integer counters. The `obs` and `engine_profile`
/// sections are appended only when captured, so untraced, unprofiled
/// reports keep their historical shape.
impl ToJson for TrialReport {
    fn write_json(&self, w: &mut Writer) {
        let t = &self.traffic;
        w.begin_obj().field("nodes", self.nodes);
        w.field("sim_end_us", self.sim_end_us);
        w.field("events", self.events);
        w.field("dropped_loss", self.dropped_loss);
        w.field("dropped_dead", self.dropped_dead);
        w.field("msgs_sent", t.msgs_sent);
        w.field("msgs_recv", t.msgs_recv);
        w.field("payload_sent", t.payload_sent);
        w.field("payload_recv", t.payload_recv);
        w.field("tcp_sent", t.tcp_sent);
        w.field("udp_sent", t.udp_sent);
        w.field("fl_us", self.fl_us).field("dht_us", self.dht_us);
        w.field("memory_bytes", self.memory_bytes);
        if let Some(obs) = &self.obs {
            w.field("obs", obs);
        }
        if let Some(prof) = &self.engine_profile {
            w.field("engine_profile", prof);
        }
        w.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic() {
        let r = TrialReport {
            nodes: 4,
            sim_end_us: 123,
            ..TrialReport::default()
        };
        assert_eq!(r.to_json(), r.clone().to_json());
        assert!(r.to_json().starts_with("{\"nodes\":4,"));
    }

    #[test]
    fn json_field_order_survives_field_additions() {
        let r = TrialReport {
            nodes: 1,
            dropped_loss: 2,
            dropped_dead: 3,
            ..TrialReport::default()
        };
        let json = r.to_json();
        // The key order is part of the byte-identical-output contract; any
        // new field must extend, not reorder, this sequence.
        let keys = [
            "nodes",
            "sim_end_us",
            "events",
            "dropped_loss",
            "dropped_dead",
            "msgs_sent",
            "msgs_recv",
            "payload_sent",
            "payload_recv",
            "tcp_sent",
            "udp_sent",
            "fl_us",
            "dht_us",
            "memory_bytes",
        ];
        let mut pos = 0;
        for k in keys {
            let p = json
                .find(&format!("\"{k}\":"))
                .unwrap_or_else(|| panic!("missing key {k}"));
            assert!(p >= pos, "key {k} out of order");
            pos = p;
        }
        // Without a snapshot the report keeps its historical shape...
        assert!(!json.contains("\"obs\""));
        assert!(!json.contains("\"engine_profile\""));
        // ...and a snapshot only ever appends after the fixed fields.
        let mut traced = r.clone();
        traced.obs = Some(MetricsSnapshot::default());
        let traced_json = traced.to_json();
        assert!(traced_json.starts_with(json.trim_end_matches('}')));
        assert!(traced_json.contains(",\"obs\":{"));
        assert_eq!(traced_json, traced.clone().to_json());
        // The engine profile appends after obs, in that fixed order.
        let mut profiled = traced.clone();
        profiled.engine_profile = Some(EngineProfile::default());
        let profiled_json = profiled.to_json();
        assert!(profiled_json.starts_with(traced_json.trim_end_matches('}')));
        assert!(profiled_json.contains(",\"engine_profile\":{\"sched\":"));
    }
}
