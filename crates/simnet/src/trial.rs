//! Per-trial accounting reports.
//!
//! A *trial* is one self-contained simulation run (one `Simulator` with its
//! own RNG streams). Historically the experiment binaries printed traffic
//! and compute summaries mid-loop; [`TrialReport`] instead captures the
//! accounting *by value* when the trial ends, so independent trials can run
//! concurrently on worker threads and be merged, serialized, or rendered
//! later — in trial order, independent of completion order.
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
            fl_us: sim.compute().fl_us.iter().sum(),
            dht_us: sim.compute().dht_us.iter().sum(),
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

    /// Folds another report into this one (summing counters, taking the
    /// later clock). Used when one logical trial spans several simulators.
    pub fn merge(&mut self, other: &TrialReport) {
        self.nodes += other.nodes;
        self.sim_end_us = self.sim_end_us.max(other.sim_end_us);
        self.events += other.events;
        self.dropped_loss += other.dropped_loss;
        self.dropped_dead += other.dropped_dead;
        self.traffic.merge(&other.traffic);
        self.fl_us += other.fl_us;
        self.dht_us += other.dht_us;
        self.memory_bytes += other.memory_bytes;
        match (&mut self.obs, &other.obs) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.obs = Some(theirs.clone()),
            _ => {}
        }
        match (&mut self.engine_profile, &other.engine_profile) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.engine_profile = Some(theirs.clone()),
            _ => {}
        }
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
    fn merge_sums_counters() {
        let mut a = TrialReport {
            nodes: 2,
            sim_end_us: 10,
            events: 5,
            fl_us: 100,
            ..TrialReport::default()
        };
        let b = TrialReport {
            nodes: 3,
            sim_end_us: 7,
            events: 2,
            dht_us: 50,
            ..TrialReport::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes, 5);
        assert_eq!(a.sim_end_us, 10);
        assert_eq!(a.events, 7);
        assert_eq!(a.fl_us, 100);
        assert_eq!(a.dht_us, 50);
    }

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

    #[test]
    fn merge_sums_drop_split_and_obs() {
        let mut a = TrialReport {
            dropped_loss: 2,
            dropped_dead: 1,
            ..TrialReport::default()
        };
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("forest.sends".into(), 5);
        let b = TrialReport {
            dropped_loss: 3,
            dropped_dead: 4,
            obs: Some(snap),
            ..TrialReport::default()
        };
        a.merge(&b);
        assert_eq!(a.dropped_loss, 5);
        assert_eq!(a.dropped_dead, 5);
        assert_eq!(a.dropped(), 10);
        a.merge(&b);
        assert_eq!(a.obs.as_ref().unwrap().counters["forest.sends"], 10);
    }
}
