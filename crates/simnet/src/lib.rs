//! # totoro-simnet
//!
//! Deterministic discrete-event network simulator underlying the Totoro
//! reproduction. It provides:
//!
//! * a virtual clock and a timer-wheel event queue ([`sim::Simulator`],
//!   [`queue`]);
//! * a geographic topology with latency/bandwidth/loss models
//!   ([`topology::Topology`], [`geo`]);
//! * Ratnasamy-Shenker distributed binning and edge-zone formation
//!   ([`binning`]);
//! * per-node traffic and compute ledgers ([`traffic`], Figure 7/13);
//! * reproducible churn schedules ([`churn`], Figure 12).
//!
//! The paper evaluates Totoro by *emulating* up to 100k edge nodes on 500
//! EC2 machines (§7.1); this crate replaces that emulation with an exact
//! event-level simulation so experiments are reproducible on one machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod bitset;
pub mod chaos;
pub mod churn;
mod engine;
pub mod geo;
pub mod json;
pub mod numeric;
pub mod obs;
pub mod payload;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;
pub mod topology;
pub mod traffic;
pub mod trial;

pub use binning::{assign_zones, BinningConfig, ZoneAssignment, ZoneSummary};
pub use bitset::BitSet;
pub use chaos::{
    run_with_invariants, ChaosInjector, ChaosStats, CheckpointConfig, Fault, FaultFilter,
    FaultKind, FaultPlan, Invariant, InvariantPhase, SendVerdict, Violation,
};
pub use churn::{ChurnEvent, ChurnSchedule};
pub use engine::event_slot_bytes;
pub use geo::{GeoPoint, PlacedNode, Region};
pub use obs::prof::{EngineProf, EngineProfile};
pub use obs::{
    chrome_trace, chrome_trace_multi, jsonl_trace, jsonl_trace_multi, last_trace_before,
    parse_jsonl, span_records, span_report, spans, CountingSink, DropReason, Histogram,
    MetricsRegistry, MetricsSnapshot, MsgMeta, NoopSink, RecordingSink, TraceBody, TraceEvent,
    TraceRecord, TraceSink,
};
pub use payload::Shared;
pub use queue::EventKey;
pub use rng::{derive_seed, keyed_unit, sub_rng};
pub use sim::{Application, ComputeKind, Ctx, Payload, PendingClass, PendingSummary, Simulator};
pub use time::{SimDuration, SimTime};
pub use topology::{LatencyModel, NodeIdx, NodeProfile, Topology, BASE_EDGE_FLOPS};
pub use traffic::{TrafficLedger, TrafficTotals};
pub use trial::TrialReport;
