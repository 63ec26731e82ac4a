//! The metric definitions. `BENCHMARK.json` carries the same names, units,
//! directions and bounds; the self-tests hold the two together.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported for every workload, with the share of
/// the parent's median by which it may worsen.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The five end-to-end metrics. Every bound is the largest the benchmark
/// contract allows: on the 2-core shared host the interquartile spread of the
/// timings over ten measurements is 5 to 17 % of the median (the host drifts
/// between a fast and a slow state over minutes), and `peak_rss_mb` moves up
/// to 8 % from seed to seed on `churn_recovery`. A tighter bound would sit
/// inside the noise. See the README's spread table.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "total_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric. `exact` marks simulated statistics: they repeat bit
/// for bit across runs of one commit, and a speed-only change must leave
/// every one of them identical.
pub struct PerLayer {
    /// `<layer>.<metric>`; the layer is the crate's name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (for counts: the direction an optimisation would move it).
    pub better: Better,
    /// Whether the value is a simulated statistic.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn exact_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: true,
    }
}

/// Every per-layer metric, grouped by layer. A workload that does not
/// exercise a metric's layer reports 0 for it.
pub const PER_LAYER: [PerLayer; 59] = [
    timing("simnet.topology_build_s", "s"),
    exact("simnet.events", "count"),
    exact("simnet.sim_end_us", "us"),
    exact("simnet.dropped_loss", "count"),
    exact("simnet.dropped_dead", "count"),
    exact("simnet.timer_fires", "count"),
    exact("simnet.state_bytes", "bytes"),
    exact("simnet.wheel_late", "count"),
    exact("simnet.wheel_near", "count"),
    exact("simnet.wheel_far", "count"),
    exact("simnet.wheel_migrated", "count"),
    exact("simnet.batch_singleton_ratio", "ratio"),
    exact("simnet.pdes_windows", "count"),
    exact_up("simnet.events_per_window_mean", "count"),
    timing("simnet.run_until_self_s", "s"),
    rate("simnet.probe_event_churn_meps", "Mevents/s"),
    rate("simnet.probe_timer_storm_meps", "Mevents/s"),
    timing("simnet.shard2_run_s", "s"),
    timing("dht.overlay_spawn_s", "s"),
    exact("dht.heartbeat_msgs", "count"),
    exact("dht.leaf_exchange_msgs", "count"),
    exact("dht.msgs_delivered", "count"),
    exact("dht.bytes_delivered", "bytes"),
    exact("dht.cpu_sim_us", "us"),
    exact("dht.event_share", "ratio"),
    timing("dht.probe_route_us", "us"),
    exact("dht.probe_route_hops_mean", "count"),
    timing("pubsub.tree_build_s", "s"),
    timing("pubsub.round_wall_ms_p50", "ms"),
    timing("pubsub.round_wall_ms_max", "ms"),
    exact("pubsub.broadcast_msgs", "count"),
    exact("pubsub.aggregate_msgs", "count"),
    exact("pubsub.parent_heartbeat_msgs", "count"),
    exact("pubsub.join_msgs", "count"),
    exact("pubsub.bytes_delivered", "bytes"),
    exact("pubsub.event_share", "ratio"),
    exact("pubsub.diss_sim_ms", "ms"),
    exact("pubsub.agg_sim_ms", "ms"),
    exact("pubsub.tree_depth", "count"),
    exact_up("pubsub.repairs_completed", "count"),
    exact("pubsub.repairs_incomplete", "count"),
    exact("pubsub.detect_sim_ms_p50", "ms"),
    exact("pubsub.repair_sim_ms_p50", "ms"),
    timing("core.submit_apps_s", "s"),
    exact("core.rounds_completed", "count"),
    exact_up("core.apps_reached_target", "count"),
    exact_up("core.final_accuracy_mean", "ratio"),
    exact("core.fl_cpu_sim_us", "us"),
    timing("core.run_us_per_client_round", "us"),
    timing("ml.probe_train_epoch_us", "us"),
    timing("ml.probe_fedavg_us", "us"),
    timing("ml.probe_eval_us", "us"),
    timing("ml.train_share_est", "ratio"),
    timing("baselines.central_run_s", "s"),
    exact("baselines.central_events", "count"),
    timing("bench.report_capture_s", "s"),
    timing("bench.teardown_s", "s"),
    timing("bench.trace_overhead_pct", "%"),
    timing("bench.exact_drift", "count"),
];
