//! Shared application/work specifications for the centralized engines.

use std::sync::Arc;

use totoro_ml::{AggregationRule, Dataset};

/// Everything the server and clients need to run one FL application.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// MLP layer dimensions `[input, hidden..., classes]`.
    pub model_dims: Vec<usize>,
    /// Aggregation rule (FedAvg / FedProx).
    pub aggregation: AggregationRule,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Minibatch size (paper: 20).
    pub batch_size: usize,
    /// Client learning rate.
    pub lr: f32,
    /// Target test accuracy; training stops when reached.
    pub target_accuracy: f64,
    /// Hard cap on rounds.
    pub max_rounds: u64,
    /// Held-out test set evaluated by the master every round.
    pub test_set: Arc<Dataset>,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

/// Performance envelope of a centralized parameter server.
///
/// The paper's explanation of the speedup gap (§7.4): the central
/// coordinator "needs to handle \[applications\] one by one on a first-come,
/// first-served basis, which causes large queuing delays". The envelope
/// models exactly that: a work queue with bounded concurrency and
/// per-task service times.
#[derive(Clone, Copy, Debug)]
pub struct ServerProfile {
    /// Concurrent app-round tasks the server processes (worker threads).
    pub concurrency: usize,
    /// Server CPU time to set up one application round (selector +
    /// coordinator + aggregator bookkeeping, checkpointing), microseconds.
    pub round_setup_us: u64,
    /// Server CPU time to ingest one client update, microseconds.
    pub per_update_us: u64,
    /// Server CPU time to serialize/send one model copy, microseconds.
    pub per_download_us: u64,
}

impl ServerProfile {
    /// An OpenFL-like profile: the framework runs "in a single-machine
    /// setting" (§7.1) — one worker, heavier per-round orchestration.
    pub fn openfl_like() -> Self {
        ServerProfile {
            concurrency: 1,
            round_setup_us: 600_000,
            per_update_us: 5_000,
            per_download_us: 2_500,
        }
    }

    /// A FedScale-like profile: a scalable engine with elastic aggregators
    /// and leaner per-task costs — but round orchestration still funnels
    /// through one logically central coordinator ("handle them one by one
    /// on a first-come, first-served basis", §7.4), so concurrency is 1.
    pub fn fedscale_like() -> Self {
        ServerProfile {
            concurrency: 1,
            round_setup_us: 420_000,
            per_update_us: 2_500,
            per_download_us: 1_200,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedscale_is_leaner_than_openfl() {
        let o = ServerProfile::openfl_like();
        let f = ServerProfile::fedscale_like();
        assert!(o.round_setup_us > f.round_setup_us);
        assert!(o.per_update_us > f.per_update_us);
    }
}
