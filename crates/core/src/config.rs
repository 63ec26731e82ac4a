//! Per-application FL configuration (Table 2's customization points).
//!
//! Totoro "supports application-specific customization, allowing
//! application owners to set their own FL policies" (§4.4): the
//! aggregation function, compression function, client-selection function,
//! privacy technique, and zone restriction are all per-application knobs.

use std::sync::Arc;

use totoro_dht::Id;
use totoro_ml::{AggregationRule, Compression, Dataset, Privacy};
use totoro_simnet::{NodeIdx, SimDuration};

/// Client-selection policy, evaluated worker-side from the round number
/// (Table 2: "Application owner can specify her client selection function
/// in the API").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectionPolicy {
    /// Every subscriber trains every round.
    All,
    /// Each subscriber participates independently with this probability,
    /// decided by a per-(app, round, node) hash — deterministic yet
    /// uncorrelated across rounds.
    Fraction(f64),
    /// Oort-inspired utility-based selection \[55\], decentralized: each
    /// worker self-assesses its statistical utility from its most recent
    /// local training loss and participates with probability
    /// `floor + (1 - floor) · (1 - e^{-loss})` — high-loss (most useful)
    /// clients train nearly every round, converged clients back off to the
    /// floor. Worker-side evaluation needs no central view, matching
    /// Totoro's decentralized client-selector role.
    LossAdaptive {
        /// Minimum participation probability for converged clients.
        floor: f64,
    },
}

impl SelectionPolicy {
    /// Whether `node` participates in `round` of the app salted `seed`.
    /// `last_loss` is the worker's most recent mean training loss (if it
    /// has trained before); only used by [`SelectionPolicy::LossAdaptive`].
    pub fn participates(
        &self,
        seed: u64,
        round: u64,
        node: NodeIdx,
        last_loss: Option<f32>,
    ) -> bool {
        let draw = || {
            let h = totoro_simnet::derive_seed(
                seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                &format!("select-{node}"),
            );
            h as f64 / u64::MAX as f64
        };
        match *self {
            SelectionPolicy::All => true,
            SelectionPolicy::Fraction(f) => draw() < f,
            SelectionPolicy::LossAdaptive { floor } => {
                let p = match last_loss {
                    // Never trained: maximal utility, always participate.
                    None => 1.0,
                    Some(loss) => {
                        let util = 1.0 - (-f64::from(loss.max(0.0))).exp();
                        floor.clamp(0.0, 1.0) + (1.0 - floor.clamp(0.0, 1.0)) * util
                    }
                };
                draw() < p
            }
        }
    }
}

/// Round-completion protocol (§2.2.1's synchronous vs semi-synchronous
/// communication protocols).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RoundPolicy {
    /// Wait for every expected contribution (modulo the straggler cutoff).
    Synchronous,
    /// Complete the round once this fraction of the expected participants
    /// contributed — the semi-synchronous mode of FedAT-style systems.
    SemiSynchronous {
        /// Fraction of expected participants required (0, 1].
        quorum: f64,
    },
}

/// The full specification of one FL application.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use totoro::FlAppConfig;
/// use totoro::ml::{Compression, Dataset, Privacy};
///
/// let mut cfg = FlAppConfig::new("activity-recognition", vec![24, 32, 4],
///                                Arc::new(Dataset::default()));
/// cfg.compression = Compression::Int8;
/// cfg.privacy = Privacy::GaussianDp { clip: 10.0, sigma: 0.01 };
/// // The AppId (tree topic / rendezvous key) derives from name + salt.
/// assert_ne!(cfg.app_id(), {
///     let mut other = cfg.clone();
///     other.salt = 1;
///     other.app_id()
/// });
/// ```
#[derive(Clone, Debug)]
pub struct FlAppConfig {
    /// Application name (hashed into the AppId).
    pub name: String,
    /// Salt mixed into the AppId (§4.3a).
    pub salt: u64,
    /// MLP layer dimensions `[input, hidden..., classes]`.
    pub model_dims: Vec<usize>,
    /// Aggregation rule.
    pub aggregation: AggregationRule,
    /// Compression applied to worker updates.
    pub compression: Compression,
    /// Privacy technique applied to worker updates (§4.4).
    pub privacy: Privacy,
    /// Client-selection policy.
    pub selection: SelectionPolicy,
    /// Round-completion protocol.
    pub round_policy: RoundPolicy,
    /// Number of participants subscribed at submission (set by
    /// `TotoroDeployment::submit_app`; used by the semi-synchronous quorum).
    pub expected_participants: usize,
    /// The participant roster (set by `TotoroDeployment::submit_app`; used
    /// by secure aggregation's pairwise masking).
    pub participant_list: Vec<NodeIdx>,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Minibatch size (paper: 20).
    pub batch_size: usize,
    /// Client learning rate (paper: 0.05 / 0.1).
    pub lr: f32,
    /// Target test accuracy; the master stops when reached.
    pub target_accuracy: f64,
    /// Hard cap on rounds.
    pub max_rounds: u64,
    /// Pause between a round's completion and the next broadcast (also the
    /// delay before round 1 so the tree can assemble).
    pub round_pause: SimDuration,
    /// Master-side watchdog: if a round has not completed this long after
    /// its broadcast (e.g. the whole wave was lost to churn), the master
    /// starts the next round anyway.
    pub round_timeout: SimDuration,
    /// Whether the application's traffic is confined to its home edge zone
    /// (§4.2 administrative isolation).
    pub zone_restricted: bool,
    /// For zone-restricted apps: `(zone, zone_bits)` of the home zone. The
    /// AppId's zone prefix is forced into this zone so the rendezvous node
    /// — and therefore every JOIN path — stays inside the edge site.
    pub home_zone: Option<(u64, u32)>,
    /// Held-out test set evaluated by the master.
    pub test_set: Arc<Dataset>,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl FlAppConfig {
    /// The application's AppId: `hash(name, creator key, salt)` (§4.3a);
    /// this is the tree topic and rendezvous key.
    pub fn app_id(&self) -> Id {
        let raw = totoro_dht::app_id(&self.name, "totoro-app-owner", self.salt);
        match self.home_zone {
            None => raw,
            Some((zone, zone_bits)) => Id::compose(zone, zone_bits, raw.suffix(zone_bits)),
        }
    }

    /// Parameter count of the model `model_dims` describes (weights plus
    /// biases of every layer) — [`totoro_ml::Mlp::num_params`] without
    /// building the model.
    pub fn model_params(&self) -> usize {
        totoro_ml::Mlp::param_count(&self.model_dims)
    }

    /// Multiply-accumulates per sample of one training pass over the model
    /// `model_dims` describes — [`totoro_ml::Mlp::flops_per_sample`]
    /// without building the model, so the training time of an update can
    /// be charged before the update is trained.
    pub fn flops_per_sample(&self) -> u64 {
        // ~2 MACs per weight forward, ~4 backward.
        6 * self
            .model_dims
            .windows(2)
            .map(|d| (d[0] * d[1]) as u64)
            .sum::<u64>()
    }

    /// A reasonable default configuration for `name` over `test_set`.
    pub fn new(name: &str, model_dims: Vec<usize>, test_set: Arc<Dataset>) -> Self {
        FlAppConfig {
            name: name.to_string(),
            salt: 0,
            model_dims,
            aggregation: AggregationRule::FedAvg,
            compression: Compression::None,
            privacy: Privacy::None,
            selection: SelectionPolicy::All,
            round_policy: RoundPolicy::Synchronous,
            expected_participants: 0,
            participant_list: Vec::new(),
            local_epochs: 1,
            batch_size: 20,
            lr: 0.1,
            target_accuracy: 0.99,
            max_rounds: 50,
            round_pause: SimDuration::from_secs(2),
            round_timeout: SimDuration::from_secs(120),
            zone_restricted: false,
            home_zone: None,
            test_set,
            seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(name: &str, salt: u64) -> FlAppConfig {
        let mut c = FlAppConfig::new(name, vec![4, 8, 2], Arc::new(Dataset::default()));
        c.salt = salt;
        c
    }

    #[test]
    fn model_params_counts_what_the_model_holds() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for dims in [vec![48, 35], vec![48, 48, 35], vec![40, 64, 32, 62]] {
            let mut c = cfg("sized", 0);
            c.model_dims = dims.clone();
            let model = totoro_ml::Mlp::new(&dims, &mut rng);
            assert_eq!(c.model_params(), model.num_params(), "{dims:?}");
        }
    }

    #[test]
    fn flops_per_sample_counts_what_the_model_charges() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for dims in [vec![48, 35], vec![48, 48, 35], vec![40, 64, 32, 62]] {
            let mut c = cfg("sized", 0);
            c.model_dims = dims.clone();
            let model = totoro_ml::Mlp::new(&dims, &mut rng);
            assert_eq!(c.flops_per_sample(), model.flops_per_sample(), "{dims:?}");
        }
    }

    #[test]
    fn app_ids_differ_by_name_and_salt() {
        assert_ne!(cfg("a", 0).app_id(), cfg("b", 0).app_id());
        assert_ne!(cfg("a", 0).app_id(), cfg("a", 1).app_id());
        assert_eq!(cfg("a", 0).app_id(), cfg("a", 0).app_id());
    }

    #[test]
    fn home_zone_pins_the_rendezvous_key() {
        let mut c = cfg("regional", 3);
        let global = c.app_id();
        c.home_zone = Some((9, 4));
        let pinned = c.app_id();
        assert_eq!(pinned.zone(4), 9);
        assert_eq!(pinned.suffix(4), global.suffix(4));
    }

    #[test]
    fn selection_all_always_participates() {
        let s = SelectionPolicy::All;
        assert!(s.participates(1, 1, 1, None));
    }

    #[test]
    fn loss_adaptive_prefers_high_loss_clients() {
        let s = SelectionPolicy::LossAdaptive { floor: 0.2 };
        let n = 4_000;
        let rate = |loss: Option<f32>| {
            (0..n).filter(|&i| s.participates(9, 3, i, loss)).count() as f64 / n as f64
        };
        // Untrained clients always go.
        assert!(rate(None) > 0.999);
        // High loss ~ always; low loss ~ floor.
        assert!(rate(Some(4.0)) > 0.9);
        let low = rate(Some(0.01));
        assert!((0.12..=0.32).contains(&low), "low-loss rate {low}");
        assert!(rate(Some(4.0)) > rate(Some(0.3)));
    }

    #[test]
    fn selection_fraction_matches_rate_and_varies_by_round() {
        let s = SelectionPolicy::Fraction(0.3);
        let n = 10_000;
        let hits = (0..n).filter(|&i| s.participates(42, 1, i, None)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        // The selected set changes between rounds.
        let r1: Vec<bool> = (0..200).map(|i| s.participates(42, 1, i, None)).collect();
        let r2: Vec<bool> = (0..200).map(|i| s.participates(42, 2, i, None)).collect();
        assert_ne!(r1, r2);
        // Deterministic per round.
        let r1b: Vec<bool> = (0..200).map(|i| s.participates(42, 1, i, None)).collect();
        assert_eq!(r1, r1b);
    }
}
