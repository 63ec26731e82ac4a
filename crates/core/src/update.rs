//! The data type riding Totoro's dataflow trees.
//!
//! Downward (model broadcast) it carries the global weights; upward
//! (gradient aggregation) it carries a sample-weighted partial sum that
//! interior nodes combine in-network (§4.3 step 2). Wire size honours the
//! application's compression function on the leaf's first hop; partial
//! aggregates are dense (combining de-sparsifies).
//!
//! A downward model is always dense, and it is wrapped in
//! [`totoro_simnet::Shared`] exactly once, by the master that builds it:
//! that one handle is what the master trains from, what
//! `TreeMsg::Broadcast` carries to every child, and what each worker keeps
//! as the model it last trained from — one buffer per round and app,
//! however many nodes hold it.
//!
//! A worker's upward contribution may instead travel as its *recipe*: the
//! global-model handle, the shard and the config it is trained from, plus
//! the worker's address and round for secure aggregation's masks. Local
//! training draws no random numbers, so the recipe names the update to the
//! bit, and it is trained where its values are first read — when a parent
//! folds it into a partial sum ([`TreeData::combine`]) or when the root
//! takes the aggregate ([`FlData::into_update`]). Until then an update
//! waiting out its simulated training and link delays holds a few pointers
//! instead of a model, and one that is discarded unread (a stale round, an
//! incomplete secure-aggregation round) is never trained on the simulation
//! thread. Helper threads may train it ahead of its reader (the private
//! `ahead` module); the reader then takes the same bits. `samples` and
//! the wire size are fixed when the update is made, so what the network is
//! charged does not depend on when or where training runs (see DESIGN.md
//! § "Simulator performance").

use std::borrow::Cow;
use std::sync::Arc;

use rand::rngs::StdRng;
use totoro_ml::{Compression, Dataset, Mlp, ModelUpdate, Privacy};
use totoro_pubsub::TreeData;
use totoro_simnet::{NodeIdx, Payload, Shared};

use crate::ahead::{Deferred, Trainer};
use crate::config::FlAppConfig;

/// Model or update data flowing through an application's tree.
#[derive(Clone, Debug)]
pub struct FlData {
    /// Global weights (downward) or `Σ weights_i · n_i` (upward).
    values: Values,
    /// Samples behind `values` (0 marks a downward model).
    pub samples: u64,
    /// Serialized wire size in bytes.
    wire: usize,
}

/// The values of an [`FlData`]: held, or still to be trained or taken
/// from a helper.
#[derive(Clone, Debug)]
enum Values {
    Dense(Vec<f32>),
    Deferred(Deferred),
}

/// Everything one worker's update is trained from.
#[derive(Debug)]
pub(crate) struct Recipe {
    pub(crate) config: Arc<FlAppConfig>,
    pub(crate) shard: Arc<Dataset>,
    /// The global model the worker received.
    pub(crate) global: Shared<FlData>,
    /// The worker (secure aggregation masks by address).
    pub(crate) addr: NodeIdx,
    pub(crate) round: u64,
}

impl Recipe {
    /// The worker's update and its last epoch's mean loss: local training,
    /// flattening, the privacy mechanism (only when handed the node's RNG,
    /// so a deferred recipe must not need one), scaling by the sample
    /// count, then secure aggregation's pairwise masks.
    pub(crate) fn train(&self, rng: Option<&mut StdRng>) -> (ModelUpdate, f32) {
        let config = &self.config;
        let (model, mean_loss) = train_locally(config, &self.shard, self.global.values());
        let mut weights = model.to_weights();
        if let Some(rng) = rng {
            totoro_ml::apply_privacy(config.privacy, &mut weights, rng);
        }
        let mut update = ModelUpdate::from_client_owned(weights, self.shard.len() as u64);
        if config.privacy == Privacy::SecureAggregation {
            totoro_ml::apply_pairwise_masks(
                &mut update.weighted,
                self.addr,
                &config.participant_list,
                config.seed ^ config.salt,
                self.round,
            );
        }
        (update, mean_loss)
    }
}

/// Runs `config.local_epochs` of training on `shard`, starting from (and,
/// under FedProx, anchored to) the global weights `global`; returns the
/// trained model and its last epoch's mean loss. Draws no random numbers,
/// so the same arguments give the same model to the bit — which is what
/// lets a node keep `global` instead of the result, and an update travel
/// as its [`Recipe`].
pub(crate) fn train_locally(config: &FlAppConfig, shard: &Dataset, global: &[f32]) -> (Mlp, f32) {
    let mut model = Mlp::with_weights(&config.model_dims, global);
    let mu = config.aggregation.mu();
    let prox = (mu > 0.0).then_some((mu, global));
    let mut mean_loss = 0.0;
    for _ in 0..config.local_epochs {
        mean_loss = model.train_epoch(&shard.xs, &shard.ys, config.batch_size, config.lr, prox);
    }
    (model, mean_loss)
}

impl FlData {
    /// A downward model broadcast.
    pub fn model(weights: Vec<f32>) -> Self {
        let wire = weights.len() * 4;
        FlData {
            values: Values::Dense(weights),
            samples: 0,
            wire,
        }
    }

    /// A worker's upward contribution, sized per its compression scheme.
    pub fn update(u: ModelUpdate, compression: Compression) -> Self {
        let wire = compression.wire_bytes(u.weighted.len());
        FlData {
            values: Values::Dense(u.weighted),
            samples: u.samples,
            wire,
        }
    }

    /// A worker's upward contribution as its recipe, trained ahead by a
    /// helper thread or where it is first read; sized exactly as
    /// [`FlData::update`] sizes the trained update.
    pub(crate) fn deferred(recipe: Recipe) -> Self {
        let wire = recipe
            .config
            .compression
            .wire_bytes(recipe.config.model_params());
        FlData {
            samples: (recipe.shard.len() as u64).max(1),
            values: Values::Deferred(Trainer::global().defer(recipe)),
            wire,
        }
    }

    /// Whether this is a downward model (no samples behind it).
    pub fn is_model(&self) -> bool {
        self.samples == 0
    }

    /// The values of a dense payload — every downward model is one.
    ///
    /// # Panics
    ///
    /// On an update still travelling as its recipe; read those through
    /// [`TreeData::combine`] or [`FlData::into_update`].
    pub fn values(&self) -> &[f32] {
        match &self.values {
            Values::Dense(v) => v,
            Values::Deferred(_) => panic!("a deferred update has no values until it is read"),
        }
    }

    /// The values, taking a deferred update's into a temporary.
    fn read(&self) -> Cow<'_, [f32]> {
        match &self.values {
            Values::Dense(v) => Cow::Borrowed(v),
            Values::Deferred(deferred) => Cow::Owned(deferred.take()),
        }
    }

    /// The values, owned; a deferred update's are trained or taken from a
    /// helper.
    fn into_values(self) -> Vec<f32> {
        match self.values {
            Values::Dense(v) => v,
            Values::Deferred(deferred) => deferred.take(),
        }
    }

    /// Converts an upward payload back into a [`ModelUpdate`], training it
    /// first if it travelled as its recipe.
    pub fn into_update(self) -> ModelUpdate {
        let samples = self.samples;
        ModelUpdate {
            weighted: self.into_values(),
            samples,
        }
    }
}

impl Payload for FlData {
    fn size_bytes(&self) -> usize {
        self.wire + 16
    }

    fn layer(&self) -> &'static str {
        "fl"
    }

    fn kind(&self) -> &'static str {
        if self.is_model() {
            "model"
        } else {
            "update"
        }
    }
}

impl TreeData for FlData {
    /// Takes the values of whichever operand is still a recipe: a leaf's
    /// update is trained, or its helper's result taken, at the moment its
    /// parent folds it in.
    fn combine(&mut self, other: &Self) {
        if matches!(&self.values, Values::Dense(v) if v.is_empty()) {
            *self = other.clone();
            return;
        }
        if let Values::Deferred(deferred) = &self.values {
            self.values = Values::Dense(deferred.take());
        }
        let Values::Dense(values) = &mut self.values else {
            unreachable!("trained above");
        };
        let theirs = other.read();
        debug_assert_eq!(values.len(), theirs.len());
        for (a, b) in values.iter_mut().zip(theirs.iter()) {
            *a += b;
        }
        self.samples += other.samples;
        // A combined partial is dense regardless of leaf compression.
        self.wire = values.len() * 4;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn model_and_update_roles() {
        let m = FlData::model(vec![1.0, 2.0]);
        assert!(m.is_model());
        let u = FlData::update(ModelUpdate::from_client(&[1.0, 2.0], 5), Compression::None);
        assert!(!u.is_model());
        assert_eq!(u.into_update().samples, 5);
    }

    #[test]
    fn compression_shrinks_leaf_wire_size_only() {
        let w = vec![0.5; 1000];
        let dense = FlData::update(ModelUpdate::from_client(&w, 3), Compression::None);
        let mut sparse =
            FlData::update(ModelUpdate::from_client(&w, 3), Compression::TopK { k: 50 });
        assert!(sparse.size_bytes() < dense.size_bytes() / 2);
        // After combining, the partial is dense again.
        sparse.combine(&dense);
        assert_eq!(sparse.size_bytes(), 1000 * 4 + 16);
    }

    #[test]
    fn combine_matches_model_update_merge() {
        let a = ModelUpdate::from_client(&[1.0, -2.0], 4);
        let b = ModelUpdate::from_client(&[0.5, 3.0], 6);
        let mut fa = FlData::update(a.clone(), Compression::None);
        fa.combine(&FlData::update(b.clone(), Compression::None));
        let mut m = a;
        m.merge(&b);
        assert_eq!(fa.samples, m.samples);
        for (x, y) in fa.values().iter().zip(&m.weighted) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn combine_into_empty_adopts_other() {
        let mut empty = FlData::model(Vec::new());
        let u = FlData::update(ModelUpdate::from_client(&[2.0], 2), Compression::None);
        empty.combine(&u);
        assert_eq!(empty.samples, 2);
        assert_eq!(empty.values().len(), 1);
    }

    /// A tiny recipe (dims `[6, 5, 3]`, 25 samples) whose shard and
    /// global model depend on `addr`.
    pub(crate) fn recipe(addr: NodeIdx, privacy: Privacy, compression: Compression) -> Recipe {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(addr as u64);
        let dims = vec![6, 5, 3];
        let mut config = FlAppConfig::new("recipe", dims.clone(), Arc::new(Dataset::default()));
        config.privacy = privacy;
        config.compression = compression;
        config.participant_list = vec![1, 2];
        let global = Mlp::new(&dims, &mut rng).to_weights();
        let shard = Dataset {
            xs: (0..25)
                .map(|i| {
                    (0..6)
                        .map(|j| ((i * 7 + j * 3 + addr) % 11) as f32 / 11.0)
                        .collect()
                })
                .collect(),
            ys: (0..25).map(|i| (i + addr) % 3).collect(),
            classes: 3,
        };
        Recipe {
            config: Arc::new(config),
            shard: Arc::new(shard),
            global: Shared::new(FlData::model(global)),
            addr,
            round: 4,
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_recipe_gives_the_same_bits_deferred_as_eager() {
        for (privacy, compression) in [
            (Privacy::None, Compression::None),
            (Privacy::None, Compression::TopK { k: 7 }),
            (Privacy::SecureAggregation, Compression::None),
        ] {
            let eager = |addr| {
                let r = recipe(addr, privacy, compression);
                FlData::update(r.train(None).0, compression)
            };
            let deferred = |addr| FlData::deferred(recipe(addr, privacy, compression));
            // Size and sample count are fixed before training runs.
            assert_eq!(deferred(1).size_bytes(), eager(1).size_bytes());
            assert_eq!(deferred(1).samples, eager(1).samples);
            // Read by the root, folded in by a parent, or doing the folding.
            assert_eq!(
                bits(&deferred(1).into_update().weighted),
                bits(&eager(1).into_update().weighted)
            );
            let mut want = eager(1);
            want.combine(&eager(2));
            for (mut acc, other) in [
                (deferred(1), deferred(2)),
                (deferred(1), eager(2)),
                (eager(1), deferred(2)),
            ] {
                acc.combine(&other);
                assert_eq!(acc.samples, want.samples);
                assert_eq!(acc.size_bytes(), want.size_bytes());
                assert_eq!(bits(acc.values()), bits(want.values()), "{privacy:?}");
            }
        }
    }

    /// `FlData` is stored in counted state: `Membership::memory_bytes`
    /// charges `size_of::<(u64, RoundAgg<D>)>()` per round record. It also
    /// sizes the payload slab's slot (`event_slot_bytes`, 144 B for a
    /// `DhtMsg<TreeMsg<FlData>>`), which only deliveries occupy — a timer
    /// takes an 8-byte word cell — and which `Simulator::state_bytes`
    /// counts by capacity. The recipe must fit the `Vec`'s niche.
    #[test]
    fn fl_data_stays_forty_bytes() {
        assert_eq!(std::mem::size_of::<FlData>(), 40);
        assert_eq!(std::mem::size_of::<Option<FlData>>(), 40);
    }
}
