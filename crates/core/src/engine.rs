//! The Totoro FL engine: the application layer running on every node.
//!
//! Role assignment follows §4.3 step 1d: for each application's tree, the
//! *root* node is the master (coordinator + aggregator + final model
//! owner), *interior* nodes aggregate in-network, and *leaf* subscribers
//! are the workers. Because roles are per-tree, one node simultaneously
//! plays different roles for different applications — the
//! "many masters / many workers" architecture.

use std::sync::Arc;

use totoro_dht::Id;
use totoro_ml::{accuracy, AccuracyPoint, Dataset, Mlp, Privacy};
use totoro_pubsub::{ForestApi, ForestApp};
use totoro_simnet::{ComputeKind, NodeIdx, Shared, SimDuration, SimTime};

use crate::config::{FlAppConfig, RoundPolicy, SelectionPolicy};
use crate::update::{train_locally, FlData, Recipe};

/// The fixed part of a node's charge in [`FlEngine::memory_bytes`] (Figure
/// 13b): the engine's own bookkeeping — registry, lookup tables, counters.
/// A constant, not `size_of::<FlEngine>()`, so that what a simulated
/// device is charged for does not follow this struct's host layout. 304 B
/// was `size_of::<FlEngine>()` on a 64-bit host while the per-app state
/// was six parallel tables, four of them hash maps.
const ENGINE_RECORD_BYTES: usize = 304;

/// The master-side state of one application (lives at the tree root).
#[derive(Debug)]
pub struct MasterState {
    /// Application index in the registry.
    pub app: usize,
    /// The global model.
    pub model: Mlp,
    /// Current round (0 = not yet started).
    pub round: u64,
    /// Time-to-accuracy curve.
    pub curve: Vec<AccuracyPoint>,
    /// When this node became the master.
    pub started_at: SimTime,
    /// Whether the target accuracy (or round cap) was reached.
    pub done: bool,
}

/// Engine counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Models received as a worker.
    pub models_received: u64,
    /// Updates this node contributed as a worker.
    pub updates_contributed: u64,
    /// Rounds this node started as a master.
    pub rounds_started: u64,
    /// Aggregations completed at this node as a master.
    pub rounds_completed: u64,
}

/// What one node holds for one registered application.
struct AppSlot {
    config: Arc<FlAppConfig>,
    /// `config.app_id()`, which hashes the name, kept so that finding the
    /// app of an arriving message is a compare per app.
    topic: Id,
    /// This node's training shard, if it participates (shared with the
    /// updates in flight that are still to be trained from it).
    shard: Option<Arc<Dataset>>,
    /// A handle to the global model this node last trained from. The model
    /// it trained is not kept: training is a pure function of this handle,
    /// the shard and the config, so master takeover re-derives it
    /// (`on_became_root`).
    trained_from: Option<Shared<FlData>>,
    /// Most recent local mean training loss (feeds LossAdaptive selection,
    /// which is why that policy trains each update when its model arrives).
    last_loss: Option<f32>,
    /// Master state, present only where this node is or was the root.
    master: Option<MasterState>,
}

/// The per-node FL engine (implements the forest's application trait).
pub struct FlEngine {
    addr: NodeIdx,
    /// One slot per registered application, indexed by app (same order on
    /// every node).
    apps: Vec<AppSlot>,
    /// Counters.
    pub stats: EngineStats,
}

impl FlEngine {
    /// Creates the engine for the node at `addr`.
    pub fn new(addr: NodeIdx) -> Self {
        FlEngine {
            addr,
            apps: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Registers an application spec; every node registers the same specs
    /// in the same order (the app catalog is global metadata).
    pub fn register_app(&mut self, config: Arc<FlAppConfig>) -> usize {
        self.apps.push(AppSlot {
            topic: config.app_id(),
            config,
            shard: None,
            trained_from: None,
            last_loss: None,
            master: None,
        });
        self.apps.len() - 1
    }

    /// Installs this node's training shard for the registered application
    /// `app`.
    pub fn install_shard(&mut self, app: usize, shard: Dataset) {
        self.apps[app].shard = Some(Arc::new(shard));
    }

    /// The registered config of `app`.
    pub fn config(&self, app: usize) -> &Arc<FlAppConfig> {
        &self.apps[app].config
    }

    /// Number of registered applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// The application index owning `topic`, if registered (the latest,
    /// should two registrations share a topic). A scan: a node holds a few
    /// dozen apps at most.
    pub fn app_of_topic(&self, topic: Id) -> Option<usize> {
        self.apps.iter().rposition(|slot| slot.topic == topic)
    }

    /// The global model this node last trained `app` from, if it ever
    /// trained it.
    pub fn trained_from(&self, app: usize) -> Option<&Shared<FlData>> {
        self.apps.get(app)?.trained_from.as_ref()
    }

    /// `app`'s master state, if this node is or was its root.
    pub fn master(&self, app: usize) -> Option<&MasterState> {
        self.apps.get(app)?.master.as_ref()
    }

    fn fresh_model(config: &FlAppConfig) -> Mlp {
        let mut rng = rand::SeedableRng::seed_from_u64(config.seed);
        Mlp::new(&config.model_dims, &mut rng)
    }

    fn start_round(&mut self, api: &mut ForestApi<'_, '_, '_, FlData>, app: usize) {
        let config = Arc::clone(&self.apps[app].config);
        let topic = self.apps[app].topic;
        if api.children_count(topic) == 0 {
            // The tree has not assembled yet (or lost all children):
            // retry later without consuming a round.
            if self.master(app).is_some_and(|m| !m.done) {
                api.set_app_timer(config.round_pause, app as u64 * 2);
            }
            return;
        }
        let (round, model) = {
            let Some(master) = self.apps[app].master.as_mut() else {
                return;
            };
            if master.done {
                return;
            }
            master.round += 1;
            self.stats.rounds_started += 1;
            let model = Shared::new(FlData::model(master.model.to_weights()));
            (master.round, model)
        };
        // A master that also subscribed as a worker trains like any other
        // participant ("any combination of roles", §4.3) — required for
        // secure aggregation's roster to be complete. It trains from the
        // handle it broadcasts.
        let local = self.train_update(api, app, round, &model);
        // Serialization cost (§6's binary-array mechanism).
        api.charge_compute(
            ComputeKind::FlTask,
            SimDuration::from_micros((model.values().len() as u64 / 100).saturating_add(5)),
        );
        api.broadcast_expecting_local(topic, round, model, local.is_some());
        if let Some((update, delay)) = local {
            api.contribute(topic, round, update, delay);
        }
        // Watchdog: if the whole aggregation wave is lost, move on.
        api.set_app_timer(config.round_timeout, app as u64 * 2 + 1);
    }

    /// Trains `app` on this node's shard from the global model `global`
    /// and produces its (privacy-processed, compressed) contribution plus
    /// the simulated training time; `None` when the node has no shard or
    /// was not selected this round.
    ///
    /// The contribution is trained here only when this instant needs the
    /// result: Gaussian DP draws its noise from the node's RNG stream at
    /// this event, and loss-adaptive selection reads the loss at the next
    /// round. Otherwise it leaves as its [`Recipe`], to be trained where it
    /// is first read; the training time is charged here either way.
    fn train_update(
        &mut self,
        api: &mut ForestApi<'_, '_, '_, FlData>,
        app: usize,
        round: u64,
        global: &Shared<FlData>,
    ) -> Option<(FlData, SimDuration)> {
        let slot = &mut self.apps[app];
        let config = Arc::clone(&slot.config);
        let shard = slot.shard.as_ref()?;
        let shard_len = shard.len();
        if shard_len == 0 {
            return None;
        }
        if !config.selection.participates(
            config.seed ^ config.salt,
            round,
            self.addr,
            slot.last_loss,
        ) {
            return None;
        }
        let recipe = Recipe {
            config: Arc::clone(&config),
            shard: Arc::clone(shard),
            global: global.clone(),
            addr: self.addr,
            round,
        };
        slot.trained_from = Some(global.clone());
        let eager = matches!(config.privacy, Privacy::GaussianDp { .. })
            || matches!(config.selection, SelectionPolicy::LossAdaptive { .. });
        let update = if eager {
            let (update, mean_loss) = recipe.train(Some(api.rng()));
            slot.last_loss = Some(mean_loss);
            FlData::update(update, config.compression)
        } else {
            FlData::deferred(recipe)
        };

        // Charge the training time on the simulated clock.
        let flops = config.flops_per_sample() * (shard_len * config.local_epochs) as u64;
        let me = api.addr();
        let train_time = api.topology().profile(me).compute_time(flops);
        api.charge_compute(ComputeKind::FlTask, train_time);
        self.stats.updates_contributed += 1;
        Some((update, train_time))
    }
}

impl ForestApp for FlEngine {
    type Data = FlData;

    fn on_model(
        &mut self,
        api: &mut ForestApi<'_, '_, '_, FlData>,
        topic: Id,
        round: u64,
        data: &Shared<FlData>,
    ) -> Option<(FlData, SimDuration)> {
        let app = self.app_of_topic(topic)?;
        self.stats.models_received += 1;
        self.train_update(api, app, round, data)
    }

    fn on_aggregated(
        &mut self,
        api: &mut ForestApi<'_, '_, '_, FlData>,
        topic: Id,
        round: u64,
        data: FlData,
        count: u64,
    ) {
        let Some(app) = self.app_of_topic(topic) else {
            return;
        };
        let config = Arc::clone(&self.apps[app].config);
        // Evaluation cost at the master.
        let eval_flops = (config.test_set.len() as u64) * 2 * (config.model_params() as u64);
        let me = api.addr();
        let eval_time = api.topology().profile(me).compute_time(eval_flops);
        let Some(master) = self.apps[app].master.as_mut() else {
            return; // Aggregate arrived after a master migration.
        };
        if master.done || round != master.round {
            return; // Stale round (straggler flush from an earlier wave).
        }
        if master.curve.last().is_some_and(|p| p.round >= round) {
            // The round already completed (e.g. a quorum cutoff); late
            // straggler contributions are dropped, as in semi-synchronous
            // FL. (FedAT-style staleness-weighted merging is future work.)
            return;
        }
        let update = data.into_update();
        // Secure aggregation: masks only cancel when the whole roster
        // contributed; an incomplete round would apply masked noise to the
        // model, so it is discarded instead.
        let secure_and_incomplete = config.privacy == totoro_ml::Privacy::SecureAggregation
            && (count as usize) < config.expected_participants;
        if !secure_and_incomplete {
            if let Some(avg) = update.finalize() {
                master.model.from_weights(&avg);
            }
        }
        api.charge_compute(ComputeKind::FlTask, eval_time);
        let acc = accuracy(&master.model, &config.test_set);
        let at = api.now() + eval_time;
        master.curve.push(AccuracyPoint {
            time_secs: at.as_secs_f64(),
            round,
            accuracy: acc,
        });
        self.stats.rounds_completed += 1;
        if acc >= config.target_accuracy || round >= config.max_rounds {
            master.done = true;
        } else {
            api.set_app_timer(config.round_pause, app as u64 * 2);
        }
    }

    fn on_partial(
        &mut self,
        api: &mut ForestApi<'_, '_, '_, FlData>,
        topic: Id,
        round: u64,
        count: u64,
    ) {
        // Semi-synchronous quorum: the master cuts the round as soon as
        // enough leaf contributions are in.
        let Some(app) = self.app_of_topic(topic) else {
            return;
        };
        let config = &self.apps[app].config;
        if let RoundPolicy::SemiSynchronous { quorum } = config.round_policy {
            let is_master = self
                .master(app)
                .is_some_and(|m| !m.done && m.round == round);
            if is_master {
                let expected = config.expected_participants.max(1) as f64;
                if count as f64 >= quorum * expected {
                    api.request_flush(topic, round);
                }
            }
        }
    }

    fn on_became_root(&mut self, api: &mut ForestApi<'_, '_, '_, FlData>, topic: Id) {
        let Some(app) = self.app_of_topic(topic) else {
            return; // A tree whose app we do not know (not an FL topic).
        };
        let slot = &mut self.apps[app];
        if slot.master.is_some() {
            return;
        }
        // Master takeover warm-starts from the model this node last
        // trained, when it trained the app before; otherwise from the seed
        // init. That model was not kept: re-running the training from the
        // retained global model rebuilds it bit for bit.
        let model = match &slot.trained_from {
            Some(global) => {
                let shard = slot
                    .shard
                    .as_ref()
                    .expect("a node trains only on its shard");
                train_locally(&slot.config, shard, global.values()).0
            }
            None => Self::fresh_model(&slot.config),
        };
        slot.master = Some(MasterState {
            app,
            model,
            round: 0,
            curve: Vec::new(),
            started_at: api.now(),
            done: false,
        });
        // Give the tree time to assemble before round 1.
        api.set_app_timer(slot.config.round_pause, app as u64 * 2);
    }

    fn on_timer(&mut self, api: &mut ForestApi<'_, '_, '_, FlData>, token: u64) {
        let app = (token / 2) as usize;
        if app >= self.apps.len() {
            return;
        }
        if token.is_multiple_of(2) {
            // Scheduled next round.
            self.start_round(api, app);
        } else {
            // Watchdog: only fire when the current round never completed.
            let stalled = self.master(app).is_some_and(|m| {
                !m.done && m.round > 0 && m.curve.last().map_or(0, |p| p.round) < m.round
            });
            if stalled {
                self.start_round(api, app);
            }
        }
    }

    /// What the simulated device holds: one model per app it trained (a
    /// device keeps what it trained, whether or not this process does),
    /// each master's global model, the shards and the fixed
    /// [`ENGINE_RECORD_BYTES`].
    fn memory_bytes(&self) -> usize {
        let per_app: usize = self
            .apps
            .iter()
            .map(|slot| {
                let trained = slot
                    .trained_from
                    .as_ref()
                    .map_or(0, |_| slot.config.model_params() * 4);
                let master = slot.master.as_ref().map_or(0, |m| m.model.num_params() * 4);
                let shard = slot
                    .shard
                    .as_ref()
                    .map_or(0, |s| s.len() * (s.dim() + 1) * 4);
                trained + master + shard
            })
            .sum();
        per_app + ENGINE_RECORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_maps_topics() {
        let mut e = FlEngine::new(3);
        let cfg = Arc::new(FlAppConfig::new(
            "alpha",
            vec![4, 8, 2],
            Arc::new(Dataset::default()),
        ));
        let app = e.register_app(Arc::clone(&cfg));
        assert_eq!(app, 0);
        assert_eq!(e.app_of_topic(cfg.app_id()), Some(0));
        assert_eq!(e.app_of_topic(Id::new(1)), None);
        assert_eq!(e.num_apps(), 1);
    }

    #[test]
    fn shard_installation() {
        let mut e = FlEngine::new(0);
        let cfg = Arc::new(FlAppConfig::new(
            "beta",
            vec![4, 8, 2],
            Arc::new(Dataset::default()),
        ));
        e.register_app(cfg);
        e.install_shard(
            0,
            Dataset {
                xs: vec![vec![0.0; 4]; 3],
                ys: vec![0, 1, 0],
                classes: 2,
            },
        );
        assert!(e.memory_bytes() > 0);
    }

    #[test]
    fn an_idle_engine_is_charged_its_fixed_record() {
        let mut e = FlEngine::new(1);
        assert_eq!(e.memory_bytes(), ENGINE_RECORD_BYTES);
        let cfg = Arc::new(FlAppConfig::new(
            "gamma",
            vec![4, 8, 2],
            Arc::new(Dataset::default()),
        ));
        e.register_app(cfg);
        // Registered but never trained: no model is charged.
        assert_eq!(e.memory_bytes(), ENGINE_RECORD_BYTES);
        assert!(e.trained_from(0).is_none());
    }
}
