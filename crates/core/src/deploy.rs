//! High-level deployment driver: the entry point downstream users touch.
//!
//! A [`TotoroDeployment`] owns a simulated edge network whose nodes run the
//! full Totoro stack (DHT multi-ring → pub/sub forest → FL engine). Its
//! methods mirror the paper's Table 2 API: nodes `Join` at construction,
//! `submit_app` performs `CreateTree` + per-participant `Subscribe`, and
//! the engine drives `Broadcast` / `Aggregate` with the `onBroadcast` /
//! `onAggregate` / `onTimer` callbacks implemented by
//! [`crate::engine::FlEngine`].

use std::sync::Arc;

use totoro_dht::{spawn_overlay, DhtConfig, Id};
use totoro_ml::{AccuracyPoint, Dataset};
use totoro_pubsub::{Forest, ForestConfig, ForestNode};
use totoro_simnet::{NodeIdx, SimDuration, SimTime, Simulator, Topology};

use crate::config::FlAppConfig;
use crate::engine::FlEngine;

/// The full-stack node type of a deployment.
pub type TotoroNode = ForestNode<FlEngine>;

/// A running Totoro deployment.
pub struct TotoroDeployment {
    sim: Simulator<TotoroNode>,
    ids: Vec<Id>,
    configs: Vec<Arc<FlAppConfig>>,
}

impl TotoroDeployment {
    /// Boots `topology.len()` nodes into a converged overlay (`Join`).
    pub fn new(
        topology: Topology,
        seed: u64,
        dht_config: DhtConfig,
        forest_config: ForestConfig,
    ) -> Self {
        let (sim, ids) = spawn_overlay(topology, seed, dht_config, None, |i| {
            Forest::new(FlEngine::new(i), forest_config)
        });
        TotoroDeployment {
            sim,
            ids,
            configs: Vec::new(),
        }
    }

    /// Like [`TotoroDeployment::new`] with explicit node ids (multi-ring
    /// deployments compose ids from zone assignments via
    /// [`totoro_dht::ids_for_zones`]).
    pub fn with_ids(
        topology: Topology,
        seed: u64,
        dht_config: DhtConfig,
        forest_config: ForestConfig,
        ids: Vec<Id>,
    ) -> Self {
        let (sim, ids) = spawn_overlay(topology, seed, dht_config, Some(ids), |i| {
            Forest::new(FlEngine::new(i), forest_config)
        });
        TotoroDeployment {
            sim,
            ids,
            configs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// Whether the deployment has no nodes.
    pub fn is_empty(&self) -> bool {
        self.sim.len() == 0
    }

    /// Node ids by address.
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// Submits an application (`CreateTree` + `Subscribe` for every
    /// participant, with one shard per participant). Returns the app index.
    pub fn submit_app(
        &mut self,
        mut config: FlAppConfig,
        participants: &[NodeIdx],
        shards: Vec<Dataset>,
    ) -> usize {
        assert_eq!(participants.len(), shards.len());
        config.expected_participants = participants.len();
        config.participant_list = participants.to_vec();
        if config.privacy == totoro_ml::Privacy::SecureAggregation {
            // Pairwise masks only cancel under full synchronous
            // participation and additive (uncompressed) aggregation.
            assert_eq!(
                config.selection,
                crate::SelectionPolicy::All,
                "secure aggregation requires SelectionPolicy::All"
            );
            assert_eq!(
                config.compression,
                totoro_ml::Compression::None,
                "secure aggregation requires Compression::None"
            );
        }
        let config = Arc::new(config);
        let topic = config.app_id();
        // The app catalog is global metadata: every node learns the spec so
        // that any of them can serve as the app's master or aggregator — a
        // node that is down now included, or it would number later apps
        // differently from everyone else. Registering draws no random
        // numbers and sends nothing.
        for node in 0..self.sim.len() {
            let cfg = Arc::clone(&config);
            self.sim.app_mut(node).upper.app.register_app(cfg);
        }
        let app = self.configs.len();
        self.configs.push(Arc::clone(&config));
        for (&p, shard) in participants.iter().zip(shards) {
            self.sim.with_app(p, |n, ctx| {
                n.upper.app.install_shard(app, shard);
                n.with_api(ctx, |forest, dht| {
                    forest.with_forest_api(dht, |_fl, api| api.subscribe(topic));
                });
            });
        }
        app
    }

    /// Runs until all submitted apps reach their target (or round cap), or
    /// until `deadline`. Returns `true` when all apps finished.
    ///
    /// Executes in bounded simulated-time slices: overlay maintenance keeps
    /// the event queue non-empty forever, so completion must be polled
    /// between slices rather than waiting for the queue to drain.
    pub fn run(&mut self, deadline: SimTime) -> bool {
        const SLICE: SimDuration = SimDuration::from_secs(5);
        loop {
            let all_done =
                !self.configs.is_empty() && (0..self.configs.len()).all(|a| self.app_done(a));
            if all_done {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            let next = (self.sim.now() + SLICE).min(deadline);
            if self.sim.run_until(next) == 0 && self.sim.run_until(deadline) == 0 {
                // Queue fully drained (no maintenance configured).
                return (0..self.configs.len()).all(|a| self.app_done(a));
            }
        }
    }

    /// Whether app `a` finished at some master.
    pub fn app_done(&self, app: usize) -> bool {
        self.sim
            .apps()
            .any(|n| n.upper.app.master(app).is_some_and(|m| m.done))
    }

    /// The current master (root) of app `app`, if any. Only live nodes
    /// qualify — a crashed ex-master still holds `is_root` state but no
    /// longer serves the application.
    pub fn master_of(&self, app: usize) -> Option<NodeIdx> {
        let topic = self.configs.get(app)?.app_id();
        (0..self.sim.len()).find(|&i| {
            self.sim.alive(i)
                && self
                    .sim
                    .app(i)
                    .upper
                    .state
                    .membership(topic)
                    .is_some_and(|m| m.is_root)
        })
    }

    /// The time-to-accuracy curve recorded by app `app`'s master(s),
    /// concatenated in time order across master migrations.
    pub fn curve(&self, app: usize) -> Vec<AccuracyPoint> {
        let mut points: Vec<AccuracyPoint> = self
            .sim
            .apps()
            .filter_map(|n| n.upper.app.master(app))
            .flat_map(|m| m.curve.iter().copied())
            .collect();
        points.sort_by(|a, b| a.time_secs.total_cmp(&b.time_secs));
        points
    }

    /// Seconds of simulated time until app `app` first reached its target.
    pub fn time_to_target(&self, app: usize) -> Option<f64> {
        let target = self.configs.get(app)?.target_accuracy;
        totoro_ml::time_to_accuracy(&self.curve(app), target)
    }

    /// The registered config of app `app`.
    pub fn config(&self, app: usize) -> &Arc<FlAppConfig> {
        &self.configs[app]
    }

    /// Number of submitted applications.
    pub fn num_apps(&self) -> usize {
        self.configs.len()
    }

    /// Read access to the simulator (traffic/compute ledgers, node state).
    pub fn sim(&self) -> &Simulator<TotoroNode> {
        &self.sim
    }

    /// Mutable access to the simulator (churn injection, manual driving).
    pub fn sim_mut(&mut self) -> &mut Simulator<TotoroNode> {
        &mut self.sim
    }
}
