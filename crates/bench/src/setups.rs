//! Shared experiment builders: topologies, forest deployments, FL app
//! generation — the common scaffolding behind the figure binaries.

use std::sync::Arc;

use totoro::{FlAppConfig, TotoroDeployment};
use totoro_baselines::AppSpec;
use totoro_dht::{app_id, spawn_overlay_with_sink, DhtConfig, Id};
use totoro_ml::{femnist_like, speech_commands_like, TaskGenerator, TaskSpec};
use totoro_pubsub::{Forest, ForestApi, ForestApp, ForestConfig, ForestNode, TreeData};
use totoro_simnet::geo::{eua_regions_scaled, generate};
use totoro_simnet::{
    sub_rng, LatencyModel, NodeIdx, NoopSink, Payload, Shared, SimDuration, SimTime, Simulator,
    Topology, TraceSink,
};

/// Continental-scale geographic latency model used across experiments.
pub fn edge_latency() -> LatencyModel {
    LatencyModel::Geo {
        base_us: 500,
        per_km_us: 5.0,
    }
}

/// An EUA-shaped topology with roughly `n` nodes.
pub fn eua_topology(n: usize, seed: u64) -> Topology {
    let mut rng = sub_rng(seed, "eua-topology");
    let nodes = generate(&eua_regions_scaled(n), &mut rng);
    Topology::from_placements(&nodes, edge_latency())
}

/// An EUA topology of exactly `n` nodes. [`eua_topology`]'s generator keeps
/// at least one node in every region, so a small `n` comes out larger
/// (40 gives 44); this draws the same placements and keeps the first `n`.
pub(crate) fn eua_topology_exact(n: usize, seed: u64) -> Topology {
    let mut rng = sub_rng(seed, "eua-topology");
    let nodes = generate(&eua_regions_scaled(n), &mut rng);
    Topology::from_placements(&nodes[..n.min(nodes.len())], edge_latency())
}

/// The "speech" (mid-scale), "femnist" (large-scale) or "text" task by name.
pub fn task_by_name(name: &str) -> TaskSpec {
    match name {
        "speech" => speech_commands_like(),
        "femnist" => femnist_like(),
        "text" => totoro_ml::text_classification_like(),
        other => panic!("unknown dataset {other} (use speech|femnist|text)"),
    }
}

/// Paper-matching accuracy target per task (Table 3).
pub fn target_for(task: &TaskSpec) -> f64 {
    match task.name {
        "speech" => 0.53,
        "femnist" => 0.755,
        "text" => 0.9,
        _ => 0.8,
    }
}

/// Builds one FL application config over `generator` with paper-style
/// hyperparameters (minibatch 20; §7.1).
pub fn fl_app_config(
    name: &str,
    salt: u64,
    generator: &TaskGenerator,
    hidden: usize,
    seed: u64,
) -> FlAppConfig {
    let mut rng = sub_rng(seed, "test-set");
    let mut cfg = FlAppConfig::new(
        name,
        vec![generator.spec.dim, hidden, generator.spec.classes],
        Arc::new(generator.test_set(300, &mut rng)),
    );
    cfg.salt = salt;
    cfg.batch_size = 20;
    cfg.lr = 0.1;
    cfg.target_accuracy = target_for(&generator.spec);
    cfg.max_rounds = 60;
    cfg.round_pause = totoro_simnet::SimDuration::from_secs(1);
    cfg.seed = seed;
    cfg
}

/// Mirrors a [`FlAppConfig`] into the centralized engines' [`AppSpec`].
pub fn to_central_spec(cfg: &FlAppConfig) -> AppSpec {
    AppSpec {
        name: cfg.name.clone(),
        model_dims: cfg.model_dims.clone(),
        aggregation: cfg.aggregation,
        local_epochs: cfg.local_epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        target_accuracy: cfg.target_accuracy,
        max_rounds: cfg.max_rounds,
        test_set: Arc::clone(&cfg.test_set),
        seed: cfg.seed,
    }
}

/// Builds a Totoro deployment and submits `num_apps` identical-task apps,
/// each trained by all `n` nodes. Returns the deployment.
pub fn totoro_with_apps(
    topology: Topology,
    seed: u64,
    fanout: usize,
    num_apps: usize,
    generator: &TaskGenerator,
    samples_per_client: usize,
    max_rounds: u64,
) -> TotoroDeployment {
    let n = topology.len();
    let mut deploy = TotoroDeployment::new(
        topology,
        seed,
        DhtConfig::with_fanout(fanout),
        ForestConfig {
            fanout_cap: fanout,
            agg_timeout: SimDuration::from_secs(30),
            ..ForestConfig::default()
        },
    );
    let mut rng = sub_rng(seed, "shards");
    let participants: Vec<NodeIdx> = (0..n).collect();
    for a in 0..num_apps {
        let shards = generator.client_shards(n, samples_per_client, 0.5, &mut rng);
        let mut cfg = fl_app_config(
            &format!("{}-app-{a}", generator.spec.name),
            a as u64,
            generator,
            48,
            1_000 + a as u64,
        );
        cfg.max_rounds = max_rounds;
        deploy.submit_app(cfg, &participants, shards);
    }
    deploy
}

// ---------------------------------------------------------------------------
// A minimal forest app for pure overlay experiments (no ML): counts bytes.
// ---------------------------------------------------------------------------

/// Fixed-size blob for dissemination/aggregation measurements.
#[derive(Clone, Debug)]
pub struct Blob {
    /// Payload size in bytes.
    pub bytes: usize,
    /// Contribution counter (for aggregation checks).
    pub count: u64,
}

impl Payload for Blob {
    fn size_bytes(&self) -> usize {
        self.bytes
    }
}

impl TreeData for Blob {
    fn combine(&mut self, other: &Self) {
        self.count += other.count;
        self.bytes = self.bytes.max(other.bytes);
    }
}

/// A pass-through forest app: every subscriber instantly contributes a
/// same-sized blob; the root records completions. Used by Figures 6/7/12.
#[derive(Default)]
pub struct EchoApp {
    /// `(topic, round, count)` completions observed at this node as root.
    pub completed: Vec<(Id, u64, u64)>,
    /// Reply size for contributions (defaults to broadcast size).
    pub reply_bytes: Option<usize>,
    /// Simulated local compute before replying.
    pub compute: SimDuration,
}

impl ForestApp for EchoApp {
    type Data = Blob;

    fn on_model(
        &mut self,
        _api: &mut ForestApi<'_, '_, '_, Blob>,
        _topic: Id,
        _round: u64,
        data: &Shared<Blob>,
    ) -> Option<(Blob, SimDuration)> {
        Some((
            Blob {
                bytes: self.reply_bytes.unwrap_or(data.bytes),
                count: 1,
            },
            self.compute,
        ))
    }

    fn on_aggregated(
        &mut self,
        _api: &mut ForestApi<'_, '_, '_, Blob>,
        topic: Id,
        round: u64,
        _data: Blob,
        count: u64,
    ) {
        self.completed.push((topic, round, count));
    }
}

/// An overlay of `EchoApp` nodes, generic over the installed trace sink
/// (defaulting to the zero-cost [`NoopSink`]).
pub type EchoSim<S = NoopSink> = Simulator<ForestNode<EchoApp>, S>;

/// Spawns an echo overlay over `topology` with tree fanout `fanout`.
pub fn echo_overlay(topology: Topology, seed: u64, fanout: usize) -> EchoSim {
    echo_overlay_sink(topology, seed, fanout, NoopSink)
}

/// [`echo_overlay`] with an explicit trace sink installed.
pub fn echo_overlay_sink<S: TraceSink>(
    topology: Topology,
    seed: u64,
    fanout: usize,
    sink: S,
) -> EchoSim<S> {
    let fconfig = ForestConfig {
        fanout_cap: fanout,
        agg_timeout: SimDuration::from_secs(120),
        ..ForestConfig::default()
    };
    echo_overlay_with_sink(topology, seed, fanout, fconfig, sink)
}

/// [`echo_overlay`] with an explicit forest configuration.
pub fn echo_overlay_with(
    topology: Topology,
    seed: u64,
    fanout: usize,
    fconfig: ForestConfig,
) -> EchoSim {
    echo_overlay_with_sink(topology, seed, fanout, fconfig, NoopSink)
}

/// [`echo_overlay_with`] with an explicit trace sink installed.
pub fn echo_overlay_with_sink<S: TraceSink>(
    topology: Topology,
    seed: u64,
    fanout: usize,
    fconfig: ForestConfig,
    sink: S,
) -> EchoSim<S> {
    let (sim, _ids) = spawn_overlay_with_sink(
        topology,
        seed,
        DhtConfig::with_fanout(fanout),
        None,
        sink,
        |_i| Forest::new(EchoApp::default(), fconfig),
    );
    sim
}

/// Subscribes `members` to `topic` and runs until `settle`.
pub fn build_tree<S: TraceSink>(
    sim: &mut EchoSim<S>,
    topic: Id,
    members: &[NodeIdx],
    settle: SimTime,
) {
    for &m in members {
        sim.with_app(m, |node, ctx| {
            node.with_api(ctx, |forest, dht| {
                forest.with_forest_api(dht, |_app, api| api.subscribe(topic));
            });
        });
    }
    sim.run_until(settle);
}

/// The current root of `topic`, if any.
pub fn root_of<S: TraceSink>(sim: &EchoSim<S>, topic: Id) -> Option<NodeIdx> {
    (0..sim.len()).find(|&i| {
        sim.app(i)
            .upper
            .state
            .membership(topic)
            .is_some_and(|m| m.is_root)
    })
}

/// Broadcasts one blob of `bytes` on `topic` (round `round`) from the root.
pub fn broadcast_from_root<S: TraceSink>(
    sim: &mut EchoSim<S>,
    topic: Id,
    round: u64,
    bytes: usize,
) {
    let root = root_of(sim, topic).expect("tree has a root");
    sim.with_app(root, |node, ctx| {
        node.with_api(ctx, |forest, dht| {
            forest.with_forest_api(dht, |_app, api| {
                api.broadcast(topic, round, Blob { bytes, count: 0 });
            });
        });
    });
}

/// A deterministic topic for experiment `label` / index `k`.
pub fn topic(label: &str, k: u64) -> Id {
    app_id(label, "bench", k)
}
