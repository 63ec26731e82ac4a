//! The centralized "single master / many workers" FL engine (Figure 2).
//!
//! One node is the parameter server hosting the Coordinator, Selector, and
//! per-application Aggregators; all other nodes are clients. Every
//! server-side task — round setup, model serialization, update ingestion,
//! evaluation — flows through a bounded-concurrency work queue, which is
//! what makes the architecture queue-bound when many applications train
//! concurrently (§7.4). Clients do *real* local training on their shards,
//! with the compute charged on the simulated clock.

use std::sync::Arc;

use totoro_ml::{accuracy, AccuracyPoint, Dataset, Mlp, ModelUpdate};
use totoro_simnet::{
    Application, ComputeKind, Ctx, NodeIdx, Payload, Shared, SimDuration, SimTime, Simulator,
    Topology,
};

use crate::spec::{AppSpec, ServerProfile};

pub use totoro_simnet::topology::BASE_EDGE_FLOPS;

/// Server compute rate multiplier relative to an edge device.
pub const SERVER_SPEEDUP: f64 = 10.0;

/// Simulated time to crunch `flops` at `speed × BASE_EDGE_FLOPS`.
pub fn compute_time(flops: u64, speed: f64) -> SimDuration {
    SimDuration::from_secs_f64(flops as f64 / (BASE_EDGE_FLOPS * speed.max(1e-6)))
}

/// Messages of the centralized engine.
#[derive(Clone, Debug)]
pub enum CentralMsg {
    /// Server → client: the round's global model.
    Download {
        /// Application index.
        app: usize,
        /// Round number.
        round: u64,
        /// Global model weights, shared across the round's whole fan-out.
        weights: Shared<Vec<f32>>,
    },
    /// Client → server: the trained update.
    Upload {
        /// Application index.
        app: usize,
        /// Round number.
        round: u64,
        /// The client's contribution.
        update: ModelUpdate,
    },
}

impl Payload for CentralMsg {
    fn size_bytes(&self) -> usize {
        match self {
            CentralMsg::Download { weights, .. } => 32 + weights.len() * 4,
            CentralMsg::Upload { update, .. } => 32 + update.wire_bytes(),
        }
    }

    fn layer(&self) -> &'static str {
        "central"
    }

    fn kind(&self) -> &'static str {
        match self {
            CentralMsg::Download { .. } => "download",
            CentralMsg::Upload { .. } => "upload",
        }
    }
}

/// A bounded-concurrency FIFO work queue (the server's worker pool).
#[derive(Clone, Debug)]
pub struct WorkQueue {
    slots: Vec<SimTime>,
}

impl WorkQueue {
    /// A queue with `concurrency` parallel slots.
    pub fn new(concurrency: usize) -> Self {
        WorkQueue {
            slots: vec![SimTime::ZERO; concurrency.max(1)],
        }
    }

    /// Enqueues a task of `cost` at `now`; returns its completion time.
    pub fn schedule(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let slot = self
            .slots
            .iter_mut()
            .min()
            .expect("queue has at least one slot");
        let start = (*slot).max(now);
        let end = start + cost;
        *slot = end;
        end
    }

    /// Current backlog: how far the most-loaded slot extends past `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.slots
            .iter()
            .map(|&s| s.saturating_since(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// One application's server-side state.
struct AppRun {
    spec: Arc<AppSpec>,
    model: Mlp,
    participants: Vec<NodeIdx>,
    round: u64,
    acc: ModelUpdate,
    received: usize,
    last_proc: SimTime,
    curve: Vec<AccuracyPoint>,
    started_at: SimTime,
    done: bool,
}

/// The parameter-server node.
pub struct Server {
    profile: ServerProfile,
    queue: WorkQueue,
    apps: Vec<AppRun>,
}

/// Timer namespace: dispatch, finalize, and watchdog tokens per app.
const T_DISPATCH: u64 = 0;
const T_FINALIZE: u64 = 1;
const T_WATCHDOG: u64 = 2;

fn token(app: usize, kind: u64) -> u64 {
    (app as u64) * 3 + kind
}

/// A round that has not completed after this long is finalized with the
/// updates that did arrive (server-side straggler cutoff).
const ROUND_WATCHDOG: SimDuration = SimDuration::from_secs(120);

impl Server {
    fn new(profile: ServerProfile) -> Self {
        Server {
            profile,
            queue: WorkQueue::new(profile.concurrency),
            apps: Vec::new(),
        }
    }

    /// Registers an application and queues its first round. Returns the
    /// application index.
    pub fn submit_app(
        &mut self,
        ctx: &mut Ctx<'_, CentralMsg>,
        spec: Arc<AppSpec>,
        participants: Vec<NodeIdx>,
    ) -> usize {
        let mut rng = rand::SeedableRng::seed_from_u64(spec.seed);
        let model = Mlp::new(&spec.model_dims, &mut rng);
        let dim = model.num_params();
        let app = self.apps.len();
        self.apps.push(AppRun {
            spec,
            model,
            participants,
            round: 0,
            acc: ModelUpdate::zero(dim),
            received: 0,
            last_proc: ctx.now(),
            curve: Vec::new(),
            started_at: ctx.now(),
            done: false,
        });
        self.queue_round_dispatch(ctx, app);
        app
    }

    /// Time-to-accuracy curve of application `app`.
    pub fn curve(&self, app: usize) -> &[AccuracyPoint] {
        &self.apps[app].curve
    }

    /// Whether application `app` reached its target (or round cap).
    pub fn is_done(&self, app: usize) -> bool {
        self.apps[app].done
    }

    /// Seconds from submission until the target accuracy was reached.
    pub fn time_to_target(&self, app: usize) -> Option<f64> {
        let run = &self.apps[app];
        totoro_ml::time_to_accuracy(&run.curve, run.spec.target_accuracy)
            .map(|t| t - run.started_at.as_secs_f64())
    }

    fn queue_round_dispatch(&mut self, ctx: &mut Ctx<'_, CentralMsg>, app: usize) {
        let k = self.apps[app].participants.len() as u64;
        let cost = SimDuration::from_micros(
            self.profile
                .round_setup_us
                .saturating_add(k * self.profile.per_download_us),
        );
        ctx.charge_compute(ComputeKind::FlTask, cost);
        let end = self.queue.schedule(ctx.now(), cost);
        ctx.set_timer(end.saturating_since(ctx.now()), token(app, T_DISPATCH));
    }

    fn dispatch_round(&mut self, ctx: &mut Ctx<'_, CentralMsg>, app: usize) {
        let run = &mut self.apps[app];
        run.round += 1;
        // The watchdog token carries the round it guards (high bits).
        ctx.set_timer(ROUND_WATCHDOG, (run.round << 20) | token(app, T_WATCHDOG));
        run.received = 0;
        run.acc = ModelUpdate::zero(run.model.num_params());
        run.last_proc = ctx.now();
        let weights = Shared::new(run.model.to_weights());
        let round = run.round;
        ctx.send_all(
            run.participants.iter().copied(),
            CentralMsg::Download {
                app,
                round,
                weights,
            },
        );
    }

    fn on_upload(
        &mut self,
        ctx: &mut Ctx<'_, CentralMsg>,
        app: usize,
        round: u64,
        update: ModelUpdate,
    ) {
        let cost = SimDuration::from_micros(self.profile.per_update_us);
        ctx.charge_compute(ComputeKind::FlTask, cost);
        let end = self.queue.schedule(ctx.now(), cost);
        let run = &mut self.apps[app];
        if run.done || round != run.round {
            return; // Stale (late) update from an earlier round.
        }
        run.acc.merge(&update);
        run.received += 1;
        run.last_proc = run.last_proc.max(end);
        if run.received == run.participants.len() {
            ctx.set_timer(
                run.last_proc.saturating_since(ctx.now()),
                token(app, T_FINALIZE),
            );
        }
    }

    /// Watchdog: finalize with whatever arrived if the round stalled
    /// (e.g. clients died mid-round).
    fn watchdog(&mut self, ctx: &mut Ctx<'_, CentralMsg>, app: usize, round_at_arm: u64) {
        let run = &self.apps[app];
        if run.done || run.round != round_at_arm {
            return; // The round completed (and possibly others since).
        }
        if run.received < run.participants.len() {
            self.finalize_round(ctx, app);
        }
    }

    fn finalize_round(&mut self, ctx: &mut Ctx<'_, CentralMsg>, app: usize) {
        if self.apps[app].done {
            return;
        }
        // Evaluation also occupies the server queue.
        let (eval_flops, test_len) = {
            let run = &self.apps[app];
            (
                run.model.flops_per_sample() / 6 * 2,
                run.spec.test_set.len() as u64,
            )
        };
        let eval_cost = compute_time(eval_flops * test_len, SERVER_SPEEDUP);
        ctx.charge_compute(ComputeKind::FlTask, eval_cost);
        let end = self.queue.schedule(ctx.now(), eval_cost);

        let run = &mut self.apps[app];
        if let Some(avg) = run.acc.finalize() {
            run.model.from_weights(&avg);
        }
        let acc = accuracy(&run.model, &run.spec.test_set);
        run.curve.push(AccuracyPoint {
            time_secs: end.as_secs_f64(),
            round: run.round,
            accuracy: acc,
        });
        if acc >= run.spec.target_accuracy || run.round >= run.spec.max_rounds {
            run.done = true;
        } else {
            self.queue_round_dispatch(ctx, app);
        }
    }
}

/// What a client holds for one application it participates in.
struct ClientApp {
    spec: Arc<AppSpec>,
    shard: Dataset,
    /// Whether this client has trained the app. The trained model itself is
    /// sent and dropped; `memory_bytes` still charges one, as a device
    /// would hold it.
    trained: bool,
}

/// A client node.
pub struct Client {
    /// Indexed by app id; `None` for the apps this client is not part of.
    apps: Vec<Option<ClientApp>>,
    server: NodeIdx,
}

impl Client {
    fn new(server: NodeIdx) -> Self {
        Client {
            apps: Vec::new(),
            server,
        }
    }

    /// Installs application `app`'s spec and this client's shard of it.
    fn install(&mut self, app: usize, spec: Arc<AppSpec>, shard: Dataset) {
        if self.apps.len() <= app {
            self.apps.resize_with(app + 1, || None);
        }
        self.apps[app] = Some(ClientApp {
            spec,
            shard,
            trained: false,
        });
    }

    fn on_download(
        &mut self,
        ctx: &mut Ctx<'_, CentralMsg>,
        app: usize,
        round: u64,
        weights: &[f32],
    ) {
        // Not installed here: not a participant, or down at submission.
        let Some(Some(ClientApp {
            spec,
            shard,
            trained,
        })) = self.apps.get_mut(app)
        else {
            return;
        };
        let me = ctx.me();
        let mut model = Mlp::with_weights(&spec.model_dims, weights);
        let mu = spec.aggregation.mu();
        let prox = (mu > 0.0).then_some((mu, weights));
        for _ in 0..spec.local_epochs {
            model.train_epoch(&shard.xs, &shard.ys, spec.batch_size, spec.lr, prox);
        }
        *trained = true;
        let flops = model.flops_per_sample() * (shard.len() * spec.local_epochs) as u64;
        let speed = ctx.topology().profile(me).compute_speed;
        let train_time = compute_time(flops, speed);
        ctx.charge_compute(ComputeKind::FlTask, train_time);
        let update = ModelUpdate::from_client_owned(model.to_weights(), shard.len() as u64);
        ctx.send_after(
            self.server,
            CentralMsg::Upload { app, round, update },
            train_time,
        );
    }
}

/// A node of the centralized deployment: the server or a client.
pub enum CentralNode {
    /// The parameter server (node 0).
    Server(Server),
    /// A client device.
    Client(Client),
}

impl CentralNode {
    /// The server state, if this is the server.
    pub fn as_server(&self) -> Option<&Server> {
        match self {
            CentralNode::Server(s) => Some(s),
            CentralNode::Client(_) => None,
        }
    }
}

/// The centralized FL deployment: one server + clients on a topology.
pub struct CentralizedEngine {
    sim: Simulator<CentralNode>,
    registry: Vec<Arc<AppSpec>>,
    server: NodeIdx,
}

impl Application for CentralNode {
    type Msg = CentralMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, CentralMsg>, _from: NodeIdx, msg: CentralMsg) {
        match (self, msg) {
            (CentralNode::Server(s), CentralMsg::Upload { app, round, update }) => {
                s.on_upload(ctx, app, round, update);
            }
            (
                CentralNode::Client(c),
                CentralMsg::Download {
                    app,
                    round,
                    weights,
                },
            ) => {
                c.on_download(ctx, app, round, &weights);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CentralMsg>, tok: u64) {
        if let CentralNode::Server(s) = self {
            let round = tok >> 20;
            let base = tok & ((1 << 20) - 1);
            let app = (base / 3) as usize;
            match base % 3 {
                T_DISPATCH => s.dispatch_round(ctx, app),
                T_FINALIZE => s.finalize_round(ctx, app),
                _ => s.watchdog(ctx, app, round),
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            CentralNode::Server(s) => s
                .apps
                .iter()
                .map(|a| a.model.num_params() * 8 + a.participants.len() * 8 + 256)
                .sum(),
            CentralNode::Client(c) => c
                .apps
                .iter()
                .flatten()
                .map(|a| {
                    let model = if a.trained {
                        Mlp::param_count(&a.spec.model_dims) * 4
                    } else {
                        0
                    };
                    model + a.shard.len() * (a.shard.dim() + 1) * 4
                })
                .sum(),
        }
    }
}

impl CentralizedEngine {
    /// Builds a deployment over `topology`; node 0 is the server.
    pub fn new(topology: Topology, profile: ServerProfile, seed: u64) -> Self {
        assert!(topology.len() >= 2, "need a server and at least one client");
        let sim = Simulator::new(topology, seed, |i| {
            if i == 0 {
                CentralNode::Server(Server::new(profile))
            } else {
                CentralNode::Client(Client::new(0))
            }
        });
        CentralizedEngine {
            sim,
            registry: Vec::new(),
            server: 0,
        }
    }

    /// Submits an application: installs one shard per participant and
    /// queues round 1 at the server. Returns the application index.
    pub fn submit_app(
        &mut self,
        spec: AppSpec,
        participants: &[NodeIdx],
        shards: Vec<Dataset>,
    ) -> usize {
        assert_eq!(participants.len(), shards.len());
        assert!(participants.iter().all(|&p| p != self.server));
        let spec = Arc::new(spec);
        self.registry.push(Arc::clone(&spec));
        let app_id = self.registry.len() - 1;
        for (&p, shard) in participants.iter().zip(shards) {
            let spec = Arc::clone(&spec);
            self.sim.with_app(p, move |node, _ctx| {
                if let CentralNode::Client(c) = node {
                    c.install(app_id, spec, shard);
                }
            });
        }
        let participants = participants.to_vec();
        let server = self.server;
        self.sim
            .with_app(server, move |node, ctx| {
                if let CentralNode::Server(s) = node {
                    s.submit_app(ctx, spec, participants)
                } else {
                    unreachable!("node 0 is the server")
                }
            })
            .expect("the server never churns")
    }

    /// Runs until every submitted application is done or `deadline` of
    /// simulated time passes. Returns `true` if all apps finished.
    pub fn run(&mut self, deadline: SimTime) -> bool {
        loop {
            let processed = self.sim.run_until(deadline);
            let server = self.sim.app(self.server).as_server().expect("server");
            let all_done = (0..server.apps.len()).all(|a| server.is_done(a));
            if all_done {
                return true;
            }
            if processed == 0 {
                return false; // Nothing left before the deadline.
            }
        }
    }

    /// Read access to the simulator (curves, ledgers, ...).
    pub fn sim(&self) -> &Simulator<CentralNode> {
        &self.sim
    }

    /// Mutable access to the simulator (churn injection).
    pub fn sim_mut(&mut self) -> &mut Simulator<CentralNode> {
        &mut self.sim
    }

    /// The server node's state.
    pub fn server(&self) -> &Server {
        self.sim.app(self.server).as_server().expect("server")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_queue_serializes_at_concurrency_one() {
        let mut q = WorkQueue::new(1);
        let now = SimTime::ZERO;
        let a = q.schedule(now, SimDuration::from_secs(2));
        let b = q.schedule(now, SimDuration::from_secs(3));
        assert_eq!(a.as_micros(), 2_000_000);
        assert_eq!(b.as_micros(), 5_000_000);
        assert_eq!(q.backlog(now), SimDuration::from_secs(5));
    }

    #[test]
    fn work_queue_parallelizes_with_more_slots() {
        let mut q = WorkQueue::new(3);
        let now = SimTime::ZERO;
        let ends: Vec<u64> = (0..3)
            .map(|_| q.schedule(now, SimDuration::from_secs(2)).as_micros())
            .collect();
        assert!(ends.iter().all(|&e| e == 2_000_000));
        // Fourth task waits behind the earliest slot.
        let d = q.schedule(now, SimDuration::from_secs(1));
        assert_eq!(d.as_micros(), 3_000_000);
    }

    #[test]
    fn work_queue_idles_without_work() {
        let mut q = WorkQueue::new(2);
        let late = SimTime::from_secs(10);
        // Scheduling at a later time starts then, not at the stale slot.
        let end = q.schedule(late, SimDuration::from_secs(1));
        assert_eq!(end.as_micros(), 11_000_000);
        assert_eq!(q.backlog(SimTime::from_secs(11)), SimDuration::ZERO);
    }

    #[test]
    fn compute_time_scales_inversely_with_speed() {
        let fast = compute_time(2_000_000, 1.0);
        let slow = compute_time(2_000_000, 0.1);
        assert_eq!(slow.as_micros(), fast.as_micros() * 10);
        // Degenerate speed does not divide by zero.
        assert!(compute_time(1, 0.0).as_micros() > 0);
    }
}
