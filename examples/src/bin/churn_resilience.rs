//! Training through churn (§4.5): nodes keep failing and reviving while an
//! FL application trains; the dataflow tree repairs itself via keep-alive
//! detection and re-JOINs, and even the application's master can die and
//! be replaced by a newly promoted rendezvous node.
//!
//! ```text
//! cargo run --release -p totoro-examples --bin churn_resilience
//! ```

use std::sync::Arc;

use totoro::dht::DhtConfig;
use totoro::ml::{text_classification_like, TaskGenerator};
use totoro::pubsub::ForestConfig;
use totoro::simnet::{sub_rng, ChurnSchedule, SimDuration, SimTime, Topology};
use totoro::{FlAppConfig, TotoroDeployment};

fn main() {
    let n = 40;
    let seed = 21;
    let topology = Topology::uniform(n, 1_000, 6_000);
    let mut deploy = TotoroDeployment::new(
        topology,
        seed,
        DhtConfig::default(),
        ForestConfig {
            tick: SimDuration::from_millis(500),
            ..ForestConfig::default()
        },
    );

    let mut rng = sub_rng(seed, "task");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let shards = generator.client_shards(n, 40, 0.5, &mut rng);
    let mut cfg = FlAppConfig::new(
        "resilient-app",
        vec![generator.spec.dim, 32, generator.spec.classes],
        Arc::new(generator.test_set(300, &mut rng)),
    );
    cfg.target_accuracy = 2.0; // Run a fixed number of rounds.
    cfg.max_rounds = 40;
    cfg.round_pause = SimDuration::from_secs(3); // ~2 min of training.
    cfg.round_timeout = SimDuration::from_secs(20);
    let app = deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);

    // Find the master first so the churn schedule can spare it: the master
    // gets killed permanently below to demonstrate takeover.
    deploy.run(SimTime::from_secs(20));
    let original_master = deploy.master_of(app).expect("master exists");

    // Continuous churn over everyone else: every ~4 s some node goes down
    // for ~10 s.
    let members: Vec<usize> = (0..n).filter(|&i| i != original_master).collect();
    let churn = ChurnSchedule::continuous(
        &members,
        SimTime::from_secs(26),
        SimTime::from_secs(250),
        SimDuration::from_secs(4),
        SimDuration::from_secs(10),
        &mut rng,
    );
    println!(
        "churn schedule: {} outages over 224s affecting {} distinct nodes",
        churn.events().len() / 2,
        churn.nodes_affected()
    );
    churn.apply(deploy.sim_mut());

    // Kill the original master outright mid-run (it never comes back).
    println!("original master: node {original_master} — killing it at t=25s");
    deploy
        .sim_mut()
        .schedule_down(original_master, SimTime::from_secs(25));

    deploy.run(SimTime::from_secs(600));

    let curve = deploy.curve(app);
    let rounds = curve.last().map_or(0, |p| p.round);
    let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
    let new_master = deploy.master_of(app);
    println!("\nrounds completed despite churn: {rounds}");
    println!("best accuracy reached: {best:.3}");
    println!("current master: {new_master:?} (was {original_master})");
    assert_ne!(new_master, Some(original_master), "takeover did not happen");

    // Count repair episodes across the deployment.
    let repairs: usize = (0..n)
        .map(|i| deploy.sim().app(i).upper.state.repair_events.len())
        .sum();
    let reattached: usize = (0..n)
        .map(|i| {
            deploy
                .sim()
                .app(i)
                .upper
                .state
                .repair_events
                .iter()
                .filter(|e| e.reattached.is_some())
                .count()
        })
        .sum();
    println!("tree repair episodes: {repairs} started, {reattached} completed");
    assert!(rounds >= 10, "training stalled under churn");
}
