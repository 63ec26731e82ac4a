//! Quickstart: train one federated model on a simulated edge network.
//!
//! ```text
//! cargo run --release -p totoro-examples --bin quickstart
//! ```
//!
//! What happens:
//! 1. 32 edge nodes self-organize into a Pastry-style DHT overlay.
//! 2. One FL application is submitted; every node `Subscribe`s to its
//!    AppId, and the union of the JOIN paths forms the dataflow tree. The
//!    rendezvous node is promoted to the application's master.
//! 3. The master `Broadcast`s the model down the tree each round; workers
//!    train on their local (non-IID) shards; updates aggregate in-network
//!    back up to the master (FedAvg) until the target accuracy is reached.

use std::sync::Arc;

use totoro::dht::DhtConfig;
use totoro::ml::{speech_commands_like, TaskGenerator};
use totoro::pubsub::ForestConfig;
use totoro::simnet::{sub_rng, SimTime, Topology};
use totoro::{FlAppConfig, TotoroDeployment};

fn main() {
    let n = 32;
    let seed = 42;

    // 1. The edge network: 32 nodes, 1-5 ms one-way latencies.
    let topology = Topology::uniform(n, 1_000, 5_000);
    let mut deploy = TotoroDeployment::new(
        topology,
        seed,
        DhtConfig::default(),
        ForestConfig::default(),
    );
    println!("overlay up: {} nodes", deploy.len());

    // 2. The learning task: a 35-class synthetic classification problem
    //    (the "speech"-scale task), non-IID across clients (Dirichlet
    //    label skew).
    let mut rng = sub_rng(seed, "task");
    let generator = TaskGenerator::new(speech_commands_like(), &mut rng);
    let shards = generator.client_shards(n, 50, 0.5, &mut rng);
    let test_set = Arc::new(generator.test_set(300, &mut rng));

    let dims = vec![generator.spec.dim, 48, generator.spec.classes];
    let mut config = FlAppConfig::new("quickstart-app", dims, test_set);
    config.target_accuracy = 0.53; // The paper's speech target (Table 3).
    config.max_rounds = 40;
    config.lr = 0.1;

    let participants: Vec<usize> = (0..n).collect();
    let app = deploy.submit_app(config, &participants, shards);

    // 3. Run until the target is reached.
    let finished = deploy.run(SimTime::from_secs(3_600));
    let master = deploy.master_of(app).expect("a master was promoted");
    println!("master: node {master} (the node whose id is closest to the AppId)");
    println!("\nround  sim-time  accuracy");
    for p in deploy.curve(app) {
        println!("{:>5}  {:>7.1}s  {:.3}", p.round, p.time_secs, p.accuracy);
    }
    match (finished, deploy.time_to_target(app)) {
        (true, Some(t)) => println!("\nreached 53% test accuracy after {t:.1}s of simulated time"),
        _ => println!("\ndid not reach the target within the budget"),
    }
}
