//! The paper's motivating Smart Health scenario (§1, Figure 1): wearable
//! devices feed several *concurrent* FL applications — activity
//! recognition, fitness tracking, and abnormal-health detection — each
//! with its own policies, all running on the same edge nodes with a
//! dedicated per-application master.
//!
//! ```text
//! cargo run --release -p totoro-examples --bin smart_health
//! ```

use std::sync::Arc;

use totoro::dht::DhtConfig;
use totoro::ml::{
    femnist_like, text_classification_like, AggregationRule, Compression, Privacy, TaskGenerator,
};
use totoro::pubsub::ForestConfig;
use totoro::simnet::{sub_rng, SimTime, Topology};
use totoro::{FlAppConfig, SelectionPolicy, TotoroDeployment};

fn main() {
    let n = 48;
    let seed = 7;
    let topology = Topology::uniform(n, 1_000, 8_000);
    let mut deploy = TotoroDeployment::new(
        topology,
        seed,
        DhtConfig::default(),
        ForestConfig::default(),
    );
    let mut rng = sub_rng(seed, "tasks");

    // Three applications over the same wearables, each with its own FL
    // policy (Table 2's application-specific customization).
    let mut apps = Vec::new();

    // 1. Activity recognition: plain FedAvg over everyone.
    let act = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut cfg = FlAppConfig::new(
        "activity-recognition",
        vec![act.spec.dim, 32, act.spec.classes],
        Arc::new(act.test_set(300, &mut rng)),
    );
    cfg.target_accuracy = 0.85;
    cfg.max_rounds = 30;
    let shards = act.client_shards(n, 40, 0.5, &mut rng);
    apps.push((
        "activity-recognition",
        deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards),
    ));

    // 2. Fitness tracking: only 50% of devices selected per round, and
    //    int8-compressed uploads (battery-friendly).
    let fit = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut cfg = FlAppConfig::new(
        "fitness-tracking",
        vec![fit.spec.dim, 32, fit.spec.classes],
        Arc::new(fit.test_set(300, &mut rng)),
    );
    cfg.selection = SelectionPolicy::Fraction(0.5);
    cfg.compression = Compression::Int8;
    cfg.target_accuracy = 0.85;
    cfg.max_rounds = 30;
    cfg.salt = 1;
    let shards = fit.client_shards(n, 40, 0.5, &mut rng);
    apps.push((
        "fitness-tracking",
        deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards),
    ));

    // 3. Abnormal-health detection: highly skewed medical data, so FedProx
    //    for stability plus Gaussian differential privacy on the updates.
    let med = TaskGenerator::new(femnist_like(), &mut rng);
    let mut cfg = FlAppConfig::new(
        "abnormal-health-detection",
        vec![med.spec.dim, 48, med.spec.classes],
        Arc::new(med.test_set(300, &mut rng)),
    );
    cfg.aggregation = AggregationRule::FedProx { mu: 0.05 };
    cfg.privacy = Privacy::GaussianDp {
        clip: 80.0,
        sigma: 0.0005,
    };
    cfg.target_accuracy = 0.70;
    cfg.max_rounds = 40;
    cfg.salt = 2;
    let shards = med.client_shards(n, 50, 0.1, &mut rng);
    apps.push((
        "abnormal-health-detection",
        deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards),
    ));

    deploy.run(SimTime::from_secs(7_200));

    println!("application                     master  rounds  best acc  time-to-target");
    for (name, app) in &apps {
        let curve = deploy.curve(*app);
        let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
        let rounds = curve.last().map_or(0, |p| p.round);
        let master = deploy.master_of(*app).map_or("-".into(), |m| m.to_string());
        let ttt = deploy
            .time_to_target(*app)
            .map_or("-".into(), |t| format!("{t:.0}s"));
        println!("{name:<30}  {master:>6}  {rounds:>6}  {best:>8.3}  {ttt:>14}");
    }

    // Every node wears several hats at once: master for one app, aggregator
    // or worker for the others — the "many masters / many workers" design.
    let topics: Vec<_> = apps
        .iter()
        .map(|(_, a)| deploy.config(*a).app_id())
        .collect();
    let roles = totoro::role_census(deploy.sim(), &topics);
    let multi_role = roles
        .iter()
        .filter(|r| (r.master + r.aggregator > 0) && r.worker > 0)
        .count();
    println!(
        "\n{multi_role}/{n} nodes simultaneously serve as master/aggregator for one app and worker for another"
    );
}
