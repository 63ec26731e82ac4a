//! Full-stack Totoro tests: overlay → forest → FL engine.

use std::sync::Arc;

use totoro::{FlAppConfig, FlData, SelectionPolicy, TotoroDeployment};
use totoro_dht::DhtConfig;
use totoro_ml::{
    femnist_like, text_classification_like, AggregationRule, Compression, Privacy, TaskGenerator,
};
use totoro_pubsub::{ForestApp, ForestConfig};
use totoro_simnet::{sub_rng, SimDuration, SimTime, Topology};

fn deployment(n: usize, seed: u64) -> TotoroDeployment {
    TotoroDeployment::new(
        Topology::uniform(n, 1_000, 5_000),
        seed,
        DhtConfig::default(),
        ForestConfig::default(),
    )
}

fn quick_config(name: &str, generator: &TaskGenerator, target: f64, seed: u64) -> FlAppConfig {
    let mut rng = sub_rng(seed, "test-set");
    let mut cfg = FlAppConfig::new(
        name,
        vec![generator.spec.dim, 32, generator.spec.classes],
        Arc::new(generator.test_set(200, &mut rng)),
    );
    cfg.target_accuracy = target;
    cfg.max_rounds = 40;
    cfg.lr = 0.15;
    cfg.seed = seed;
    cfg
}

#[test]
fn single_app_trains_to_target_through_the_tree() {
    let n = 24;
    let mut deploy = deployment(n, 1);
    let mut rng = sub_rng(1, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let participants: Vec<usize> = (0..n).collect();
    let shards = generator.client_shards(n, 50, 0.5, &mut rng);
    let cfg = quick_config("quickstart", &generator, 0.8, 5);
    let app = deploy.submit_app(cfg, &participants, shards);

    let finished = deploy.run(SimTime::from_secs(7_200));
    assert!(finished, "training did not reach the target in time");
    let curve = deploy.curve(app);
    assert!(!curve.is_empty());
    let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
    assert!(best >= 0.8, "best accuracy {best}");
    assert!(deploy.time_to_target(app).is_some());
    // There is exactly one master and it recorded the curve.
    let master = deploy.master_of(app).expect("a master exists");
    assert!(deploy
        .sim()
        .app(master)
        .upper
        .app
        .master(app)
        .is_some_and(|m| m.done));
}

#[test]
fn many_apps_train_concurrently_with_distinct_masters() {
    let n = 40;
    let num_apps = 6;
    let mut deploy = deployment(n, 2);
    let mut rng = sub_rng(2, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let participants: Vec<usize> = (0..n).collect();
    for a in 0..num_apps {
        let shards = generator.client_shards(n, 40, 0.5, &mut rng);
        let mut cfg = quick_config(&format!("health-app-{a}"), &generator, 2.0, 10 + a as u64);
        cfg.salt = a as u64;
        cfg.max_rounds = 4; // Fixed-round run; target unreachable.
        deploy.submit_app(cfg, &participants, shards);
    }
    deploy.run(SimTime::from_secs(7_200));

    // All apps completed their rounds.
    for a in 0..num_apps {
        let curve = deploy.curve(a);
        assert_eq!(
            curve.last().map(|p| p.round),
            Some(4),
            "app {a} incomplete: {curve:?}"
        );
    }
    // Masters are spread: no node owns more than half the apps.
    let masters: Vec<usize> = (0..num_apps).filter_map(|a| deploy.master_of(a)).collect();
    assert_eq!(masters.len(), num_apps);
    let max_on_one = (0..n)
        .map(|i| masters.iter().filter(|&&m| m == i).count())
        .max()
        .unwrap();
    assert!(
        max_on_one <= num_apps / 2,
        "masters concentrated: {masters:?}"
    );
    // Many masters, many workers: some node leads (as master or
    // aggregator) one app's tree while it is a worker in another's.
    let topics: Vec<_> = (0..num_apps).map(|a| deploy.config(a).app_id()).collect();
    let multi_role = totoro::role_census(deploy.sim(), &topics)
        .iter()
        .filter(|r| r.master + r.aggregator > 0 && r.worker > 0)
        .count();
    assert!(multi_role > 0, "no node holds two roles across the apps");
}

#[test]
fn selection_fraction_reduces_contributions() {
    let n = 30;
    let mut deploy = deployment(n, 3);
    let mut rng = sub_rng(3, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let participants: Vec<usize> = (0..n).collect();
    let shards = generator.client_shards(n, 30, 0.5, &mut rng);
    let mut cfg = quick_config("selective", &generator, 2.0, 21);
    cfg.selection = SelectionPolicy::Fraction(0.4);
    cfg.max_rounds = 3;
    let app = deploy.submit_app(cfg, &participants, shards);
    deploy.run(SimTime::from_secs(3_600));

    let curve = deploy.curve(app);
    assert!(!curve.is_empty());
    let total_contributed: u64 = deploy
        .sim()
        .apps()
        .map(|node| node.upper.app.stats.updates_contributed)
        .sum();
    let total_models: u64 = deploy
        .sim()
        .apps()
        .map(|node| node.upper.app.stats.models_received)
        .sum();
    assert!(total_models > 0);
    let rate = total_contributed as f64 / total_models as f64;
    assert!(
        (0.15..=0.65).contains(&rate),
        "selection rate {rate} far from 0.4 ({total_contributed}/{total_models})"
    );
}

#[test]
fn fedprox_compression_and_privacy_compose() {
    let n = 20;
    let mut deploy = deployment(n, 4);
    let mut rng = sub_rng(4, "gen");
    let generator = TaskGenerator::new(femnist_like(), &mut rng);
    let participants: Vec<usize> = (0..n).collect();
    let shards = generator.client_shards(n, 40, 0.1, &mut rng);
    let mut cfg = quick_config("private", &generator, 2.0, 30);
    cfg.aggregation = AggregationRule::FedProx { mu: 0.05 };
    cfg.compression = Compression::Int8;
    cfg.privacy = Privacy::GaussianDp {
        clip: 50.0,
        sigma: 0.001,
    };
    cfg.max_rounds = 6;
    let app = deploy.submit_app(cfg, &participants, shards);
    deploy.run(SimTime::from_secs(7_200));

    let curve = deploy.curve(app);
    assert_eq!(curve.last().map(|p| p.round), Some(6));
    // Training still makes progress despite noise + quantized wire sizes.
    let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
    assert!(best > 0.10, "no learning under DP+compression: {best}");
}

#[test]
fn master_failure_mid_training_promotes_replacement() {
    let n = 30;
    let mut deploy = TotoroDeployment::new(
        Topology::uniform(n, 1_000, 5_000),
        5,
        DhtConfig::default(),
        ForestConfig {
            tick: SimDuration::from_millis(500),
            ..ForestConfig::default()
        },
    );
    let mut rng = sub_rng(5, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let participants: Vec<usize> = (0..n).collect();
    let shards = generator.client_shards(n, 30, 0.5, &mut rng);
    let mut cfg = quick_config("resilient", &generator, 2.0, 40);
    cfg.max_rounds = 500; // Effectively endless: the kill lands mid-training.
    cfg.round_pause = SimDuration::from_millis(500);
    cfg.round_timeout = SimDuration::from_secs(20);
    let app = deploy.submit_app(cfg, &participants, shards);

    // Let a few rounds run, then kill the master.
    deploy.run(SimTime::from_secs(30));
    let master = deploy.master_of(app).expect("master exists");
    let rounds_before = deploy.curve(app).len();
    assert!(rounds_before > 0, "no rounds before the failure");
    deploy
        .sim_mut()
        .schedule_down(master, SimTime::from_secs(31));
    deploy.run(SimTime::from_secs(180));

    let new_master = deploy.master_of(app);
    assert!(
        new_master.is_some_and(|m| m != master),
        "no replacement master was promoted"
    );
    // The replacement made progress: more curve points than before.
    let rounds_after = deploy.curve(app).len();
    assert!(
        rounds_after > rounds_before,
        "replacement master made no progress ({rounds_before} -> {rounds_after})"
    );

    // The replacement warm-started from the model it last trained, which it
    // rebuilt from the global model it kept: its round-1 broadcast, hence
    // every later model and curve point, hangs on that rebuild. Pinned to
    // the value captured when the trained model itself was kept per node.
    let state = deploy
        .sim()
        .app(new_master.expect("checked above"))
        .upper
        .app
        .master(app)
        .expect("the replacement holds master state");
    let mut bytes = Vec::new();
    for w in state.model.to_weights() {
        bytes.extend(w.to_bits().to_le_bytes());
    }
    for p in deploy.curve(app) {
        bytes.extend(p.time_secs.to_bits().to_le_bytes());
        bytes.extend(p.round.to_le_bytes());
        bytes.extend(p.accuracy.to_bits().to_le_bytes());
    }
    assert_eq!(
        fnv1a(&bytes),
        7_056_746_194_428_129_092,
        "takeover model moved"
    );
}

/// A node that was down when app 0 was submitted still learns the catalog
/// entry, so it numbers app 1 as every other node does: named as a
/// participant of app 1 after it came back up, it trains app 1, and app 1
/// finishes.
#[test]
fn a_node_that_missed_a_submission_trains_later_apps() {
    let n = 12;
    let late = 3;
    let mut deploy = deployment(n, 9);
    let mut rng = sub_rng(9, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    deploy.sim_mut().schedule_down(late, SimTime::from_secs(1));
    deploy.run(SimTime::from_secs(2));
    assert!(!deploy.sim().alive(late));

    let up: Vec<usize> = (0..n).filter(|&i| i != late).collect();
    let mut cfg = quick_config("before", &generator, 2.0, 60);
    cfg.max_rounds = 2;
    deploy.submit_app(
        cfg,
        &up,
        generator.client_shards(up.len(), 20, 0.5, &mut rng),
    );
    deploy.sim_mut().schedule_up(late, SimTime::from_secs(3));
    deploy.run(SimTime::from_secs(4));
    assert!(deploy.sim().alive(late));

    let all: Vec<usize> = (0..n).collect();
    let mut cfg = quick_config("after", &generator, 2.0, 61);
    cfg.salt = 1;
    cfg.max_rounds = 2;
    let app = deploy.submit_app(cfg, &all, generator.client_shards(n, 20, 0.5, &mut rng));
    assert_eq!(app, 1);
    deploy.run(SimTime::from_secs(60));

    let engine = &deploy.sim().app(late).upper.app;
    assert_eq!(engine.num_apps(), 2);
    assert!(engine.trained_from(0).is_none());
    assert!(engine.trained_from(app).is_some());
    assert!(deploy.app_done(0));
    assert!(deploy.app_done(app));
}

/// FNV-1a, for fingerprints that do not depend on `std`'s hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `apps` apps over 30 nodes, every node a participant of every app, run
/// to `rounds` rounds each.
fn trained_deployment(apps: u64, rounds: u64) -> TotoroDeployment {
    let n = 30;
    let mut deploy = deployment(n, 8);
    let mut rng = sub_rng(8, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    for a in 0..apps {
        let shards = generator.client_shards(n, 30, 0.5, &mut rng);
        let mut cfg = quick_config(&format!("held-{a}"), &generator, 2.0, 45 + a);
        cfg.salt = a;
        cfg.max_rounds = rounds;
        deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);
    }
    assert!(deploy.run(SimTime::from_secs(3_600)));
    deploy
}

#[test]
fn every_worker_keeps_the_one_broadcast_buffer() {
    let deploy = trained_deployment(1, 1);
    let kept: Vec<_> = deploy
        .sim()
        .apps()
        .filter_map(|node| node.upper.app.trained_from(0))
        .collect();
    // The master trains too, from the handle it broadcast.
    assert_eq!(kept.len(), deploy.len(), "a participant did not train");
    let first: &FlData = kept[0];
    for handle in &kept {
        assert!(
            std::ptr::eq::<FlData>(&***handle, first),
            "a node holds a copy of the round-1 model"
        );
    }
}

#[test]
fn memory_bytes_charge_one_model_per_trained_app() {
    let deploy = trained_deployment(3, 3);
    let total: usize = deploy
        .sim()
        .apps()
        .map(|node| node.upper.app.memory_bytes())
        .sum();
    // The figure the engine reported when it kept one trained model per
    // node and app.
    assert_eq!(total, 625_824);
}

#[test]
fn traffic_is_spread_rather_than_hub_and_spoke() {
    let n = 30;
    let mut deploy = deployment(n, 6);
    let mut rng = sub_rng(6, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let participants: Vec<usize> = (0..n).collect();
    for a in 0..4u64 {
        let shards = generator.client_shards(n, 30, 0.5, &mut rng);
        let mut cfg = quick_config(&format!("spread-{a}"), &generator, 2.0, 40 + a);
        cfg.salt = a;
        cfg.max_rounds = 3;
        deploy.submit_app(cfg, &participants, shards);
    }
    deploy.run(SimTime::from_secs(3_600));

    let sent: Vec<u64> = (0..n)
        .map(|i| deploy.sim().traffic().node(i).payload_sent)
        .collect();
    let max = *sent.iter().max().unwrap() as f64;
    let mean = sent.iter().sum::<u64>() as f64 / n as f64;
    // In a hub-and-spoke system the hub sends ~n× the mean; in Totoro the
    // hottest node stays within a small factor of the mean.
    assert!(
        max / mean < 8.0,
        "traffic skew too high: max {max}, mean {mean}"
    );
}

#[test]
fn virtual_nodes_let_rich_hardware_carry_more_load() {
    // §7.5: resource-rich physical nodes map to several logical P2P nodes
    // and therefore absorb proportionally more id space, hence more work.
    use totoro::{expand_by_cores, fold_to_physical};
    use totoro_simnet::{LatencyModel, NodeProfile};

    let physical_n = 16;
    let mut physical = Topology::uniform(physical_n, 1_000, 5_000);
    // Node 0 is a beefy gateway (8 cores), the rest are 2-core devices.
    physical.set_profile(
        0,
        NodeProfile {
            cores: 8,
            compute_speed: 4.0,
            ..NodeProfile::default()
        },
    );
    let mapping = expand_by_cores(
        &physical,
        LatencyModel::Uniform {
            min_us: 1_000,
            max_us: 5_000,
        },
    );
    assert_eq!(mapping.logical.len(), physical_n + 2); // 3 logical for node 0.

    let n = mapping.logical.len();
    let mut deploy = TotoroDeployment::new(
        mapping.logical.clone(),
        9,
        DhtConfig::default(),
        ForestConfig::default(),
    );
    let mut rng = sub_rng(9, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    for a in 0..4u64 {
        let shards = generator.client_shards(n, 30, 0.5, &mut rng);
        let mut cfg = quick_config(&format!("hetero-{a}"), &generator, 2.0, 50 + a);
        cfg.salt = a;
        cfg.max_rounds = 3;
        deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);
    }
    deploy.run(SimTime::from_secs(3_600));
    for a in 0..4 {
        assert_eq!(deploy.curve(a).last().map(|p| p.round), Some(3));
    }

    // Fold logical traffic back to physical hardware: the gateway, owning
    // 3x the id space, should carry more than the per-device average.
    let per_logical: Vec<u64> = (0..n)
        .map(|l| deploy.sim().traffic().node(l).payload_sent)
        .collect();
    let per_physical = fold_to_physical(&mapping, &per_logical, physical_n);
    let gateway = per_physical[0] as f64;
    let mean_rest = per_physical[1..].iter().sum::<u64>() as f64 / (physical_n - 1) as f64;
    assert!(
        gateway > 1.3 * mean_rest,
        "gateway {gateway:.0} should exceed device mean {mean_rest:.0}"
    );
}

#[test]
fn semi_synchronous_quorum_cuts_rounds_early() {
    use totoro::RoundPolicy;
    // A few stragglers with tiny compute speed slow every synchronous
    // round; the semi-synchronous quorum (60%) completes without them.
    let n = 24;
    let build_with = |policy: RoundPolicy, seed: u64| -> (f64, u64) {
        let mut topology = Topology::uniform(n, 1_000, 5_000);
        for straggler in 0..4 {
            topology.set_profile(
                straggler,
                totoro_simnet::NodeProfile {
                    // ~17s of training per round vs ~0.1s for the rest.
                    compute_speed: 1e-4,
                    ..totoro_simnet::NodeProfile::default()
                },
            );
        }
        let mut deploy = TotoroDeployment::new(
            topology,
            seed,
            DhtConfig::default(),
            ForestConfig {
                agg_timeout: SimDuration::from_secs(40),
                ..ForestConfig::default()
            },
        );
        let mut rng = sub_rng(seed, "gen");
        let generator = TaskGenerator::new(text_classification_like(), &mut rng);
        let shards = generator.client_shards(n, 60, 0.5, &mut rng);
        let mut cfg = quick_config("semisync", &generator, 2.0, 60 + seed);
        cfg.round_policy = policy;
        cfg.max_rounds = 5;
        let app = deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);
        deploy.run(SimTime::from_secs(7_200));
        let curve = deploy.curve(app);
        (
            curve.last().map_or(f64::MAX, |p| p.time_secs),
            curve.last().map_or(0, |p| p.round),
        )
    };

    let (sync_time, sync_rounds) = build_with(RoundPolicy::Synchronous, 7);
    let (semi_time, semi_rounds) = build_with(RoundPolicy::SemiSynchronous { quorum: 0.6 }, 7);
    assert_eq!(sync_rounds, 5);
    assert_eq!(semi_rounds, 5);
    assert!(
        semi_time < 0.7 * sync_time,
        "quorum did not accelerate rounds: semi {semi_time:.0}s vs sync {sync_time:.0}s"
    );
}

#[test]
fn loss_adaptive_selection_backs_off_as_clients_converge() {
    use totoro::SelectionPolicy;
    let n = 24;
    let mut deploy = deployment(n, 11);
    let mut rng = sub_rng(11, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let shards = generator.client_shards(n, 50, 0.5, &mut rng);
    let mut cfg = quick_config("oortish", &generator, 2.0, 71);
    cfg.selection = SelectionPolicy::LossAdaptive { floor: 0.15 };
    cfg.max_rounds = 12;
    let app = deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);
    deploy.run(SimTime::from_secs(3_600));

    let curve = deploy.curve(app);
    assert_eq!(curve.last().map(|p| p.round), Some(12));
    // Early rounds: nearly everyone (high loss). Late rounds (task is easy,
    // loss collapses): participation approaches the floor.
    let master = deploy.master_of(app).unwrap();
    let agg = |r: u64| -> Option<u64> {
        deploy
            .sim()
            .app(master)
            .upper
            .state
            .agg_log
            .iter()
            .find(|e| e.round == r)
            .map(|e| e.count)
    };
    let early = agg(1).unwrap_or(0);
    let late = agg(12).unwrap_or(u64::MAX);
    assert!(early >= (n as u64 * 3) / 4, "early participation {early}");
    assert!(
        late <= early / 2,
        "late participation did not back off: {late} vs early {early}"
    );
}

#[test]
fn continuous_churn_during_training_still_converges() {
    // The §7.5 adaptivity scenario as a hard correctness test: random
    // outages keep hitting the overlay while an app trains; the engine
    // must still finish all rounds and learn.
    let n = 36;
    let mut deploy = TotoroDeployment::new(
        Topology::uniform(n, 1_000, 6_000),
        13,
        DhtConfig::default(),
        ForestConfig {
            tick: SimDuration::from_millis(500),
            agg_timeout: SimDuration::from_secs(10),
            ..ForestConfig::default()
        },
    );
    let mut rng = sub_rng(13, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let shards = generator.client_shards(n, 40, 0.5, &mut rng);
    let mut cfg = quick_config("stormy", &generator, 2.0, 80); // Run all rounds.
    cfg.max_rounds = 40;
    cfg.round_pause = SimDuration::from_secs(5); // Rounds span the churn storm.
    cfg.round_timeout = SimDuration::from_secs(25);
    let app = deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);

    let members: Vec<usize> = (0..n).collect();
    let churn = totoro_simnet::ChurnSchedule::continuous(
        &members,
        SimTime::from_secs(5),
        SimTime::from_secs(400),
        SimDuration::from_secs(5),
        SimDuration::from_secs(8),
        &mut rng,
    );
    churn.apply(deploy.sim_mut());

    deploy.run(SimTime::from_secs(3_600));
    let curve = deploy.curve(app);
    let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
    let rounds = curve.last().map_or(0, |p| p.round);
    assert!(
        rounds >= 35,
        "training stalled under churn: {rounds} rounds"
    );
    assert!(best > 0.6, "model failed to learn under churn: {best}");
}

#[test]
fn secure_aggregation_trains_correctly_and_hides_individual_updates() {
    use totoro_ml::Privacy;
    let n = 16;
    let mut deploy = deployment(n, 17);
    let mut rng = sub_rng(17, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let shards = generator.client_shards(n, 50, 0.5, &mut rng);
    let mut cfg = quick_config("secagg", &generator, 0.85, 91);
    cfg.privacy = Privacy::SecureAggregation;
    cfg.max_rounds = 25;
    let app = deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);
    deploy.run(SimTime::from_secs(3_600));

    // Masks cancel in the full aggregate: the model still learns.
    let best = deploy
        .curve(app)
        .iter()
        .map(|p| p.accuracy)
        .fold(0.0, f64::max);
    assert!(best >= 0.85, "secure aggregation broke learning: {best}");
}

#[test]
fn secure_aggregation_discards_incomplete_rounds() {
    use totoro_ml::Privacy;
    let n = 12;
    let mut deploy = TotoroDeployment::new(
        Topology::uniform(n, 1_000, 5_000),
        18,
        DhtConfig::default(),
        ForestConfig {
            agg_timeout: SimDuration::from_secs(10),
            ..ForestConfig::default()
        },
    );
    let mut rng = sub_rng(18, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let shards = generator.client_shards(n, 40, 0.5, &mut rng);
    let mut cfg = quick_config("secagg-drop", &generator, 2.0, 92);
    cfg.privacy = Privacy::SecureAggregation;
    cfg.max_rounds = 8;
    cfg.round_timeout = SimDuration::from_secs(30);
    let app = deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);

    // Kill a worker early: every subsequent round is incomplete, so the
    // model must stay at its (seeded) initial weights — applying a masked
    // partial sum would destroy it instead.
    deploy.run(SimTime::from_secs(3));
    let master = deploy.master_of(app).expect("master exists");
    let victim = (0..n).find(|&i| i != master).unwrap();
    deploy
        .sim_mut()
        .schedule_down(victim, SimTime::from_micros(3_100_000));
    deploy.run(SimTime::from_secs(1_800));

    let curve = deploy.curve(app);
    assert!(curve.len() >= 3, "rounds did not proceed: {}", curve.len());
    // Accuracy stays near the untrained baseline but NEVER collapses to a
    // masked-garbage model (which would train nothing and stay there too —
    // the stronger check is weight sanity at the master).
    let master_state = deploy
        .sim()
        .app(deploy.master_of(app).unwrap())
        .upper
        .app
        .master(app)
        .unwrap();
    let max_weight = master_state
        .model
        .to_weights()
        .iter()
        .map(|w| w.abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_weight < 10.0,
        "masked noise leaked into the model: max |w| = {max_weight}"
    );
}

/// Every master's weights and curve, in node order, hashed: the bits an FL
/// path produces end to end. The digests pinned below were captured from
/// the engine that trained every update the moment its model arrived.
fn masters_digest(deploy: &TotoroDeployment) -> u64 {
    let mut bytes = Vec::new();
    for app in 0..deploy.num_apps() {
        for node in deploy.sim().apps() {
            let Some(master) = node.upper.app.master(app) else {
                continue;
            };
            for w in master.model.to_weights() {
                bytes.extend(w.to_bits().to_le_bytes());
            }
            for p in &master.curve {
                bytes.extend(p.time_secs.to_bits().to_le_bytes());
                bytes.extend(p.round.to_le_bytes());
                bytes.extend(p.accuracy.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

/// Two apps over 16 nodes, every node a participant, `customize` applied
/// to each app's config, run to 4 rounds.
fn customized_deployment(seed: u64, customize: impl Fn(&mut FlAppConfig)) -> TotoroDeployment {
    let n = 16;
    let mut deploy = deployment(n, seed);
    let mut rng = sub_rng(seed, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    for a in 0..2 {
        let shards = generator.client_shards(n, 30, 0.5, &mut rng);
        let mut cfg = quick_config(&format!("custom-{a}"), &generator, 2.0, seed * 10 + a);
        cfg.salt = a;
        cfg.max_rounds = 4;
        customize(&mut cfg);
        deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);
    }
    assert!(deploy.run(SimTime::from_secs(3_600)));
    deploy
}

/// Gaussian DP draws its noise from the node's RNG stream and loss-adaptive
/// selection reads the last local loss: both need the update trained when
/// the model arrives.
#[test]
fn dp_with_loss_adaptive_selection_is_pinned_to_the_bit() {
    let deploy = customized_deployment(21, |cfg| {
        cfg.privacy = Privacy::GaussianDp {
            clip: 50.0,
            sigma: 0.001,
        };
        cfg.selection = SelectionPolicy::LossAdaptive { floor: 0.2 };
    });
    assert_eq!(
        masters_digest(&deploy),
        221_178_473_236_550_096,
        "DP + loss-adaptive moved"
    );
}

/// Secure aggregation masks each update from its node and round, so a
/// masked update can be trained where it is first read.
#[test]
fn secure_aggregation_is_pinned_to_the_bit() {
    let deploy = customized_deployment(22, |cfg| {
        cfg.privacy = Privacy::SecureAggregation;
    });
    assert_eq!(
        masters_digest(&deploy),
        12_232_807_899_041_767_035,
        "secure aggregation moved"
    );
}

/// Partial participation, FedProx's anchor and top-k wire sizes.
#[test]
fn fraction_fedprox_topk_is_pinned_to_the_bit() {
    let deploy = customized_deployment(23, |cfg| {
        cfg.selection = SelectionPolicy::Fraction(0.5);
        cfg.aggregation = AggregationRule::FedProx { mu: 0.05 };
        cfg.compression = Compression::TopK { k: 64 };
    });
    assert_eq!(
        masters_digest(&deploy),
        11_610_655_651_992_379_337,
        "fraction + FedProx + top-k moved"
    );
}
