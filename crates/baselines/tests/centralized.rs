//! End-to-end tests of the centralized baseline engine.

use std::sync::Arc;

use totoro_baselines::{AppSpec, CentralMsg, CentralizedEngine, ServerProfile};
use totoro_ml::{femnist_like, text_classification_like, AggregationRule, Mlp, TaskGenerator};
use totoro_simnet::{sub_rng, Application, Shared, SimTime, Topology};

fn mk_spec(
    name: &str,
    generator: &TaskGenerator,
    target: f64,
    max_rounds: u64,
    seed: u64,
) -> AppSpec {
    let mut rng = sub_rng(seed, "test-set");
    AppSpec {
        name: name.to_string(),
        model_dims: vec![generator.spec.dim, 32, generator.spec.classes],
        aggregation: AggregationRule::FedAvg,
        local_epochs: 1,
        batch_size: 20,
        lr: 0.15,
        target_accuracy: target,
        max_rounds,
        test_set: Arc::new(generator.test_set(200, &mut rng)),
        seed,
    }
}

#[test]
fn single_app_trains_to_target() {
    let n = 13; // server + 12 clients
    let mut rng = sub_rng(1, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut engine = CentralizedEngine::new(
        Topology::uniform(n, 1_000, 5_000),
        ServerProfile::fedscale_like(),
        1,
    );
    let participants: Vec<usize> = (1..n).collect();
    let shards = generator.client_shards(participants.len(), 60, 0.5, &mut rng);
    let spec = mk_spec("quick", &generator, 0.80, 60, 7);
    let app = engine.submit_app(spec, &participants, shards);
    let finished = engine.run(SimTime::from_secs(3_600));
    assert!(finished, "training did not finish");
    let curve = engine.server().curve(app);
    assert!(!curve.is_empty());
    let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
    assert!(best >= 0.8, "target never reached: best = {best}");
    assert!(
        engine.server().time_to_target(app).is_some(),
        "time-to-target not recorded"
    );
    // Time axis is monotone.
    assert!(curve.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
}

#[test]
fn concurrent_apps_queue_at_the_central_server() {
    // The paper's core claim about centralized engines: per-app
    // time-to-target grows with the number of concurrently trained apps.
    let n = 25;
    let mut rng = sub_rng(2, "gen");
    let generator = TaskGenerator::new(femnist_like(), &mut rng);
    let rounds = 6;

    let run_with_apps = |num_apps: usize| -> f64 {
        let mut rng = sub_rng(3, "gen-inner");
        let mut engine = CentralizedEngine::new(
            Topology::uniform(n, 1_000, 5_000),
            ServerProfile::openfl_like(),
            2,
        );
        let participants: Vec<usize> = (1..n).collect();
        for a in 0..num_apps {
            let shards = generator.client_shards(participants.len(), 30, 0.5, &mut rng);
            // Unreachable target: run exactly `rounds` rounds.
            let spec = mk_spec(&format!("app-{a}"), &generator, 2.0, rounds, 100 + a as u64);
            engine.submit_app(spec, &participants, shards);
        }
        engine.run(SimTime::from_secs(36_000));
        // Mean time to complete all rounds across apps.
        let server = engine.server();
        (0..num_apps)
            .map(|a| server.curve(a).last().unwrap().time_secs)
            .sum::<f64>()
            / num_apps as f64
    };

    let t1 = run_with_apps(1);
    let t4 = run_with_apps(4);
    assert!(
        t4 > 1.8 * t1,
        "queuing delays too small: 1 app {t1:.1}s, 4 apps {t4:.1}s"
    );
}

#[test]
fn fedscale_profile_outpaces_openfl_under_load() {
    let n = 17;
    let mut rng = sub_rng(4, "gen");
    let generator = TaskGenerator::new(femnist_like(), &mut rng);
    let run_profile = |profile: ServerProfile| -> f64 {
        let mut rng = sub_rng(5, "gen-inner");
        let mut engine = CentralizedEngine::new(Topology::uniform(n, 1_000, 5_000), profile, 3);
        let participants: Vec<usize> = (1..n).collect();
        for a in 0..3 {
            let shards = generator.client_shards(participants.len(), 30, 0.5, &mut rng);
            let spec = mk_spec(&format!("app-{a}"), &generator, 2.0, 5, 200 + a);
            engine.submit_app(spec, &participants, shards);
        }
        engine.run(SimTime::from_secs(36_000));
        let server = engine.server();
        (0..3)
            .map(|a| server.curve(a).last().unwrap().time_secs)
            .fold(0.0, f64::max)
    };
    let openfl = run_profile(ServerProfile::openfl_like());
    let fedscale = run_profile(ServerProfile::fedscale_like());
    assert!(
        fedscale < openfl,
        "fedscale {fedscale:.1}s should beat openfl {openfl:.1}s"
    );
}

#[test]
fn fedprox_also_converges() {
    let n = 9;
    let mut rng = sub_rng(6, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut engine = CentralizedEngine::new(
        Topology::uniform(n, 1_000, 5_000),
        ServerProfile::fedscale_like(),
        4,
    );
    let participants: Vec<usize> = (1..n).collect();
    // Heavy skew is FedProx's home turf.
    let shards = generator.client_shards(participants.len(), 60, 0.1, &mut rng);
    let mut spec = mk_spec("prox", &generator, 0.75, 50, 9);
    spec.aggregation = AggregationRule::FedProx { mu: 0.05 };
    let app = engine.submit_app(spec, &participants, shards);
    engine.run(SimTime::from_secs(3_600));
    let best = engine
        .server()
        .curve(app)
        .iter()
        .map(|p| p.accuracy)
        .fold(0.0, f64::max);
    assert!(best > 0.5, "fedprox best accuracy {best}");
}

#[test]
fn traffic_concentrates_on_the_server() {
    let n = 11;
    let mut rng = sub_rng(7, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut engine = CentralizedEngine::new(
        Topology::uniform(n, 1_000, 5_000),
        ServerProfile::fedscale_like(),
        5,
    );
    let participants: Vec<usize> = (1..n).collect();
    let shards = generator.client_shards(participants.len(), 40, 0.5, &mut rng);
    let spec = mk_spec("traffic", &generator, 2.0, 4, 11);
    engine.submit_app(spec, &participants, shards);
    engine.run(SimTime::from_secs(3_600));
    let server_sent = engine.sim().traffic().node(0).payload_sent;
    let client_max = (1..n)
        .map(|i| engine.sim().traffic().node(i).payload_sent)
        .max()
        .unwrap();
    // Hub-and-spoke: the server sends roughly K times one client's volume.
    assert!(
        server_sent > 5 * client_max,
        "server {server_sent} vs client max {client_max}"
    );
}

#[test]
fn dead_client_does_not_stall_the_server() {
    // Without a server-side straggler cutoff, one dead client would freeze
    // its application forever; the watchdog must finalize with the updates
    // that arrived.
    let n = 9;
    let mut rng = sub_rng(8, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut engine = CentralizedEngine::new(
        Topology::uniform(n, 1_000, 5_000),
        ServerProfile::fedscale_like(),
        6,
    );
    let participants: Vec<usize> = (1..n).collect();
    let shards = generator.client_shards(participants.len(), 40, 0.5, &mut rng);
    let mut spec = mk_spec("stall", &generator, 2.0, 5, 13);
    spec.max_rounds = 5;
    let app = engine.submit_app(spec, &participants, shards);

    // Kill a client almost immediately.
    engine
        .sim_mut()
        .schedule_down(3, SimTime::from_micros(1_000));
    let finished = engine.run(SimTime::from_secs(7_200));
    assert!(finished, "server stalled on the dead client");
    assert_eq!(
        engine.server().curve(app).last().map(|p| p.round),
        Some(5),
        "not all rounds completed"
    );
}

#[test]
fn client_churned_out_at_submission_never_contributes() {
    // Chaos-harness regression: a client that is down when the app is
    // submitted never receives its shard or spec (churn silences a node
    // completely, driver work included). Once revived it keeps receiving
    // Downloads for in-flight rounds; it must ignore them rather than
    // upload a bogus update from nothing, and training must complete.
    let n = 9;
    let mut rng = sub_rng(10, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut engine = CentralizedEngine::new(
        Topology::uniform(n, 1_000, 5_000),
        ServerProfile::fedscale_like(),
        7,
    );
    engine.sim_mut().schedule_down(3, SimTime::from_micros(500));
    engine.sim_mut().run_until(SimTime::from_micros(10_000));
    let participants: Vec<usize> = (1..n).collect();
    let shards = generator.client_shards(participants.len(), 40, 0.5, &mut rng);
    let spec = mk_spec("absent", &generator, 2.0, 5, 17);
    let app = engine.submit_app(spec, &participants, shards);
    // Revive mid-training: round 1 is still stalled on the watchdog.
    engine.sim_mut().schedule_up(3, SimTime::from_secs(60));
    let finished = engine.run(SimTime::from_secs(7_200));
    assert!(finished, "server stalled on the uninstalled client");
    assert_eq!(
        engine.server().curve(app).last().map(|p| p.round),
        Some(5),
        "not all rounds completed"
    );
    // The revived client ignored every Download: it never sent a byte.
    assert_eq!(
        engine.sim().traffic().node(3).payload_sent,
        0,
        "the shard-less client uploaded something"
    );
}

#[test]
fn client_downed_mid_round_rejoins_later_rounds() {
    // Chaos-harness regression: churn a client out in the middle of
    // training. Downloads sent while it is down bounce, the watchdog
    // finalizes the affected rounds without it (no partial or duplicate
    // finalization), and after revival it participates again.
    let n = 9;
    let mut rng = sub_rng(11, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut engine = CentralizedEngine::new(
        Topology::uniform(n, 1_000, 5_000),
        ServerProfile::fedscale_like(),
        8,
    );
    let participants: Vec<usize> = (1..n).collect();
    let shards = generator.client_shards(participants.len(), 40, 0.5, &mut rng);
    let spec = mk_spec("blinker", &generator, 2.0, 8, 19);
    let app = engine.submit_app(spec, &participants, shards);
    // Healthy rounds take ~0.46 s; down at 1 s lands mid-training, and the
    // revival at 200 s lands between two watchdog-finalized rounds.
    engine.sim_mut().schedule_down(5, SimTime::from_secs(1));
    engine.sim_mut().schedule_up(5, SimTime::from_secs(200));
    let finished = engine.run(SimTime::from_secs(7_200));
    assert!(finished, "server stalled on the churned client");

    let curve = engine.server().curve(app);
    assert_eq!(curve.last().map(|p| p.round), Some(8));
    // Exactly one finalization per round: the dead client neither stalled
    // a round forever nor let one finalize twice.
    assert_eq!(curve.len(), 8, "round finalized twice or skipped");
    assert!(curve.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
    // The churn window really overlapped training (watchdog rounds), and
    // post-revival rounds are fast again — the client is contributing, so
    // the server no longer waits out the 120 s watchdog.
    let last_gap = curve[7].time_secs - curve[6].time_secs;
    assert!(
        curve.last().unwrap().time_secs > 200.0,
        "training ended before the churn window"
    );
    assert!(
        last_gap < 10.0,
        "revived client still absent: final round took {last_gap:.1}s"
    );
}

#[test]
fn a_client_holds_and_trains_only_the_apps_it_was_installed_for() {
    // Client 1 takes part in apps 0 and 2, not in app 1.
    let n = 5;
    let mut rng = sub_rng(12, "gen");
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut engine = CentralizedEngine::new(
        Topology::uniform(n, 1_000, 5_000),
        ServerProfile::fedscale_like(),
        9,
    );
    let mut installed_bytes = 0;
    for app in 0..3 {
        let participants: Vec<usize> = if app == 1 {
            vec![2, 3, 4]
        } else {
            (1..n).collect()
        };
        let shards = generator.client_shards(participants.len(), 20 + 10 * app, 0.5, &mut rng);
        if app != 1 {
            installed_bytes += shards[0].len() * (shards[0].dim() + 1) * 4;
        }
        let spec = mk_spec(&format!("app-{app}"), &generator, 2.0, 3, 30 + app as u64);
        engine.submit_app(spec, &participants, shards);
    }
    let client_bytes = |e: &CentralizedEngine| e.sim().app(1).memory_bytes();
    assert_eq!(
        client_bytes(&engine),
        installed_bytes,
        "the shards of 0 and 2"
    );

    // Downloads injected well before the server's first dispatch (its
    // round set-up alone is hundreds of milliseconds).
    let dims = vec![generator.spec.dim, 32, generator.spec.classes];
    let weights = Shared::new(vec![0.0f32; Mlp::param_count(&dims)]);
    let download = |app| CentralMsg::Download {
        app,
        round: 1,
        weights: weights.clone(),
    };
    engine
        .sim_mut()
        .with_app(0, |_, ctx| ctx.send(1, download(1)))
        .expect("the server is up");
    engine.sim_mut().run_until(SimTime::from_micros(100_000));
    assert_eq!(client_bytes(&engine), installed_bytes, "app 1 was trained");
    assert_eq!(engine.sim().traffic().node(1).payload_sent, 0);

    // The same download for an installed app is trained and uploaded.
    engine
        .sim_mut()
        .with_app(0, |_, ctx| ctx.send(1, download(2)))
        .expect("the server is up");
    engine.sim_mut().run_until(SimTime::from_micros(200_000));
    assert_eq!(
        client_bytes(&engine),
        installed_bytes + Mlp::param_count(&dims) * 4
    );
    assert!(engine.sim().traffic().node(1).payload_sent > 0);
}
