//! The multi-ring scenario from §4.2/§4.4: a road-traffic detection
//! application needs data from several geographic zones, while a medical
//! application must stay confined to its home edge site (administrative
//! isolation).
//!
//! The example builds an EUA-shaped geographic topology, bins nodes into
//! edge zones with distributed binning, composes zone-prefixed NodeIds
//! (the locality-aware multi-ring structure), and then shows that a
//! zone-restricted application's packets are blocked at the boundary while
//! the cross-zone application spans rings.
//!
//! ```text
//! cargo run --release -p totoro-examples --bin traffic_detection
//! ```

use std::sync::Arc;

use totoro::dht::{ids_for_zones, DhtConfig};
use totoro::ml::{text_classification_like, TaskGenerator};
use totoro::pubsub::ForestConfig;
use totoro::simnet::geo::{eua_regions_scaled, generate};
use totoro::simnet::{assign_zones, sub_rng, BinningConfig, LatencyModel, SimTime, Topology};
use totoro::{FlAppConfig, TotoroDeployment};

fn main() {
    let seed = 11;
    let zone_bits = 4;

    // A geographic edge network shaped like the EUA dataset.
    let mut rng = sub_rng(seed, "geo");
    let nodes = generate(&eua_regions_scaled(160), &mut rng);
    let topology = Topology::from_placements(
        &nodes,
        LatencyModel::Geo {
            base_us: 500,
            per_km_us: 5.0,
        },
    );
    let n = topology.len();

    // Distributed binning forms the edge zones (Fig. 5a).
    let zones = assign_zones(
        &topology,
        &BinningConfig {
            num_landmarks: 4,
            level_boundaries_us: vec![4_000, 12_000, 30_000],
            max_zones: 8,
        },
        &mut rng,
    );
    println!(
        "binned {n} nodes into {} zones: sizes {:?}",
        zones.num_zones,
        zones.zone_sizes()
    );

    // NodeIds carry the zone prefix: D = P * 2^n + S (§4.2).
    let ids = ids_for_zones(&zones.zone_of, zone_bits, &mut rng);
    let dht_config = DhtConfig {
        zone_bits,
        ..DhtConfig::default()
    };

    // The medical app is zone-restricted; the traffic app is not.
    let restricted_forest = ForestConfig {
        zone_restricted: true,
        ..ForestConfig::default()
    };
    let home_zone: u16 = 0;
    let home_members = zones.members(home_zone);

    // --- Zone-restricted medical application ------------------------------
    let mut deploy = TotoroDeployment::with_ids(
        topology.clone(),
        seed,
        dht_config,
        restricted_forest,
        ids.clone(),
    );
    let generator = TaskGenerator::new(text_classification_like(), &mut rng);
    let mut cfg = FlAppConfig::new(
        "regional-disease-model",
        vec![generator.spec.dim, 32, generator.spec.classes],
        Arc::new(generator.test_set(200, &mut rng)),
    );
    cfg.zone_restricted = true;
    cfg.max_rounds = 10;
    cfg.target_accuracy = 2.0;
    // Key the app into the home zone so its rendezvous stays local.
    cfg.home_zone = Some((u64::from(home_zone), zone_bits));
    let shards = generator.client_shards(home_members.len(), 40, 0.5, &mut rng);
    let app = deploy.submit_app(cfg, &home_members, shards);
    deploy.run(SimTime::from_secs(600));

    let blocked: u64 = (0..n).map(|i| deploy.sim().app(i).stats.blocked).sum();
    let curve = deploy.curve(app);
    println!(
        "\n[restricted medical app] rounds completed: {}, packets blocked at zone boundaries: {blocked}",
        curve.last().map_or(0, |p| p.round),
    );
    // All tree members stay in the home zone.
    let topic = deploy.config(app).app_id();
    let foreign_members = (0..n)
        .filter(|&i| {
            zones.zone_of[i] != home_zone
                && deploy
                    .sim()
                    .app(i)
                    .upper
                    .state
                    .membership(topic)
                    .is_some_and(|m| m.attached())
        })
        .count();
    println!("[restricted medical app] tree members outside the home zone: {foreign_members}");

    // --- Cross-zone road-traffic application -------------------------------
    let mut deploy =
        TotoroDeployment::with_ids(topology, seed + 1, dht_config, ForestConfig::default(), ids);
    let mut cfg = FlAppConfig::new(
        "road-traffic-detection",
        vec![generator.spec.dim, 32, generator.spec.classes],
        Arc::new(generator.test_set(200, &mut rng)),
    );
    cfg.max_rounds = 10;
    cfg.target_accuracy = 2.0;
    let participants: Vec<usize> = (0..n).collect();
    let shards = generator.client_shards(n, 40, 0.5, &mut rng);
    let app = deploy.submit_app(cfg, &participants, shards);
    deploy.run(SimTime::from_secs(600));

    let topic = deploy.config(app).app_id();
    let mut zones_spanned: Vec<u16> = (0..n)
        .filter(|&i| {
            deploy
                .sim()
                .app(i)
                .upper
                .state
                .membership(topic)
                .is_some_and(|m| m.attached())
        })
        .map(|i| zones.zone_of[i])
        .collect();
    zones_spanned.sort_unstable();
    zones_spanned.dedup();
    println!(
        "\n[cross-zone traffic app] rounds completed: {}, tree spans {} of {} zones",
        deploy.curve(app).last().map_or(0, |p| p.round),
        zones_spanned.len(),
        zones.num_zones
    );
}
