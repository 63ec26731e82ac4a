//! `totoro-sim` — run a Totoro deployment from the command line.
//!
//! A thin driver over [`totoro::TotoroDeployment`] for exploring the engine
//! without writing code:
//!
//! ```text
//! totoro-sim --nodes 64 --apps 3 --dataset speech --fanout 16 \
//!            --selection fraction:0.5 --privacy dp:10:0.01 \
//!            --aggregation fedprox:0.05 --churn 0.05 --seed 7
//! ```
//!
//! Flags (all optional):
//!
//! | flag | default | meaning |
//! |------|---------|---------|
//! | `--nodes N` | 48 | edge nodes in the overlay |
//! | `--apps K` | 1 | concurrent FL applications |
//! | `--dataset D` | `speech` | `speech` \| `femnist` \| `text` |
//! | `--fanout F` | 16 | tree fanout (8/16/32 per the paper) |
//! | `--samples S` | 40 | training samples per client |
//! | `--alpha A` | 0.5 | Dirichlet non-IID concentration |
//! | `--rounds R` | 60 | max rounds per app |
//! | `--target T` | dataset default | target test accuracy |
//! | `--selection P` | `all` | `all` \| `fraction:F` \| `loss:FLOOR` |
//! | `--aggregation G` | `fedavg` | `fedavg` \| `fedprox:MU` |
//! | `--compression C` | `none` | `none` \| `int8` \| `topk:K` |
//! | `--privacy V` | `none` | `none` \| `dp:CLIP:SIGMA` \| `secagg` |
//! | `--quorum Q` | off | semi-synchronous quorum fraction |
//! | `--churn F` | 0 | fraction of nodes failing mid-training |
//! | `--geo` | off | EUA-shaped geographic topology |
//! | `--seed S` | 1 | experiment seed |

use std::sync::Arc;

use totoro::dht::DhtConfig;
use totoro::ml::{
    femnist_like, speech_commands_like, text_classification_like, AggregationRule, Compression,
    Privacy, TaskGenerator,
};
use totoro::pubsub::ForestConfig;
use totoro::simnet::geo::{eua_regions_scaled, generate};
use totoro::simnet::{sub_rng, ChurnSchedule, LatencyModel, SimTime, Topology};
use totoro::{FlAppConfig, RoundPolicy, SelectionPolicy, TotoroDeployment};

fn arg(args: &[String], key: &str) -> Option<String> {
    let flag = format!("--{key}");
    args.iter()
        .position(|a| *a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    arg(args, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn parse_selection(s: &str) -> SelectionPolicy {
    let mut parts = s.split(':');
    match parts.next() {
        Some("fraction") => {
            SelectionPolicy::Fraction(parts.next().and_then(|v| v.parse().ok()).unwrap_or(0.5))
        }
        Some("loss") => SelectionPolicy::LossAdaptive {
            floor: parts.next().and_then(|v| v.parse().ok()).unwrap_or(0.2),
        },
        _ => SelectionPolicy::All,
    }
}

fn parse_aggregation(s: &str) -> AggregationRule {
    let mut parts = s.split(':');
    match parts.next() {
        Some("fedprox") => AggregationRule::FedProx {
            mu: parts.next().and_then(|v| v.parse().ok()).unwrap_or(0.05),
        },
        _ => AggregationRule::FedAvg,
    }
}

fn parse_compression(s: &str) -> Compression {
    let mut parts = s.split(':');
    match parts.next() {
        Some("int8") => Compression::Int8,
        Some("topk") => Compression::TopK {
            k: parts.next().and_then(|v| v.parse().ok()).unwrap_or(100),
        },
        _ => Compression::None,
    }
}

fn parse_privacy(s: &str) -> Privacy {
    let mut parts = s.split(':');
    match parts.next() {
        Some("dp") => Privacy::GaussianDp {
            clip: parts.next().and_then(|v| v.parse().ok()).unwrap_or(10.0),
            sigma: parts.next().and_then(|v| v.parse().ok()).unwrap_or(0.01),
        },
        Some("secagg") => Privacy::SecureAggregation,
        _ => Privacy::None,
    }
}

#[expect(
    clippy::disallowed_macros,
    reason = "interactive demo binary; its stdout is a human-facing summary, never golden-compared"
)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("see the module docs at the top of crates/core/src/bin/totoro-sim.rs");
        return;
    }
    let nodes: usize = arg_or(&args, "nodes", 48);
    let apps: usize = arg_or(&args, "apps", 1);
    let dataset = arg(&args, "dataset").unwrap_or_else(|| "speech".into());
    let fanout: usize = arg_or(&args, "fanout", 16);
    let samples: usize = arg_or(&args, "samples", 40);
    let alpha: f64 = arg_or(&args, "alpha", 0.5);
    let rounds: u64 = arg_or(&args, "rounds", 60);
    let seed: u64 = arg_or(&args, "seed", 1);
    let churn: f64 = arg_or(&args, "churn", 0.0);
    let geo = args.iter().any(|a| a == "--geo");

    let spec = match dataset.as_str() {
        "femnist" => femnist_like(),
        "text" => text_classification_like(),
        _ => speech_commands_like(),
    };
    let default_target = match spec.name {
        "speech" => 0.53,
        "femnist" => 0.755,
        _ => 0.9,
    };
    let target: f64 = arg_or(&args, "target", default_target);

    println!(
        "totoro-sim: {nodes} nodes, {apps} app(s), dataset {} ({} classes), fanout {fanout}, seed {seed}",
        spec.name, spec.classes
    );

    // Topology.
    let topology = if geo {
        let mut rng = sub_rng(seed, "geo");
        let placed = generate(&eua_regions_scaled(nodes), &mut rng);
        Topology::from_placements(
            &placed,
            LatencyModel::Geo {
                base_us: 500,
                per_km_us: 5.0,
            },
        )
    } else {
        Topology::uniform(nodes, 1_000, 5_000)
    };
    let n = topology.len();

    let mut deploy = TotoroDeployment::new(
        topology,
        seed,
        DhtConfig::with_fanout(fanout),
        ForestConfig {
            fanout_cap: fanout,
            ..ForestConfig::default()
        },
    );

    // Applications.
    let mut rng = sub_rng(seed, "tasks");
    let generator = TaskGenerator::new(spec, &mut rng);
    for a in 0..apps {
        let shards = generator.client_shards(n, samples, alpha, &mut rng);
        let mut cfg = FlAppConfig::new(
            &format!("{}-{a}", generator.spec.name),
            vec![generator.spec.dim, 48, generator.spec.classes],
            Arc::new(generator.test_set(300, &mut rng)),
        );
        cfg.salt = a as u64;
        cfg.seed = seed.wrapping_add(a as u64);
        cfg.target_accuracy = target;
        cfg.max_rounds = rounds;
        cfg.selection = parse_selection(&arg(&args, "selection").unwrap_or_default());
        cfg.aggregation = parse_aggregation(&arg(&args, "aggregation").unwrap_or_default());
        cfg.compression = parse_compression(&arg(&args, "compression").unwrap_or_default());
        cfg.privacy = parse_privacy(&arg(&args, "privacy").unwrap_or_default());
        if let Some(q) = arg(&args, "quorum").and_then(|v| v.parse::<f64>().ok()) {
            cfg.round_policy = RoundPolicy::SemiSynchronous { quorum: q };
        }
        deploy.submit_app(cfg, &(0..n).collect::<Vec<_>>(), shards);
    }

    // Optional mid-training churn.
    if churn > 0.0 {
        let mut crng = sub_rng(seed, "churn");
        let members: Vec<usize> = (0..n).collect();
        let schedule = ChurnSchedule::mass_failure(
            &members,
            churn,
            SimTime::from_micros(20 * 1_000_000),
            &mut crng,
        );
        println!(
            "churn: killing {} nodes at t=20s",
            schedule.nodes_affected()
        );
        schedule.apply(deploy.sim_mut());
    }

    let finished = deploy.run(SimTime::from_micros(24 * 3_600 * 1_000_000));

    println!("\napp                  master  rounds  best acc  time-to-target");
    for a in 0..apps {
        let curve = deploy.curve(a);
        // det: allow(float: f64::max is exactly commutative and associative, so fold order cannot change the result)
        let best = curve.iter().map(|p| p.accuracy).fold(0.0, f64::max);
        let r = curve.last().map_or(0, |p| p.round);
        let master = deploy.master_of(a).map_or("-".into(), |m| m.to_string());
        let ttt = deploy
            .time_to_target(a)
            .map_or("-".into(), |t| format!("{t:.1}s"));
        println!(
            "{:<20} {master:>6}  {r:>6}  {best:>8.3}  {ttt:>14}",
            deploy.config(a).name
        );
    }
    let traffic = deploy.sim().traffic();
    println!(
        "\nsimulated time: {:.1}s | events: {} | mean payload sent/node: {:.1} KiB | all finished: {finished}",
        deploy.sim().now().as_secs_f64(),
        deploy.sim().events_processed(),
        traffic.mean_payload_sent() / 1024.0
    );
}
