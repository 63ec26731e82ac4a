//! Isolated probes, run only on traced runs: each times one layer's public
//! function on its own, away from the workload, so a later change to that
//! layer has a number that moves even when the end-to-end share is small.

use std::hint::black_box;

use rand::Rng;
use totoro_bench::simcore::{run_event_churn, run_timer_storm};
use totoro_dht::{implicit_route_hops, random_ids, Id};
use totoro_ml::{accuracy, Mlp, ModelUpdate, TaskGenerator};
use totoro_simnet::sub_rng;

use crate::spans::Spans;
use crate::workloads::Layer;

/// simnet's event loop alone: a token ring and a timer storm, in millions
/// of events per host second.
pub fn simnet(smoke: bool, spans: &mut Spans, layer: &mut Layer) {
    let scale = if smoke { 100 } else { 2_000 };
    let (events, s) = spans.time("simnet.probe_event_churn", || {
        run_event_churn(1_000, 1_000, scale)
    });
    layer.insert("simnet.probe_event_churn_meps", events as f64 / s / 1e6);
    let (events, s) = spans.time("simnet.probe_timer_storm", || {
        run_timer_storm(1_000, 64, scale / 64)
    });
    layer.insert("simnet.probe_timer_storm_meps", events as f64 / s / 1e6);
}

/// dht routing alone: 200 lookups over an implicit perfect overlay.
pub fn dht(seed: u64, smoke: bool, spans: &mut Spans, layer: &mut Layer) {
    const LOOKUPS: usize = 200;
    let n = if smoke { 2_000 } else { 100_000 };
    let mut rng = sub_rng(seed, "e2e-route-probe");
    let ids = random_ids(n, &mut rng);
    let keys: Vec<Id> = (0..LOOKUPS).map(|_| Id::new(rng.gen::<u128>())).collect();
    let (hops, s) = spans.time("dht.probe_route", || {
        keys.iter()
            .enumerate()
            .map(|(t, &key)| u64::from(implicit_route_hops(&ids, (t * 131) % n, key, 4)))
            .sum::<u64>()
    });
    layer.insert("dht.probe_route_us", s * 1e6 / LOOKUPS as f64);
    layer.insert("dht.probe_route_hops_mean", hops as f64 / LOOKUPS as f64);
}

/// ml kernels alone, at the workload's model dimensions: one local epoch
/// on one client shard, one 16-way FedAvg merge, one test-set evaluation.
pub fn ml(
    generator: &TaskGenerator,
    samples: usize,
    seed: u64,
    client_rounds: u64,
    run_s: f64,
    spans: &mut Spans,
    layer: &mut Layer,
) {
    const REPS: u32 = 200;
    let mut rng = sub_rng(seed, "e2e-ml-probe");
    let dims = [generator.spec.dim, 48, generator.spec.classes];
    let mut model = Mlp::new(&dims, &mut rng);
    let shard = generator
        .client_shards(1, samples, 0.5, &mut rng)
        .pop()
        .expect("one shard requested");
    let test = generator.test_set(300, &mut rng);

    let ((), s) = spans.time("ml.probe_train_epoch", || {
        for _ in 0..REPS {
            black_box(model.train_epoch(&shard.xs, &shard.ys, 20, 0.1, None));
        }
    });
    let train_us = s * 1e6 / f64::from(REPS);
    layer.insert("ml.probe_train_epoch_us", train_us);
    layer.insert(
        "ml.train_share_est",
        train_us * client_rounds as f64 / (run_s * 1e6),
    );

    let update = ModelUpdate::from_client(&model.to_weights(), samples as u64);
    let ((), s) = spans.time("ml.probe_fedavg", || {
        for _ in 0..REPS {
            let mut acc = ModelUpdate::zero(update.weighted.len());
            for _ in 0..16 {
                acc.merge(black_box(&update));
            }
            black_box(acc.finalize());
        }
    });
    layer.insert("ml.probe_fedavg_us", s * 1e6 / f64::from(REPS));

    let ((), s) = spans.time("ml.probe_eval", || {
        for _ in 0..REPS {
            black_box(accuracy(black_box(&model), &test));
        }
    });
    layer.insert("ml.probe_eval_us", s * 1e6 / f64::from(REPS));
}
