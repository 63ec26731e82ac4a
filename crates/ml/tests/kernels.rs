//! The bitwise contract of the blocked MLP kernels.
//!
//! `totoro_ml::nn` tiles its loops but never reorders a reduction, so every
//! loss, weight, logit and accuracy must equal — to the bit — what the
//! per-sample implementation it replaced produced. That implementation is
//! kept here, verbatim, as the oracle ([`reference`]); the properties below
//! compare the two over every chunk/tail split, and two fingerprints pin
//! the benchmark's shape to constants captured before the kernels changed.
//!
//! Run this file in release as well as in debug (CI does): debug builds do
//! not vectorise, so only a release run can see an optimiser-induced
//! divergence.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use totoro_ml::{accuracy, mean_loss, speech_commands_like, Dataset, Mlp, TaskGenerator};

/// The per-sample MLP as it stood before the blocked kernels: one serial
/// `acc += w·x` chain per output, one pass over the whole gradient vector
/// per sample, a `to_weights`/`from_weights` round trip per minibatch.
/// Function bodies are verbatim copies; only the container changed
/// (`RefMlp` is built from an [`Mlp`]'s flattened weights because `Mlp`'s
/// layers are private).
#[allow(clippy::wrong_self_convention)] // verbatim copies keep their names
mod reference {
    use totoro_ml::{argmax, Dataset, Mlp};

    pub struct Dense {
        pub in_dim: usize,
        pub out_dim: usize,
        pub w: Vec<f32>,
        pub b: Vec<f32>,
    }

    impl Dense {
        pub fn forward(&self, x: &[f32]) -> Vec<f32> {
            debug_assert_eq!(x.len(), self.in_dim);
            let mut y = self.b.clone();
            for (o, yo) in y.iter_mut().enumerate() {
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                let mut acc = 0.0;
                for (wi, xi) in row.iter().zip(x) {
                    acc += wi * xi;
                }
                *yo += acc;
            }
            y
        }

        pub fn num_params(&self) -> usize {
            self.w.len() + self.b.len()
        }
    }

    pub struct RefMlp {
        layers: Vec<Dense>,
    }

    impl RefMlp {
        pub fn of(model: &Mlp) -> Self {
            let weights = model.to_weights();
            let mut off = 0;
            let layers = model
                .dims
                .windows(2)
                .map(|d| {
                    let (in_dim, out_dim) = (d[0], d[1]);
                    let w = weights[off..off + in_dim * out_dim].to_vec();
                    off += in_dim * out_dim;
                    let b = weights[off..off + out_dim].to_vec();
                    off += out_dim;
                    Dense {
                        in_dim,
                        out_dim,
                        w,
                        b,
                    }
                })
                .collect();
            RefMlp { layers }
        }

        pub fn num_params(&self) -> usize {
            self.layers.iter().map(Dense::num_params).sum()
        }

        pub fn forward(&self, x: &[f32]) -> Vec<f32> {
            let mut h = x.to_vec();
            for (i, layer) in self.layers.iter().enumerate() {
                h = layer.forward(&h);
                if i + 1 < self.layers.len() {
                    for v in &mut h {
                        *v = v.max(0.0);
                    }
                }
            }
            h
        }

        pub fn predict(&self, x: &[f32]) -> usize {
            argmax(&self.forward(x))
        }

        pub fn loss_grad(&self, x: &[f32], label: usize, grads: &mut [f32]) -> f32 {
            // Forward with cached activations.
            let mut acts: Vec<Vec<f32>> = vec![x.to_vec()];
            for (i, layer) in self.layers.iter().enumerate() {
                let mut h = layer.forward(acts.last().expect("non-empty"));
                if i + 1 < self.layers.len() {
                    for v in &mut h {
                        *v = v.max(0.0);
                    }
                }
                acts.push(h);
            }
            let logits = acts.last().expect("non-empty");
            let probs = softmax(logits);
            let loss = -(probs[label].max(1e-12)).ln();

            // Backward.
            let mut delta: Vec<f32> = probs;
            delta[label] -= 1.0;
            let mut offset_end = grads.len();
            for (i, layer) in self.layers.iter().enumerate().rev() {
                let params = layer.num_params();
                let offset = offset_end - params;
                let input = &acts[i];
                let gw = &mut grads[offset..offset + layer.w.len()];
                for o in 0..layer.out_dim {
                    let d = delta[o];
                    let row = &mut gw[o * layer.in_dim..(o + 1) * layer.in_dim];
                    for (g, xi) in row.iter_mut().zip(input) {
                        *g += d * xi;
                    }
                }
                let gb = &mut grads[offset + layer.w.len()..offset_end];
                for (g, d) in gb.iter_mut().zip(&delta) {
                    *g += d;
                }
                if i > 0 {
                    // Propagate to the previous layer through W^T and the ReLU
                    // derivative of its (post-activation) output.
                    let mut prev = vec![0.0f32; layer.in_dim];
                    for (o, &d) in delta.iter().enumerate().take(layer.out_dim) {
                        let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                        for (p, wi) in prev.iter_mut().zip(row) {
                            *p += d * wi;
                        }
                    }
                    for (p, a) in prev.iter_mut().zip(&acts[i]) {
                        if *a <= 0.0 {
                            *p = 0.0;
                        }
                    }
                    delta = prev;
                }
                offset_end = offset;
            }
            loss
        }

        pub fn to_weights(&self) -> Vec<f32> {
            let mut out = Vec::with_capacity(self.num_params());
            for l in &self.layers {
                out.extend_from_slice(&l.w);
                out.extend_from_slice(&l.b);
            }
            out
        }

        pub fn from_weights(&mut self, weights: &[f32]) {
            assert_eq!(weights.len(), self.num_params(), "weight length mismatch");
            let mut off = 0;
            for l in &mut self.layers {
                let wlen = l.w.len();
                l.w.copy_from_slice(&weights[off..off + wlen]);
                off += wlen;
                let blen = l.b.len();
                l.b.copy_from_slice(&weights[off..off + blen]);
                off += blen;
            }
        }

        pub fn train_epoch(
            &mut self,
            xs: &[Vec<f32>],
            ys: &[usize],
            batch_size: usize,
            lr: f32,
            prox: Option<(f32, &[f32])>,
        ) -> f32 {
            assert_eq!(xs.len(), ys.len());
            let n = xs.len();
            if n == 0 {
                return 0.0;
            }
            let p = self.num_params();
            let mut grads = vec![0.0f32; p];
            let mut total_loss = 0.0;
            let bs = batch_size.max(1);
            let mut i = 0;
            while i < n {
                let end = (i + bs).min(n);
                grads.iter_mut().for_each(|g| *g = 0.0);
                for k in i..end {
                    total_loss += self.loss_grad(&xs[k], ys[k], &mut grads);
                }
                let scale = lr / (end - i) as f32;
                let mut w = self.to_weights();
                if let Some((mu, global)) = prox {
                    debug_assert_eq!(global.len(), w.len());
                    for ((wi, gi), glob) in w.iter_mut().zip(&grads).zip(global) {
                        *wi -= scale * gi + lr * mu * (*wi - glob);
                    }
                } else {
                    for (wi, gi) in w.iter_mut().zip(&grads) {
                        *wi -= scale * gi;
                    }
                }
                self.from_weights(&w);
                i = end;
            }
            total_loss / n as f32
        }
    }

    pub fn softmax(logits: &[f32]) -> Vec<f32> {
        let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&x| (x - m).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    pub fn accuracy(model: &RefMlp, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let correct = ds
            .xs
            .iter()
            .zip(&ds.ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        correct as f64 / ds.len() as f64
    }

    pub fn mean_loss(model: &RefMlp, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let total: f64 = ds
            .xs
            .iter()
            .zip(&ds.ys)
            .map(|(x, &y)| {
                let p = softmax(&model.forward(x));
                -(f64::from(p[y].max(1e-12))).ln()
            })
            .sum();
        total / ds.len() as f64
    }
}

use reference::RefMlp;

/// FNV-1a over the little-endian bytes of each word.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, bits: u32) {
        for byte in bits.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// Asserts two float slices are equal bit for bit, naming the first
/// differing index.
fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}]: kernel {g:e} vs reference {w:e}"
        );
    }
}

/// The `fl_multiapp` client-round: the speech task's 48 -> 48 -> 35 model,
/// one 30-sample non-IID shard, batch 20, lr 0.1, `epochs` local epochs.
/// Returns the fingerprint of every epoch loss and every final weight.
fn benchmark_shape_fingerprint(prox_mu: Option<f32>, epochs: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x7070_2024);
    let generator = TaskGenerator::new(speech_commands_like(), &mut rng);
    let shard = generator
        .client_shards(1, 30, 0.5, &mut rng)
        .pop()
        .expect("one shard requested");
    let mut model = Mlp::new(&[48, 48, 35], &mut rng);
    let global = model.to_weights();
    let mut fp = Fnv::new();
    for _ in 0..epochs {
        let prox = prox_mu.map(|mu| (mu, global.as_slice()));
        let loss = model.train_epoch(&shard.xs, &shard.ys, 20, 0.1, prox);
        fp.word(loss.to_bits());
    }
    fp.floats(&model.to_weights());
    fp.0
}

/// Captured at the parent commit (84f4a35), with the per-sample
/// `loss_grad`/`train_epoch` still in `nn.rs` and before any kernel was
/// touched. A change to this constant is a change to every accuracy curve
/// in table3/fig8/fig9 and to `core.final_accuracy_mean` in the benchmark's
/// exact ledger; the goldens would say so too, but a minute later and
/// without pointing here.
#[test]
fn benchmark_shape_training_is_pinned_to_the_bit() {
    assert_eq!(
        benchmark_shape_fingerprint(None, 5),
        FEDAVG_FINGERPRINT,
        "FedAvg local training moved a bit"
    );
}

/// Same capture, FedProx (mu = 0.1) pulling toward the starting weights.
#[test]
fn benchmark_shape_fedprox_training_is_pinned_to_the_bit() {
    assert_eq!(
        benchmark_shape_fingerprint(Some(0.1), 5),
        FEDPROX_FINGERPRINT,
        "FedProx local training moved a bit"
    );
}

const FEDAVG_FINGERPRINT: u64 = 0xbc32_e9e3_2875_8a22;
const FEDPROX_FINGERPRINT: u64 = 0x2275_4d99_1df5_5e29;

/// Layer widths that hit every split of the kernels' 16-wide chunks:
/// uniform over 1..=70, with extra weight on the boundaries.
fn width() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 10] = [1, 2, 15, 16, 17, 31, 32, 33, 48, 64];
    (0usize..80).prop_map(|v| if v < 70 { v + 1 } else { EDGES[v - 70] })
}

/// A random model and dataset. With `dead` set, the first layer's biases
/// sit far below anything `W x` can reach, so every first-layer ReLU is
/// dead and the backward pass masks everything beneath it.
fn case(dims: &[usize], n: usize, dead: bool, seed: u64) -> (Mlp, Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Mlp::new(dims, &mut rng);
    if dead && dims.len() > 2 {
        // First-layer biases far below anything W x can reach.
        let mut w = model.to_weights();
        let first_w = dims[0] * dims[1];
        for b in &mut w[first_w..first_w + dims[1]] {
            *b = -1e4;
        }
        model.from_weights(&w);
    }
    let classes = *dims.last().expect("non-empty dims");
    let xs = (0..n)
        .map(|_| (0..dims[0]).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect())
        .collect();
    let ys = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    (model, Dataset { xs, ys, classes })
}

/// Trains kernel and reference side by side and compares every observable.
fn assert_bitwise_equal_training(
    dims: &[usize],
    n: usize,
    batch_size: usize,
    mu: Option<f32>,
    dead: bool,
    seed: u64,
) {
    let (mut model, ds) = case(dims, n, dead, seed);
    let mut oracle = RefMlp::of(&model);
    let global = model.to_weights();
    let tag = format!("dims {dims:?} n {n} batch {batch_size} mu {mu:?} dead {dead} seed {seed}");
    for epoch in 0..3 {
        let prox = mu.map(|mu| (mu, global.as_slice()));
        let got = model.train_epoch(&ds.xs, &ds.ys, batch_size, 0.1, prox);
        let want = oracle.train_epoch(&ds.xs, &ds.ys, batch_size, 0.1, prox);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{tag}: epoch {epoch} loss {got:e} vs {want:e}"
        );
        assert_same_bits(
            &format!("{tag}: epoch {epoch} weights"),
            &model.to_weights(),
            &oracle.to_weights(),
        );
    }
    for (k, x) in ds.xs.iter().enumerate() {
        assert_same_bits(
            &format!("{tag}: logits of sample {k}"),
            &model.forward(x),
            &oracle.forward(x),
        );
        assert_eq!(model.predict(x), oracle.predict(x), "{tag}: predict {k}");
    }
    assert_eq!(
        accuracy(&model, &ds).to_bits(),
        reference::accuracy(&oracle, &ds).to_bits(),
        "{tag}: accuracy"
    );
    assert_eq!(
        mean_loss(&model, &ds).to_bits(),
        reference::mean_loss(&oracle, &ds).to_bits(),
        "{tag}: mean_loss"
    );
    if let (Some(x), Some(&y)) = (ds.xs.first(), ds.ys.first()) {
        let mut got = vec![0.0f32; global.len()];
        let mut want = vec![0.0f32; global.len()];
        let lg = model.loss_grad(x, y, &mut got);
        let lw = oracle.loss_grad(x, y, &mut want);
        assert_eq!(lg.to_bits(), lw.to_bits(), "{tag}: loss_grad loss");
        assert_same_bits(&format!("{tag}: loss_grad"), &got, &want);
    }
}

proptest! {
    /// Random shapes (1 to 4 layers, widths 1..=70), every batch-size
    /// regime (1, a non-divisor of n, n, more than n), FedProx on and off,
    /// live and all-dead ReLUs, empty and non-empty shards: losses,
    /// weights, logits, predictions, accuracy and mean loss are equal to
    /// the per-sample oracle bit for bit.
    #[test]
    fn blocked_kernels_match_the_per_sample_oracle_bitwise(
        dims in prop::collection::vec(width(), 2..6),
        (n, batch_regime) in (0usize..=41, 0usize..4),
        (prox, dead) in (0usize..2, 0usize..3),
        seed in any::<u64>(),
    ) {
        let batch_size = match batch_regime {
            0 => 1,
            // The smallest size above 1 that does not divide n (n itself
            // when there is none, i.e. n < 3).
            1 => (2..n).find(|b| n % b != 0).unwrap_or(n),
            2 => n,
            _ => n + 7,
        };
        let mu = (prox == 1).then_some(0.25);
        assert_bitwise_equal_training(&dims, n, batch_size, mu, dead == 0, seed);
    }
}

/// The benchmark's two shapes and the awkward ones from the prototype's
/// hash, pinned so they run on every `cargo test` whatever the property's
/// sampler draws.
#[test]
fn named_shapes_match_the_oracle_bitwise() {
    for mu in [None, Some(0.1)] {
        assert_bitwise_equal_training(&[48, 48, 35], 30, 20, mu, false, 1);
        assert_bitwise_equal_training(&[40, 64, 62], 64, 20, mu, false, 2);
        assert_bitwise_equal_training(&[7, 13, 5, 3], 41, 8, mu, false, 3);
        assert_bitwise_equal_training(&[5, 2], 9, 4, mu, false, 4);
        assert_bitwise_equal_training(&[16, 16, 16], 16, 16, mu, false, 5);
        assert_bitwise_equal_training(&[33, 17, 70, 1], 5, 2, mu, true, 6);
        assert_bitwise_equal_training(&[48, 48, 35], 0, 20, mu, false, 7);
    }
}

/// Why the kernels accumulate each reduction in one chain: the classic
/// "four partial lanes, folded at the end" dot product is *not* the
/// left-to-right one. On this pinned input the two differ in the last bit,
/// so rewriting a kernel with `chunks_exact(4)` accumulators would move
/// every weight in the model — the differential test above would fail, and
/// this test says why.
#[test]
fn four_lane_partial_sums_move_bits() {
    let mut rng = StdRng::seed_from_u64(16);
    let w: Vec<f32> = (0..48).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    let x: Vec<f32> = (0..48).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();

    let mut serial = 0.0f32;
    for (wi, xi) in w.iter().zip(&x) {
        serial += wi * xi;
    }

    let mut lanes = [0.0f32; 4];
    for (wc, xc) in w.chunks_exact(4).zip(x.chunks_exact(4)) {
        for j in 0..4 {
            lanes[j] += wc[j] * xc[j];
        }
    }
    let folded = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);

    assert!(
        (serial - folded).abs() < 1e-5,
        "both are the same dot product up to rounding: {serial} vs {folded}"
    );
    assert_ne!(
        serial.to_bits(),
        folded.to_bits(),
        "pinned input no longer separates the two summation orders"
    );
}

fn tiny() -> (Mlp, Dataset) {
    case(&[4, 6, 3], 5, false, 11)
}

#[test]
#[should_panic(expected = "sample 3")]
fn train_epoch_rejects_a_short_feature_vector() {
    let (mut model, mut ds) = tiny();
    ds.xs[3].pop();
    model.train_epoch(&ds.xs, &ds.ys, 2, 0.1, None);
}

#[test]
#[should_panic(expected = "sample 2")]
fn train_epoch_rejects_an_out_of_range_label() {
    let (mut model, mut ds) = tiny();
    ds.ys[2] = 3;
    model.train_epoch(&ds.xs, &ds.ys, 2, 0.1, None);
}

#[test]
#[should_panic(expected = "sample 4")]
fn accuracy_rejects_a_short_feature_vector() {
    let (model, mut ds) = tiny();
    ds.xs[4].truncate(1);
    accuracy(&model, &ds);
}

#[test]
#[should_panic(expected = "sample 0")]
fn accuracy_rejects_an_out_of_range_label() {
    let (model, mut ds) = tiny();
    ds.ys[0] = 17;
    accuracy(&model, &ds);
}
