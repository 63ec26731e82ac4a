//! A minimal multilayer perceptron with softmax cross-entropy.
//!
//! The paper trains ResNet-34 / ShuffleNet V2 / feed-forward text models
//! through Keras; the *systems* results only need real accuracy-vs-round
//! curves from a model that learns, while the per-round compute cost is
//! charged on the simulated clock (see `totoro::timing`). A compact MLP on
//! synthetic features provides exactly that with exact reproducibility.
//!
//! # Kernels: tile, never reorder
//!
//! Training and evaluation are the wall time of every FL scenario, so both
//! run on minibatch kernels that keep their accumulators in `LANES`-wide
//! register tiles. The numbers they produce are part of the repository's
//! byte-identical goldens, which fixes the one rule every kernel follows:
//! **a reduction is one chain of `+`, in ascending index order, seeded with
//! `0.0`** — the order the obvious per-sample loops use. IEEE `+` and `×`
//! are deterministic and `×` is commutative, so a value computed by the same
//! chain is the same to the bit; tiling only changes *which independent
//! chains advance side by side*. Each kernel's doc comment names its
//! reduction index and its vector axis. What would move bits, and is
//! therefore not done: `f32::mul_add`/FMA, partial sums folded at the end
//! (`chunks_exact(4)` accumulators), summing a minibatch's gradient in any
//! order but sample `0, 1, 2, …`, updating a layer's weights before the
//! layer below has back-propagated through them, or another `exp`/`ln`.
//! `crates/ml/tests/kernels.rs` holds the per-sample implementation these
//! kernels replaced and compares the two bit for bit.

use rand::rngs::StdRng;
use rand::Rng;

/// One fully connected layer: `y = W x + b`.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    /// Row-major weights, `out_dim x in_dim`.
    pub w: Vec<f32>,
    /// Biases, `out_dim`.
    pub b: Vec<f32>,
}

impl Dense {
    /// He-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / in_dim as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Width of the kernels' register tiles: this many independent reductions
/// advance side by side. Plain loops over `[f32; LANES]` are all the
/// compiler needs to emit SIMD for the default target. A constant, not a
/// knob: results do not depend on it, only speed does.
const LANES: usize = 16;

/// `n` rounded up to a whole number of tiles. Scratch rows are this wide
/// (zero beyond `n`), so only loads from and stores to the model's own
/// unpadded `w`/`b` ever see a partial tile.
fn padded(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// The tile of `v` starting at `at`.
#[inline(always)]
fn tile(v: &[f32], at: usize) -> &[f32; LANES] {
    v[at..at + LANES].try_into().expect("LANES wide")
}

/// `acc[j] += s · v[j]`: one step of [`LANES`] independent reductions.
#[inline(always)]
fn axpy(acc: &mut [f32; LANES], s: f32, v: &[f32; LANES]) {
    for (a, v) in acc.iter_mut().zip(v) {
        *a += s * v;
    }
}

/// Writes `layer.w` transposed into `wt`, `padded(out_dim)` columns per
/// input: `wt[i][o] = w[o][i]`. Columns beyond `out_dim` are left as they
/// are (zero, from allocation).
fn transpose(layer: &Dense, wt: &mut [f32]) {
    let stride = padded(layer.out_dim);
    for (o, row) in layer.w.chunks_exact(layer.in_dim).enumerate() {
        for (i, &w) in row.iter().enumerate() {
            wt[i * stride + o] = w;
        }
    }
}

/// Zeroed transposed-weight buffers for layers of the given dimensions.
fn transposed_buffers(dims: &[usize]) -> Vec<Vec<f32>> {
    dims.windows(2)
        .map(|d| vec![0.0; d[0] * padded(d[1])])
        .collect()
}

/// [`transpose`]s every layer into its buffer.
fn transpose_all(layers: &[Dense], wt: &mut [Vec<f32>]) {
    for (layer, wt) in layers.iter().zip(wt) {
        transpose(layer, wt);
    }
}

/// The forward kernel — the only one: one dense layer applied to one
/// sample, `y[o] = b[o] + Σ_i wt[i][o] · x[i]`, followed by ReLU when
/// `relu`.
///
/// Reduction index: `i`, ascending, each output's sum seeded with `0.0` and
/// the bias added to the finished sum. Vector axis: `o` (which is why the
/// weights come transposed). `y` is `padded(b.len())` wide; lanes beyond
/// `b.len()` are not written.
fn dense_forward(wt: &[f32], b: &[f32], x: &[f32], y: &mut [f32], relu: bool) {
    let stride = y.len();
    debug_assert_eq!(stride, padded(b.len()));
    debug_assert_eq!(wt.len(), x.len() * stride);
    for (c, (y, b)) in y.chunks_exact_mut(LANES).zip(b.chunks(LANES)).enumerate() {
        let mut acc = [0.0f32; LANES];
        for (row, &xi) in wt.chunks_exact(stride).zip(x) {
            axpy(&mut acc, xi, tile(row, c * LANES));
        }
        for ((y, b), acc) in y.iter_mut().zip(b).zip(&acc) {
            let v = b + acc;
            *y = if relu { v.max(0.0) } else { v };
        }
    }
}

/// Back-propagates a minibatch's deltas through one layer's (pre-update)
/// weights and the ReLU below it: `prev_k[i] = Σ_o δ_k[o] · w[o][i]`, zeroed
/// where the layer's input `a_k[i]` (a post-ReLU activation) is not
/// positive.
///
/// Reduction index: `o`, ascending, seeded with `0.0`. Vector axis: `i`.
/// `delta` rows are `padded(out_dim)` wide, `input` and `prev` rows
/// `padded(in_dim)`.
fn backprop(layer: &Dense, rows: usize, delta: &[f32], input: &[f32], prev: &mut [f32]) {
    let (in_dim, d_stride, stride) = (layer.in_dim, padded(layer.out_dim), padded(layer.in_dim));
    for k in 0..rows {
        let delta = &delta[k * d_stride..][..layer.out_dim];
        let input = &input[k * stride..][..stride];
        let prev = &mut prev[k * stride..][..stride];
        let tiles = prev.chunks_exact_mut(LANES).zip(input.chunks_exact(LANES));
        for (c, (prev, input)) in tiles.enumerate() {
            let at = c * LANES;
            let mut acc = [0.0f32; LANES];
            if at + LANES <= in_dim {
                for (row, &d) in layer.w.chunks_exact(in_dim).zip(delta) {
                    axpy(&mut acc, d, tile(row, at));
                }
            } else {
                // The row's last, partial tile.
                for (row, &d) in layer.w.chunks_exact(in_dim).zip(delta) {
                    for (acc, w) in acc.iter_mut().zip(&row[at..]) {
                        *acc += d * w;
                    }
                }
            }
            for ((p, a), acc) in prev.iter_mut().zip(input).zip(&acc) {
                *p = if *a <= 0.0 { 0.0 } else { *acc };
            }
        }
    }
}

/// Computes one layer's minibatch gradient tile by tile and hands each
/// finished tile to `step` together with the parameters it belongs to and
/// their offset in the flattened layout (`base` is the layer's):
/// `g[o][i] = Σ_k δ_k[o] · a_k[i]` for the weights, `g[o] = Σ_k δ_k[o]` for
/// the biases.
///
/// Reduction index: the sample `k`, ascending, seeded with `0.0` — the
/// order per-sample accumulation into a zeroed gradient vector produces.
/// Vector axis: `i` for the weights, `o` for the biases. The gradient never
/// exists as a vector: a tile lives in registers from its first sample to
/// `step`. `delta` rows are `padded(out_dim)` wide, `input` rows
/// `padded(in_dim)`.
fn gradient_step(
    layer: &mut Dense,
    base: usize,
    rows: usize,
    delta: &[f32],
    input: &[f32],
    step: &mut impl FnMut(&mut [f32], usize, &[f32]),
) {
    let (in_dim, d_stride, stride) = (layer.in_dim, padded(layer.out_dim), padded(layer.in_dim));
    for (o, row) in layer.w.chunks_exact_mut(in_dim).enumerate() {
        for (c, w) in row.chunks_mut(LANES).enumerate() {
            let at = c * LANES;
            let mut g = [0.0f32; LANES];
            for k in 0..rows {
                axpy(
                    &mut g,
                    delta[k * d_stride + o],
                    tile(input, k * stride + at),
                );
            }
            step(w, base + o * in_dim + at, &g[..w.len()]);
        }
    }
    let base = base + layer.w.len();
    for (c, b) in layer.b.chunks_mut(LANES).enumerate() {
        let at = c * LANES;
        let mut g = [0.0f32; LANES];
        for k in 0..rows {
            for (g, d) in g.iter_mut().zip(tile(delta, k * d_stride + at)) {
                *g += d;
            }
        }
        step(b, base + at, &g[..b.len()]);
    }
}

/// Working memory of one [`Mlp::train_epoch`] call, sized for one
/// minibatch. Allocated per call and freed on return — never stored in a
/// model: it is twice the size of the model it trains, and every call
/// overwrites it before reading it.
struct Scratch {
    /// Per layer, the weights transposed for [`dense_forward`].
    wt: Vec<Vec<f32>>,
    /// Per layer boundary, the minibatch's activations, sample-major
    /// (`acts[0]` is the input), rows `padded(dims[l])` wide.
    acts: Vec<Vec<f32>>,
    /// Deltas at the current layer's output, sample-major.
    delta: Vec<f32>,
    /// Deltas being computed for the layer below.
    prev: Vec<f32>,
}

impl Scratch {
    fn new(dims: &[usize], rows: usize) -> Self {
        let widest = dims.iter().copied().map(padded).max().unwrap_or(0);
        Scratch {
            wt: transposed_buffers(dims),
            acts: dims.iter().map(|&d| vec![0.0; rows * padded(d)]).collect(),
            delta: vec![0.0; rows * widest],
            prev: vec![0.0; rows * widest],
        }
    }
}

/// A model prepared for repeated forward passes: weights transposed once,
/// activations in two reused buffers.
pub(crate) struct Evaluator<'a> {
    layers: &'a [Dense],
    wt: Vec<Vec<f32>>,
    /// The current layer's input (after the first layer) and output.
    bufs: [Vec<f32>; 2],
}

impl Evaluator<'_> {
    /// The logits for one sample.
    ///
    /// # Panics
    /// Panics if `x` is not as wide as the model's input.
    pub(crate) fn logits(&mut self, x: &[f32]) -> &[f32] {
        let width = self.layers[0].in_dim;
        assert!(
            x.len() == width,
            "sample has {} features, the model takes {width}",
            x.len()
        );
        let [input, output] = &mut self.bufs;
        let last = self.layers.len() - 1;
        for (l, (layer, wt)) in self.layers.iter().zip(&self.wt).enumerate() {
            let x = if l == 0 { x } else { &input[..layer.in_dim] };
            let y = &mut output[..padded(layer.out_dim)];
            dense_forward(wt, &layer.b, x, y, l < last);
            std::mem::swap(input, output);
        }
        &input[..self.layers[last].out_dim]
    }
}

/// An MLP with ReLU activations and a softmax cross-entropy head.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// Layer dimensions: `[input, hidden..., classes]`.
    pub dims: Vec<usize>,
    layers: Vec<Dense>,
}

/// Gradients matching an [`Mlp`]'s flattened parameter vector.
pub type Gradients = Vec<f32>;

impl Mlp {
    /// Builds an MLP with the given layer dimensions.
    ///
    /// # Panics
    /// Panics on fewer than two dimensions or a zero-width layer.
    pub fn new(dims: &[usize], rng: &mut StdRng) -> Self {
        check_dims(dims);
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp {
            dims: dims.to_vec(),
            layers,
        }
    }

    /// Builds an MLP with the given layer dimensions from a flattened
    /// parameter vector: the inverse of [`Mlp::to_weights`]. Draws no
    /// random numbers.
    ///
    /// # Panics
    /// Panics on fewer than two dimensions, a zero-width layer, or a
    /// `weights` whose length is not [`Mlp::param_count`]`(dims)`.
    pub fn with_weights(dims: &[usize], weights: &[f32]) -> Self {
        check_dims(dims);
        assert_eq!(
            weights.len(),
            Self::param_count(dims),
            "weight length mismatch"
        );
        let mut rest = weights;
        let layers = dims
            .windows(2)
            .map(|d| {
                let (w, tail) = rest.split_at(d[0] * d[1]);
                let (b, tail) = tail.split_at(d[1]);
                rest = tail;
                Dense {
                    in_dim: d[0],
                    out_dim: d[1],
                    w: w.to_vec(),
                    b: b.to_vec(),
                }
            })
            .collect();
        Mlp {
            dims: dims.to_vec(),
            layers,
        }
    }

    /// Number of parameters of an MLP with layer dimensions `dims`.
    pub fn param_count(dims: &[usize]) -> usize {
        dims.windows(2).map(|d| d[0] * d[1] + d[1]).sum()
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Approximate multiply-accumulate operations per forward+backward pass
    /// of one sample (used to charge simulated training time).
    pub fn flops_per_sample(&self) -> u64 {
        // ~2 MACs per weight forward, ~4 backward.
        6 * self.layers.iter().map(|l| l.w.len() as u64).sum::<u64>()
    }

    /// Width of the output layer.
    pub(crate) fn classes(&self) -> usize {
        self.dims[self.dims.len() - 1]
    }

    /// Prepares the model for forward passes over many samples.
    pub(crate) fn evaluator(&self) -> Evaluator<'_> {
        let mut wt = transposed_buffers(&self.dims);
        transpose_all(&self.layers, &mut wt);
        let widest = self.dims[1..].iter().copied().map(padded).max();
        let buf = vec![0.0; widest.expect("at least two dims")];
        Evaluator {
            layers: &self.layers,
            wt,
            bufs: [buf.clone(), buf],
        }
    }

    /// Forward pass returning the logits.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.evaluator().logits(x).to_vec()
    }

    /// Predicted class for one sample.
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(self.evaluator().logits(x))
    }

    /// Panics unless every sample is as wide as the model's input and every
    /// label is one of its classes. Once per batch, up front: inside the
    /// kernels a short sample would read its neighbour's padding and train
    /// on garbage.
    pub(crate) fn check_samples<X: AsRef<[f32]>>(&self, xs: &[X], ys: &[usize]) {
        let (width, classes) = (self.dims[0], self.classes());
        for (k, (x, &y)) in xs.iter().zip(ys).enumerate() {
            let len = x.as_ref().len();
            assert!(
                len == width,
                "sample {k} has {len} features, the model takes {width}"
            );
            assert!(
                y < classes,
                "sample {k} has label {y}, the model has {classes} classes"
            );
        }
    }

    /// Runs one (checked) minibatch forward: activations of every layer into
    /// `scratch.acts`, the head's `softmax − one_hot(label)` into
    /// `scratch.delta`, and each sample's cross-entropy loss to `on_loss`,
    /// in sample order.
    fn forward_batch<X: AsRef<[f32]>>(
        &self,
        scratch: &mut Scratch,
        xs: &[X],
        ys: &[usize],
        mut on_loss: impl FnMut(f32),
    ) {
        transpose_all(&self.layers, &mut scratch.wt);
        let last = self.layers.len() - 1;
        let classes = self.classes();
        for (k, (x, &label)) in xs.iter().zip(ys).enumerate() {
            let x = x.as_ref();
            scratch.acts[0][k * padded(x.len())..][..x.len()].copy_from_slice(x);
            for (l, (layer, wt)) in self.layers.iter().zip(&scratch.wt).enumerate() {
                let (below, above) = scratch.acts.split_at_mut(l + 1);
                let x = &below[l][k * padded(layer.in_dim)..][..layer.in_dim];
                let stride = padded(layer.out_dim);
                let y = &mut above[0][k * stride..][..stride];
                dense_forward(wt, &layer.b, x, y, l < last);
            }
            let stride = padded(classes);
            let logits = &scratch.acts[last + 1][k * stride..][..classes];
            let delta = &mut scratch.delta[k * stride..][..classes];
            softmax_into(logits, delta);
            on_loss(-(delta[label].max(1e-12)).ln());
            delta[label] -= 1.0;
        }
    }

    /// Runs one minibatch backward over what [`Mlp::forward_batch`] left in
    /// `scratch`, head first. Per layer: back-propagate the deltas through
    /// the layer's weights, and only then let [`gradient_step`] hand them
    /// (tile by tile, with their gradient) to `step`, which may update them.
    fn backward_batch(
        layers: &mut [Dense],
        scratch: &mut Scratch,
        rows: usize,
        mut step: impl FnMut(&mut [f32], usize, &[f32]),
    ) {
        let mut base: usize = layers.iter().map(Dense::num_params).sum();
        for (l, layer) in layers.iter_mut().enumerate().rev() {
            base -= layer.num_params();
            let input = &scratch.acts[l];
            if l > 0 {
                backprop(layer, rows, &scratch.delta, input, &mut scratch.prev);
            }
            gradient_step(layer, base, rows, &scratch.delta, input, &mut step);
            std::mem::swap(&mut scratch.delta, &mut scratch.prev);
        }
    }

    /// Cross-entropy loss and parameter gradients for one sample,
    /// accumulated into `grads` (flattened layout, see
    /// [`Mlp::to_weights`]). Returns the loss. A minibatch of one through
    /// the training kernels, with a `step` that reads the gradient out
    /// instead of applying it.
    ///
    /// # Panics
    /// Panics if `x`, `label` or `grads` do not fit the model.
    pub fn loss_grad(&self, x: &[f32], label: usize, grads: &mut [f32]) -> f32 {
        self.check_samples(&[x], &[label]);
        assert_eq!(grads.len(), self.num_params(), "gradient length mismatch");
        let mut scratch = Scratch::new(&self.dims, 1);
        let mut loss = 0.0;
        self.forward_batch(&mut scratch, &[x], &[label], |l| loss = l);
        // The kernels lend `step` each parameter tile mutably; nothing is
        // written here, but the borrow needs layers of its own.
        let mut layers = self.layers.clone();
        Self::backward_batch(&mut layers, &mut scratch, 1, |_, at, g| {
            for (sum, g) in grads[at..at + g.len()].iter_mut().zip(g) {
                *sum += g;
            }
        });
        loss
    }

    /// Flattens all parameters into one vector (layer by layer, weights
    /// then biases).
    pub fn to_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Loads parameters from a flattened vector.
    ///
    /// # Panics
    /// Panics if the length does not match [`Mlp::num_params`].
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

    /// One epoch of plain SGD over `(xs, ys)` with minibatches of
    /// `batch_size`, optionally with a FedProx proximal term
    /// `μ (w − w_global)` (§4.3's application-specific aggregation
    /// flexibility). Returns the mean loss.
    ///
    /// Each minibatch is one forward over all its samples, then one
    /// backward that applies the update to each parameter tile as soon as
    /// its gradient is complete (see the module docs for the order
    /// contract that makes this bit-identical to per-sample accumulation).
    ///
    /// # Panics
    /// Panics if `xs` and `ys` differ in length, a sample or label does not
    /// fit the model (naming the first offender), or the FedProx reference
    /// is not [`Mlp::num_params`] long.
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
        self.check_samples(xs, ys);
        if let Some((_, global)) = prox {
            assert_eq!(global.len(), self.num_params(), "FedProx reference length");
        }
        let bs = batch_size.clamp(1, n);
        let mut scratch = Scratch::new(&self.dims, bs);
        let mut total_loss = 0.0;
        for (xs, ys) in xs.chunks(bs).zip(ys.chunks(bs)) {
            let rows = xs.len();
            self.forward_batch(&mut scratch, xs, ys, |loss| total_loss += loss);
            let scale = lr / rows as f32;
            match prox {
                Some((mu, global)) => {
                    Self::backward_batch(&mut self.layers, &mut scratch, rows, |w, at, g| {
                        let global = &global[at..at + w.len()];
                        for ((wi, gi), glob) in w.iter_mut().zip(g).zip(global) {
                            *wi -= scale * gi + lr * mu * (*wi - glob);
                        }
                    });
                }
                None => {
                    Self::backward_batch(&mut self.layers, &mut scratch, rows, |w, _, g| {
                        for (wi, gi) in w.iter_mut().zip(g) {
                            *wi -= scale * gi;
                        }
                    });
                }
            }
        }
        total_loss / n as f32
    }
}

/// Panics on fewer than two dimensions or a zero-width layer.
fn check_dims(dims: &[usize]) {
    assert!(dims.len() >= 2, "need at least input and output dims");
    assert!(dims.iter().all(|&d| d > 0), "zero-width layer in {dims:?}");
}

/// Index of the maximum element (first on ties).
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = vec![0.0; logits.len()];
    softmax_into(logits, &mut probs);
    probs
}

/// [`softmax`] into a caller's buffer of the same length.
pub(crate) fn softmax_into(logits: &[f32], probs: &mut [f32]) {
    debug_assert_eq!(logits.len(), probs.len());
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (p, &x) in probs.iter_mut().zip(logits) {
        *p = (x - m).exp();
    }
    let sum: f32 = probs.iter().sum();
    for p in probs {
        *p /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn shapes_and_param_counts() {
        let m = Mlp::new(&[8, 16, 4], &mut rng(1));
        assert_eq!(m.num_params(), 8 * 16 + 16 + 16 * 4 + 4);
        assert_eq!(m.forward(&[0.1; 8]).len(), 4);
        assert!(m.flops_per_sample() > 0);
    }

    #[test]
    #[should_panic(expected = "zero-width layer")]
    fn zero_width_layer_is_rejected() {
        Mlp::new(&[4, 0, 2], &mut rng(1));
    }

    #[test]
    fn weights_round_trip() {
        let mut m = Mlp::new(&[5, 7, 3], &mut rng(2));
        let w = m.to_weights();
        let mut m2 = Mlp::new(&[5, 7, 3], &mut rng(99));
        m2.from_weights(&w);
        assert_eq!(m2.to_weights(), w);
        let x = vec![0.3; 5];
        assert_eq!(m.forward(&x), m2.forward(&x));
        // Mutating and restoring.
        let w0 = m.to_weights();
        let mut w1 = w0.clone();
        w1[0] += 1.0;
        m.from_weights(&w1);
        assert_ne!(m.to_weights(), w0);
    }

    #[test]
    fn with_weights_inverts_to_weights_bit_for_bit() {
        for (seed, dims) in [
            (10, vec![1, 1]),
            (11, vec![5, 7, 3]),
            (12, vec![48, 48, 35]),
            (13, vec![17, 33, 16, 2]),
        ] {
            let m = Mlp::new(&dims, &mut rng(seed));
            let w = m.to_weights();
            assert_eq!(Mlp::param_count(&dims), m.num_params());
            let rebuilt = Mlp::with_weights(&dims, &w);
            assert_eq!(rebuilt.dims, dims);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rebuilt.to_weights()), bits(&w), "dims {dims:?}");
        }
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn with_weights_rejects_a_length_mismatch() {
        Mlp::with_weights(&[4, 3, 2], &[0.0; 4 * 3 + 3 + 3 * 2]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 999.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&x| x.is_finite()));
        assert!(p[0] > p[2]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut m = Mlp::new(&[4, 6, 3], &mut rng(3));
        // Push every hidden pre-activation well away from the ReLU kink so
        // finite differences are valid: biases = +0.6.
        let mut w = m.to_weights();
        for b in &mut w[24..30] {
            *b = 0.6;
        }
        m.from_weights(&w);
        let x: Vec<f32> = (0..4).map(|i| 0.2 * i as f32 - 0.3).collect();
        let label = 1;
        let p = m.num_params();
        let mut grads = vec![0.0f32; p];
        m.loss_grad(&x, label, &mut grads);

        let w0 = m.to_weights();
        let numeric_at = |idx: usize, eps: f32| -> f32 {
            let mut dummy = vec![0.0f32; p];
            let mut mp = m.clone();
            let mut w = w0.clone();
            w[idx] += eps;
            mp.from_weights(&w);
            let lp = mp.loss_grad(&x, label, &mut dummy);
            let mut mm = m.clone();
            let mut w = w0.clone();
            w[idx] -= eps;
            mm.from_weights(&w);
            let lm = mm.loss_grad(&x, label, &mut dummy);
            (lp - lm) / (2.0 * eps)
        };
        let mut checked = 0;
        for &idx in &[0usize, 3, 10, 24, 30, p - 4, p - 1] {
            // A ReLU kink inside the ±ε interval makes the central
            // difference unreliable; detect it by comparing two step sizes
            // and skip those parameters.
            let n1 = numeric_at(idx, 1e-3);
            let n2 = numeric_at(idx, 4e-4);
            if (n1 - n2).abs() > 0.15 * n1.abs().max(1e-3) {
                continue;
            }
            assert!(
                (n1 - grads[idx]).abs() < 2e-2,
                "param {idx}: numeric {n1} vs analytic {}",
                grads[idx]
            );
            checked += 1;
        }
        assert!(
            checked >= 4,
            "too many kinked parameters: only {checked} checked"
        );
    }

    #[test]
    fn training_reduces_loss_and_learns_xor_ish_task() {
        let mut r = rng(4);
        // Two linearly inseparable clusters per class.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400 {
            let a = (i % 2) as f32 * 2.0 - 1.0;
            let b = ((i / 2) % 2) as f32 * 2.0 - 1.0;
            let mut noise = || (r.gen::<f32>() - 0.5) * 0.4;
            let (na, nb) = (noise(), noise());
            xs.push(vec![a + na, b + nb]);
            ys.push(usize::from((a > 0.0) != (b > 0.0)));
        }
        let mut m = Mlp::new(&[2, 16, 2], &mut rng(5));
        let first = m.train_epoch(&xs, &ys, 20, 0.3, None);
        let mut last = first;
        for _ in 0..40 {
            last = m.train_epoch(&xs, &ys, 20, 0.3, None);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict(x) == y)
            .count();
        assert!(correct as f64 / xs.len() as f64 > 0.95);
    }

    #[test]
    fn prox_term_pulls_toward_global() {
        let mut r = rng(6);
        let xs: Vec<Vec<f32>> = (0..50).map(|_| vec![r.gen::<f32>(); 3]).collect();
        let ys: Vec<usize> = (0..50).map(|i| i % 2).collect();
        let global = Mlp::new(&[3, 8, 2], &mut rng(7)).to_weights();

        let mut free = Mlp::new(&[3, 8, 2], &mut rng(8));
        let mut proxed = free.clone();
        for _ in 0..20 {
            free.train_epoch(&xs, &ys, 10, 0.2, None);
            proxed.train_epoch(&xs, &ys, 10, 0.2, Some((1.0, &global)));
        }
        let dist = |w: &[f32]| -> f32 {
            w.iter()
                .zip(&global)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(&proxed.to_weights()) < dist(&free.to_weights()),
            "prox did not constrain drift"
        );
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut m = Mlp::new(&[3, 4, 2], &mut rng(9));
        let w = m.to_weights();
        let loss = m.train_epoch(&[], &[], 8, 0.1, None);
        assert_eq!(loss, 0.0);
        assert_eq!(m.to_weights(), w);
    }
}
