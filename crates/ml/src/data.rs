//! Synthetic non-IID federated datasets.
//!
//! Substitution (see DESIGN.md): the paper evaluates on Google Speech
//! Commands (35-way, "middle-scale") and FEMNIST (62-way, "large-scale").
//! Neither dataset's bits are available offline, and the system results
//! depend only on having (a) a learnable signal, (b) non-IID partitions
//! across clients, and (c) two task scales. We synthesize Gaussian
//! class-prototype mixtures with matching class counts and a Dirichlet
//! label-skew partitioner — the standard construction for federated
//! heterogeneity studies.

use rand::rngs::StdRng;
use rand::Rng;

/// A labeled dataset.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Feature vectors.
    pub xs: Vec<Vec<f32>>,
    /// Class labels.
    pub ys: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Feature dimensionality (0 when empty).
    pub fn dim(&self) -> usize {
        self.xs.first().map_or(0, Vec::len)
    }
}

/// Parameters of a synthetic classification task.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Dataset family name (for reports).
    pub name: &'static str,
    /// Number of classes.
    pub classes: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Distance scale of class prototypes (higher = easier).
    pub prototype_scale: f32,
    /// Per-sample Gaussian noise (higher = harder).
    pub noise: f32,
    /// Fraction of labels randomly flipped (caps attainable accuracy).
    pub label_noise: f64,
}

/// A "Google Speech Commands"-class task: 35 classes, mid-scale, noisy
/// enough that accuracy plateaus near the paper's 53% target band.
pub fn speech_commands_like() -> TaskSpec {
    TaskSpec {
        name: "speech",
        classes: 35,
        dim: 48,
        prototype_scale: 1.0,
        noise: 1.05,
        label_noise: 0.25,
    }
}

/// A "FEMNIST"-class task: 62 classes, larger and cleaner, plateauing near
/// the paper's 75.5% target band.
pub fn femnist_like() -> TaskSpec {
    TaskSpec {
        name: "femnist",
        classes: 62,
        dim: 40,
        prototype_scale: 1.6,
        noise: 0.75,
        label_noise: 0.08,
    }
}

/// A tiny feed-forward text-classification task (the §7.6 overhead
/// workload).
pub fn text_classification_like() -> TaskSpec {
    TaskSpec {
        name: "text",
        classes: 4,
        dim: 24,
        prototype_scale: 1.5,
        noise: 0.6,
        label_noise: 0.05,
    }
}

/// The generator for one task: fixed class prototypes plus sampling.
#[derive(Clone, Debug)]
pub struct TaskGenerator {
    /// The task parameters.
    pub spec: TaskSpec,
    prototypes: Vec<Vec<f32>>,
}

impl TaskGenerator {
    /// Creates the generator, drawing class prototypes from `rng`.
    pub fn new(spec: TaskSpec, rng: &mut StdRng) -> Self {
        let prototypes = (0..spec.classes)
            .map(|_| {
                (0..spec.dim)
                    .map(|_| gaussian32(rng) * spec.prototype_scale)
                    .collect()
            })
            .collect();
        TaskGenerator { spec, prototypes }
    }

    /// Samples one example of class `y`.
    pub fn sample(&self, y: usize, rng: &mut StdRng) -> Vec<f32> {
        self.prototypes[y]
            .iter()
            .map(|&p| p + gaussian32(rng) * self.spec.noise)
            .collect()
    }

    /// Generates an IID test set with `n` samples.
    pub fn test_set(&self, n: usize, rng: &mut StdRng) -> Dataset {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.gen_range(0..self.spec.classes);
            xs.push(self.sample(y, rng));
            ys.push(y);
        }
        Dataset {
            xs,
            ys,
            classes: self.spec.classes,
        }
    }

    /// Generates non-IID client shards: each client's label distribution is
    /// drawn from `Dirichlet(alpha)` (small `alpha` = heavy skew), with
    /// `samples_per_client` examples each and `label_noise` flips.
    pub fn client_shards(
        &self,
        clients: usize,
        samples_per_client: usize,
        alpha: f64,
        rng: &mut StdRng,
    ) -> Vec<Dataset> {
        (0..clients)
            .map(|_| {
                let probs = dirichlet(self.spec.classes, alpha, rng);
                let mut xs = Vec::with_capacity(samples_per_client);
                let mut ys = Vec::with_capacity(samples_per_client);
                for _ in 0..samples_per_client {
                    let y = sample_categorical(&probs, rng);
                    xs.push(self.sample(y, rng));
                    let y = if rng.gen::<f64>() < self.spec.label_noise {
                        rng.gen_range(0..self.spec.classes)
                    } else {
                        y
                    };
                    ys.push(y);
                }
                Dataset {
                    xs,
                    ys,
                    classes: self.spec.classes,
                }
            })
            .collect()
    }
}

/// Standard normal via Box–Muller.
fn gaussian32(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// Marsaglia–Tsang gamma sampler (any shape > 0, unit scale).
fn gamma(shape: f64, rng: &mut StdRng) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen::<f64>().max(1e-12);
        return gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = {
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen::<f64>();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Draws a probability vector from a symmetric Dirichlet(alpha).
pub fn dirichlet(k: usize, alpha: f64, rng: &mut StdRng) -> Vec<f64> {
    let raw: Vec<f64> = (0..k).map(|_| gamma(alpha, rng).max(1e-300)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / sum).collect()
}

/// Samples an index from a probability vector.
pub fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    let mut u: f64 = rng.gen();
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn specs_match_paper_class_counts() {
        assert_eq!(speech_commands_like().classes, 35);
        assert_eq!(femnist_like().classes, 62);
    }

    #[test]
    fn test_set_shapes() {
        let generator = TaskGenerator::new(femnist_like(), &mut rng(1));
        let ds = generator.test_set(200, &mut rng(2));
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.dim(), 40);
        assert!(ds.ys.iter().all(|&y| y < 62));
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut r = rng(3);
        for &alpha in &[0.1, 0.5, 1.0, 10.0] {
            let p = dirichlet(20, alpha, &mut r);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "alpha {alpha}: sum {s}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn small_alpha_skews_harder_than_large_alpha() {
        let mut r = rng(4);
        let entropy =
            |p: &[f64]| -> f64 { p.iter().filter(|&&x| x > 0.0).map(|&x| -x * x.ln()).sum() };
        let trials = 50;
        let mean_entropy = |alpha: f64, r: &mut StdRng| -> f64 {
            (0..trials)
                .map(|_| entropy(&dirichlet(10, alpha, r)))
                .sum::<f64>()
                / trials as f64
        };
        let skewed = mean_entropy(0.1, &mut r);
        let uniform = mean_entropy(100.0, &mut r);
        assert!(skewed < uniform - 0.5, "{skewed} vs {uniform}");
    }

    #[test]
    fn shards_are_non_iid() {
        let generator = TaskGenerator::new(femnist_like(), &mut rng(5));
        let shards = generator.client_shards(8, 100, 0.1, &mut rng(6));
        assert_eq!(shards.len(), 8);
        // At least one client's label histogram is heavily concentrated
        // (62 classes at Dirichlet(0.1) puts most mass on a handful of
        // classes; an IID shard would top out near 100/62 ≈ 2 per class).
        let concentrated = shards.iter().any(|s| {
            let mut hist = vec![0usize; s.classes];
            for &y in &s.ys {
                hist[y] += 1;
            }
            *hist.iter().max().unwrap() > s.len() / 5
        });
        assert!(concentrated, "no shard shows label skew at alpha=0.1");
    }

    #[test]
    fn task_is_learnable_by_mlp() {
        let generator = TaskGenerator::new(femnist_like(), &mut rng(7));
        let mut r = rng(8);
        let train = generator.test_set(3_000, &mut r);
        let test = generator.test_set(500, &mut r);
        let mut m = crate::nn::Mlp::new(&[40, 64, 62], &mut rng(9));
        for _ in 0..12 {
            m.train_epoch(&train.xs, &train.ys, 20, 0.1, None);
        }
        let acc = crate::metrics::accuracy(&m, &test);
        assert!(acc > 0.6, "accuracy only {acc}");
    }

    #[test]
    fn categorical_sampler_is_consistent() {
        let mut r = rng(10);
        let probs = vec![0.7, 0.2, 0.1];
        let n = 10_000;
        let mut hist = [0usize; 3];
        for _ in 0..n {
            hist[sample_categorical(&probs, &mut r)] += 1;
        }
        assert!((hist[0] as f64 / n as f64 - 0.7).abs() < 0.03);
        assert!((hist[2] as f64 / n as f64 - 0.1).abs() < 0.02);
    }
}
