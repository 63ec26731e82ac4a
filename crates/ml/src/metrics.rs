//! Evaluation metrics.

use crate::data::Dataset;
use crate::nn::{argmax, softmax_into, Mlp};

/// Top-1 accuracy of `model` on `ds` (0 when the set is empty).
///
/// # Panics
/// Panics if a sample or label does not fit the model, naming the first
/// offender.
pub fn accuracy(model: &Mlp, ds: &Dataset) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    model.check_samples(&ds.xs, &ds.ys);
    let mut eval = model.evaluator();
    let correct = ds
        .xs
        .iter()
        .zip(&ds.ys)
        .filter(|(x, &y)| argmax(eval.logits(x)) == y)
        .count();
    correct as f64 / ds.len() as f64
}

/// Mean cross-entropy loss of `model` on `ds`.
///
/// # Panics
/// Panics if a sample or label does not fit the model, naming the first
/// offender.
pub fn mean_loss(model: &Mlp, ds: &Dataset) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    model.check_samples(&ds.xs, &ds.ys);
    let mut eval = model.evaluator();
    let mut p = vec![0.0; model.classes()];
    let total: f64 = ds
        .xs
        .iter()
        .zip(&ds.ys)
        .map(|(x, &y)| {
            softmax_into(eval.logits(x), &mut p);
            -(f64::from(p[y].max(1e-12))).ln()
        })
        .sum();
    total / ds.len() as f64
}

/// A time-stamped accuracy sample on a time-to-accuracy curve.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyPoint {
    /// Wall-clock (simulated) seconds since training started.
    pub time_secs: f64,
    /// Round number.
    pub round: u64,
    /// Test accuracy.
    pub accuracy: f64,
}

/// Time (seconds) at which `curve` first reaches `target` accuracy, if it
/// ever does. The curve need not be monotone.
pub fn time_to_accuracy(curve: &[AccuracyPoint], target: f64) -> Option<f64> {
    curve
        .iter()
        .find(|p| p.accuracy >= target)
        .map(|p| p.time_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn accuracy_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = Mlp::new(&[4, 8, 3], &mut rng);
        let ds = Dataset {
            xs: vec![vec![0.0; 4]; 10],
            ys: vec![0; 10],
            classes: 3,
        };
        let a = accuracy(&m, &ds);
        assert!((0.0..=1.0).contains(&a));
        assert_eq!(accuracy(&m, &Dataset::default()), 0.0);
        assert!(mean_loss(&m, &ds) > 0.0);
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let curve = vec![
            AccuracyPoint {
                time_secs: 1.0,
                round: 1,
                accuracy: 0.2,
            },
            AccuracyPoint {
                time_secs: 2.0,
                round: 2,
                accuracy: 0.55,
            },
            AccuracyPoint {
                time_secs: 3.0,
                round: 3,
                accuracy: 0.5,
            },
            AccuracyPoint {
                time_secs: 4.0,
                round: 4,
                accuracy: 0.6,
            },
        ];
        assert_eq!(time_to_accuracy(&curve, 0.5), Some(2.0));
        assert_eq!(time_to_accuracy(&curve, 0.58), Some(4.0));
        assert_eq!(time_to_accuracy(&curve, 0.9), None);
    }
}
