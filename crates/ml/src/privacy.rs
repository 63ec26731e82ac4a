//! Differential-privacy hooks (§4.4: "application owners can specify
//! various privacy techniques, such as differential privacy ... the leaf
//! nodes, serving as workers, will apply Gaussian noise to local
//! training").
//!
//! The standard Gaussian mechanism: clip the update to an L2 bound `c`,
//! then add `N(0, (σ c)^2)` noise per coordinate.

use rand::rngs::StdRng;
use rand::Rng;

/// The privacy technique an application requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Privacy {
    /// No privacy processing.
    None,
    /// Gaussian-mechanism differential privacy.
    GaussianDp {
        /// L2 clipping bound.
        clip: f32,
        /// Noise multiplier σ (std dev = σ · clip).
        sigma: f32,
    },
    /// Pairwise-masking secure aggregation (see [`crate::secure_agg`]).
    /// Masking needs the participant roster and round number, so it is
    /// applied by the FL engine rather than by [`apply`]; requires
    /// full-participation synchronous rounds and no lossy compression.
    SecureAggregation,
}

/// Clips `v` in place to L2 norm at most `clip`. Returns the original norm.
pub fn l2_clip(v: &mut [f32], clip: f32) -> f32 {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > clip && norm > 0.0 {
        let s = clip / norm;
        for x in v.iter_mut() {
            *x *= s;
        }
    }
    norm
}

/// Applies the configured mechanism to a weight/update vector in place.
pub fn apply(privacy: Privacy, v: &mut [f32], rng: &mut StdRng) {
    match privacy {
        Privacy::None | Privacy::SecureAggregation => {}
        Privacy::GaussianDp { clip, sigma } => {
            l2_clip(v, clip);
            let sd = sigma * clip;
            for x in v.iter_mut() {
                *x += gaussian32(rng) * sd;
            }
        }
    }
}

fn gaussian32(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn clip_shrinks_long_vectors_only() {
        let mut long = vec![3.0, 4.0]; // norm 5
        let n = l2_clip(&mut long, 1.0);
        assert_eq!(n, 5.0);
        let new_norm = long.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);
        // Direction preserved.
        assert!((long[0] / long[1] - 0.75).abs() < 1e-5);

        let mut short = vec![0.1, 0.1];
        let orig = short.clone();
        l2_clip(&mut short, 1.0);
        assert_eq!(short, orig);
    }

    #[test]
    fn clip_handles_zero_vector() {
        let mut z = vec![0.0; 4];
        l2_clip(&mut z, 1.0);
        assert_eq!(z, vec![0.0; 4]);
    }

    #[test]
    fn gaussian_dp_perturbs_with_expected_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let dim = 20_000;
        let mut v = vec![0.0f32; dim];
        apply(
            Privacy::GaussianDp {
                clip: 1.0,
                sigma: 0.5,
            },
            &mut v,
            &mut rng,
        );
        let mean: f32 = v.iter().sum::<f32>() / dim as f32;
        let var: f32 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / dim as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn none_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v = vec![1.0, -2.0, 3.0];
        apply(Privacy::None, &mut v, &mut rng);
        assert_eq!(v, vec![1.0, -2.0, 3.0]);
    }
}
