//! Deterministic random-number plumbing.
//!
//! Every stochastic component of the simulator draws from an RNG derived from
//! a single experiment seed via [`derive_seed`], so that independent
//! subsystems (topology jitter, link losses, churn schedules, dataset
//! synthesis, ...) do not perturb each other's random streams when one of
//! them changes how many numbers it draws.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives a child seed from `(root, label)` using the SplitMix64 finalizer.
///
/// The same `(root, label)` pair always yields the same child seed, and
/// distinct labels yield statistically independent streams.
pub fn derive_seed(root: u64, label: &str) -> u64 {
    let mut h = root ^ 0x9e37_79b9_7f4a_7c15;
    for &b in label.as_bytes() {
        h ^= u64::from(b);
        h = splitmix64(h);
    }
    splitmix64(h)
}

/// Creates a seeded [`StdRng`] for the subsystem named `label`.
pub fn sub_rng(root: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(root, label))
}

/// Hashes `(key, parts...)` into a unit-interval sample in `[0, 1)`.
///
/// This is the *keyed* (stateless) analogue of drawing one `f64` from a
/// seeded stream: the result is a pure function of its inputs, so it can
/// be evaluated in any order and still reproduce exactly.
pub fn keyed_unit(key: u64, parts: &[u64]) -> f64 {
    let mut h = key;
    for &p in parts {
        h = splitmix64(h ^ p.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    // Top 53 bits -> [0, 1), the standard double construction.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, "topology"), derive_seed(42, "topology"));
    }

    #[test]
    fn labels_separate_streams() {
        assert_ne!(derive_seed(42, "topology"), derive_seed(42, "churn"));
        assert_ne!(derive_seed(42, "a"), derive_seed(43, "a"));
    }

    #[test]
    fn sub_rngs_reproduce() {
        let a: u64 = sub_rng(7, "x").gen();
        let b: u64 = sub_rng(7, "x").gen();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_label_still_mixes_root() {
        assert_ne!(derive_seed(1, ""), derive_seed(2, ""));
    }

    #[test]
    fn keyed_unit_is_pure_and_in_range() {
        let a = keyed_unit(7, &[100, 2, 3]);
        assert_eq!(a, keyed_unit(7, &[100, 2, 3]));
        assert_ne!(a, keyed_unit(8, &[100, 2, 3]));
        assert_ne!(a, keyed_unit(7, &[100, 3, 2]));
        for key in 0..64u64 {
            for t in [0u64, 1, 999_999] {
                let u = keyed_unit(key, &[t, key ^ 1, t ^ 3]);
                assert!((0.0..1.0).contains(&u));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k statistical draws are too slow under Miri")]
    fn keyed_unit_hits_probabilities_roughly() {
        // ~Bernoulli(0.3) over many distinct part tuples.
        let hits = (0..10_000u64)
            .filter(|&i| keyed_unit(5, &[i, i * 31, i * 7]) < 0.3)
            .count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }
}
