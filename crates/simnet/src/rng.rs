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
}
