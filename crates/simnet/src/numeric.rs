//! Canonical-order float reductions (DESIGN.md §16).
//!
//! IEEE 754 addition is not associative: `(a + b) + c` and `a + (b + c)`
//! can differ in the last ulp, so a float sum folded in incidental order
//! (hash-map iteration, worker interleaving, rayon-style reduction trees)
//! breaks the byte-identity contract across `--jobs`. Every helper here
//! folds **left-to-right over the order the caller hands in**, which the
//! caller must derive from canonical simulation state (a `Vec` built in
//! event order, a `BTreeMap` range, an index loop), never from an
//! unordered container. `Iterator::sum` is the same sequential fold;
//! these helpers only name the order and the empty-mean convention.
//! Nothing calls them yet.

/// Left-to-right sum of an `f64` stream in the caller's canonical order.
pub fn sum_f64<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let mut acc = 0.0f64;
    for x in xs {
        acc += x;
    }
    acc
}

/// Left-to-right sum of an `f32` stream in the caller's canonical order.
pub fn sum_f32<I: IntoIterator<Item = f32>>(xs: I) -> f32 {
    let mut acc = 0.0f32;
    for x in xs {
        acc += x;
    }
    acc
}

/// Left-to-right arithmetic mean of an `f64` stream; 0.0 for an empty
/// stream (the convention every report column in this workspace uses).
pub fn mean_f64<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let mut acc = 0.0f64;
    let mut n = 0u64;
    for x in xs {
        acc += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_fold_left_to_right() {
        // A sequence chosen so reassociation changes the result: the
        // helpers must match a plain sequential fold bit-for-bit.
        let xs = [1.0e16, 1.0, -1.0e16, 1.0];
        let mut seq = 0.0f64;
        for x in xs {
            seq += x;
        }
        assert_eq!(sum_f64(xs).to_bits(), seq.to_bits());
        // Reassociated order differs — that is the hazard DET009 exists for.
        let reassoc: f64 = (1.0e16 + -1.0e16) + (1.0 + 1.0);
        assert_ne!(sum_f64(xs).to_bits(), reassoc.to_bits());
    }

    #[test]
    fn f32_sum_and_mean_conventions() {
        assert_eq!(sum_f32([0.5f32, 0.25, 0.25]), 1.0);
        assert_eq!(mean_f64([2.0, 4.0]), 3.0);
        assert_eq!(mean_f64(std::iter::empty()), 0.0);
    }
}
