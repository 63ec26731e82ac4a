//! Gradient/weight compression (§2.2.1 "compression techniques"; Table 2:
//! "Application owner can specify her compression function").
//!
//! Two standard schemes: top-k sparsification (keep the k
//! largest-magnitude coordinates) and linear int8 quantization. Both
//! report their wire size so the simulator can charge realistic
//! transmission times.

/// The compression an application requests for its tree traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Compression {
    /// Send raw f32 weights.
    None,
    /// Keep only the `k` largest-magnitude entries.
    TopK {
        /// Number of entries kept.
        k: usize,
    },
    /// Linear quantization to signed 8-bit integers with one f32 scale.
    Int8,
}

impl Compression {
    /// Wire size of a `dim`-element vector under this scheme.
    pub fn wire_bytes(self, dim: usize) -> usize {
        match self {
            Compression::None => dim * 4,
            // Index (u32) + value (f32) per kept entry.
            Compression::TopK { k } => k.min(dim) * 8,
            Compression::Int8 => dim + 4,
        }
    }
}

/// A top-k sparsified vector.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec {
    /// Original dimensionality.
    pub dim: usize,
    /// Kept coordinates.
    pub indices: Vec<u32>,
    /// Values at the kept coordinates.
    pub values: Vec<f32>,
}

/// Keeps the `k` largest-magnitude entries of `v`.
///
/// # Examples
///
/// ```
/// use totoro_ml::{densify, top_k};
///
/// let sparse = top_k(&[0.1, -5.0, 0.2, 3.0], 2);
/// assert_eq!(densify(&sparse), vec![0.0, -5.0, 0.0, 3.0]);
/// ```
pub fn top_k(v: &[f32], k: usize) -> SparseVec {
    let k = k.min(v.len());
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&a, &b| {
        v[b].abs()
            .partial_cmp(&v[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<usize> = order[..k].to_vec();
    kept.sort_unstable();
    SparseVec {
        dim: v.len(),
        indices: kept.iter().map(|&i| i as u32).collect(),
        values: kept.iter().map(|&i| v[i]).collect(),
    }
}

/// Reconstructs a dense vector from a [`SparseVec`] (zeros elsewhere).
pub fn densify(s: &SparseVec) -> Vec<f32> {
    let mut out = vec![0.0; s.dim];
    for (&i, &v) in s.indices.iter().zip(&s.values) {
        out[i as usize] = v;
    }
    out
}

/// An int8-quantized vector.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantVec {
    /// Scale such that `value ≈ q * scale`.
    pub scale: f32,
    /// Quantized entries.
    pub q: Vec<i8>,
}

/// Quantizes `v` linearly into int8.
pub fn quantize_int8(v: &[f32]) -> QuantVec {
    let max = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
    QuantVec {
        scale,
        q: v.iter()
            .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
            .collect(),
    }
}

/// Dequantizes back to f32.
pub fn dequantize_int8(q: &QuantVec) -> Vec<f32> {
    q.q.iter().map(|&x| f32::from(x) * q.scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let v = vec![0.1, -5.0, 0.2, 3.0, -0.05];
        let s = top_k(&v, 2);
        assert_eq!(s.indices, vec![1, 3]);
        assert_eq!(s.values, vec![-5.0, 3.0]);
        let d = densify(&s);
        assert_eq!(d, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn top_k_with_k_ge_len_is_lossless() {
        let v = vec![1.0, -2.0, 3.0];
        let s = top_k(&v, 10);
        assert_eq!(densify(&s), v);
    }

    #[test]
    fn int8_round_trip_error_is_bounded() {
        let v: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 2.0).collect();
        let q = quantize_int8(&v);
        let back = dequantize_int8(&q);
        let max = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let bound = max / 127.0 * 0.5 + 1e-6;
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn int8_handles_zero_vector() {
        let q = quantize_int8(&[0.0; 8]);
        assert_eq!(dequantize_int8(&q), vec![0.0; 8]);
    }

    #[test]
    fn wire_sizes_are_smaller_than_raw() {
        let dim = 10_000;
        assert!(Compression::TopK { k: 100 }.wire_bytes(dim) < Compression::None.wire_bytes(dim));
        assert!(Compression::Int8.wire_bytes(dim) < Compression::None.wire_bytes(dim));
        // Top-k never exceeds the dense representation even with huge k.
        assert!(
            Compression::TopK { k: usize::MAX }.wire_bytes(dim)
                <= 2 * Compression::None.wire_bytes(dim)
        );
    }
}
