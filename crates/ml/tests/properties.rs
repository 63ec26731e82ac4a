//! Property-based tests for the ML substrate's algebraic invariants.

use proptest::prelude::*;
use totoro_ml::{densify, dequantize_int8, l2_clip, quantize_int8, softmax, top_k, ModelUpdate};

fn small_f32() -> impl Strategy<Value = f32> {
    (-1e6f32..1e6f32).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    /// Int8 quantization error is bounded by half a quantization step.
    #[test]
    fn quantization_error_bound(w in prop::collection::vec(small_f32(), 1..200)) {
        let q = quantize_int8(&w);
        let back = dequantize_int8(&q);
        let max = w.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let step = (max / 127.0).max(f32::MIN_POSITIVE);
        for (a, b) in w.iter().zip(&back) {
            prop_assert!((a - b).abs() <= step * 0.5 + max * 1e-5, "{a} vs {b}");
        }
    }

    /// Top-k keeps exactly the k largest magnitudes; densify puts them back
    /// where they came from.
    #[test]
    fn top_k_keeps_largest(w in prop::collection::vec(small_f32(), 1..100), k in 1usize..50) {
        let s = top_k(&w, k);
        let d = densify(&s);
        prop_assert_eq!(d.len(), w.len());
        let kept = s.indices.len();
        prop_assert_eq!(kept, k.min(w.len()));
        // Every kept magnitude >= every dropped magnitude.
        let min_kept = s
            .values
            .iter()
            .map(|v| v.abs())
            .fold(f32::INFINITY, f32::min);
        for (i, &x) in w.iter().enumerate() {
            if !s.indices.contains(&(i as u32)) {
                prop_assert!(x.abs() <= min_kept + 1e-6);
            } else {
                prop_assert_eq!(d[i], x);
            }
        }
    }

    /// FedAvg: every coordinate of the finalized mean lies within the
    /// per-coordinate range of the client weights.
    #[test]
    fn fedavg_mean_within_range(
        clients in prop::collection::vec(
            (prop::collection::vec(-100.0f32..100.0, 4), 1u64..1000),
            1..8,
        ),
    ) {
        let dim = 4;
        let mut acc = ModelUpdate::zero(dim);
        for (w, s) in &clients {
            acc.merge(&ModelUpdate::from_client(w, *s));
        }
        let avg = acc.finalize().expect("non-empty");
        for i in 0..dim {
            let lo = clients.iter().map(|(w, _)| w[i]).fold(f32::INFINITY, f32::min);
            let hi = clients.iter().map(|(w, _)| w[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[i] >= lo - 1e-2 && avg[i] <= hi + 1e-2,
                "coordinate {i}: {} not in [{lo}, {hi}]", avg[i]);
        }
    }

    /// Merging is order-independent up to float tolerance.
    #[test]
    fn merge_commutes(
        a in prop::collection::vec(-10.0f32..10.0, 3),
        b in prop::collection::vec(-10.0f32..10.0, 3),
        sa in 1u64..100,
        sb in 1u64..100,
    ) {
        let ua = ModelUpdate::from_client(&a, sa);
        let ub = ModelUpdate::from_client(&b, sb);
        let mut ab = ua.clone();
        ab.merge(&ub);
        let mut ba = ub.clone();
        ba.merge(&ua);
        prop_assert_eq!(ab.samples, ba.samples);
        for (x, y) in ab.weighted.iter().zip(&ba.weighted) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Softmax is a probability distribution preserving the argmax.
    #[test]
    fn softmax_laws(logits in prop::collection::vec(-50.0f32..50.0, 1..20)) {
        let p = softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        prop_assert_eq!(totoro_ml::argmax(&p), totoro_ml::argmax(&logits));
    }

    /// L2 clipping never increases the norm and is idempotent.
    #[test]
    fn l2_clip_laws(mut v in prop::collection::vec(-100.0f32..100.0, 1..50), c in 0.1f32..50.0) {
        let before: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        l2_clip(&mut v, c);
        let after: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(after <= before + 1e-4);
        prop_assert!(after <= c + 1e-3);
        // Idempotent up to float rounding (a second clip may rescale by
        // 1 - epsilon when the norm lands exactly on the bound).
        let mut again = v.clone();
        l2_clip(&mut again, c);
        for (a, b) in v.iter().zip(&again) {
            prop_assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()));
        }
    }
}
