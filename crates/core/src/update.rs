//! The data type riding Totoro's dataflow trees.
//!
//! Downward (model broadcast) it carries the global weights; upward
//! (gradient aggregation) it carries a sample-weighted partial sum that
//! interior nodes combine in-network (§4.3 step 2). Wire size honours the
//! application's compression function on the leaf's first hop; partial
//! aggregates are dense (combining de-sparsifies).

use totoro_ml::{Compression, ModelUpdate};
use totoro_pubsub::TreeData;
use totoro_simnet::Payload;

/// Model or update data flowing through an application's tree.
///
/// Deliberately a plain owned struct, not a [`totoro_simnet::Shared`]
/// payload: `FlData` is *stored* in per-round aggregation state whose
/// `memory_bytes` accounting uses `size_of` on the stored type (Figure
/// 13b), and upward partials are mutated by `combine` at every interior
/// node. A downward model is wrapped in `Shared` exactly once, by the
/// master that builds it: that one handle is what the master trains from,
/// what `TreeMsg::Broadcast` carries to every child, and what each worker
/// keeps as the model it last trained from — one buffer per round and app,
/// however many nodes hold it (see DESIGN.md § "Simulator performance").
#[derive(Clone, Debug)]
pub struct FlData {
    /// Raw values: global weights (downward) or `Σ weights_i · n_i`
    /// (upward).
    pub values: Vec<f32>,
    /// Samples behind `values` (0 marks a downward model).
    pub samples: u64,
    /// Serialized wire size in bytes.
    wire: usize,
}

impl FlData {
    /// A downward model broadcast.
    pub fn model(weights: Vec<f32>) -> Self {
        let wire = weights.len() * 4;
        FlData {
            values: weights,
            samples: 0,
            wire,
        }
    }

    /// A worker's upward contribution, sized per its compression scheme.
    pub fn update(u: ModelUpdate, compression: Compression) -> Self {
        let wire = compression.wire_bytes(u.weighted.len());
        FlData {
            values: u.weighted,
            samples: u.samples,
            wire,
        }
    }

    /// Whether this is a downward model (no samples behind it).
    pub fn is_model(&self) -> bool {
        self.samples == 0
    }

    /// Converts an upward payload back into a [`ModelUpdate`].
    pub fn into_update(self) -> ModelUpdate {
        ModelUpdate {
            weighted: self.values,
            samples: self.samples,
        }
    }
}

impl Payload for FlData {
    fn size_bytes(&self) -> usize {
        self.wire + 16
    }

    fn layer(&self) -> &'static str {
        "fl"
    }

    fn kind(&self) -> &'static str {
        if self.is_model() {
            "model"
        } else {
            "update"
        }
    }
}

impl TreeData for FlData {
    fn combine(&mut self, other: &Self) {
        if self.values.is_empty() {
            self.values = other.values.clone();
            self.samples = other.samples;
            self.wire = other.wire;
            return;
        }
        debug_assert_eq!(self.values.len(), other.values.len());
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
        self.samples += other.samples;
        // A combined partial is dense regardless of leaf compression.
        self.wire = self.values.len() * 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_and_update_roles() {
        let m = FlData::model(vec![1.0, 2.0]);
        assert!(m.is_model());
        let u = FlData::update(ModelUpdate::from_client(&[1.0, 2.0], 5), Compression::None);
        assert!(!u.is_model());
        assert_eq!(u.into_update().samples, 5);
    }

    #[test]
    fn compression_shrinks_leaf_wire_size_only() {
        let w = vec![0.5; 1000];
        let dense = FlData::update(ModelUpdate::from_client(&w, 3), Compression::None);
        let mut sparse =
            FlData::update(ModelUpdate::from_client(&w, 3), Compression::TopK { k: 50 });
        assert!(sparse.size_bytes() < dense.size_bytes() / 2);
        // After combining, the partial is dense again.
        sparse.combine(&dense);
        assert_eq!(sparse.size_bytes(), 1000 * 4 + 16);
    }

    #[test]
    fn combine_matches_model_update_merge() {
        let a = ModelUpdate::from_client(&[1.0, -2.0], 4);
        let b = ModelUpdate::from_client(&[0.5, 3.0], 6);
        let mut fa = FlData::update(a.clone(), Compression::None);
        fa.combine(&FlData::update(b.clone(), Compression::None));
        let mut m = a;
        m.merge(&b);
        assert_eq!(fa.samples, m.samples);
        for (x, y) in fa.values.iter().zip(&m.weighted) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn combine_into_empty_adopts_other() {
        let mut empty = FlData {
            values: Vec::new(),
            samples: 0,
            wire: 0,
        };
        let u = FlData::update(ModelUpdate::from_client(&[2.0], 2), Compression::None);
        empty.combine(&u);
        assert_eq!(empty.samples, 2);
        assert_eq!(empty.values.len(), 1);
    }
}
