//! Federated aggregation: model updates, FedAvg, FedProx configuration.
//!
//! A worker's contribution to a round is a [`ModelUpdate`]: its locally
//! trained weights scaled by its sample count, plus that count. Updates
//! merge associatively, so interior tree nodes can partially aggregate
//! (§4.3): `merge(a, b)` sums weighted weights and counts, and the master
//! finishes with one division — exactly FedAvg \[69\]. FedProx \[60\] differs
//! only on the client (a proximal pull toward the global model), so it
//! reuses the same merge.

/// The aggregation rule an application requests (Table 2: "Application
/// owner can specify her aggregation function").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggregationRule {
    /// FedAvg: sample-weighted averaging of client weights.
    FedAvg,
    /// FedProx: FedAvg aggregation plus a client-side proximal term `μ`.
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
}

impl AggregationRule {
    /// The client-side proximal coefficient (0 for FedAvg).
    pub fn mu(self) -> f32 {
        match self {
            AggregationRule::FedAvg => 0.0,
            AggregationRule::FedProx { mu } => mu,
        }
    }
}

/// A partially aggregated model update traveling up a dataflow tree.
///
/// # Examples
///
/// ```
/// use totoro_ml::ModelUpdate;
///
/// // Two clients with different amounts of data...
/// let mut acc = ModelUpdate::from_client(&[1.0, 0.0], 10);
/// acc.merge(&ModelUpdate::from_client(&[3.0, 2.0], 30));
/// // ...FedAvg weights by sample count: (1*10 + 3*30) / 40 = 2.5.
/// let avg = acc.finalize().unwrap();
/// assert!((avg[0] - 2.5).abs() < 1e-6);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ModelUpdate {
    /// Sum over contributors of `weights_i * samples_i`.
    pub weighted: Vec<f32>,
    /// Total samples behind `weighted`.
    pub samples: u64,
}

impl ModelUpdate {
    /// A single client's contribution.
    pub fn from_client(weights: &[f32], samples: u64) -> Self {
        Self::from_client_owned(weights.to_vec(), samples)
    }

    /// A single client's contribution, scaled in place in the client's own
    /// weight buffer (a worker that has just flattened its replica has no
    /// other use for it).
    pub fn from_client_owned(mut weights: Vec<f32>, samples: u64) -> Self {
        let s = samples.max(1);
        for w in &mut weights {
            *w *= s as f32;
        }
        ModelUpdate {
            weighted: weights,
            samples: s,
        }
    }

    /// An empty (identity) update.
    pub fn zero(dim: usize) -> Self {
        ModelUpdate {
            weighted: vec![0.0; dim],
            samples: 0,
        }
    }

    /// Folds `other` into `self` (associative, commutative).
    pub fn merge(&mut self, other: &Self) {
        if self.weighted.is_empty() {
            self.weighted = other.weighted.clone();
            self.samples = other.samples;
            return;
        }
        debug_assert_eq!(self.weighted.len(), other.weighted.len());
        for (a, b) in self.weighted.iter_mut().zip(&other.weighted) {
            *a += b;
        }
        self.samples += other.samples;
    }

    /// Finalizes the FedAvg mean at the master. Returns `None` when no
    /// samples contributed.
    pub fn finalize(&self) -> Option<Vec<f32>> {
        if self.samples == 0 {
            return None;
        }
        let inv = 1.0 / self.samples as f32;
        Some(self.weighted.iter().map(|w| w * inv).collect())
    }

    /// Serialized wire size in bytes (f32 weights + header).
    pub fn wire_bytes(&self) -> usize {
        self.weighted.len() * 4 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_is_sample_weighted_mean() {
        let a = ModelUpdate::from_client(&[1.0, 2.0], 10);
        let b = ModelUpdate::from_client(&[3.0, 4.0], 30);
        let mut acc = a.clone();
        acc.merge(&b);
        let avg = acc.finalize().unwrap();
        // (1*10 + 3*30)/40 = 2.5; (2*10 + 4*30)/40 = 3.5.
        assert!((avg[0] - 2.5).abs() < 1e-6);
        assert!((avg[1] - 3.5).abs() < 1e-6);
        assert_eq!(acc.samples, 40);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let u = [
            ModelUpdate::from_client(&[1.0, -1.0], 5),
            ModelUpdate::from_client(&[0.5, 2.0], 7),
            ModelUpdate::from_client(&[-2.0, 0.25], 11),
        ];
        // ((a+b)+c)
        let mut left = u[0].clone();
        left.merge(&u[1]);
        left.merge(&u[2]);
        // (a+(b+c)) in different order: (c+b)+a
        let mut right = u[2].clone();
        right.merge(&u[1]);
        right.merge(&u[0]);
        for (x, y) in left.weighted.iter().zip(&right.weighted) {
            assert!((x - y).abs() < 1e-5);
        }
        assert_eq!(left.samples, right.samples);
    }

    #[test]
    fn zero_is_identity() {
        let a = ModelUpdate::from_client(&[1.0, 2.0, 3.0], 4);
        let mut z = ModelUpdate::zero(3);
        z.merge(&a);
        assert_eq!(z, a);
        assert!(ModelUpdate::zero(3).finalize().is_none());
    }

    #[test]
    fn single_client_round_trips() {
        let w = vec![0.1, -0.2, 0.3];
        let u = ModelUpdate::from_client(&w, 17);
        let back = u.finalize().unwrap();
        for (a, b) in w.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_sample_clients_count_as_one() {
        let u = ModelUpdate::from_client(&[1.0], 0);
        assert_eq!(u.samples, 1);
    }

    #[test]
    fn rule_mu() {
        assert_eq!(AggregationRule::FedAvg.mu(), 0.0);
        assert_eq!(AggregationRule::FedProx { mu: 0.5 }.mu(), 0.5);
    }

    #[test]
    fn wire_bytes_scale_with_dim() {
        let u = ModelUpdate::zero(1000);
        assert_eq!(u.wire_bytes(), 4_016);
    }
}
