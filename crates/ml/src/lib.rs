//! # totoro-ml
//!
//! The machine-learning substrate of the Totoro reproduction: a compact,
//! dependency-free neural-network stack standing in for the paper's Keras
//! models (see DESIGN.md §1 for the substitution argument), plus the
//! federated-optimization building blocks the engine composes:
//!
//! * [`nn`] — MLPs with softmax cross-entropy, SGD, FedProx proximal term;
//! * [`fed`] — mergeable [`fed::ModelUpdate`]s for in-network FedAvg;
//! * [`data`] — synthetic non-IID datasets matching the paper's task scales
//!   (35-class "speech", 62-class "femnist") with Dirichlet label skew;
//! * [`compress`] — top-k sparsification and int8 quantization, and the
//!   wire size each scheme charges ([`Compression::wire_bytes`]): the
//!   simulator prices a model's transfer from that figure, so no weight
//!   is ever serialized;
//! * [`privacy`] — Gaussian-mechanism differential privacy;
//! * [`secure_agg`] — pairwise-masking secure aggregation;
//! * [`metrics`] — accuracy and time-to-accuracy curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod data;
pub mod fed;
pub mod metrics;
pub mod nn;
pub mod privacy;
pub mod secure_agg;

pub use compress::{densify, dequantize_int8, quantize_int8, top_k, Compression};
pub use data::{
    dirichlet, femnist_like, speech_commands_like, text_classification_like, Dataset,
    TaskGenerator, TaskSpec,
};
pub use fed::{AggregationRule, ModelUpdate};
pub use metrics::{accuracy, mean_loss, time_to_accuracy, AccuracyPoint};
pub use nn::{argmax, softmax, Dense, Mlp};
pub use privacy::{apply as apply_privacy, l2_clip, Privacy};
pub use secure_agg::{apply_pairwise_masks, cancellation_tolerance, MASK_SCALE};
