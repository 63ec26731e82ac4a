//! # totoro-e2e
//!
//! The repo benchmark: four full-stack workloads, five end-to-end metrics
//! and per-layer attribution, all measured from outside the program — by
//! timing this crate's own calls into the layers' public functions and by
//! installing its own trace sink. See `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod results;
pub mod sink;
pub mod spans;
pub mod stats;
pub mod workloads;
