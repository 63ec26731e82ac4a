//! # totoro
//!
//! A from-scratch Rust reproduction of **Totoro: A Scalable Federated
//! Learning Engine for the Edge** (EuroSys '24): a fully decentralized
//! "many masters / many workers" FL engine in which every edge node can be
//! any application's coordinator, aggregator, client selector, or worker.
//!
//! The stack (paper §4):
//!
//! | Layer | Crate | Paper section |
//! |-------|-------|---------------|
//! | Locality-aware P2P multi-ring DHT | [`totoro_dht`] | §4.2 |
//! | Publish/subscribe forest | [`totoro_pubsub`] | §4.3 |
//! | Bandit path planning | [`totoro_bandit`] | §5 |
//! | FL engine + high-level API | this crate | §4.4 |
//!
//! ## Table 2 API mapping
//!
//! | Paper call | This implementation |
//! |------------|---------------------|
//! | `Join(IP, port, site)` | nodes join at [`TotoroDeployment::new`] (protocol-level joins live in `totoro_dht::DhtNode`) |
//! | `CreateTree(app_id)` | [`totoro_pubsub::ForestApi::create_tree`] / first `Subscribe` |
//! | `Subscribe(app_id)` | [`totoro_pubsub::ForestApi::subscribe`]; selection policy in [`FlAppConfig::selection`] |
//! | `Broadcast(app_id, object)` | [`totoro_pubsub::ForestApi::broadcast`]; compression in [`FlAppConfig::compression`] |
//! | `onBroadcast` | [`totoro_pubsub::ForestApp::on_model`] (implemented by [`FlEngine`]) |
//! | `Aggregate(app_id, object)` | in-network combining via [`totoro_pubsub::TreeData`]; rule in [`FlAppConfig::aggregation`] |
//! | `onAggregate` | [`totoro_pubsub::ForestApp::on_aggregated`] / [`totoro_pubsub::ForestApp::on_partial`] |
//! | `onTimer` | [`totoro_pubsub::ForestApp::on_timer`] |
//!
//! ## Quickstart
//!
//! `tests/fl_engine.rs`'s `single_app_trains_to_target_through_the_tree`
//! is the smallest end-to-end run: build a [`TotoroDeployment`], submit an
//! application, train to target accuracy, read the curve. As a command:
//! `totoro-bench deploy --nodes 32 --apps 1 --dataset speech`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ahead;
pub mod config;
pub mod deploy;
pub mod engine;
pub mod roles;
pub mod update;
pub mod virtual_nodes;

pub use ahead::Simulating;
pub use config::{FlAppConfig, RoundPolicy, SelectionPolicy};
pub use deploy::{TotoroDeployment, TotoroNode};
pub use engine::{EngineStats, FlEngine, MasterState};
pub use roles::{level_census, masters_per_node, quantile, role_census, RoleCount};
pub use update::FlData;
pub use virtual_nodes::{expand_by_cores, fold_to_physical, logical_count, VirtualMapping};

// Re-export the substrate crates so downstream users need one dependency.
pub use totoro_bandit as bandit;
pub use totoro_dht as dht;
pub use totoro_ml as ml;
pub use totoro_pubsub as pubsub;
pub use totoro_simnet as simnet;
