//! # totoro-dht
//!
//! A from-scratch Pastry-style DHT implementing Totoro's Layer 1: the
//! locality-aware P2P multi-ring structure (§4.2 of the paper).
//!
//! * [`id`] — the 128-bit circular identifier space, digit arithmetic for
//!   base-`2^b` prefix routing, and zone-prefix composition.
//! * [`hash`] — SHA-1 (from the FIPS spec) for deriving NodeIds and AppIds.
//! * [`table`] — the three per-node structures: routing table, leaf set,
//!   neighborhood set.
//! * [`two_level`] — the boundary-aware two-level routing table that gives
//!   administrative isolation across edge zones.
//! * [`routing`] — the greedy prefix-routing decision procedure.
//! * [`node`] — the protocol node (join, maintenance, failure detection,
//!   key routing with per-hop interception for the pub/sub layer).
//! * [`oracle`] — omniscient overlay construction and implicit routing for
//!   large-scale hop-count experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod id;
pub mod node;
pub mod oracle;
pub mod routing;
pub mod state;
pub mod table;
pub mod two_level;

pub use hash::{app_id, id_from_bytes, node_id, sha1};
pub use id::{closest_on_ring, Id, ID_BITS};
pub use node::{DhtApi, DhtMsg, DhtNode, DhtStats, UpperLayer, UPPER_TIMER_BASE};
pub use oracle::{
    build_states, build_states_with_proximity, ids_for_zones, implicit_route_hops, random_ids,
    spawn_overlay, spawn_overlay_with_sink,
};
pub use routing::{next_hop, next_hop_in_zone, NextHop};
pub use state::{DhtConfig, DhtState, Offer, PeerRecord, MAX_FANOUT};
pub use table::{Contact, LeafSet, NeighborhoodSet, RoutingTable};
pub use two_level::{BoundaryDecision, TwoLevelTable};
