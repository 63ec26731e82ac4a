#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Bounded model checking for the Totoro protocol stack.
//!
//! The chaos harness (DESIGN.md §9) probes the protocol with *random*
//! fault schedules; this crate climbs the next rung of the assurance
//! ladder and explores small configurations *exhaustively*: every
//! reordering of pending deliveries within a window, every drop /
//! duplicate / churn injection point, up to a bounded depth and fault
//! budget. The deterministic simulator is the state-transition oracle —
//! the checker never reimplements protocol semantics, it only steers
//! which queued event fires next through the exploration hooks on
//! [`totoro_simnet::Simulator`] (`pending_summaries`, `dispatch_pending`,
//! `drop_pending`, `duplicate_pending`).
//!
//! The crate is deliberately split from the worlds it checks:
//!
//! * [`schedule`] — the [`Choice`] alphabet and its stable one-line
//!   replay format. A counterexample is just a `Vec<Choice>`; replaying
//!   it through a fresh world deterministically reproduces the violation.
//! * [`hash`] — [`StableHasher`], the seed-free FNV-1a hasher canonical
//!   state digests are built with (visited-set dedup must not depend on
//!   `RandomState`).
//! * [`explore`] — the [`Explorer`]: depth-first search over choice
//!   prefixes with replay-from-prefix execution (the simulator is not
//!   cloneable), canonical-hash dedup, sleep-set pruning of commuting
//!   deliveries, and greedy counterexample minimization.
//! * [`shrink`](mod@shrink) — the greedy one-item-at-a-time minimizer
//!   ([`shrink()`]) that counterexample minimization and the chaos
//!   harness's plan shrinking share.
//!
//! Concrete worlds (the 4-node echo-forest configurations, the invariant
//! oracles) live in the bench crate next to the chaos harness, and
//! `totoro-bench mc` is the command-line frontend. DESIGN.md §14
//! carries the exploration-strategy and soundness discussion.

pub mod explore;
pub mod hash;
pub mod schedule;
pub mod shrink;

pub use explore::{Explorer, McConfig, Report, Stats, Violation, World};
pub use hash::StableHasher;
pub use schedule::Choice;
pub use shrink::{shrink, Shrunk};
