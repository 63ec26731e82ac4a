//! # totoro-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§7), built around the [`scenario::Scenario`] API:
//! each artifact expands into independent [`scenario::Trial`]s that the
//! parallel trial engine runs on `--jobs` worker threads with bit-identical
//! output regardless of worker count.
//!
//! The `totoro-bench` binary is the crate's one entry point: it dispatches
//! scenarios by name (`totoro-bench fig7 --nodes 300 --jobs 8`), plus
//! `deploy` ([`deploy::run`]), `mc` ([`mc::run`]) and `trace`
//! ([`traceview::run`]), all parsed by one grammar
//! ([`scenario::parse_params`]); `--list` enumerates them:
//!
//! | Scenario | Paper artifact |
//! |----------|----------------|
//! | `fig5` | Fig. 5a–d: zones, master distribution, branch balance |
//! | `fig6` | Fig. 6a–c: dissemination/aggregation time vs N, fanout; O(log N) hops |
//! | `fig7` | Fig. 7: per-node TCP/UDP traffic vs number of trees |
//! | `table3` | Table 3: time-to-accuracy speedups vs OpenFL/FedScale |
//! | `fig8`, `fig9` | Figs. 8–9: time-to-accuracy curves (speech, femnist) |
//! | `fig10` | Fig. 10: regret comparison of path-planning algorithms |
//! | `fig11` | Fig. 11: path-selection frequencies |
//! | `fig12` | Fig. 12: failure-recovery time vs number of trees |
//! | `fig13` | Fig. 13a–b: CPU and memory overhead vs OpenFL |
//! | `ablation` | In-network aggregation vs star ablation |
//! | `chaos` | Seed-sweep fault injection with live invariant oracles (`--replay PLAN:SEED` for one trial) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod deploy;
pub mod logging;
pub mod mc;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod setups;
pub mod simcore;
pub mod traceview;
