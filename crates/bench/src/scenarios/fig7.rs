//! Figure 7: per-node network traffic (TCP/UDP) as the number of dataflow
//! trees grows.
//!
//! The paper's observation: increasing the number of trees 10× increases
//! per-node traffic by only ~1.19× (TCP) / ~1.29× (UDP), because new trees
//! merely add JOIN paths over the existing overlay whose maintenance cost
//! dominates and is shared.
//!
//! Method: run an overlay for a fixed maintenance-only window with `k`
//! live trees (tree keep-alives on top of the shared DHT upkeep) and
//! report mean wire bytes per node under the TCP and UDP overhead models.

use crate::report::{csv_block, f2, markdown_table};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{build_tree, echo_overlay_with, eua_topology, topic};
use totoro_pubsub::ForestConfig;
use totoro_simnet::{sub_rng, SimDuration, SimTime, TraceRecord};

/// Figure 7 scenario (`fig7`).
pub struct Fig7;

impl Scenario for Fig7 {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn description(&self) -> &'static str {
        "Fig. 7: per-node TCP/UDP traffic vs number of trees"
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 300,
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["window-secs"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let window = params.num("window-secs")?.unwrap_or(120);
        Ok([1u64, 2, 5, 10, 20]
            .iter()
            .map(|&k| {
                Trial::new("trees", params.seed)
                    .with("trees", k)
                    .with("n", params.nodes as u64)
                    .with("window_secs", window)
            })
            .collect())
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        _sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let n = trial.get_usize("n");
        let k = trial.get_usize("trees");
        let seed = trial.seed;
        let window = trial.get("window_secs");

        let topology = eua_topology(n, seed);
        let n = topology.len();
        // Production-like maintenance cadence: tree keep-alives every 4 s
        // (the DHT's own heartbeats every 2 s dominate, as in FreePastry).
        let fconfig = ForestConfig {
            fanout_cap: 16,
            tick: SimDuration::from_secs(4),
            agg_timeout: SimDuration::from_secs(120),
            ..ForestConfig::default()
        };
        let mut sim = echo_overlay_with(topology, seed, 16, fconfig);
        let members: Vec<usize> = (0..n).collect();
        let mut rng = sub_rng(seed + k as u64, "membership");
        let mut topics = Vec::new();
        for t in 0..k {
            let tp = topic("fig7", t as u64);
            let subset: Vec<usize> =
                rand::seq::SliceRandom::choose_multiple(&members[..], &mut rng, n / 2)
                    .copied()
                    .collect();
            build_tree(&mut sim, tp, &subset, SimTime::ZERO);
            topics.push(tp);
        }
        // Settle, then measure a clean maintenance-only window (the paper's
        // point: creating new trees adds little traffic on top of the shared
        // overlay upkeep).
        sim.run_until(SimTime::from_secs(60));
        sim.traffic_mut().reset();
        let start = sim.now();
        let end = start + SimDuration::from_secs(window);
        sim.run_until(end);
        let _ = &topics;

        let mut report = TrialReport::for_trial(trial);
        report.push_metric("trees", k as f64);
        report.push_metric("tcp", sim.traffic().mean_tcp_sent());
        report.push_metric("udp", sim.traffic().mean_udp_sent());
        report.push_metric("msgs", sim.traffic().total_msgs() as f64);
        // Captured after the measurement window, so the accounting matches
        // the reported means (the warm-up was reset away).
        report.sim = totoro_simnet::TrialReport::capture(&sim);
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let window: usize = checked(params.num("window-secs")).unwrap_or(120);
        let mut out = format!(
            "# Figure 7: traffic per node vs number of trees (n={}, window={window}s)\n",
            params.nodes
        );
        let mut rows = Vec::new();
        let mut base: Option<(f64, f64)> = None;
        for r in reports {
            let k = r.metric("trees") as usize;
            let (tcp, udp, msgs) = (r.metric("tcp"), r.metric("udp"), r.metric("msgs"));
            let (tcp0, udp0) = *base.get_or_insert((tcp, udp));
            rows.push(vec![
                k.to_string(),
                f2(tcp / 1024.0),
                f2(udp / 1024.0),
                f2(tcp / tcp0),
                f2(udp / udp0),
                format!("{}", msgs as u64),
            ]);
            out.push_str(&format!(
                "  trees={k}: tcp {:.1} KiB/node (x{:.2}), udp {:.1} KiB/node (x{:.2})\n",
                tcp / 1024.0,
                tcp / tcp0,
                udp / 1024.0,
                udp / udp0
            ));
        }
        out.push_str(&markdown_table(
            "Fig 7: mean wire bytes per node over the window",
            &[
                "trees",
                "TCP KiB/node",
                "UDP KiB/node",
                "TCP ratio vs 1 tree",
                "UDP ratio vs 1 tree",
                "total msgs",
            ],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig7",
            &[
                "trees",
                "tcp_kib",
                "udp_kib",
                "tcp_ratio",
                "udp_ratio",
                "msgs",
            ],
            &rows,
        ));
        let last = rows.last().expect("fig7 sweep is non-empty");
        out.push_str(&format!(
            "\npaper check: 10x trees -> ~1.19x TCP / ~1.29x UDP; measured at {}x trees: {}x TCP, {}x UDP\n",
            reports.last().map(|r| r.metric("trees") as usize).unwrap_or(0),
            last[3],
            last[4]
        ));
        out
    }
}
