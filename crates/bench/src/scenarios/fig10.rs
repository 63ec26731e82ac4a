//! Figure 10: regret comparison of Totoro's bandit-based hop-by-hop path
//! planning against end-to-end LCB routing \[42\] and next-hop empirical
//! routing \[25\].
//!
//! The environment is an unreliable edge network with a deceptive
//! high-quality first link (the situation §7.5 calls out: "paths with a
//! low-delay first link but with a high overall delay"), modeled by
//! `trap_graph`, plus a random layered graph for breadth.

use totoro_bandit::{layered, mean_regret_curve, trap_graph, LinkGraph, Policy, Vertex};

use crate::report::{csv_block, f2, markdown_table};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use totoro_simnet::TraceRecord;

const POLICIES: [Policy; 4] = [
    Policy::HopByHopKlUcb,
    Policy::EndToEndLcb,
    Policy::NextHopEmpirical,
    Policy::Oracle,
];

const GRAPHS: [&str; 2] = ["trap", "layered"];

/// Figure 10 scenario (`fig10`).
pub struct Fig10;

fn graph_label(graph: &str) -> &'static str {
    match graph {
        "trap" => "trap (deceptive first link)",
        _ => "layered 3x3 random",
    }
}

/// Rebuilds the trial's graph deterministically from its seed.
///
/// The layered graph's structure comes from `seed` and the regret runs use
/// `seed + 1`, matching the original serial harness; both are derivable
/// from the trial alone so any worker can run it.
fn build_graph(graph: &str, seed: u64) -> (LinkGraph, Vertex, Vertex, u64) {
    match graph {
        "trap" => {
            let (g, s, d) = trap_graph();
            (g, s, d, seed)
        }
        _ => {
            let mut rng = rand::SeedableRng::seed_from_u64(seed);
            let (g, s, d) = layered(3, 3, (0.15, 0.95), &mut rng);
            (g, s, d, seed + 1)
        }
    }
}

impl Scenario for Fig10 {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn description(&self) -> &'static str {
        "Fig. 10: regret comparison of path-planning algorithms"
    }

    fn default_params(&self) -> Params {
        Params {
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["packets", "runs"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        let packets = params.num("packets")?.unwrap_or(2_000);
        let runs = params.num("runs")?.unwrap_or(10);
        let mut trials = Vec::new();
        for graph in GRAPHS {
            for (pi, _) in POLICIES.iter().enumerate() {
                trials.push(
                    Trial::new(graph, params.seed)
                        .with("policy", pi as u64)
                        .with("packets", packets)
                        .with("runs", runs),
                );
            }
        }
        Ok(trials)
    }

    fn run_with_sink(
        &self,
        trial: &Trial,
        _sink: &SinkSpec,
    ) -> (TrialReport, Option<Vec<TraceRecord>>) {
        let packets = trial.get_usize("packets");
        let runs = trial.get_usize("runs");
        let policy = POLICIES[trial.get_usize("policy")];
        let (g, s, d, regret_seed) = build_graph(&trial.setup, trial.seed);
        let (_, d_star) = g.best_path(s, d).expect("connected");
        let curve = mean_regret_curve(&g, s, d, policy, packets, runs, regret_seed);

        let mut report = TrialReport::for_trial(trial);
        report.push_metric("num_vertices", g.num_vertices() as f64);
        report.push_metric("num_edges", g.num_edges() as f64);
        report.push_metric("d_star", d_star);
        report.push_metric("regret_q1", curve[packets / 4 - 1]);
        report.push_metric("regret_q2", curve[packets / 2 - 1]);
        report.push_metric("regret_final", curve[packets - 1]);
        let checkpoints: Vec<(f64, f64)> = (1..=20)
            .map(|i| {
                let k = i * packets / 20;
                (k as f64, curve[k - 1])
            })
            .collect();
        report.push_series("checkpoints", checkpoints);
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let packets: usize = checked(params.num("packets")).unwrap_or(2_000);
        let runs: usize = checked(params.num("runs")).unwrap_or(10);
        let mut out = format!("# Figure 10: cumulative regret vs packets (runs={runs})\n");
        for (gi, graph) in GRAPHS.iter().enumerate() {
            let label = graph_label(graph);
            let group = &reports[gi * POLICIES.len()..(gi + 1) * POLICIES.len()];
            let first = &group[0];
            out.push_str(&format!(
                "\n== graph: {label} ({} vertices, {} links) ==\n",
                first.metric("num_vertices") as usize,
                first.metric("num_edges") as usize,
            ));
            out.push_str(&format!(
                "optimal expected delay: {:.2} slots/packet\n",
                first.metric("d_star")
            ));
            for (p, r) in POLICIES.iter().zip(group) {
                out.push_str(&format!(
                    "  {:<20} regret @K/4 {:>9.1}  @K/2 {:>9.1}  @K {:>9.1}\n",
                    p.name(),
                    r.metric("regret_q1"),
                    r.metric("regret_q2"),
                    r.metric("regret_final"),
                ));
            }

            let checkpoints: Vec<usize> = (1..=20).map(|i| i * packets / 20).collect();
            let rows: Vec<Vec<String>> = checkpoints
                .iter()
                .enumerate()
                .map(|(ci, &k)| {
                    let mut row = vec![k.to_string()];
                    for r in group {
                        row.push(f2(r.series("checkpoints")[ci].1));
                    }
                    row
                })
                .collect();
            let headers: Vec<&str> = std::iter::once("packets")
                .chain(POLICIES.iter().map(|p| p.name()))
                .collect();
            out.push_str(&markdown_table(
                &format!("Fig 10 [{label}]: mean cumulative regret"),
                &headers,
                &rows,
            ));
            out.push_str(&csv_block(
                &format!("fig10_{}", label.split(' ').next().unwrap()),
                &headers,
                &rows,
            ));

            out.push_str(&format!(
                "paper check: Totoro achieves lower regret -> totoro {:.0} vs end-to-end {:.0} vs next-hop {:.0}\n",
                group[0].metric("regret_final"),
                group[1].metric("regret_final"),
                group[2].metric("regret_final"),
            ));
        }
        out
    }
}
