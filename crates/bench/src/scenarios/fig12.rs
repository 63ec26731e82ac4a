//! Figure 12: failure-recovery time for an exponentially increasing number
//! of dataflow trees, with 5% of each tree's nodes failing simultaneously.
//!
//! The paper's claim: recovery time stays *stable* as the number of trees
//! grows exponentially, because every failure is detected by the failed
//! node's tree children via keep-alives and repaired locally (re-JOIN),
//! fully in parallel and without any central coordinator (§4.5).

use crate::report::{csv_block, f2, markdown_table, percentile};
use crate::scenario::{checked, Params, Scenario, SinkSpec, Trial, TrialReport};
use crate::setups::{build_tree, echo_overlay, eua_topology, topic};
use totoro_simnet::{sub_rng, ChurnSchedule, SimTime, TraceRecord};

const TREE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const REPS: u64 = 3;

/// Figure 12 scenario (`fig12`).
pub struct Fig12;

fn fail_frac(params: &Params) -> Result<f64, String> {
    let frac = params.bounded("fail-frac", "within 0..=1", |f| (0.0..=1.0).contains(&f))?;
    Ok(frac.unwrap_or(0.05))
}

impl Scenario for Fig12 {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn description(&self) -> &'static str {
        "Fig. 12: failure-recovery time vs number of trees"
    }

    fn default_params(&self) -> Params {
        Params {
            nodes: 400,
            seed: 1,
            ..Params::default()
        }
    }

    fn keys(&self) -> &'static [&'static str] {
        &["fail-frac"]
    }

    fn trials(&self, params: &Params) -> Result<Vec<Trial>, String> {
        // Fractions travel as parts-per-million so the trial point stays
        // integer-valued (and byte-stable in serialized form).
        let fail_ppm = (fail_frac(params)? * 1e6).round() as u64;
        let mut trials = Vec::new();
        for &trees in &TREE_COUNTS {
            // Several independent repetitions per point, merged at render
            // time for stable percentiles.
            for rep in 0..REPS {
                trials.push(
                    Trial::new("recover", params.seed + rep * 101)
                        .with("n", params.nodes as u64)
                        .with("trees", trees as u64)
                        .with("fail_ppm", fail_ppm),
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
        let n = trial.get_usize("n");
        let trees = trial.get_usize("trees");
        let fail_frac = trial.get("fail_ppm") as f64 / 1e6;
        let seed = trial.seed;

        let topology = eua_topology(n, seed);
        let n = topology.len();
        let mut sim = echo_overlay(topology, seed, 16);
        let members: Vec<usize> = (0..n).collect();
        let mut rng = sub_rng(seed ^ trees as u64, "fig12");
        let mut tree_members: Vec<Vec<usize>> = Vec::new();
        for t in 0..trees {
            let tp = topic("fig12", t as u64);
            let subset: Vec<usize> =
                rand::seq::SliceRandom::choose_multiple(&members[..], &mut rng, (n * 3) / 4)
                    .copied()
                    .collect();
            build_tree(&mut sim, tp, &subset, SimTime::ZERO);
            tree_members.push(subset);
        }
        sim.run_until(SimTime::from_secs(60));

        // Paper workload: "each tree has 5% of nodes that fail ... at the
        // same time". Nodes serve many trees at once, so killing 5% of the
        // overlay takes down ~5% of every tree's membership simultaneously;
        // the number of concurrent repairs then grows with the number of
        // trees while the per-repair work stays local.
        let _ = &tree_members;
        let kill_at = SimTime::from_secs(60);
        let schedule = ChurnSchedule::mass_failure(&members, fail_frac, kill_at, &mut rng);
        let killed = schedule.nodes_affected();
        schedule.apply(&mut sim);
        sim.run_until(SimTime::from_secs(240));

        // Collect completed repair episodes started at/after the kill,
        // decomposed into detection (kill -> detected) and repair
        // (detected -> reattached).
        let mut episodes = Vec::new();
        let mut incomplete = 0usize;
        for i in 0..n {
            for ev in &sim.app(i).upper.state.repair_events {
                if ev.detected >= kill_at {
                    match ev.reattached {
                        Some(done) => episodes.push((
                            ev.detected.saturating_since(kill_at).as_secs_f64() * 1_000.0,
                            done.saturating_since(ev.detected).as_secs_f64() * 1_000.0,
                        )),
                        None => incomplete += 1,
                    }
                }
            }
        }
        assert!(
            incomplete <= (episodes.len() / 5).max(2),
            "too many unrepaired orphans: {incomplete} vs {} repaired",
            episodes.len()
        );

        let mut report = TrialReport::for_trial(trial);
        report.sim = totoro_simnet::TrialReport::capture(&sim);
        report.push_metric("killed", killed as f64);
        report.push_series("episodes", episodes);
        (report, None)
    }

    fn render(&self, params: &Params, reports: &[TrialReport]) -> String {
        let frac = checked(fail_frac(params));
        let mut out = format!(
            "# Figure 12: failure recovery vs #trees ({}% simultaneous failures)\n",
            frac * 100.0
        );
        let mut rows = Vec::new();
        let mut next = reports.iter();
        for &trees in &TREE_COUNTS {
            let mut detect = Vec::new();
            let mut repair = Vec::new();
            let mut total = Vec::new();
            let mut failed = 0usize;
            for _ in 0..REPS {
                let r = next.next().expect("fig12 report count matches trials");
                for &(d, rp) in r.series("episodes") {
                    detect.push(d);
                    repair.push(rp);
                    total.push(d + rp);
                }
                failed += r.metric("killed") as usize;
            }
            let repaired = repair.len();
            let med_detect = percentile(&detect, 50.0);
            let med_repair = percentile(&repair, 50.0);
            let p95_total = percentile(&total, 95.0);
            rows.push(vec![
                trees.to_string(),
                f2(med_detect),
                f2(med_repair),
                f2(p95_total),
                repaired.to_string(),
                failed.to_string(),
            ]);
            out.push_str(&format!(
                "  trees={trees}: median detect {med_detect:.0} ms, median repair {med_repair:.0} ms, p95 total {p95_total:.0} ms ({repaired} repairs, {failed} killed)\n"
            ));
        }
        out.push_str(&markdown_table(
            "Fig 12: tree repair time vs number of trees",
            &[
                "trees",
                "median detection (ms)",
                "median repair (ms)",
                "p95 total (ms)",
                "repairs",
                "nodes killed",
            ],
            &rows,
        ));
        out.push_str(&csv_block(
            "fig12",
            &[
                "trees",
                "detect_ms",
                "repair_ms",
                "p95_total_ms",
                "repairs",
                "killed",
            ],
            &rows,
        ));

        // Stability check: repair time at 32 trees close to 1 tree.
        let first: f64 = rows[0][2].parse::<f64>().unwrap().max(1.0);
        let last: f64 = rows.last().unwrap()[2].parse::<f64>().unwrap().max(1.0);
        out.push_str(&format!(
            "\npaper check: repair stays stable under x32 trees -> median repair changes by x{:.2}\n",
            last / first
        ));
        out
    }
}
