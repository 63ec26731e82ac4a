//! Experiment runner: regret curves and path-selection frequencies.
//!
//! Figure 10 plots cumulative regret versus packets sent; Figure 11 plots,
//! for each packet index, which path (ranked best→worst by expected delay)
//! each algorithm chose. This module routes `K` packets under a policy and
//! produces both series.

use rand::rngs::StdRng;

use crate::graph::{EdgeId, LinkGraph, Vertex};
use crate::policies::{Policy, Router};

/// The measured outcome of one `K`-packet trial.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Policy name.
    pub policy: String,
    /// Realized delay (slots) of each packet.
    pub per_packet_delay: Vec<u64>,
    /// Rank (0 = optimal) of the realized path of each packet among all
    /// loop-free s→d paths ordered by expected delay; `usize::MAX` when the
    /// packet was not delivered on an enumerated path.
    pub per_packet_path_rank: Vec<usize>,
    /// Cumulative regret after each packet:
    /// `Σ delay − (k+1)·D(p*)` (§5.1).
    pub cumulative_regret: Vec<f64>,
}

impl TrialResult {
    /// Final cumulative regret.
    pub fn final_regret(&self) -> f64 {
        self.cumulative_regret.last().copied().unwrap_or(0.0)
    }

    /// Fraction of the last `window` packets that rode the optimal path.
    pub fn optimal_rate_tail(&self, window: usize) -> f64 {
        let n = self.per_packet_path_rank.len();
        if n == 0 {
            return 0.0;
        }
        let start = n.saturating_sub(window);
        let tail = &self.per_packet_path_rank[start..];
        tail.iter().filter(|&&r| r == 0).count() as f64 / tail.len() as f64
    }
}

/// Ranks every loop-free s→d path by expected delay (best first).
pub fn ranked_paths(g: &LinkGraph, s: Vertex, d: Vertex) -> Vec<(Vec<EdgeId>, f64)> {
    let mut paths: Vec<(Vec<EdgeId>, f64)> = g
        .all_paths(s, d)
        .into_iter()
        .map(|p| {
            let delay = g.path_delay(&p);
            (p, delay)
        })
        .collect();
    paths.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite delays"));
    paths
}

/// Routes `k_packets` packets from `s` to `d` under `policy`, producing the
/// regret curve and path-rank sequence.
pub fn run_trial(
    g: &LinkGraph,
    s: Vertex,
    d: Vertex,
    policy: Policy,
    k_packets: usize,
    rng: &mut StdRng,
) -> TrialResult {
    let ranked = ranked_paths(g, s, d);
    let d_star = ranked.first().map(|(_, delay)| *delay).unwrap_or(0.0);
    let mut router = Router::new(policy, g);
    let mut per_packet_delay = Vec::with_capacity(k_packets);
    let mut per_packet_path_rank = Vec::with_capacity(k_packets);
    let mut cumulative_regret = Vec::with_capacity(k_packets);
    let mut cum_delay = 0.0;
    for k in 0..k_packets {
        let res = router.route_packet(g, s, d, rng);
        cum_delay += res.delay as f64;
        let rank = ranked
            .iter()
            .position(|(p, _)| *p == res.edges)
            .unwrap_or(usize::MAX);
        per_packet_delay.push(res.delay);
        per_packet_path_rank.push(rank);
        cumulative_regret.push(cum_delay - (k as f64 + 1.0) * d_star);
    }
    TrialResult {
        policy: policy.name().to_string(),
        per_packet_delay,
        per_packet_path_rank,
        cumulative_regret,
    }
}

/// Averages the regret curves of `runs` independent trials (different RNG
/// streams), as the evaluation does to estimate expected regret.
pub fn mean_regret_curve(
    g: &LinkGraph,
    s: Vertex,
    d: Vertex,
    policy: Policy,
    k_packets: usize,
    runs: usize,
    seed: u64,
) -> Vec<f64> {
    use rand::SeedableRng;
    let mut mean = vec![0.0; k_packets];
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed ^ (run as u64).wrapping_mul(0x9E37_79B9));
        let trial = run_trial(g, s, d, policy, k_packets, &mut rng);
        for (m, r) in mean.iter_mut().zip(&trial.cumulative_regret) {
            *m += r;
        }
    }
    for m in &mut mean {
        *m /= runs as f64;
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::layered;
    use rand::SeedableRng;

    fn test_graph(seed: u64) -> (LinkGraph, Vertex, Vertex) {
        let mut rng = StdRng::seed_from_u64(seed);
        layered(3, 3, (0.2, 0.95), &mut rng)
    }

    #[test]
    fn ranked_paths_are_sorted() {
        let (g, s, d) = test_graph(1);
        let ranked = ranked_paths(&g, s, d);
        // 3 entry choices x 3 + 3 inter-layer choices = 27 paths.
        assert_eq!(ranked.len(), 27);
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
        let (best, delay) = g.best_path(s, d).unwrap();
        assert_eq!(ranked[0].0, best);
        assert!((ranked[0].1 - delay).abs() < 1e-9);
    }

    #[test]
    fn oracle_regret_hovers_near_zero() {
        let (g, s, d) = test_graph(2);
        let k = 500;
        let curve = mean_regret_curve(&g, s, d, Policy::Oracle, k, 8, 42);
        let final_per_packet = curve[k - 1] / k as f64;
        assert!(
            final_per_packet.abs() < 0.6,
            "oracle per-packet regret {final_per_packet}"
        );
    }

    #[test]
    fn klucb_regret_is_sublinear() {
        let (g, s, d) = test_graph(3);
        let k = 800;
        let curve = mean_regret_curve(&g, s, d, Policy::HopByHopKlUcb, k, 6, 7);
        // Regret growth over the second half must be much smaller than over
        // the first half (sublinearity ⇒ learning happened).
        let first_half = curve[k / 2 - 1];
        let second_half = curve[k - 1] - curve[k / 2 - 1];
        assert!(
            second_half < 0.6 * first_half.max(1.0),
            "first {first_half}, second {second_half}"
        );
    }

    #[test]
    fn klucb_beats_baselines_on_deceptive_links() {
        // The topology the paper's critique targets: the best first link
        // leads into a bad continuation, so next-hop greed accumulates
        // linear regret while Totoro's J term escapes the trap (§7.5).
        let (g, s, d) = crate::graph::trap_graph();
        let k = 800;
        let runs = 8;
        let hb = mean_regret_curve(&g, s, d, Policy::HopByHopKlUcb, k, runs, 11);
        let nh = mean_regret_curve(&g, s, d, Policy::NextHopEmpirical, k, runs, 11);
        let e2e = mean_regret_curve(&g, s, d, Policy::EndToEndLcb, k, runs, 11);
        assert!(
            hb[k - 1] < nh[k - 1],
            "hop-by-hop {} vs next-hop {}",
            hb[k - 1],
            nh[k - 1]
        );
        assert!(
            hb[k - 1] < e2e[k - 1] * 1.2,
            "hop-by-hop {} vs end-to-end {}",
            hb[k - 1],
            e2e[k - 1]
        );
        // Next-hop's regret keeps growing linearly on the trap: the second
        // half accrues nearly as much as the first.
        let nh_first = nh[k / 2 - 1];
        let nh_second = nh[k - 1] - nh_first;
        assert!(
            nh_second > 0.5 * nh_first,
            "next-hop unexpectedly escaped the trap"
        );
    }

    #[test]
    fn klucb_finds_optimal_path_eventually() {
        let (g, s, d) = test_graph(5);
        let mut rng = StdRng::seed_from_u64(9);
        let trial = run_trial(&g, s, d, Policy::HopByHopKlUcb, 1_000, &mut rng);
        assert!(
            trial.optimal_rate_tail(100) >= 0.6,
            "tail optimal rate {}",
            trial.optimal_rate_tail(100)
        );
    }

    #[test]
    fn trial_series_have_requested_length() {
        let (g, s, d) = test_graph(6);
        let mut rng = StdRng::seed_from_u64(10);
        let trial = run_trial(&g, s, d, Policy::EndToEndLcb, 50, &mut rng);
        assert_eq!(trial.per_packet_delay.len(), 50);
        assert_eq!(trial.per_packet_path_rank.len(), 50);
        assert_eq!(trial.cumulative_regret.len(), 50);
        // Oracle trial: every packet rank 0.
        let mut rng = StdRng::seed_from_u64(11);
        let oracle = run_trial(&g, s, d, Policy::Oracle, 20, &mut rng);
        assert!(oracle.per_packet_path_rank.iter().all(|&r| r == 0));
    }
}
