//! Routing policies: Totoro's hop-by-hop KL-UCB planner (Algorithm 1) and
//! the baselines it is evaluated against (§7.5).

use rand::rngs::StdRng;

use crate::graph::{EdgeId, LinkGraph, Vertex};
use crate::klucb::{kl_ucb_upper, LinkStats};

/// Which routing policy a [`Router`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Totoro (§5.2, Algorithm 1): at every time slot, node `v` picks the
    /// link minimizing `C(v,v') = ω(v,v') + J(v')`, where `ω` is the
    /// KL-UCB-adjusted link cost and `J` the least total adjusted cost from
    /// `v'` to the destination. Semi-bandit feedback: every traversed link
    /// updates its statistics.
    HopByHopKlUcb,
    /// End-to-end routing \[42\]: before each packet, commit to the full path
    /// minimizing the sum of optimistic (LCB-on-delay) link costs, then
    /// ride it regardless of what happens mid-path.
    EndToEndLcb,
    /// Next-hop routing \[25\]: at each node greedily take the
    /// lowest-empirical-delay outgoing link among those that make progress
    /// toward the destination; no view past the next hop.
    NextHopEmpirical,
    /// Omniscient baseline: always transmit on the true optimal path.
    Oracle,
}

impl Policy {
    /// Human-readable policy name (used in experiment output).
    pub fn name(self) -> &'static str {
        match self {
            Policy::HopByHopKlUcb => "totoro-hop-by-hop",
            Policy::EndToEndLcb => "end-to-end-lcb",
            Policy::NextHopEmpirical => "next-hop",
            Policy::Oracle => "optimal",
        }
    }
}

/// The outcome of routing one packet.
#[derive(Clone, Debug)]
pub struct PacketResult {
    /// Time slots consumed (one per transmission attempt).
    pub delay: u64,
    /// The realized path: edges on which the packet actually advanced.
    pub edges: Vec<EdgeId>,
}

/// Safety valve: a single packet may not consume more slots than this.
const MAX_SLOTS_PER_PACKET: u64 = 1_000_000;

/// A stateful router executing one [`Policy`] over a [`LinkGraph`].
pub struct Router {
    policy: Policy,
    stats: Vec<LinkStats>,
    /// Global slot clock τ (shared across packets, drives exploration).
    slots: u64,
    /// Hop distances to the destination (computed lazily per destination).
    hop_cache: Option<(Vertex, Vec<u64>)>,
}

impl Router {
    /// Creates a router with no prior link knowledge.
    pub fn new(policy: Policy, graph: &LinkGraph) -> Self {
        Router {
            policy,
            stats: vec![LinkStats::default(); graph.num_edges()],
            slots: 1,
            hop_cache: None,
        }
    }

    /// The policy this router runs.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Per-link statistics accumulated so far.
    pub fn stats(&self) -> &[LinkStats] {
        &self.stats
    }

    /// Total transmission slots consumed so far.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    fn log_tau(&self) -> f64 {
        (self.slots.max(2) as f64).ln()
    }

    /// Routes one packet from `s` to `d`, updating link statistics.
    pub fn route_packet(
        &mut self,
        g: &LinkGraph,
        s: Vertex,
        d: Vertex,
        rng: &mut StdRng,
    ) -> PacketResult {
        match self.policy {
            Policy::HopByHopKlUcb => self.route_hop_by_hop(g, s, d, rng),
            Policy::EndToEndLcb => self.route_end_to_end(g, s, d, rng),
            Policy::NextHopEmpirical => self.route_next_hop(g, s, d, rng),
            Policy::Oracle => self.route_oracle(g, s, d, rng),
        }
    }

    /// Transmits on `e` until success; returns slots spent. Statistics are
    /// updated per attempt (semi-bandit feedback).
    fn transmit_until_success(
        &mut self,
        g: &LinkGraph,
        e: EdgeId,
        rng: &mut StdRng,
        budget: &mut u64,
    ) -> u64 {
        let mut spent = 0;
        loop {
            let ok = g.attempt(e, rng);
            self.stats[e].record(ok);
            self.slots += 1;
            spent += 1;
            *budget = budget.saturating_sub(1);
            if ok || *budget == 0 {
                return spent;
            }
        }
    }

    fn route_hop_by_hop(
        &mut self,
        g: &LinkGraph,
        s: Vertex,
        d: Vertex,
        rng: &mut StdRng,
    ) -> PacketResult {
        let mut v = s;
        let mut delay = 0;
        let mut edges = Vec::new();
        let mut budget = MAX_SLOTS_PER_PACKET;
        let mut omega = vec![0.0; g.num_edges()];
        while v != d && budget > 0 {
            // Per-slot re-planning: ω and J reflect everything learned so
            // far, including attempts made earlier on this very packet.
            // Each link's ω is a pure function of its stats and log τ, so
            // it is computed once per slot, not once per relaxation sweep.
            let log_tau = self.log_tau();
            for (w, st) in omega.iter_mut().zip(&self.stats) {
                *w = st.omega(log_tau);
            }
            let j = g
                .shortest_costs_to(d, |e| omega[e])
                .expect("destination in graph");
            let Some(&e) = g.out_edges(v).iter().min_by(|&&a, &&b| {
                let ca = omega[a] + j[g.edge(a).to];
                let cb = omega[b] + j[g.edge(b).to];
                ca.partial_cmp(&cb).expect("finite costs")
            }) else {
                break; // Dead end.
            };
            if !j[g.edge(e).to].is_finite() {
                break;
            }
            // One attempt per slot; on failure we re-plan (the link's ω
            // just worsened, so a sibling may now look better).
            let ok = g.attempt(e, rng);
            self.stats[e].record(ok);
            self.slots += 1;
            delay += 1;
            budget -= 1;
            if ok {
                edges.push(e);
                v = g.edge(e).to;
            }
        }
        PacketResult { delay, edges }
    }

    fn route_end_to_end(
        &mut self,
        g: &LinkGraph,
        s: Vertex,
        d: Vertex,
        rng: &mut StdRng,
    ) -> PacketResult {
        // Optimistic per-link cost: delay LCB = 1 / (success-rate UCB),
        // computed once per link rather than once per relaxation sweep.
        let log_tau = self.log_tau();
        let costs: Vec<f64> = self
            .stats
            .iter()
            .map(|st| {
                let u = kl_ucb_upper(st.p_hat(), st.attempts, log_tau);
                (1.0 / u.max(1e-9)).max(1.0)
            })
            .collect();
        let cost = |e: EdgeId| costs[e];
        let dist = g.shortest_costs_to(d, cost).expect("destination in graph");
        // Reconstruct the committed path greedily along `dist`.
        let mut path = Vec::new();
        let mut v = s;
        while v != d {
            let Some(&e) = g
                .out_edges(v)
                .iter()
                .filter(|&&e| dist[g.edge(e).to].is_finite())
                .min_by(|&&a, &&b| {
                    let ca = cost(a) + dist[g.edge(a).to];
                    let cb = cost(b) + dist[g.edge(b).to];
                    ca.partial_cmp(&cb).expect("finite")
                })
            else {
                return PacketResult {
                    delay: 0,
                    edges: Vec::new(),
                };
            };
            path.push(e);
            v = g.edge(e).to;
            if path.len() > g.num_vertices() {
                break;
            }
        }
        // Ride the committed path.
        let mut delay = 0;
        let mut budget = MAX_SLOTS_PER_PACKET;
        for &e in &path {
            delay += self.transmit_until_success(g, e, rng, &mut budget);
        }
        PacketResult { delay, edges: path }
    }

    fn hop_distances(&mut self, g: &LinkGraph, d: Vertex) -> &[u64] {
        let stale = !matches!(self.hop_cache, Some((dd, _)) if dd == d);
        if stale {
            // BFS on the reversed graph.
            let n = g.num_vertices();
            let mut dist = vec![u64::MAX; n];
            dist[d] = 0;
            let mut changed = true;
            while changed {
                changed = false;
                for e in 0..g.num_edges() {
                    let edge = g.edge(e);
                    if dist[edge.to] != u64::MAX && dist[edge.from] > dist[edge.to] + 1 {
                        dist[edge.from] = dist[edge.to] + 1;
                        changed = true;
                    }
                }
            }
            self.hop_cache = Some((d, dist));
        }
        &self.hop_cache.as_ref().expect("just set").1
    }

    fn route_next_hop(
        &mut self,
        g: &LinkGraph,
        s: Vertex,
        d: Vertex,
        rng: &mut StdRng,
    ) -> PacketResult {
        let hops = self.hop_distances(g, d).to_vec();
        let mut v = s;
        let mut delay = 0;
        let mut edges = Vec::new();
        let mut budget = MAX_SLOTS_PER_PACKET;
        while v != d && budget > 0 {
            // Progress-preserving candidates only (no loops), then pure
            // greed on the empirical next-hop delay — no downstream view.
            let Some(&e) = g
                .out_edges(v)
                .iter()
                .filter(|&&e| hops[g.edge(e).to] < hops[v])
                .min_by(|&&a, &&b| {
                    let da = self.stats[a].empirical_delay();
                    let db = self.stats[b].empirical_delay();
                    da.partial_cmp(&db)
                        .expect("finite")
                        .then(self.stats[a].attempts.cmp(&self.stats[b].attempts))
                })
            else {
                break;
            };
            delay += self.transmit_until_success(g, e, rng, &mut budget);
            edges.push(e);
            v = g.edge(e).to;
        }
        PacketResult { delay, edges }
    }

    fn route_oracle(
        &mut self,
        g: &LinkGraph,
        s: Vertex,
        d: Vertex,
        rng: &mut StdRng,
    ) -> PacketResult {
        let (path, _) = g.best_path(s, d).expect("connected graph");
        let mut delay = 0;
        let mut budget = MAX_SLOTS_PER_PACKET;
        for &e in &path {
            delay += self.transmit_until_success(g, e, rng, &mut budget);
        }
        PacketResult { delay, edges: path }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn diamond() -> (LinkGraph, Vertex, Vertex) {
        let mut g = LinkGraph::new(4);
        g.add_edge(0, 1, 0.9);
        g.add_edge(1, 3, 0.9);
        g.add_edge(0, 2, 0.3);
        g.add_edge(2, 3, 0.3);
        (g, 0, 3)
    }

    #[test]
    fn all_policies_deliver_every_packet() {
        let (g, s, d) = diamond();
        for policy in [
            Policy::HopByHopKlUcb,
            Policy::EndToEndLcb,
            Policy::NextHopEmpirical,
            Policy::Oracle,
        ] {
            let mut router = Router::new(policy, &g);
            let mut r = rng(1);
            for _ in 0..50 {
                let res = router.route_packet(&g, s, d, &mut r);
                assert!(res.delay >= res.edges.len() as u64);
                // Path really reaches d.
                let mut v = s;
                for &e in &res.edges {
                    assert_eq!(g.edge(e).from, v);
                    v = g.edge(e).to;
                }
                assert_eq!(v, d, "{}", policy.name());
            }
        }
    }

    #[test]
    fn klucb_converges_to_best_path() {
        let (g, s, d) = diamond();
        let mut router = Router::new(Policy::HopByHopKlUcb, &g);
        let mut r = rng(2);
        for _ in 0..400 {
            router.route_packet(&g, s, d, &mut r);
        }
        let last_100: Vec<Vec<EdgeId>> = (0..100)
            .map(|_| router.route_packet(&g, s, d, &mut r).edges)
            .collect();
        let best = vec![0, 1];
        let on_best = last_100.iter().filter(|p| **p == best).count();
        assert!(on_best >= 85, "only {on_best}/100 packets on best path");
    }

    #[test]
    fn oracle_matches_expected_delay() {
        let (g, s, d) = diamond();
        let mut router = Router::new(Policy::Oracle, &g);
        let mut r = rng(3);
        let n = 3_000;
        let total: u64 = (0..n)
            .map(|_| router.route_packet(&g, s, d, &mut r).delay)
            .sum();
        let mean = total as f64 / n as f64;
        let expect = 2.0 / 0.9;
        assert!((mean - expect).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn stats_are_shared_across_packets() {
        let (g, s, d) = diamond();
        let mut router = Router::new(Policy::HopByHopKlUcb, &g);
        let mut r = rng(4);
        router.route_packet(&g, s, d, &mut r);
        let attempts_1: u64 = router.stats().iter().map(|s| s.attempts).sum();
        router.route_packet(&g, s, d, &mut r);
        let attempts_2: u64 = router.stats().iter().map(|s| s.attempts).sum();
        assert!(attempts_2 > attempts_1);
        assert_eq!(router.slots(), attempts_2 + 1);
    }

    #[test]
    fn next_hop_is_myopic_on_trap_graph() {
        // Trap: the first link of the bad branch looks great (0.95) but
        // leads into a terrible second link (0.05); the good branch is
        // 0.6 * 0.6. Next-hop greed must fall for the trap; KL-UCB must
        // escape it.
        let mut g = LinkGraph::new(4);
        g.add_edge(0, 1, 0.95); // trap entrance
        g.add_edge(1, 3, 0.05); // trap
        g.add_edge(0, 2, 0.6);
        g.add_edge(2, 3, 0.6);
        let (s, d) = (0, 3);

        let mut nh = Router::new(Policy::NextHopEmpirical, &g);
        let mut hb = Router::new(Policy::HopByHopKlUcb, &g);
        let mut r1 = rng(5);
        let mut r2 = rng(6);
        let k = 300;
        let nh_total: u64 = (0..k)
            .map(|_| nh.route_packet(&g, s, d, &mut r1).delay)
            .sum();
        let hb_total: u64 = (0..k)
            .map(|_| hb.route_packet(&g, s, d, &mut r2).delay)
            .sum();
        assert!(
            hb_total < nh_total,
            "hop-by-hop ({hb_total}) should beat next-hop ({nh_total}) on the trap"
        );
    }
}
