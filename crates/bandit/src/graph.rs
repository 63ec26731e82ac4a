//! Link graphs with unknown Bernoulli link qualities (§5.1).
//!
//! The edge network is a directed graph `G = (V, E)`; a transmission on
//! link `i` succeeds with unknown probability `θ_i`, so the per-link delay
//! (attempts until success) is geometric with mean `1/θ_i`. The expected
//! end-to-end delay of a path is `Σ_{i∈p} 1/θ_i`; the optimal path `p*`
//! minimizes it.

use rand::rngs::StdRng;
use rand::Rng;

/// Node index in a link graph.
pub type Vertex = usize;
/// Edge index in a link graph.
pub type EdgeId = usize;

/// A directed edge with its (hidden) success probability.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Source vertex.
    pub from: Vertex,
    /// Target vertex.
    pub to: Vertex,
    /// True Bernoulli success probability (hidden from policies).
    pub theta: f64,
}

/// A directed graph with Bernoulli links.
#[derive(Clone, Debug, Default)]
pub struct LinkGraph {
    edges: Vec<Edge>,
    /// Outgoing edge ids per vertex.
    out: Vec<Vec<EdgeId>>,
}

impl LinkGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        LinkGraph {
            edges: Vec::new(),
            out: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge and returns its id. `theta` is clamped to
    /// `[0.01, 1.0]` so expected delays stay finite.
    pub fn add_edge(&mut self, from: Vertex, to: Vertex, theta: f64) -> EdgeId {
        assert!(from < self.out.len() && to < self.out.len());
        assert_ne!(from, to, "self-loops are not allowed");
        let id = self.edges.len();
        self.edges.push(Edge {
            from,
            to,
            theta: theta.clamp(0.01, 1.0),
        });
        self.out[from].push(id);
        id
    }

    /// The edge with id `e`.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e]
    }

    /// Outgoing edge ids of `v`.
    pub fn out_edges(&self, v: Vertex) -> &[EdgeId] {
        &self.out[v]
    }

    /// Samples one transmission attempt on edge `e`.
    pub fn attempt(&self, e: EdgeId, rng: &mut StdRng) -> bool {
        rng.gen::<f64>() < self.edges[e].theta
    }

    /// Expected delay (mean attempts) of edge `e`: `1/θ`.
    pub fn expected_delay(&self, e: EdgeId) -> f64 {
        1.0 / self.edges[e].theta
    }

    /// Expected delay of a path given as edge ids.
    pub fn path_delay(&self, path: &[EdgeId]) -> f64 {
        path.iter().map(|&e| self.expected_delay(e)).sum()
    }

    /// Enumerates all loop-free paths from `s` to `d` as edge-id sequences.
    /// Exponential in general; intended for the small evaluation graphs.
    pub fn all_paths(&self, s: Vertex, d: Vertex) -> Vec<Vec<EdgeId>> {
        let mut paths = Vec::new();
        let mut visited = vec![false; self.num_vertices()];
        let mut stack = Vec::new();
        self.dfs_paths(s, d, &mut visited, &mut stack, &mut paths);
        paths
    }

    fn dfs_paths(
        &self,
        v: Vertex,
        d: Vertex,
        visited: &mut Vec<bool>,
        stack: &mut Vec<EdgeId>,
        paths: &mut Vec<Vec<EdgeId>>,
    ) {
        if v == d {
            paths.push(stack.clone());
            return;
        }
        visited[v] = true;
        for &e in &self.out[v] {
            let to = self.edges[e].to;
            if !visited[to] {
                stack.push(e);
                self.dfs_paths(to, d, visited, stack, paths);
                stack.pop();
            }
        }
        visited[v] = false;
    }

    /// The optimal path from `s` to `d` (minimum expected delay), found by
    /// Dijkstra over `1/θ` weights. Returns `(path_edges, expected_delay)`.
    pub fn best_path(&self, s: Vertex, d: Vertex) -> Option<(Vec<EdgeId>, f64)> {
        let dist = self.shortest_costs_to(d, |e| self.expected_delay(e))?;
        if !dist[s].is_finite() {
            return None;
        }
        // Reconstruct greedily.
        let mut path = Vec::new();
        let mut v = s;
        while v != d {
            let &e = self.out[v]
                .iter()
                .min_by(|&&a, &&b| {
                    let ca = self.expected_delay(a) + dist[self.edges[a].to];
                    let cb = self.expected_delay(b) + dist[self.edges[b].to];
                    ca.partial_cmp(&cb).expect("finite costs")
                })
                .expect("connected");
            path.push(e);
            v = self.edges[e].to;
            if path.len() > self.num_vertices() {
                return None;
            }
        }
        let delay = self.path_delay(&path);
        Some((path, delay))
    }

    /// Least-cost distance from every vertex to `d` under a per-edge cost
    /// function (Bellman–Ford on the reversed graph; costs must be
    /// non-negative). Returns `None` when `d` is out of range.
    pub fn shortest_costs_to(&self, d: Vertex, cost: impl Fn(EdgeId) -> f64) -> Option<Vec<f64>> {
        if d >= self.num_vertices() {
            return None;
        }
        let n = self.num_vertices();
        let mut dist = vec![f64::INFINITY; n];
        dist[d] = 0.0;
        // Bellman-Ford: at most n-1 relaxation sweeps.
        for _ in 0..n {
            let mut changed = false;
            for (e, edge) in self.edges.iter().enumerate() {
                let c = cost(e);
                debug_assert!(c >= 0.0, "negative edge cost");
                if dist[edge.to].is_finite() && dist[edge.from] > dist[edge.to] + c {
                    dist[edge.from] = dist[edge.to] + c;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Some(dist)
    }
}

/// Builds a layered graph: `source → layer_1 (width) → ... → layer_depth →
/// destination`, fully connected between consecutive layers, with link
/// qualities drawn uniformly from `theta_range`. Returns
/// `(graph, source, destination)`.
pub fn layered(
    width: usize,
    depth: usize,
    theta_range: (f64, f64),
    rng: &mut StdRng,
) -> (LinkGraph, Vertex, Vertex) {
    assert!(width >= 1 && depth >= 1);
    let n = 2 + width * depth;
    let mut g = LinkGraph::new(n);
    let s = 0;
    let d = n - 1;
    let vertex = |layer: usize, i: usize| 1 + layer * width + i;
    let theta = |rng: &mut StdRng| rng.gen_range(theta_range.0..=theta_range.1);
    for i in 0..width {
        let t = theta(rng);
        g.add_edge(s, vertex(0, i), t);
    }
    for layer in 0..depth - 1 {
        for i in 0..width {
            for j in 0..width {
                let t = theta(rng);
                g.add_edge(vertex(layer, i), vertex(layer + 1, j), t);
            }
        }
    }
    for i in 0..width {
        let t = theta(rng);
        g.add_edge(vertex(depth - 1, i), d, t);
    }
    (g, s, d)
}

/// Builds the "deceptive first link" topology the paper's adaptivity
/// analysis targets (§7.5): the highest-quality link out of the source
/// leads into a poor continuation, so next-hop greed locks onto a
/// suboptimal path while planners that account for the remaining path
/// (Totoro's `J` term) escape. Returns `(graph, source, destination)`.
///
/// Branches (source → relay → destination):
/// * trap:   0.90 then 0.10 — expected delay ≈ 11.1
/// * best:   0.55 then 0.55 — expected delay ≈ 3.6
/// * decoy:  0.25 then 0.90 — expected delay ≈ 5.1
/// * filler: 0.40 then 0.30 — expected delay ≈ 5.8
pub fn trap_graph() -> (LinkGraph, Vertex, Vertex) {
    let mut g = LinkGraph::new(6);
    let (s, d) = (0, 5);
    g.add_edge(s, 1, 0.90);
    g.add_edge(1, d, 0.10);
    g.add_edge(s, 2, 0.55);
    g.add_edge(2, d, 0.55);
    g.add_edge(s, 3, 0.25);
    g.add_edge(3, d, 0.90);
    g.add_edge(s, 4, 0.40);
    g.add_edge(4, d, 0.30);
    (g, s, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use totoro_simnet_test_rng::sub_rng;

    // Tiny shim so the tests read like the rest of the workspace.
    mod totoro_simnet_test_rng {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        pub fn sub_rng(seed: u64, _label: &str) -> StdRng {
            StdRng::seed_from_u64(seed)
        }
    }

    /// A diamond: s -> a -> d (fast) and s -> b -> d (slow).
    fn diamond() -> (LinkGraph, Vertex, Vertex) {
        let mut g = LinkGraph::new(4);
        g.add_edge(0, 1, 0.9); // s->a
        g.add_edge(1, 3, 0.9); // a->d
        g.add_edge(0, 2, 0.3); // s->b
        g.add_edge(2, 3, 0.3); // b->d
        (g, 0, 3)
    }

    #[test]
    fn best_path_picks_high_theta_branch() {
        let (g, s, d) = diamond();
        let (path, delay) = g.best_path(s, d).unwrap();
        assert_eq!(path, vec![0, 1]);
        assert!((delay - 2.0 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn all_paths_enumerates_both_branches() {
        let (g, s, d) = diamond();
        let mut paths = g.all_paths(s, d);
        paths.sort();
        assert_eq!(paths, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn path_delay_is_sum_of_inverse_thetas() {
        let (g, _, _) = diamond();
        assert!((g.path_delay(&[2, 3]) - (1.0 / 0.3 + 1.0 / 0.3)).abs() < 1e-12);
    }

    #[test]
    fn layered_graph_shape() {
        let mut rng = sub_rng(1, "");
        let (g, s, d) = layered(3, 4, (0.2, 0.9), &mut rng);
        assert_eq!(g.num_vertices(), 2 + 12);
        // 3 + 3*3*3 + 3 edges.
        assert_eq!(g.num_edges(), 3 + 27 + 3);
        let paths = g.all_paths(s, d);
        assert_eq!(paths.len(), 3 * 3 * 3 * 3);
        // Every path has depth+1 edges.
        assert!(paths.iter().all(|p| p.len() == 5));
        let (best, delay) = g.best_path(s, d).unwrap();
        let brute = paths
            .iter()
            .map(|p| g.path_delay(p))
            .fold(f64::INFINITY, f64::min);
        assert!((delay - brute).abs() < 1e-9);
        assert_eq!(g.path_delay(&best), delay);
    }

    #[test]
    fn attempts_match_theta_statistically() {
        let (g, _, _) = diamond();
        let mut rng = sub_rng(2, "");
        let n = 20_000;
        let ok = (0..n).filter(|_| g.attempt(0, &mut rng)).count();
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.9).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn shortest_costs_handle_unreachable() {
        let mut g = LinkGraph::new(3);
        g.add_edge(0, 1, 0.5);
        // Vertex 2 unreachable-from perspective: no path 2 -> ... -> 1.
        let dist = g.shortest_costs_to(1, |e| g.expected_delay(e)).unwrap();
        assert_eq!(dist[1], 0.0);
        assert!(dist[0].is_finite());
        assert!(dist[2].is_infinite());
    }

    #[test]
    fn theta_is_clamped() {
        let mut g = LinkGraph::new(2);
        let e = g.add_edge(0, 1, 0.0);
        assert!(g.edge(e).theta >= 0.01);
        let mut g2 = LinkGraph::new(2);
        let e2 = g2.add_edge(0, 1, 7.0);
        assert_eq!(g2.edge(e2).theta, 1.0);
    }
}
