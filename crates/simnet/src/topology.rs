//! Network topology: per-pair latency, bandwidth, and loss models.
//!
//! Edge links in the paper are "unpredictable and vary stochastically"
//! (§2.2.2). The topology therefore exposes a *distribution* of delays per
//! node pair: a deterministic propagation component derived from geography
//! plus multiplicative jitter, a transmission component derived from the
//! bottleneck bandwidth, and an independent per-message loss probability.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::geo::{GeoPoint, PlacedNode};
use crate::time::SimDuration;

/// Index of a node inside a [`Topology`] / simulator.
pub type NodeIdx = usize;

/// Latency model choices.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Propagation delay proportional to geographic distance.
    Geo {
        /// Fixed one-way base latency in microseconds (stack + first hop).
        base_us: u64,
        /// Additional one-way microseconds per kilometre of distance.
        per_km_us: f64,
    },
    /// Uniform one-way delay between `min_us` and `max_us`; useful for unit
    /// tests and experiments that do not care about geography.
    Uniform {
        /// Minimum one-way delay, microseconds.
        min_us: u64,
        /// Maximum one-way delay, microseconds.
        max_us: u64,
    },
}

/// Per-node capability class, used for heterogeneity experiments (§7.5).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NodeProfile {
    /// Uplink/downlink bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Relative compute speed (1.0 = reference edge node); training time is
    /// divided by this factor.
    pub compute_speed: f64,
    /// Number of CPU cores, used by virtual-node mapping.
    pub cores: u32,
}

impl Default for NodeProfile {
    fn default() -> Self {
        NodeProfile {
            bandwidth_bps: 50_000_000, // 50 Mbps
            compute_speed: 1.0,
            cores: 2,
        }
    }
}

/// Reference edge-device compute rate (FLOP/s) at `compute_speed = 1.0`.
/// Shared by every engine in the workspace so training-time charging is
/// identical across compared systems.
pub const BASE_EDGE_FLOPS: f64 = 2.0e8;

impl NodeProfile {
    /// Simulated time this node needs to crunch `flops`.
    pub fn compute_time(&self, flops: u64) -> SimDuration {
        SimDuration::from_secs_f64(flops as f64 / (BASE_EDGE_FLOPS * self.compute_speed.max(1e-6)))
    }
}

/// The immutable network substrate shared by all protocol layers.
///
/// The per-node tables sit behind `Arc`s, so a clone shares them instead
/// of copying them; [`Topology::set_profile`] copies the profile table
/// only while another clone still holds it.
#[derive(Clone, Debug)]
pub struct Topology {
    points: Arc<Vec<GeoPoint>>,
    regions: Arc<Vec<u16>>,
    profiles: Arc<Vec<NodeProfile>>,
    latency: LatencyModel,
    /// Multiplicative jitter amplitude: sampled delay is scaled by a factor
    /// drawn uniformly from `[1, 1 + jitter]`.
    jitter: f64,
    /// Probability that any single message is lost in transit.
    loss_prob: f64,
}

impl Topology {
    /// Builds a topology from geographic placements with default profiles.
    pub fn from_placements(nodes: &[PlacedNode], latency: LatencyModel) -> Self {
        Topology {
            points: Arc::new(nodes.iter().map(|n| n.point).collect()),
            regions: Arc::new(nodes.iter().map(|n| n.region).collect()),
            profiles: Arc::new(vec![NodeProfile::default(); nodes.len()]),
            latency,
            jitter: 0.2,
            loss_prob: 0.0,
        }
    }

    /// Builds a topology from explicit parts (used e.g. by virtual-node
    /// expansion, which replicates points/profiles).
    pub fn from_parts(
        points: Vec<GeoPoint>,
        regions: Vec<u16>,
        profiles: Vec<NodeProfile>,
        latency: LatencyModel,
    ) -> Self {
        assert_eq!(points.len(), regions.len());
        assert_eq!(points.len(), profiles.len());
        Topology {
            points: Arc::new(points),
            regions: Arc::new(regions),
            profiles: Arc::new(profiles),
            latency,
            jitter: 0.2,
            loss_prob: 0.0,
        }
    }

    /// Builds an `n`-node topology with no geography and a uniform latency
    /// band — the workhorse for protocol unit tests.
    pub fn uniform(n: usize, min_us: u64, max_us: u64) -> Self {
        Topology {
            points: Arc::new(vec![GeoPoint::new(0.0, 0.0); n]),
            regions: Arc::new(vec![0; n]),
            profiles: Arc::new(vec![NodeProfile::default(); n]),
            latency: LatencyModel::Uniform { min_us, max_us },
            jitter: 0.0,
            loss_prob: 0.0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sets the multiplicative jitter amplitude (0 = deterministic delays).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Sets the independent per-message loss probability.
    pub fn with_loss(mut self, loss_prob: f64) -> Self {
        self.loss_prob = loss_prob.clamp(0.0, 1.0);
        self
    }

    /// Overrides the capability profile of node `i`, first copying the
    /// profile table if another clone shares it.
    pub fn set_profile(&mut self, i: NodeIdx, profile: NodeProfile) {
        Arc::make_mut(&mut self.profiles)[i] = profile;
    }

    /// Returns the capability profile of node `i`.
    pub fn profile(&self, i: NodeIdx) -> NodeProfile {
        self.profiles[i]
    }

    /// Returns the geographic position of node `i`.
    pub fn point(&self, i: NodeIdx) -> GeoPoint {
        self.points[i]
    }

    /// Returns the region id of node `i`.
    pub fn region(&self, i: NodeIdx) -> u16 {
        self.regions[i]
    }

    /// Deterministic expected one-way propagation delay between two nodes.
    pub fn propagation(&self, a: NodeIdx, b: NodeIdx) -> SimDuration {
        match self.latency {
            LatencyModel::Geo { base_us, per_km_us } => {
                let d = self.points[a].distance_km(&self.points[b]);
                SimDuration::from_micros(base_us.saturating_add((d * per_km_us).round() as u64))
            }
            LatencyModel::Uniform { min_us, max_us } => {
                SimDuration::from_micros(min_us.saturating_add(max_us) / 2)
            }
        }
    }

    /// Deterministic expected round-trip time, used by distributed binning.
    pub fn rtt(&self, a: NodeIdx, b: NodeIdx) -> SimDuration {
        self.propagation(a, b).saturating_mul(2)
    }

    /// Samples the one-way delay for a message of `size_bytes` from `a` to
    /// `b`: propagation (with jitter) plus bottleneck transmission time.
    pub fn sample_delay(
        &self,
        a: NodeIdx,
        b: NodeIdx,
        size_bytes: usize,
        rng: &mut StdRng,
    ) -> SimDuration {
        let prop_us = match self.latency {
            LatencyModel::Geo { base_us, per_km_us } => {
                let d = self.points[a].distance_km(&self.points[b]);
                base_us as f64 + d * per_km_us
            }
            LatencyModel::Uniform { min_us, max_us } => {
                if max_us > min_us {
                    rng.gen_range(min_us..=max_us) as f64
                } else {
                    min_us as f64
                }
            }
        };
        let jitter_factor = if self.jitter > 0.0 {
            1.0 + rng.gen::<f64>() * self.jitter
        } else {
            1.0
        };
        let bw = self.profiles[a]
            .bandwidth_bps
            .min(self.profiles[b].bandwidth_bps)
            .max(1);
        let tx_us = (size_bytes as f64 * 8.0 / bw as f64) * 1_000_000.0;
        // det: allow(time: f64 addition cannot wrap; the sum is rounded into u64 micros, saturating at the f64-to-int cast)
        SimDuration::from_micros(((prop_us * jitter_factor) + tx_us).round() as u64)
    }

    /// Samples whether a message is lost in transit.
    pub fn sample_loss(&self, rng: &mut StdRng) -> bool {
        self.loss_prob > 0.0 && rng.gen::<f64>() < self.loss_prob
    }

    /// Heap bytes held by the topology's per-node tables (positions,
    /// regions, profiles) — memory accounting for million-node trials.
    /// Counted in full by every clone, shared or not.
    pub fn heap_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<GeoPoint>()
            + self.regions.capacity() * std::mem::size_of::<u16>()
            + self.profiles.capacity() * std::mem::size_of::<NodeProfile>()
    }

    /// Number of region ids in use (`max(region) + 1`, 0 when empty).
    pub fn num_regions(&self) -> usize {
        self.regions
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1)
    }

    /// A lower bound, in simulated time, on the one-way delay of *any*
    /// message between nodes in different regions — the conservative
    /// lookahead of the engine profile's logical window recurrence
    /// ([`crate::obs::prof`]).
    ///
    /// Returns `None` when fewer than two regions are populated (no
    /// inter-region message can exist, so no bound is needed).
    ///
    /// The bound is safe because every term added on top of propagation
    /// only increases delay: the jitter factor is `>= 1`, straggler
    /// chaos factors are `>= 1`, transmission time is `>= 0`, and
    /// caller-supplied `extra` delays are `>= 0`. For `Geo` the
    /// inter-node distance is bounded below per region pair by
    /// `center_distance - radius_a - radius_b` over per-region bounding
    /// circles computed from the actual node positions (triangle
    /// inequality), and the result is floored so rounding in
    /// [`Topology::sample_delay`] can never undercut it.
    pub fn min_inter_region_delay(&self) -> Option<SimDuration> {
        let nregions = self.num_regions();
        let mut count = vec![0u64; nregions];
        let mut sum_x = vec![0f64; nregions];
        let mut sum_y = vec![0f64; nregions];
        for (p, &r) in self.points.iter().zip(self.regions.iter()) {
            count[r as usize] += 1;
            sum_x[r as usize] += p.x_km;
            sum_y[r as usize] += p.y_km;
        }
        if count.iter().filter(|&&c| c > 0).count() < 2 {
            return None;
        }
        match self.latency {
            LatencyModel::Uniform { min_us, .. } => Some(SimDuration::from_micros(min_us)),
            LatencyModel::Geo { base_us, per_km_us } => {
                let centers: Vec<GeoPoint> = (0..nregions)
                    .map(|r| {
                        let c = count[r].max(1) as f64;
                        GeoPoint::new(sum_x[r] / c, sum_y[r] / c)
                    })
                    .collect();
                let mut radius = vec![0f64; nregions];
                for (p, &r) in self.points.iter().zip(self.regions.iter()) {
                    let d = p.distance_km(&centers[r as usize]);
                    if d > radius[r as usize] {
                        radius[r as usize] = d;
                    }
                }
                let mut lb_km = f64::INFINITY;
                for a in 0..nregions {
                    if count[a] == 0 {
                        continue;
                    }
                    for b in (a + 1)..nregions {
                        if count[b] == 0 {
                            continue;
                        }
                        let gap =
                            (centers[a].distance_km(&centers[b]) - radius[a] - radius[b]).max(0.0);
                        if gap < lb_km {
                            lb_km = gap;
                        }
                    }
                }
                // det: allow(time: f64 addition cannot wrap; the sum is floored into u64 micros, saturating at the f64-to-int cast)
                Some(SimDuration::from_micros(
                    (base_us as f64 + lb_km * per_km_us.max(0.0)).floor() as u64,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{eua_regions_scaled, generate};
    use crate::rng::sub_rng;

    fn geo_topology(n: usize) -> Topology {
        let mut rng = sub_rng(11, "topo-test");
        let nodes = generate(&eua_regions_scaled(n), &mut rng);
        Topology::from_placements(
            &nodes,
            LatencyModel::Geo {
                base_us: 500,
                per_km_us: 5.0,
            },
        )
    }

    #[test]
    fn propagation_is_symmetric() {
        let t = geo_topology(100);
        for (a, b) in [(0, 1), (5, 50), (10, 99)] {
            assert_eq!(t.propagation(a, b), t.propagation(b, a));
        }
    }

    #[test]
    fn rtt_is_twice_propagation() {
        let t = geo_topology(50);
        assert_eq!(t.rtt(3, 7).as_micros(), 2 * t.propagation(3, 7).as_micros());
    }

    #[test]
    fn nearby_nodes_have_lower_latency_than_far_ones() {
        let t = geo_topology(300);
        // Find an intra-region pair and an inter-region pair.
        let mut intra = None;
        let mut inter = None;
        'outer: for a in 0..t.len() {
            for b in (a + 1)..t.len() {
                if t.region(a) == t.region(b) && intra.is_none() {
                    intra = Some((a, b));
                }
                if t.region(a) != t.region(b)
                    && t.point(a).distance_km(&t.point(b)) > 1_500.0
                    && inter.is_none()
                {
                    inter = Some((a, b));
                }
                if intra.is_some() && inter.is_some() {
                    break 'outer;
                }
            }
        }
        let (ia, ib) = intra.expect("intra-region pair");
        let (xa, xb) = inter.expect("inter-region pair");
        assert!(t.propagation(ia, ib) < t.propagation(xa, xb));
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let t = Topology::uniform(2, 1_000, 1_000);
        let mut rng = sub_rng(1, "tx");
        let small = t.sample_delay(0, 1, 1_000, &mut rng);
        let big = t.sample_delay(0, 1, 10_000_000, &mut rng);
        assert!(big.as_micros() > small.as_micros() + 1_000_000);
    }

    #[test]
    fn jitter_zero_is_deterministic() {
        let t = Topology::uniform(2, 700, 700);
        let mut rng = sub_rng(2, "det");
        let d1 = t.sample_delay(0, 1, 100, &mut rng);
        let d2 = t.sample_delay(0, 1, 100, &mut rng);
        assert_eq!(d1, d2);
    }

    #[test]
    fn loss_probability_is_respected() {
        let t = Topology::uniform(2, 1, 1).with_loss(0.5);
        let mut rng = sub_rng(3, "loss");
        let lost = (0..10_000).filter(|_| t.sample_loss(&mut rng)).count();
        assert!((4_000..6_000).contains(&lost), "lost = {lost}");
        let t0 = Topology::uniform(2, 1, 1);
        assert!(!(0..100).any(|_| t0.sample_loss(&mut rng)));
    }

    #[test]
    fn degenerate_uniform_and_zero_jitter_consume_no_rng() {
        // `Topology::uniform` defaults to jitter 0; with min == max the
        // range draw is skipped too, so sampling must leave the RNG stream
        // untouched. Scenario determinism depends on these fast paths never
        // starting to draw.
        let t = Topology::uniform(2, 700, 700);
        let mut rng = sub_rng(21, "pin");
        let mut untouched = rng.clone();
        for size in [0, 64, 1_000_000] {
            t.sample_delay(0, 1, size, &mut rng);
        }
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn geo_zero_jitter_consumes_no_rng() {
        let t = geo_topology(10).with_jitter(0.0);
        let mut rng = sub_rng(22, "pin-geo");
        let mut untouched = rng.clone();
        t.sample_delay(0, 5, 1_024, &mut rng);
        t.sample_delay(5, 9, 64, &mut rng);
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn jitter_consumes_exactly_one_draw_per_sample() {
        // Geo scenarios run with jitter 0.2: each sample must consume
        // exactly one `f64` (the jitter factor) — no more, no fewer — or
        // every downstream draw in a trial would shift.
        let t = geo_topology(10); // jitter defaults to 0.2
        let mut rng = sub_rng(23, "pin-jitter");
        let mut shadow = rng.clone();
        let d = t.sample_delay(2, 7, 0, &mut rng);
        let factor = 1.0 + shadow.gen::<f64>() * 0.2;
        // Reconstruct the sample from the shadow stream (size 0 => no tx
        // term), using the same unrounded propagation expression.
        let prop = 500.0 + t.point(2).distance_km(&t.point(7)) * 5.0;
        assert_eq!(d.as_micros(), (prop * factor).round() as u64);
        // And the streams are in lockstep afterwards.
        assert_eq!(rng.gen::<u64>(), shadow.gen::<u64>());
    }

    #[test]
    fn uniform_lookahead_is_min_latency() {
        // `uniform` puts every node in region 0 — no inter-region pairs.
        assert_eq!(
            Topology::uniform(8, 300, 300).min_inter_region_delay(),
            None
        );
        // Two hand-placed regions: bound is exactly min_us.
        let t = Topology::from_parts(
            vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(9.0, 0.0)],
            vec![0, 1],
            vec![NodeProfile::default(); 2],
            LatencyModel::Uniform {
                min_us: 250,
                max_us: 900,
            },
        );
        assert_eq!(
            t.min_inter_region_delay(),
            Some(SimDuration::from_micros(250))
        );
    }

    #[test]
    fn geo_lookahead_never_exceeds_any_inter_region_delay() {
        let t = geo_topology(200).with_jitter(0.0);
        let lb = t
            .min_inter_region_delay()
            .expect("EUA topology has many regions")
            .as_micros();
        assert!(lb >= 500, "bound includes the 500us base");
        let mut rng = sub_rng(31, "lb-check");
        for a in 0..t.len() {
            for b in 0..t.len() {
                if a != b && t.region(a) != t.region(b) {
                    let d = t.sample_delay(a, b, 0, &mut rng).as_micros();
                    assert!(lb <= d, "lookahead {lb} > sampled inter-region delay {d}");
                }
            }
        }
    }

    #[test]
    fn num_regions_counts_max_plus_one() {
        assert_eq!(Topology::uniform(3, 1, 1).num_regions(), 1);
        let t = geo_topology(300);
        assert_eq!(t.num_regions(), 12, "EUA geography has 12 regions");
    }

    #[test]
    fn bottleneck_bandwidth_is_min_of_endpoints() {
        let mut t = Topology::uniform(2, 0, 0);
        t.set_profile(
            0,
            NodeProfile {
                bandwidth_bps: 8_000_000,
                ..NodeProfile::default()
            },
        );
        t.set_profile(
            1,
            NodeProfile {
                bandwidth_bps: 80_000_000,
                ..NodeProfile::default()
            },
        );
        let mut rng = sub_rng(4, "bw");
        // 1 MB over 8 Mbps = 1 second.
        let d = t.sample_delay(0, 1, 1_000_000, &mut rng);
        assert_eq!(d.as_micros(), 1_000_000);
    }

    #[test]
    fn clones_share_tables_until_a_profile_is_set() {
        let t = geo_topology(300);
        let mut c = t.clone();
        assert!(Arc::ptr_eq(&t.points, &c.points) && Arc::ptr_eq(&t.profiles, &c.profiles));
        // Sharing is not counted away: each clone reports what it reads.
        assert_eq!(c.heap_bytes(), t.heap_bytes());
        let slow = NodeProfile {
            compute_speed: 0.5,
            ..NodeProfile::default()
        };
        c.set_profile(7, slow);
        assert!(!Arc::ptr_eq(&t.profiles, &c.profiles));
        assert!(Arc::ptr_eq(&t.points, &c.points) && Arc::ptr_eq(&t.regions, &c.regions));
        assert_eq!(c.profile(7).compute_speed, 0.5);
        assert_eq!(t.profile(7).compute_speed, 1.0);
        assert_eq!(c.heap_bytes(), t.heap_bytes());
        // A table no other clone holds is written in place.
        let before = Arc::as_ptr(&c.profiles);
        c.set_profile(8, slow);
        assert_eq!(Arc::as_ptr(&c.profiles), before);
    }
}
