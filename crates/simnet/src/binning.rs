//! Distributed binning and edge-zone formation.
//!
//! Totoro divides its single P2P ring into `m` locality-aware rings ("edge
//! zones"), each characterized by a maximum desired round-trip time called
//! the *diameter* (§4.2). Zone membership is decided with Ratnasamy and
//! Shenker's distributed binning scheme: every node measures its RTT to a
//! small set of well-known landmark nodes, orders the landmarks by
//! increasing RTT, and quantizes each RTT into a latency level. Nodes that
//! produce the same `(ordering, levels)` signature fall into the same bin
//! and are considered topologically close — all without any pairwise
//! measurement or global view.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::topology::{NodeIdx, Topology};

/// A node's distributed-binning signature.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BinSignature {
    /// Landmark indices ordered by increasing RTT from the node.
    pub ordering: Vec<u8>,
    /// Quantized latency level for each landmark, in RTT order.
    pub levels: Vec<u8>,
}

/// Configuration for binning and zone formation.
#[derive(Clone, Debug)]
pub struct BinningConfig {
    /// Number of landmark nodes.
    pub num_landmarks: usize,
    /// RTT quantization boundaries in microseconds; `k` boundaries produce
    /// `k + 1` levels.
    pub level_boundaries_us: Vec<u64>,
    /// Maximum number of zones (`m` in the paper). Bins are merged by
    /// signature proximity until at most this many zones remain.
    pub max_zones: usize,
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig {
            num_landmarks: 4,
            level_boundaries_us: vec![5_000, 20_000, 60_000],
            max_zones: 16,
        }
    }
}

/// The result of zone formation.
#[derive(Clone, Debug)]
pub struct ZoneAssignment {
    /// Zone id of each node.
    pub zone_of: Vec<u16>,
    /// Number of zones created.
    pub num_zones: usize,
    /// The landmark nodes used.
    pub landmarks: Vec<NodeIdx>,
}

impl ZoneAssignment {
    /// Returns the members of zone `z`.
    pub fn members(&self, z: u16) -> Vec<NodeIdx> {
        self.zone_of
            .iter()
            .enumerate()
            .filter_map(|(i, &zz)| (zz == z).then_some(i))
            .collect()
    }

    /// Returns per-zone member counts.
    pub fn zone_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_zones];
        for &z in &self.zone_of {
            sizes[z as usize] += 1;
        }
        sizes
    }

    /// Summarizes this assignment as a small plain value suitable for
    /// embedding in a per-trial report.
    pub fn summary(&self) -> ZoneSummary {
        let sizes = self.zone_sizes();
        let smallest = sizes.iter().copied().min().unwrap_or(0);
        let largest = sizes.iter().copied().max().unwrap_or(0);
        ZoneSummary {
            nodes: self.zone_of.len(),
            num_zones: self.num_zones,
            smallest,
            largest,
        }
    }
}

/// Compact zone-formation statistics for one trial.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ZoneSummary {
    /// Number of nodes binned.
    pub nodes: usize,
    /// Number of zones formed.
    pub num_zones: usize,
    /// Smallest zone's member count.
    pub smallest: usize,
    /// Largest zone's member count.
    pub largest: usize,
}

/// Quantizes `value` against ascending `boundaries`: the returned level is
/// the number of boundaries strictly below `value`, so `k` boundaries give
/// levels `0..=k`. This is the binning scheme's RTT quantization, shared
/// with the observability layer's fixed-bin histograms
/// ([`crate::obs::Histogram`]).
pub fn level_of(boundaries: &[u64], value: u64) -> usize {
    boundaries.iter().filter(|&&b| value > b).count()
}

/// Computes a node's binning signature from its RTTs to the landmarks.
pub fn signature(
    topology: &Topology,
    node: NodeIdx,
    landmarks: &[NodeIdx],
    boundaries_us: &[u64],
) -> BinSignature {
    let mut rtts: Vec<(u8, u64)> = landmarks
        .iter()
        .enumerate()
        .map(|(li, &l)| (li as u8, topology.rtt(node, l).as_micros()))
        .collect();
    rtts.sort_by_key(|&(li, rtt)| (rtt, li));
    let ordering: Vec<u8> = rtts.iter().map(|&(li, _)| li).collect();
    let levels: Vec<u8> = rtts
        .iter()
        .map(|&(_, rtt)| level_of(boundaries_us, rtt) as u8)
        .collect();
    BinSignature { ordering, levels }
}

/// Runs distributed binning over the whole topology and merges bins into at
/// most `config.max_zones` zones.
///
/// Landmarks are drawn uniformly at random (in a deployment they would be
/// well-known infrastructure nodes). Bins are merged smallest-first into the
/// zone whose signature shares the longest common ordering prefix, which
/// keeps merged zones topologically coherent.
pub fn assign_zones(
    topology: &Topology,
    config: &BinningConfig,
    rng: &mut StdRng,
) -> ZoneAssignment {
    let n = topology.len();
    assert!(n > 0, "cannot bin an empty topology");
    let num_landmarks = config.num_landmarks.min(n).max(1);
    let mut all: Vec<NodeIdx> = (0..n).collect();
    all.shuffle(rng);
    let landmarks: Vec<NodeIdx> = all[..num_landmarks].to_vec();

    // Group nodes by signature.
    let mut groups: std::collections::BTreeMap<BinSignature, Vec<NodeIdx>> =
        std::collections::BTreeMap::new();
    for node in 0..n {
        let sig = signature(topology, node, &landmarks, &config.level_boundaries_us);
        groups.entry(sig).or_default().push(node);
    }

    // Largest bins become zone seeds; the rest merge into the most similar
    // seed (longest common ordering+levels prefix).
    let mut bins: Vec<(BinSignature, Vec<NodeIdx>)> = groups.into_iter().collect();
    bins.sort_by_key(|(_, members)| std::cmp::Reverse(members.len()));
    let max_zones = config.max_zones.max(1);
    let num_seeds = bins.len().min(max_zones);
    let mut zone_of = vec![0u16; n];
    let seed_sigs: Vec<BinSignature> = bins[..num_seeds].iter().map(|(s, _)| s.clone()).collect();
    for (zi, (_, members)) in bins[..num_seeds].iter().enumerate() {
        for &m in members {
            zone_of[m] = zi as u16;
        }
    }
    for (sig, members) in &bins[num_seeds..] {
        let best = seed_sigs
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| similarity(sig, s))
            .map(|(zi, _)| zi)
            .unwrap_or(0);
        for &m in members {
            zone_of[m] = best as u16;
        }
    }
    ZoneAssignment {
        zone_of,
        num_zones: num_seeds,
        landmarks,
    }
}

/// Similarity between two signatures: twice the length of the common
/// ordering prefix, plus one for each matching level within that prefix.
fn similarity(a: &BinSignature, b: &BinSignature) -> usize {
    let mut score = 0;
    for i in 0..a.ordering.len().min(b.ordering.len()) {
        if a.ordering[i] != b.ordering[i] {
            break;
        }
        score += 2;
        if a.levels.get(i) == b.levels.get(i) {
            score += 1;
        }
    }
    score
}

/// Measures the realized RTT diameter (max intra-zone RTT) of each zone by
/// sampling up to `samples` random member pairs per zone.
pub fn zone_diameters_us(
    topology: &Topology,
    zones: &ZoneAssignment,
    samples: usize,
    rng: &mut StdRng,
) -> Vec<u64> {
    (0..zones.num_zones as u16)
        .map(|z| {
            let members = zones.members(z);
            if members.len() < 2 {
                return 0;
            }
            let mut max_rtt = 0;
            for _ in 0..samples {
                let a = members[rand::Rng::gen_range(rng, 0..members.len())];
                let b = members[rand::Rng::gen_range(rng, 0..members.len())];
                max_rtt = max_rtt.max(topology.rtt(a, b).as_micros());
            }
            max_rtt
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{eua_regions_scaled, generate};
    use crate::rng::sub_rng;
    use crate::topology::LatencyModel;

    fn geo_topology(n: usize, seed: u64) -> Topology {
        let mut rng = sub_rng(seed, "bin-test");
        let nodes = generate(&eua_regions_scaled(n), &mut rng);
        Topology::from_placements(
            &nodes,
            LatencyModel::Geo {
                base_us: 200,
                per_km_us: 10.0,
            },
        )
    }

    #[test]
    fn every_node_gets_a_zone() {
        let t = geo_topology(400, 5);
        let mut rng = sub_rng(5, "assign");
        let zones = assign_zones(&t, &BinningConfig::default(), &mut rng);
        assert_eq!(zones.zone_of.len(), t.len());
        assert!(zones.num_zones >= 1);
        assert!(zones.num_zones <= BinningConfig::default().max_zones);
        assert!(zones
            .zone_of
            .iter()
            .all(|&z| (z as usize) < zones.num_zones));
        let total: usize = zones.zone_sizes().iter().sum();
        assert_eq!(total, t.len());
    }

    #[test]
    fn colocated_nodes_share_a_zone() {
        // Two distant clusters must not be merged into one zone.
        let mut rng = sub_rng(6, "cluster");
        let regions = vec![
            crate::geo::Region {
                name: "A".into(),
                center: crate::geo::GeoPoint::new(0.0, 0.0),
                spread_km: 10.0,
                count: 50,
            },
            crate::geo::Region {
                name: "B".into(),
                center: crate::geo::GeoPoint::new(3_000.0, 3_000.0),
                spread_km: 10.0,
                count: 50,
            },
        ];
        let nodes = generate(&regions, &mut rng);
        let t = Topology::from_placements(
            &nodes,
            LatencyModel::Geo {
                base_us: 100,
                per_km_us: 10.0,
            },
        );
        let cfg = BinningConfig {
            num_landmarks: 3,
            level_boundaries_us: vec![2_000, 10_000, 40_000],
            max_zones: 8,
        };
        let zones = assign_zones(&t, &cfg, &mut rng);
        // Nodes within one tight cluster may split across bins (landmark
        // orderings can flip at close RTTs), but no zone may mix nodes from
        // the two distant clusters.
        let zones_a: std::collections::BTreeSet<u16> =
            zones.zone_of[..50].iter().copied().collect();
        let zones_b: std::collections::BTreeSet<u16> =
            zones.zone_of[50..].iter().copied().collect();
        assert!(
            zones_a.is_disjoint(&zones_b),
            "distant clusters were merged: {zones_a:?} vs {zones_b:?}"
        );
    }

    #[test]
    fn signature_orders_landmarks_by_rtt() {
        let t = geo_topology(100, 7);
        let landmarks = vec![0, 1, 2, 3];
        let sig = signature(&t, 50, &landmarks, &[1_000, 10_000]);
        assert_eq!(sig.ordering.len(), 4);
        let rtts: Vec<u64> = sig
            .ordering
            .iter()
            .map(|&li| t.rtt(50, landmarks[li as usize]).as_micros())
            .collect();
        assert!(rtts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn max_zones_is_enforced() {
        let t = geo_topology(600, 8);
        let mut rng = sub_rng(8, "assign");
        let cfg = BinningConfig {
            max_zones: 3,
            ..BinningConfig::default()
        };
        let zones = assign_zones(&t, &cfg, &mut rng);
        assert!(zones.num_zones <= 3);
    }

    #[test]
    fn diameters_are_finite_and_sampled() {
        let t = geo_topology(200, 9);
        let mut rng = sub_rng(9, "diam");
        let zones = assign_zones(&t, &BinningConfig::default(), &mut rng);
        let diam = zone_diameters_us(&t, &zones, 64, &mut rng);
        assert_eq!(diam.len(), zones.num_zones);
    }

    #[test]
    fn summary_matches_sizes() {
        let t = geo_topology(300, 11);
        let mut rng = sub_rng(11, "assign");
        let zones = assign_zones(&t, &BinningConfig::default(), &mut rng);
        let s = zones.summary();
        assert_eq!(s.nodes, t.len());
        assert_eq!(s.num_zones, zones.num_zones);
        let sizes = zones.zone_sizes();
        assert_eq!(s.largest, *sizes.iter().max().unwrap());
        assert_eq!(s.smallest, *sizes.iter().min().unwrap());
    }
}
