//! Geographic placement of edge nodes.
//!
//! The paper drives its scalability experiments with the EUA dataset: 95,271
//! cellular base stations across 12 Australian states and regions (§7.1).
//! The raw dataset is not redistributable here, so this module synthesizes a
//! geometry with the *published* per-region counts and a clustered spatial
//! layout (cities inside regions), which is what the distributed-binning and
//! zone experiments actually exercise.

use rand::rngs::StdRng;
use rand::Rng;

/// A position on a planar map, in kilometres.
///
/// A plane is used instead of spherical coordinates: all consumers only need
/// relative distances, and a plane keeps the arithmetic exact and cheap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoPoint {
    /// East-west coordinate in km.
    pub x_km: f64,
    /// North-south coordinate in km.
    pub y_km: f64,
}

impl GeoPoint {
    /// Creates a point from km coordinates.
    pub fn new(x_km: f64, y_km: f64) -> Self {
        GeoPoint { x_km, y_km }
    }

    /// Euclidean distance to `other`, in km.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let dx = self.x_km - other.x_km;
        let dy = self.y_km - other.y_km;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A named geographic region with a target node count.
#[derive(Clone, Debug)]
pub struct Region {
    /// Region name (e.g. an Australian state code).
    pub name: String,
    /// Center of the region on the map.
    pub center: GeoPoint,
    /// Standard deviation of node placement around city clusters, in km.
    pub spread_km: f64,
    /// Number of nodes to generate in this region.
    pub count: usize,
}

/// One generated edge node: its location and the region it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct PlacedNode {
    /// Node position.
    pub point: GeoPoint,
    /// Index into the region list used for generation.
    pub region: u16,
}

/// Returns the 12 EUA regions with the node counts published in the paper
/// (§7.2): ACT 931, ANT 15, EXT 8, ISL 36, NSW 24574, NT 3137, QLD 21576,
/// SA 7682, TAS 3213, VIC 18163, WA 15933, WLD 3 — 95,271 nodes in total.
///
/// Region centers approximate the relative layout of the Australian states on
/// a ~4000 km x 3500 km plane.
pub fn eua_regions() -> Vec<Region> {
    let mk = |name: &str, x: f64, y: f64, spread: f64, count: usize| Region {
        name: name.to_string(),
        center: GeoPoint::new(x, y),
        spread_km: spread,
        count,
    };
    vec![
        mk("ACT", 3350.0, 950.0, 40.0, 931),
        mk("ANT", 2000.0, 3400.0, 120.0, 15),
        mk("EXT", 200.0, 3300.0, 150.0, 8),
        mk("ISL", 3800.0, 2600.0, 100.0, 36),
        mk("NSW", 3300.0, 1200.0, 300.0, 24_574),
        mk("NT", 2050.0, 2600.0, 350.0, 3_137),
        mk("QLD", 3100.0, 2200.0, 450.0, 21_576),
        mk("SA", 2300.0, 1100.0, 320.0, 7_682),
        mk("TAS", 3050.0, 150.0, 120.0, 3_213),
        mk("VIC", 2950.0, 700.0, 220.0, 18_163),
        mk("WA", 700.0, 1500.0, 500.0, 15_933),
        mk("WLD", 1500.0, 200.0, 80.0, 3),
    ]
}

/// Returns a small, fast variant of [`eua_regions`] that keeps the relative
/// region densities but scales the total to roughly `total` nodes.
///
/// Every region keeps at least one node so that sparse regions (ANT, EXT,
/// WLD) still appear in zone experiments.
pub fn eua_regions_scaled(total: usize) -> Vec<Region> {
    let mut regions = eua_regions();
    let full: usize = regions.iter().map(|r| r.count).sum();
    for r in &mut regions {
        r.count = ((r.count as f64 / full as f64) * total as f64).round() as usize;
        r.count = r.count.max(1);
    }
    regions
}

/// Generates clustered node placements for the given regions.
///
/// Each region is populated around `ceil(sqrt(count))` city clusters whose
/// centers are drawn uniformly inside a disc of radius `2 * spread_km` around
/// the region center; nodes then scatter around their city with a Gaussian of
/// standard deviation `spread_km / 4`. This reproduces the heavy spatial
/// skew of real base-station deployments that Figure 5 relies on.
pub fn generate(regions: &[Region], rng: &mut StdRng) -> Vec<PlacedNode> {
    let mut nodes = Vec::with_capacity(regions.iter().map(|r| r.count).sum());
    for (ri, region) in regions.iter().enumerate() {
        if region.count == 0 {
            continue;
        }
        let num_cities = ((region.count as f64).sqrt().ceil() as usize).max(1);
        let cities: Vec<GeoPoint> = (0..num_cities)
            .map(|_| {
                let angle = rng.gen::<f64>() * std::f64::consts::TAU;
                let radius = rng.gen::<f64>().sqrt() * 2.0 * region.spread_km;
                GeoPoint::new(
                    region.center.x_km + radius * angle.cos(),
                    region.center.y_km + radius * angle.sin(),
                )
            })
            .collect();
        for _ in 0..region.count {
            // Skew node-per-city mass: earlier cities are "bigger".
            let u: f64 = rng.gen::<f64>();
            let city = &cities[((u * u) * num_cities as f64) as usize % num_cities];
            let sd = (region.spread_km / 4.0).max(1.0);
            nodes.push(PlacedNode {
                point: GeoPoint::new(
                    city.x_km + gaussian(rng) * sd,
                    city.y_km + gaussian(rng) * sd,
                ),
                region: ri as u16,
            });
        }
    }
    nodes
}

/// Draws a standard normal variate using the Box-Muller transform.
pub fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::sub_rng;

    #[test]
    fn eua_counts_match_paper() {
        let regions = eua_regions();
        assert_eq!(regions.len(), 12);
        let total: usize = regions.iter().map(|r| r.count).sum();
        assert_eq!(total, 95_271);
        let nsw = regions.iter().find(|r| r.name == "NSW").unwrap();
        assert_eq!(nsw.count, 24_574);
        let wld = regions.iter().find(|r| r.name == "WLD").unwrap();
        assert_eq!(wld.count, 3);
    }

    #[test]
    fn scaled_regions_keep_all_regions() {
        let regions = eua_regions_scaled(1_000);
        assert_eq!(regions.len(), 12);
        assert!(regions.iter().all(|r| r.count >= 1));
        let total: usize = regions.iter().map(|r| r.count).sum();
        assert!((900..=1_100).contains(&total), "total = {total}");
    }

    #[test]
    fn generate_produces_requested_counts() {
        let regions = eua_regions_scaled(500);
        let mut rng = sub_rng(1, "geo");
        let nodes = generate(&regions, &mut rng);
        let total: usize = regions.iter().map(|r| r.count).sum();
        assert_eq!(nodes.len(), total);
        for (ri, region) in regions.iter().enumerate() {
            let in_region = nodes.iter().filter(|n| n.region == ri as u16).count();
            assert_eq!(in_region, region.count);
        }
    }

    #[test]
    fn nodes_cluster_near_region_center() {
        let regions = vec![Region {
            name: "X".into(),
            center: GeoPoint::new(100.0, 100.0),
            spread_km: 50.0,
            count: 200,
        }];
        let mut rng = sub_rng(2, "geo");
        let nodes = generate(&regions, &mut rng);
        let far = nodes
            .iter()
            .filter(|n| n.point.distance_km(&regions[0].center) > 500.0)
            .count();
        assert_eq!(far, 0, "placements escaped the region envelope");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = GeoPoint::new(1.0, 2.0);
        let b = GeoPoint::new(4.0, 6.0);
        assert_eq!(a.distance_km(&b), b.distance_km(&a));
        assert_eq!(a.distance_km(&a), 0.0);
        assert!((a.distance_km(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(miri, ignore = "20k statistical draws are too slow under Miri")]
    fn gaussian_has_reasonable_moments() {
        let mut rng = sub_rng(3, "gauss");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }
}
