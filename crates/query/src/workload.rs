//! Synthetic query workloads: Zipf-distributed vertex popularity and a
//! weighted query-type mix, both deterministic per client seed.
//!
//! Real point-query traffic is heavily skewed toward hub vertices
//! (celebrities, popular articles); ranking vertices by degree and
//! drawing ranks from a Zipf law reproduces that skew, which is exactly
//! what makes the shared page cache and the LRU result cache earn their
//! keep.

use sembfs_core::ScenarioData;
use sembfs_graph500::rng::Xoshiro256;
use sembfs_graph500::VertexId;

use crate::Query;

/// Draws vertices with Zipf-distributed popularity over a degree ranking.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Vertices ordered by descending popularity (rank 0 = hottest).
    ranked: Vec<VertexId>,
    /// Cumulative (unnormalized) rank weights for inverse-CDF sampling.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build over an explicit popularity ranking with exponent `theta`
    /// (≈1.0 for web-like skew; larger = more concentrated).
    pub fn new(ranked: Vec<VertexId>, theta: f64) -> Self {
        assert!(!ranked.is_empty(), "sampler needs at least one vertex");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut cdf = Vec::with_capacity(ranked.len());
        let mut total = 0.0f64;
        for rank in 0..ranked.len() {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        Self { ranked, cdf }
    }

    /// Rank the scenario's vertices by descending degree (ties by id) and
    /// keep the `support` hottest as the samplable population.
    pub fn from_degrees(data: &ScenarioData, theta: f64, support: usize) -> Self {
        let n = data.num_vertices();
        let mut vertices: Vec<VertexId> = (0..n as VertexId).collect();
        vertices.sort_by_key(|&v| (std::cmp::Reverse(data.degree(v)), v));
        vertices.truncate(support.max(1));
        Self::new(vertices, theta)
    }

    /// Vertices in the samplable population.
    pub fn support(&self) -> usize {
        self.ranked.len()
    }

    /// Draw one vertex.
    pub fn sample(&self, rng: &mut Xoshiro256) -> VertexId {
        let total = *self.cdf.last().expect("non-empty");
        let x = rng.next_f64() * total;
        let idx = self.cdf.partition_point(|&c| c < x);
        self.ranked[idx.min(self.ranked.len() - 1)]
    }
}

/// Relative weights of the four query types in a simulated client's
/// stream, plus the neighborhood probe depth.
#[derive(Debug, Clone)]
pub struct QueryMix {
    /// Weight of [`Query::ShortestPath`].
    pub path: f64,
    /// Weight of [`Query::Distance`].
    pub distance: f64,
    /// Weight of [`Query::Reachable`].
    pub reachable: f64,
    /// Weight of [`Query::Neighborhood`].
    pub neighborhood: f64,
    /// Depth of sampled neighborhood probes.
    pub neighborhood_depth: u32,
}

impl Default for QueryMix {
    fn default() -> Self {
        Self {
            path: 0.45,
            distance: 0.05,
            reachable: 0.40,
            neighborhood: 0.10,
            neighborhood_depth: 2,
        }
    }
}

impl QueryMix {
    /// A mix without `Distance` queries (the throughput-bench default,
    /// kept from when a distance was a whole-graph sweep so the measured
    /// stream stays comparable).
    pub fn point_queries() -> Self {
        Self {
            path: 0.50,
            distance: 0.0,
            reachable: 0.40,
            neighborhood: 0.10,
            neighborhood_depth: 2,
        }
    }

    /// Draw one query, endpoints Zipf-sampled from `sampler`.
    pub fn sample(&self, sampler: &ZipfSampler, rng: &mut Xoshiro256) -> Query {
        let total = self.path + self.distance + self.reachable + self.neighborhood;
        assert!(total > 0.0, "mix weights must not all be zero");
        let x = rng.next_f64() * total;
        let src = sampler.sample(rng);
        if x < self.path {
            Query::ShortestPath {
                src,
                dst: sampler.sample(rng),
            }
        } else if x < self.path + self.distance {
            Query::Distance {
                src,
                dst: sampler.sample(rng),
            }
        } else if x < self.path + self.distance + self.reachable {
            Query::Reachable {
                src,
                dst: sampler.sample(rng),
            }
        } else {
            Query::Neighborhood {
                v: src,
                depth: self.neighborhood_depth,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let sampler = ZipfSampler::new((0..100).collect(), 1.0);
        let mut rng = Xoshiro256::seed_from(7, 0);
        let mut counts = [0u64; 100];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must beat rank 10");
        assert!(counts[0] > counts[99] * 5, "head must dominate tail");
        assert!(counts.iter().sum::<u64>() == 20_000);
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let sampler = ZipfSampler::new((0..10).collect(), 0.0);
        let mut rng = Xoshiro256::seed_from(3, 1);
        let mut counts = [0u64; 10];
        for _ in 0..10_000 {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform draw skewed: {counts:?}");
        }
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        let sampler = ZipfSampler::new((0..50).collect(), 1.0);
        let mix = QueryMix::default();
        let a: Vec<Query> = {
            let mut rng = Xoshiro256::seed_from(42, 9);
            (0..100).map(|_| mix.sample(&sampler, &mut rng)).collect()
        };
        let b: Vec<Query> = {
            let mut rng = Xoshiro256::seed_from(42, 9);
            (0..100).map(|_| mix.sample(&sampler, &mut rng)).collect()
        };
        assert_eq!(a, b);
        // All four kinds appear under the default weights.
        for kind in ["path", "distance", "reachable", "neighborhood"] {
            assert!(a.iter().any(|q| q.kind() == kind), "no {kind} in 100 draws");
        }
    }
}
