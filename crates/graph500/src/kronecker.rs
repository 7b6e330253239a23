//! Kronecker (R-MAT) edge-list generation — Graph500 Step 1.
//!
//! Each of the `M = N·edge_factor` edges is generated independently: at
//! every one of the `SCALE` recursion levels a quadrant of the adjacency
//! matrix is chosen with the Graph500 initiator probabilities
//! `(A, B, C, D) = (0.57, 0.19, 0.19, 0.05)`; the resulting labels are then
//! scrambled ([`crate::Scrambler`]) and the edge direction randomized, so
//! vertex IDs carry no structural hints. Because every edge has its own
//! RNG stream derived from `(seed, edge_index)`, generation is
//! embarrassingly parallel *and* bit-reproducible for a given seed.

use rayon::prelude::*;

use crate::edge_list::MemEdgeList;
use crate::rng::Xoshiro256;
use crate::scramble::Scrambler;
use crate::VertexId;

/// Parameters of a Kronecker graph instance.
///
/// ```
/// use sembfs_graph500::KroneckerParams;
///
/// let params = KroneckerParams::graph500(10, 42);
/// assert_eq!(params.num_vertices(), 1024);
/// assert_eq!(params.num_edges(), 16_384);
///
/// let edges = params.generate();
/// // Deterministic in the seed:
/// assert_eq!(edges, params.generate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KroneckerParams {
    /// `N = 2^scale` vertices.
    pub scale: u32,
    /// `M = N · edge_factor` edges.
    pub edge_factor: u64,
    /// Initiator matrix probabilities; must sum to 1.
    pub a: f64,
    /// Probability of the upper-right quadrant.
    pub b: f64,
    /// Probability of the lower-left quadrant.
    pub c: f64,
    /// Probability of the lower-right quadrant.
    pub d: f64,
    /// Generator seed; also seeds the label scrambler.
    pub seed: u64,
}

impl KroneckerParams {
    /// Graph500-compliant parameters at a given scale and seed
    /// (edge factor 16, initiator `(0.57, 0.19, 0.19, 0.05)`).
    pub fn graph500(scale: u32, seed: u64) -> Self {
        Self {
            scale,
            edge_factor: crate::DEFAULT_EDGE_FACTOR,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            seed,
        }
    }

    /// Override the edge factor.
    pub fn with_edge_factor(mut self, edge_factor: u64) -> Self {
        self.edge_factor = edge_factor;
        self
    }

    /// Number of vertices `N = 2^scale`.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of generated (undirected) edges `M`.
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * self.edge_factor
    }

    /// The scrambler applied to vertex labels.
    pub fn scrambler(&self) -> Scrambler {
        Scrambler::new(self.scale, self.seed ^ 0x5CA8_B1E5_CA8B_1E55)
    }

    /// Generate edge `i` (deterministic in `(seed, i)`).
    pub fn edge(&self, i: u64) -> (VertexId, VertexId) {
        self.edge_with(i, &self.scrambler())
    }

    /// Generate edge `i` reusing a precomputed scrambler.
    pub fn edge_with(&self, i: u64, s: &Scrambler) -> (VertexId, VertexId) {
        self.edge_at(i, s, &self.thresholds())
    }

    /// The initiator as integer thresholds on a 53-bit draw `k`:
    /// `k·2⁻⁵³ < p ⇔ k < ⌈p·2⁵³⌉`, so comparing `k` picks exactly the
    /// quadrant the `f64` draw would.
    ///
    /// # Panics
    /// Panics unless `a, b, c, d ≥ 0` and they sum to 1.
    fn thresholds(&self) -> [u64; 3] {
        let Self { a, b, c, d, .. } = *self;
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0 && (a + b + c + d - 1.0).abs() < 1e-9,
            "Kronecker initiator must be non-negative and sum to 1, got ({a}, {b}, {c}, {d})"
        );
        let t = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
        [t(a), t(a + b), t(a + b + c)]
    }

    /// Edge `i` with the quadrant picked branch-free from the thresholds.
    #[inline]
    fn edge_at(&self, i: u64, s: &Scrambler, t: &[u64; 3]) -> (VertexId, VertexId) {
        let mut rng = Xoshiro256::seed_from(self.seed, i);
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..self.scale {
            let (bit_u, bit_v) = quadrant(rng.next_u64() >> 11, t);
            u = (u << 1) | bit_u;
            v = (v << 1) | bit_v;
        }
        let (mut u, mut v) = (s.apply(u), s.apply(v));
        if rng.next_bool() {
            std::mem::swap(&mut u, &mut v);
        }
        (u as VertexId, v as VertexId)
    }

    /// Generate the full edge list in parallel into DRAM.
    pub fn generate(&self) -> MemEdgeList {
        MemEdgeList::new(
            self.num_vertices(),
            self.generate_range(0, self.num_edges()),
        )
    }

    /// Generate edges `[start, end)` in parallel (for chunked/streaming
    /// generation when the full list must not be materialized).
    pub fn generate_range(&self, start: u64, end: u64) -> Vec<(VertexId, VertexId)> {
        let s = self.scrambler();
        let t = self.thresholds();
        let mut edges = vec![(0, 0); end.saturating_sub(start) as usize];
        edges
            .par_iter_mut()
            .enumerate()
            .for_each(|(j, e)| *e = self.edge_at(start + j as u64, &s, &t));
        edges
    }
}

/// The quadrant bits `(row, column)` a 53-bit draw `k` picks: A `(0, 0)`
/// below `t_a`, B `(0, 1)` below `t_ab`, C `(1, 0)` below `t_abc`, else D.
#[inline]
fn quadrant(k: u64, &[t_a, t_ab, t_abc]: &[u64; 3]) -> (u64, u64) {
    let bit_u = u64::from(k >= t_ab);
    (bit_u, u64::from(k >= t_a) ^ bit_u ^ u64::from(k >= t_abc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;

    #[test]
    fn graph500_defaults() {
        let p = KroneckerParams::graph500(10, 1);
        assert_eq!(p.num_vertices(), 1024);
        assert_eq!(p.num_edges(), 16_384);
        assert!((p.a + p.b + p.c + p.d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = KroneckerParams::graph500(8, 42);
        let a = p.generate();
        let b = p.generate();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn seeds_change_the_graph() {
        let a = KroneckerParams::graph500(8, 1).generate();
        let b = KroneckerParams::graph500(8, 2).generate();
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn edges_in_range() {
        let p = KroneckerParams::graph500(9, 7);
        let el = p.generate();
        let n = p.num_vertices() as VertexId;
        for &(u, v) in el.as_slice() {
            assert!(u < n && v < n);
        }
        assert_eq!(el.num_edges(), p.num_edges());
    }

    #[test]
    fn generate_range_matches_full_generation() {
        let p = KroneckerParams::graph500(7, 5);
        let full = p.generate();
        let part = p.generate_range(100, 200);
        assert_eq!(&full.as_slice()[100..200], &part[..]);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Kronecker graphs are scale-free-ish: max degree must far exceed
        // the mean (16·2 endpoints per vertex on average).
        let p = KroneckerParams::graph500(12, 3);
        let el = p.generate();
        let mut deg = vec![0u64; p.num_vertices() as usize];
        for &(u, v) in el.as_slice() {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        let mean = deg.iter().sum::<u64>() as f64 / deg.len() as f64;
        assert!(max as f64 > 10.0 * mean, "max {max} vs mean {mean}");
        // Scrambling must spread the hubs: the top-degree vertex should not
        // always be vertex 0.
        let argmax = deg.iter().enumerate().max_by_key(|(_, &d)| d).unwrap().0;
        let _ = argmax; // any position is legal; just ensure it computed
    }

    #[test]
    fn direction_is_randomized() {
        let p = KroneckerParams::graph500(10, 9);
        let el = p.generate();
        let forward = el.as_slice().iter().filter(|(u, v)| u < v).count();
        let ratio = forward as f64 / el.num_edges() as f64;
        assert!((0.4..0.6).contains(&ratio), "direction bias: {ratio}");
    }

    /// The quadrant pick before integer thresholds: an `f64` draw against
    /// the initiator's running sums (the oracle for [`quadrant`]).
    fn quadrant_f64(p: &KroneckerParams, r: f64) -> (u64, u64) {
        let ab = p.a + p.b;
        let abc = ab + p.c;
        if r < p.a {
            (0, 0)
        } else if r < ab {
            (0, 1)
        } else if r < abc {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// Edge `i` as generated with the `f64` branch chain.
    fn edge_branch_chain(p: &KroneckerParams, i: u64) -> (VertexId, VertexId) {
        let s = p.scrambler();
        let mut rng = Xoshiro256::seed_from(p.seed, i);
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..p.scale {
            let (bit_u, bit_v) = quadrant_f64(p, rng.next_f64());
            u = (u << 1) | bit_u;
            v = (v << 1) | bit_v;
        }
        let (mut u, mut v) = (s.apply(u), s.apply(v));
        if rng.next_bool() {
            std::mem::swap(&mut u, &mut v);
        }
        (u as VertexId, v as VertexId)
    }

    #[test]
    fn thresholds_pick_like_f64_draws_at_every_boundary() {
        // The Graph500 sums lie in [0.5, 1), so p·2⁵³ is an integer; the
        // second initiator's are not, which only the ceiling gets right.
        let graph500 = KroneckerParams::graph500(10, 1);
        let uneven = KroneckerParams {
            a: 0.1,
            b: 0.2,
            c: 0.3,
            d: 0.4,
            ..graph500
        };
        for p in [graph500, uneven] {
            let t = p.thresholds();
            for &edge in &t {
                for k in [edge - 1, edge, edge + 1] {
                    let r = k as f64 / (1u64 << 53) as f64;
                    assert_eq!(quadrant(k, &t), quadrant_f64(&p, r), "{p:?}, draw {k}");
                }
            }
            assert_eq!(quadrant(0, &t), (0, 0));
            assert_eq!(quadrant((1 << 53) - 1, &t), (1, 1));
        }
    }

    #[test]
    #[should_panic(expected = "initiator must be non-negative and sum to 1")]
    fn initiator_summing_above_one_rejected() {
        let p = KroneckerParams {
            a: 0.6,
            ..KroneckerParams::graph500(4, 1)
        };
        p.generate();
    }

    #[test]
    #[should_panic(expected = "initiator must be non-negative and sum to 1")]
    fn negative_initiator_rejected() {
        let p = KroneckerParams {
            c: 0.29,
            d: -0.05,
            ..KroneckerParams::graph500(4, 1)
        };
        p.edge(0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Integer thresholds pick the same quadrants, hence the same
            /// edges, as the `f64` branch chain.
            #[test]
            fn edge_with_matches_branch_chain(scale in 1u32..=32, seed: u64, i: u64) {
                let p = KroneckerParams::graph500(scale, seed);
                prop_assert_eq!(p.edge_with(i, &p.scrambler()), edge_branch_chain(&p, i));
            }

            /// Per-edge generation is stable and in-range for any seed.
            #[test]
            fn edge_reproducible(scale in 1u32..16, seed: u64, i in 0u64..10_000) {
                let p = KroneckerParams::graph500(scale, seed);
                let e1 = p.edge(i);
                let e2 = p.edge(i);
                prop_assert_eq!(e1, e2);
                let n = p.num_vertices() as VertexId;
                prop_assert!(e1.0 < n && e1.1 < n);
            }
        }
    }
}
