//! Degree-ordered vertex relabeling (ablation).
//!
//! The Graph500 scrambler deliberately destroys any correlation between
//! vertex ID and degree. Real systems sometimes *re-introduce* structure:
//! relabeling vertices in descending-degree order packs the hubs into a
//! dense prefix, which (a) concentrates the bottom-up frontier bitmap hits
//! in a few cache lines and (b) moves the high-degree CSR rows — the ones
//! the early top-down levels read — next to each other on the device.
//! DESIGN.md §7.4 calls this out as an ablation against the paper's
//! unordered layout.

use rayon::prelude::*;

use crate::graph::{sorted_transpose, zeroed_in_order, CsrGraph};
use crate::VertexId;

/// A vertex renaming: `new_id = perm[old_id]`, with its inverse.
///
/// ```
/// use sembfs_csr::{CsrGraph, Relabeling};
///
/// // A hub (vertex 2, degree 3) buried among leaves.
/// let csr = CsrGraph::from_adjacency(&[vec![2], vec![2], vec![0, 1, 3], vec![2]]);
/// let relabeling = Relabeling::by_degree_desc(&csr);
/// assert_eq!(relabeling.new_id(2), 0); // hub first
/// let reordered = relabeling.apply_to_csr(&csr);
/// assert_eq!(reordered.degree(0), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    /// old → new.
    perm: Vec<VertexId>,
    /// new → old.
    inv: Vec<VertexId>,
}

impl Relabeling {
    /// Identity relabeling over `n` vertices.
    pub fn identity(n: u64) -> Self {
        let perm: Vec<VertexId> = (0..n as VertexId).collect();
        Self {
            inv: perm.clone(),
            perm,
        }
    }

    /// Descending-degree relabeling of `csr` (ties by old ID, so the
    /// result is deterministic).
    pub fn by_degree_desc(csr: &CsrGraph) -> Self {
        let n = csr.num_vertices() as usize;
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.par_sort_unstable_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
        // order[new] = old  ⇒  inv = order, perm = inverse of order.
        let mut perm = vec![0 as VertexId; n];
        for (new_id, &old_id) in order.iter().enumerate() {
            perm[old_id as usize] = new_id as VertexId;
        }
        Self { perm, inv: order }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Map an old vertex ID to its new ID.
    #[inline]
    pub fn new_id(&self, old: VertexId) -> VertexId {
        self.perm[old as usize]
    }

    /// Map a new vertex ID back to its old ID.
    #[inline]
    pub fn old_id(&self, new: VertexId) -> VertexId {
        self.inv[new as usize]
    }

    /// Rewrite a symmetric CSR (what [`build_csr`](crate::build_csr)
    /// yields) under this relabeling: row `new` holds the renamed
    /// neighbors of `old_id(new)`, ascending.
    ///
    /// # Panics
    /// Panics when `csr` is not symmetric.
    pub fn apply_to_csr(&self, csr: &CsrGraph) -> CsrGraph {
        assert_eq!(csr.num_vertices() as usize, self.len());
        let mut index: Vec<u64> = zeroed_in_order(self.len() + 1);
        let mut values = Vec::with_capacity(csr.num_values() as usize);
        for (new, &old) in self.inv.iter().enumerate() {
            values.extend(csr.neighbors(old).iter().map(|&w| self.perm[w as usize]));
            index[new + 1] = values.len() as u64;
        }
        // Renaming scrambles each row's order; the transpose restores it.
        let values = sorted_transpose(&index, &values);
        CsrGraph::new(index, values)
    }

    /// Translate a parent array produced on the relabeled graph back to
    /// the original IDs (so the original edge list validates it).
    pub fn parents_to_original(&self, parent_new: &[VertexId]) -> Vec<VertexId> {
        let mut out = vec![sembfs_graph500::INVALID_PARENT; parent_new.len()];
        for (new, &p) in parent_new.iter().enumerate() {
            if p != sembfs_graph500::INVALID_PARENT {
                out[self.inv[new] as usize] = self.inv[p as usize];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_csr, BuildOptions};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_graph500::KroneckerParams;

    fn sample() -> CsrGraph {
        // Degrees: v0=1, v1=3, v2=2, v3=0, v4=2.
        build_csr(
            &MemEdgeList::new(5, vec![(0, 1), (1, 2), (1, 4), (2, 4)]),
            BuildOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn identity_is_identity() {
        let csr = sample();
        let r = Relabeling::identity(5);
        assert_eq!(r.apply_to_csr(&csr), csr);
        assert_eq!(r.new_id(3), 3);
    }

    #[test]
    fn degree_order_puts_hub_first() {
        let csr = sample();
        let r = Relabeling::by_degree_desc(&csr);
        // v1 (degree 3) becomes vertex 0.
        assert_eq!(r.new_id(1), 0);
        assert_eq!(r.old_id(0), 1);
        // Isolated v3 goes last.
        assert_eq!(r.new_id(3), 4);
        let relabeled = r.apply_to_csr(&csr);
        // New degrees are non-increasing.
        let degs: Vec<u64> = (0..5).map(|v| relabeled.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "degs {degs:?}");
    }

    #[test]
    fn relabeled_graph_is_isomorphic() {
        let csr = build_csr(
            &KroneckerParams::graph500(9, 77).generate(),
            BuildOptions::default(),
        )
        .unwrap();
        let r = Relabeling::by_degree_desc(&csr);
        let relabeled = r.apply_to_csr(&csr);
        assert_eq!(relabeled.num_values(), csr.num_values());
        for old in 0..csr.num_vertices() as VertexId {
            let new = r.new_id(old);
            let mut a: Vec<VertexId> = csr.neighbors(old).iter().map(|&w| r.new_id(w)).collect();
            a.sort_unstable();
            assert_eq!(a, relabeled.neighbors(new), "vertex {old}→{new}");
        }
    }

    #[test]
    fn relabeled_rows_are_sorted() {
        let csr = build_csr(
            &KroneckerParams::graph500(9, 78).generate(),
            BuildOptions::default(),
        )
        .unwrap();
        let relabeled = Relabeling::by_degree_desc(&csr).apply_to_csr(&csr);
        for v in 0..relabeled.num_vertices() as VertexId {
            assert!(relabeled.neighbors(v).is_sorted(), "row {v}");
        }
    }

    #[test]
    fn roundtrip_ids() {
        let csr = sample();
        let r = Relabeling::by_degree_desc(&csr);
        for v in 0..5 {
            assert_eq!(r.old_id(r.new_id(v)), v);
            assert_eq!(r.new_id(r.old_id(v)), v);
        }
    }

    #[test]
    fn parents_translate_back() {
        let csr = sample();
        let r = Relabeling::by_degree_desc(&csr);
        let relabeled = r.apply_to_csr(&csr);
        // BFS on the relabeled graph from new-root = new_id(1).
        let root_new = r.new_id(1);
        let mut parent_new = vec![sembfs_graph500::INVALID_PARENT; 5];
        parent_new[root_new as usize] = root_new;
        for &w in relabeled.neighbors(root_new) {
            parent_new[w as usize] = root_new;
        }
        let parent_old = r.parents_to_original(&parent_new);
        assert_eq!(parent_old[1], 1); // old root
        assert_eq!(parent_old[0], 1);
        assert_eq!(parent_old[2], 1);
        assert_eq!(parent_old[4], 1);
        assert_eq!(parent_old[3], sembfs_graph500::INVALID_PARENT);
    }
}
