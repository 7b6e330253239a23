//! The in-memory CSR representation (§V-B1, Fig. 5).

use rayon::prelude::*;

use crate::VertexId;

/// A CSR adjacency structure in DRAM: an *index* array of `n + 1` offsets
/// into a *value* array of neighbor vertex IDs.
///
/// Every adjacency list is sorted ascending. The bottom-up probe stops at
/// the first frontier neighbour (§III, Fig. 2); on a sorted list that hit
/// is also the *smallest* frontier neighbour, so the early exit yields the
/// canonical parent that `sembfs_core::reference_bfs` picks. Every
/// constructor keeps the invariant, and [`CsrGraph::new`] checks it in
/// debug builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    index: Vec<u64>,
    values: Vec<VertexId>,
}

impl CsrGraph {
    /// Wrap raw CSR arrays whose rows are already sorted ascending.
    ///
    /// # Panics
    /// Panics when the index is empty or inconsistent with the value
    /// array; in debug builds also when it is non-monotone or a row is
    /// unsorted.
    pub fn new(index: Vec<u64>, values: Vec<VertexId>) -> Self {
        assert!(!index.is_empty(), "CSR index must have at least one entry");
        assert_eq!(
            *index.last().unwrap(),
            values.len() as u64,
            "CSR index final entry must equal value count"
        );
        debug_assert!(
            index.windows(2).all(|w| w[0] <= w[1]),
            "CSR index must be monotone"
        );
        debug_assert!(
            index
                .windows(2)
                .all(|w| values[w[0] as usize..w[1] as usize].is_sorted()),
            "CSR rows must be sorted ascending"
        );
        Self { index, values }
    }

    /// Build from per-vertex adjacency lists, sorting each
    /// (test/example helper).
    pub fn from_adjacency(adj: &[Vec<VertexId>]) -> Self {
        let mut index = Vec::with_capacity(adj.len() + 1);
        index.push(0u64);
        let mut values = Vec::new();
        for list in adj {
            values.extend_from_slice(list);
            index.push(values.len() as u64);
        }
        sort_rows(&index, &mut values);
        Self::new(index, values)
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        (self.index.len() - 1) as u64
    }

    /// Number of stored neighbor entries (directed; an undirected graph
    /// stores `2M`).
    pub fn num_values(&self) -> u64 {
        self.values.len() as u64
    }

    /// Neighbors of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.neighbor_range(v);
        &self.values[s as usize..e as usize]
    }

    /// `[start, end)` of `v`'s neighbors in the value array.
    #[inline]
    pub fn neighbor_range(&self, v: VertexId) -> (u64, u64) {
        (self.index[v as usize], self.index[v as usize + 1])
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let (s, e) = self.neighbor_range(v);
        e - s
    }

    /// The raw index array.
    pub fn index(&self) -> &[u64] {
        &self.index
    }

    /// The raw value array.
    pub fn values(&self) -> &[VertexId] {
        &self.values
    }

    /// Heap size in bytes (what Table II / Fig. 3 report).
    pub fn byte_size(&self) -> u64 {
        self.index.len() as u64 * 8 + self.values.len() as u64 * 4
    }

    /// Consume into raw arrays (for offloading to external files).
    pub fn into_parts(self) -> (Vec<u64>, Vec<VertexId>) {
        (self.index, self.values)
    }
}

/// Split a CSR value array into its rows, one mutable slice per vertex.
pub(crate) fn split_rows<'a>(index: &[u64], values: &'a mut [VertexId]) -> Vec<&'a mut [VertexId]> {
    let mut rows = Vec::with_capacity(index.len().saturating_sub(1));
    let mut rest = values;
    for w in index.windows(2) {
        let (row, tail) = rest.split_at_mut((w[1] - w[0]) as usize);
        rows.push(row);
        rest = tail;
    }
    rows
}

/// Sort every row of a CSR value array ascending, rows in parallel.
pub(crate) fn sort_rows(index: &[u64], values: &mut [VertexId]) {
    split_rows(index, values)
        .par_iter_mut()
        .for_each(|row| row.sort_unstable());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_adjacency(&[vec![1, 2], vec![0, 2, 3], vec![], vec![1]])
    }

    #[test]
    fn shape() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_values(), 6);
        assert_eq!(g.byte_size(), 5 * 8 + 6 * 4);
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = sample();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[1]);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::new(vec![0], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_values(), 0);
    }

    #[test]
    fn from_adjacency_sorts_rows() {
        let g = CsrGraph::from_adjacency(&[vec![3, 1, 2], vec![0], vec![0], vec![0]]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rows must be sorted")]
    fn unsorted_rows_rejected() {
        CsrGraph::new(vec![0, 2], vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "final entry must equal")]
    fn inconsistent_rejected() {
        CsrGraph::new(vec![0, 5], vec![1, 2]);
    }

    #[test]
    fn into_parts_roundtrip() {
        let g = sample();
        let (index, values) = g.clone().into_parts();
        assert_eq!(CsrGraph::new(index, values), g);
    }
}
