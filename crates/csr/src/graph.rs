//! The in-memory CSR representation (§V-B1, Fig. 5).

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
            let start = values.len();
            values.extend_from_slice(list);
            values[start..].sort_unstable();
            index.push(values.len() as u64);
        }
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

    /// Hint the cache to load the first value line of `v`'s row, ahead of
    /// a probe of it. One prefetch instruction on x86-64, nothing on other
    /// targets; it never faults, also for a row that starts at the end of
    /// the value array.
    #[inline(always)]
    pub fn prefetch_row(&self, v: VertexId) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let row = self
                .values
                .as_ptr()
                .wrapping_add(self.index[v as usize] as usize);
            // SAFETY: SSE is part of the x86-64 baseline, and a prefetch
            // reads nothing: it cannot fault, at any address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(row.cast()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let (s, e) = self.neighbor_range(v);
        e - s
    }

    /// One bit per vertex, 64 to a word (bit `v % 64` of word `v / 64`),
    /// set when `v` has no neighbor: one pass over the index.
    pub fn edgeless_mask(&self) -> Vec<u64> {
        let mut mask = vec![0u64; (self.num_vertices() as usize).div_ceil(64)];
        for (v, row) in self.index.windows(2).enumerate() {
            mask[v / 64] |= u64::from(row[0] == row[1]) << (v % 64);
        }
        mask
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

/// The value array of a *symmetric* CSR with every row ascending: its
/// transpose. Walking the sources in ascending order and appending each
/// one to the rows of its targets fills every row in ascending order;
/// symmetry makes row `w` of the transpose the same multiset as row `w`
/// of the input, so `index` serves both.
///
/// # Panics
/// Panics when the graph is not symmetric (a transposed row length
/// differs from the input's).
pub(crate) fn sorted_transpose(index: &[u64], values: &[VertexId]) -> Vec<VertexId> {
    let n = index.len() - 1;
    let mut cursor = index[..n].to_vec();
    let mut out = zeroed_in_order(values.len());
    for (u, row) in index.windows(2).enumerate() {
        for &w in &values[row[0] as usize..row[1] as usize] {
            let c = &mut cursor[w as usize];
            out[*c as usize] = u as VertexId;
            *c += 1;
        }
    }
    assert!(cursor == index[1..], "transpose needs a symmetric graph");
    out
}

/// `len` zeros, written in address order, on transparent huge pages where
/// the kernel grants them. Every large DRAM graph array is allocated here:
/// the CSR index and values, the forward domains, the split head and tail
/// and the relabeled index.
///
/// A `vec![0; len]` is left to fault in wherever it is first written, and
/// CSR arrays whose pages were first touched in scatter order made every
/// later bottom-up scan of them measurably slower. Before the fill, the
/// 2 MiB-aligned interior of the fresh allocation is advised
/// `MADV_HUGEPAGE`: a bottom-up probe starts a new row of the value array,
/// and on 4 KiB pages that start is usually a TLB miss as well as a cache
/// miss. The advice is only a hint (a host with transparent huge pages
/// off, or out of free 2 MiB frames, keeps 4 KiB pages), so its result is
/// ignored; the contents are zeros either way.
pub(crate) fn zeroed_in_order<T: Default>(len: usize) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(len);
    advise_huge_pages(out.as_mut_ptr().cast(), len * std::mem::size_of::<T>());
    out.resize_with(len, T::default);
    out
}

/// Ask for huge pages on the whole 2 MiB frames inside `[ptr, ptr + bytes)`.
#[cfg(target_os = "linux")]
fn advise_huge_pages(ptr: *mut u8, bytes: usize) {
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    let start = (ptr as usize).next_multiple_of(HUGE_PAGE);
    let end = (ptr as usize + bytes) / HUGE_PAGE * HUGE_PAGE;
    if start < end {
        // SAFETY: the range lies inside one live allocation of this
        // process, and the advice changes no byte of it.
        unsafe { madvise(start as *mut _, end - start, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_ptr: *mut u8, _bytes: usize) {}

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
    fn edgeless_mask_marks_degree_zero() {
        assert_eq!(sample().edgeless_mask(), vec![0b0100]);
        // 130 vertices, 3 words; only 0–129 has an edge.
        let mut adj = vec![Vec::new(); 130];
        adj[0].push(129);
        adj[129].push(0);
        let mask = CsrGraph::from_adjacency(&adj).edgeless_mask();
        assert_eq!(mask, vec![!1, u64::MAX, 0b01]);
        assert!(CsrGraph::new(vec![0], vec![]).edgeless_mask().is_empty());
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
    fn transpose_sorts_symmetric_rows() {
        // 0–1, 0–2, 1–2 and a self-loop on 2, rows scattered out of order.
        let index = [0, 2, 4, 8];
        let values = [2, 1, 2, 0, 2, 1, 0, 2];
        assert_eq!(sorted_transpose(&index, &values), [1, 2, 0, 2, 0, 1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn transpose_rejects_asymmetric_graph() {
        // 1 → 0 without 0 → 1.
        sorted_transpose(&[0, 0, 2], &[0, 1]);
    }

    #[test]
    fn zeroed_in_order_is_all_zeros() {
        const HUGE: usize = 2 << 20;
        for bytes in [0, 1, HUGE - 8, HUGE + 8, 3 * HUGE + 4096 + 24] {
            let words: Vec<u64> = zeroed_in_order(bytes.div_ceil(8));
            assert_eq!(words.len(), bytes.div_ceil(8));
            assert!(words.iter().all(|&w| w == 0), "{bytes} bytes");
        }
        // An element size that does not divide the huge page.
        let odd: Vec<[u8; 3]> = zeroed_in_order(HUGE / 3 + 7);
        assert!(odd.iter().all(|e| *e == [0; 3]));
    }

    #[test]
    fn into_parts_roundtrip() {
        let g = sample();
        let (index, values) = g.clone().into_parts();
        assert_eq!(CsrGraph::new(index, values), g);
    }
}
