//! CSR construction from (possibly external) edge lists: a counting sort.
//!
//! Four serial passes, none with atomics or a sort: count per-vertex
//! degrees while streaming the list, prefix-sum them into the index
//! array, stream the list again to scatter both directions of every edge
//! into unsorted rows, then transpose (see [`sorted_transpose`]): walking
//! the sources in ascending order and appending each to its targets' rows
//! leaves every row sorted ascending, which the bottom-up kernel's first
//! frontier hit relies on (see [`CsrGraph`]). The edge list is only ever
//! *streamed*, so construction works identically whether the list sits
//! in DRAM or on (simulated) NVM — exactly the paper's Step 2, which
//! builds both graphs "by directly reading the edge list from NVM".

use sembfs_graph500::edge_list::EdgeList;
use sembfs_semext::Result;

use crate::graph::{sorted_transpose, zeroed_in_order, CsrGraph};

/// Options controlling CSR construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Drop self-loop edges `(v, v)`. The paper keeps the raw Kronecker
    /// output (its value array is exactly `2M` entries), so the default is
    /// `false`.
    pub drop_self_loops: bool,
    /// No effect: adjacency is always sorted.
    #[deprecated(note = "adjacency is always sorted")]
    pub sort_neighbors: bool,
    /// Edges per chunk streamed from the edge list.
    pub chunk_edges: usize,
}

#[allow(deprecated)]
impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            drop_self_loops: false,
            sort_neighbors: false,
            chunk_edges: 1 << 16,
        }
    }
}

/// Build the undirected CSR (each edge stored in both directions) from an
/// edge list.
pub fn build_csr(edges: &dyn EdgeList, opts: BuildOptions) -> Result<CsrGraph> {
    let n = edges.num_vertices() as usize;
    let keep = |u, v| !(opts.drop_self_loops && u == v);

    // Pass 1: degree count, vertex v's at index[v + 1].
    let mut index: Vec<u64> = zeroed_in_order(n + 1);
    edges.visit_chunks(opts.chunk_edges, &mut |chunk| {
        for &(u, v) in chunk.iter().filter(|&&(u, v)| keep(u, v)) {
            index[u as usize + 1] += 1;
            index[v as usize + 1] += 1;
        }
        Ok(())
    })?;

    // Pass 2: prefix sum.
    for v in 0..n {
        index[v + 1] += index[v];
    }

    // Pass 3: scatter both directions into unsorted rows.
    let mut cursor = index[..n].to_vec();
    let mut values = vec![0; index[n] as usize];
    edges.visit_chunks(opts.chunk_edges, &mut |chunk| {
        for &(u, v) in chunk.iter().filter(|&&(u, v)| keep(u, v)) {
            values[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            values[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        Ok(())
    })?;

    // Pass 4: the transpose has the same rows, each ascending.
    let values = sorted_transpose(&index, &values);
    Ok(CsrGraph::new(index, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_graph500::KroneckerParams;

    #[test]
    fn small_graph_both_directions() {
        let el = MemEdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let g = build_csr(&el, BuildOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_values(), 6);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn self_loops_kept_by_default() {
        let el = MemEdgeList::new(2, vec![(0, 0), (0, 1)]);
        let g = build_csr(&el, BuildOptions::default()).unwrap();
        // Self-loop stored twice (both directions), like the reference.
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn self_loops_droppable() {
        let el = MemEdgeList::new(2, vec![(0, 0), (0, 1)]);
        let opts = BuildOptions {
            drop_self_loops: true,
            ..Default::default()
        };
        let g = build_csr(&el, opts).unwrap();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.num_values(), 2);
    }

    #[test]
    fn duplicate_edges_kept() {
        let el = MemEdgeList::new(2, vec![(0, 1), (0, 1), (1, 0)]);
        let g = build_csr(&el, BuildOptions::default()).unwrap();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn neighbors_are_always_sorted() {
        let el = MemEdgeList::new(5, vec![(0, 4), (0, 1), (0, 3), (0, 2)]);
        let g = build_csr(&el, BuildOptions::default()).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn kronecker_value_count_is_2m() {
        let p = KroneckerParams::graph500(10, 5);
        let el = p.generate();
        let g = build_csr(&el, BuildOptions::default()).unwrap();
        assert_eq!(g.num_values(), 2 * p.num_edges());
        assert_eq!(g.num_vertices(), p.num_vertices());
    }

    #[test]
    fn construction_is_permutation_invariant_per_vertex() {
        let p = KroneckerParams::graph500(9, 11);
        let el = p.generate();
        let a = build_csr(
            &el,
            BuildOptions {
                chunk_edges: 7,
                ..Default::default()
            },
        )
        .unwrap();
        let b = build_csr(
            &el,
            BuildOptions {
                chunk_edges: 4096,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_edge_list() {
        let el = MemEdgeList::new(3, vec![]);
        let g = build_csr(&el, BuildOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_values(), 0);
    }

    /// The build before the counting sort: atomic degree counts, an
    /// atomic scatter, then every row sorted.
    fn atomic_scatter_then_sort(n: usize, edges: &[(u32, u32)], drop_self_loops: bool) -> CsrGraph {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        let edges = || {
            edges
                .iter()
                .filter(move |&&(u, v)| !(drop_self_loops && u == v))
        };
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for &(u, v) in edges() {
            counts[u as usize].fetch_add(1, Relaxed);
            counts[v as usize].fetch_add(1, Relaxed);
        }
        let mut index = vec![0u64];
        for c in &counts {
            index.push(index.last().unwrap() + c.load(Relaxed));
        }
        let cursors: Vec<AtomicU64> = index[..n].iter().map(|&o| AtomicU64::new(o)).collect();
        let mut values = vec![0u32; index[n] as usize];
        for &(u, v) in edges() {
            values[cursors[u as usize].fetch_add(1, Relaxed) as usize] = v;
            values[cursors[v as usize].fetch_add(1, Relaxed) as usize] = u;
        }
        for w in index.windows(2) {
            values[w[0] as usize..w[1] as usize].sort_unstable();
        }
        CsrGraph::new(index, values)
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The counting sort builds exactly what the atomic scatter and
            /// row sort built: self-loops, duplicates and isolated
            /// vertices included, for any chunk size.
            #[test]
            fn counting_sort_equals_atomic_scatter_and_sort(
                n in 1u32..60,
                raw in proptest::collection::vec((0u32..1000, 0u32..1000), 0..300),
                drop_self_loops: bool,
                chunk_edges in 1usize..400,
            ) {
                let edges: Vec<(u32, u32)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
                let el = MemEdgeList::new(n.into(), edges.clone());
                let opts = BuildOptions {
                    drop_self_loops,
                    chunk_edges,
                    ..Default::default()
                };
                let g = build_csr(&el, opts).unwrap();
                prop_assert_eq!(g, atomic_scatter_then_sort(n as usize, &edges, drop_self_loops));
            }

            /// Every input edge appears in both adjacency lists, and the
            /// total value count is exactly twice the edge count.
            #[test]
            fn csr_preserves_edges(
                edges in proptest::collection::vec((0u32..50, 0u32..50), 0..200)
            ) {
                let el = MemEdgeList::new(50, edges.clone());
                let g = build_csr(&el, BuildOptions::default()).unwrap();
                prop_assert_eq!(g.num_values(), 2 * edges.len() as u64);
                for &(u, v) in &edges {
                    prop_assert!(g.neighbors(u).contains(&v));
                    prop_assert!(g.neighbors(v).contains(&u));
                }
            }
        }
    }
}
