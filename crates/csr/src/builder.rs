//! Parallel CSR construction from (possibly external) edge lists.
//!
//! Two passes over the edge list, both chunk-parallel: count per-vertex
//! degrees with relaxed atomics, prefix-sum into the index array, then
//! scatter neighbors through per-vertex atomic cursors. The edge list is
//! only ever *streamed*, so construction works identically whether the
//! list sits in DRAM or on (simulated) NVM — exactly the paper's Step 2,
//! which builds both graphs "by directly reading the edge list from NVM".
//! Every adjacency list is then sorted ascending: the bottom-up kernel's
//! first frontier hit is the smallest frontier neighbour only on sorted
//! lists (see [`CsrGraph`]).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use sembfs_graph500::edge_list::EdgeList;
use sembfs_semext::Result;

use crate::graph::{sort_rows, CsrGraph};
use crate::VertexId;

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
    /// Edge-list chunk size (edges per parallel task).
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

    // Pass 1: degree count.
    let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    edges.par_visit_chunks(opts.chunk_edges, &|_, chunk| {
        for &(u, v) in chunk {
            if opts.drop_self_loops && u == v {
                continue;
            }
            counts[u as usize].fetch_add(1, Ordering::Relaxed);
            counts[v as usize].fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    })?;

    // Prefix sum → index array.
    let mut index = Vec::with_capacity(n + 1);
    index.push(0u64);
    let mut acc = 0u64;
    for c in &counts {
        acc += c.load(Ordering::Relaxed) as u64;
        index.push(acc);
    }
    let total = acc as usize;

    // Pass 2: scatter through per-vertex cursors.
    let cursors: Vec<AtomicU64> = index[..n].iter().map(|&off| AtomicU64::new(off)).collect();
    let values: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
    edges.par_visit_chunks(opts.chunk_edges, &|_, chunk| {
        for &(u, v) in chunk {
            if opts.drop_self_loops && u == v {
                continue;
            }
            let pu = cursors[u as usize].fetch_add(1, Ordering::Relaxed);
            values[pu as usize].store(v, Ordering::Relaxed);
            let pv = cursors[v as usize].fetch_add(1, Ordering::Relaxed);
            values[pv as usize].store(u, Ordering::Relaxed);
        }
        Ok(())
    })?;

    let mut values: Vec<VertexId> = values.into_iter().map(AtomicU32::into_inner).collect();
    sort_rows(&index, &mut values);
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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
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
