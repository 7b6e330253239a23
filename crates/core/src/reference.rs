//! Serial top-down BFS — the "reference implementation of Graph500
//! v2.1.4" baseline in Figs. 8/9, in *canonical min-parent* form.
//!
//! The official reference code is a sequential queue-based top-down BFS
//! over a CSR; the paper reports it at 0.04 GTEPS on the DRAM-only
//! machine, two orders of magnitude below NETAL. This reproduction keeps
//! the algorithm (one thread, no direction switching) but runs it
//! level-synchronously with the frontier iterated in ascending vertex
//! order, so every discovered vertex ends up with the **smallest**
//! frontier neighbor as its parent. That canonical tie-break is what the
//! step kernels reproduce — top-down with a `fetch_min` claim, bottom-up
//! with the first hit on a sorted adjacency list — making this baseline
//! the bit-exact oracle for the differential harness at any thread count,
//! direction schedule, and data layout.

use sembfs_csr::CsrGraph;

use crate::{VertexId, INVALID_PARENT};

/// Result of the reference BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceRun {
    /// Parent array.
    pub parent: Vec<VertexId>,
    /// Vertices reached (including the root).
    pub visited: u64,
    /// Neighbor entries examined.
    pub scanned_edges: u64,
}

/// Serial level-synchronous top-down BFS over a full CSR.
///
/// The frontier is expanded in ascending vertex order and re-sorted per
/// level, so first-claim order equals min-parent order: each vertex's
/// parent is its smallest neighbor in the previous level. Totals
/// (`visited`, `scanned_edges`) are identical to the FIFO formulation —
/// only the tie-break among equal-level parents is pinned down.
pub fn reference_bfs(csr: &CsrGraph, root: VertexId) -> ReferenceRun {
    let n = csr.num_vertices() as usize;
    assert!((root as usize) < n, "root out of range");
    let mut parent = vec![INVALID_PARENT; n];
    parent[root as usize] = root;
    let mut frontier = vec![root];
    let mut visited = 1u64;
    let mut scanned = 0u64;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in csr.neighbors(v) {
                scanned += 1;
                if parent[w as usize] == INVALID_PARENT {
                    parent[w as usize] = v;
                    visited += 1;
                    next.push(w);
                }
            }
        }
        // Ascending order for the next level keeps the min-parent
        // invariant even when neighbor lists are unsorted.
        next.sort_unstable();
        frontier = next;
    }
    ReferenceRun {
        parent,
        visited,
        scanned_edges: scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sembfs_csr::{build_csr, BuildOptions};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_graph500::validate_bfs_tree;

    fn csr(edges: Vec<(u32, u32)>, n: u64) -> CsrGraph {
        build_csr(&MemEdgeList::new(n, edges), BuildOptions::default()).unwrap()
    }

    #[test]
    fn path_graph_levels() {
        let g = csr(vec![(0, 1), (1, 2), (2, 3)], 4);
        let run = reference_bfs(&g, 0);
        assert_eq!(run.parent, vec![0, 0, 1, 2]);
        assert_eq!(run.visited, 4);
        // Each edge inspected from both endpoints.
        assert_eq!(run.scanned_edges, 6);
    }

    #[test]
    fn disconnected_vertices_unreached() {
        let g = csr(vec![(0, 1)], 4);
        let run = reference_bfs(&g, 0);
        assert_eq!(run.parent[2], INVALID_PARENT);
        assert_eq!(run.parent[3], INVALID_PARENT);
        assert_eq!(run.visited, 2);
    }

    #[test]
    fn result_validates_on_kronecker() {
        let p = sembfs_graph500::KroneckerParams::graph500(10, 4);
        let el = p.generate();
        let g = build_csr(&el, BuildOptions::default()).unwrap();
        // Pick a root with edges.
        let root = (0..g.num_vertices() as u32)
            .find(|&v| g.degree(v) > 0)
            .unwrap();
        let run = reference_bfs(&g, root);
        let report = validate_bfs_tree(&run.parent, root, &el).unwrap();
        assert_eq!(report.visited, run.visited);
    }

    #[test]
    fn self_loop_only_vertex() {
        let g = csr(vec![(0, 0)], 1);
        let run = reference_bfs(&g, 0);
        assert_eq!(run.visited, 1);
        assert_eq!(run.scanned_edges, 2);
    }
}
