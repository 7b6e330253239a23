//! The backward graph: source-partitioned CSR for the bottom-up phase,
//! and its partially-offloaded split form (§V-C, §VI-E).
//!
//! Because NETAL's vertex partition is by contiguous ranges, "one CSR per
//! domain" for the backward graph is simply a range view over one full
//! CSR — domain `k` scans its own vertices `[k·n/ℓ, (k+1)·n/ℓ)` with their
//! complete neighbor lists ([`BackwardGraph`]).
//!
//! [`SplitBackwardGraph`] implements the §VI-E extension the paper
//! measures but leaves unimplemented ("although unsupported in our current
//! implementation"): only the first `k_limit` neighbors of each vertex
//! stay in DRAM (the hot head — bottom-up usually terminates within a few
//! probes), while the tail is offloaded to external memory and streamed
//! only when the head is exhausted.
//!
//! Both keep a mask of the vertices with no edge at all (n/8 bytes of
//! DRAM, built from the CSR): the bottom-up step never probes them, so a
//! graph's isolated vertices cost no index read, and no tail read on a
//! split layout, at any level.
//!
//! Both are also top-down sources ([`DomainNeighbors`]) with one domain
//! holding each whole ascending row: the destination side of a
//! bidirectional search expands through the backward graph in both
//! directions.

use sembfs_numa::RangePartition;
use sembfs_semext::ext_csr::ExtCsr;
use sembfs_semext::{ReadAt, Result};

use crate::graph::{zeroed_in_order, CsrGraph};
use crate::neighbors::{DomainNeighbors, NeighborCtx};
use crate::VertexId;

/// Backward graph fully in DRAM: a full CSR, the domain partition and
/// the edgeless-vertex mask.
#[derive(Debug, Clone)]
pub struct BackwardGraph {
    csr: CsrGraph,
    partition: RangePartition,
    edgeless: Vec<u64>,
}

impl BackwardGraph {
    /// Wrap a full CSR with its domain partition.
    ///
    /// # Panics
    /// Panics when the vertex counts disagree.
    pub fn new(csr: CsrGraph, partition: RangePartition) -> Self {
        assert_eq!(csr.num_vertices(), partition.num_vertices());
        let edgeless = csr.edgeless_mask();
        Self {
            csr,
            partition,
            edgeless,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.csr.num_vertices()
    }

    /// The domain partition.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// Full neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.csr.degree(v)
    }

    /// The vertices with no edge, as [`CsrGraph::edgeless_mask`] words.
    #[inline]
    pub fn edgeless_words(&self) -> &[u64] {
        &self.edgeless
    }

    /// The underlying CSR.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// DRAM footprint in bytes: the CSR and the edgeless mask.
    pub fn byte_size(&self) -> u64 {
        self.csr.byte_size() + self.edgeless.len() as u64 * 8
    }
}

/// One domain: each vertex's whole row.
impl DomainNeighbors for BackwardGraph {
    fn num_domains(&self) -> usize {
        1
    }

    fn num_vertices(&self) -> u64 {
        self.csr.num_vertices()
    }

    fn num_values(&self) -> u64 {
        self.csr.num_values()
    }

    fn byte_size(&self) -> u64 {
        BackwardGraph::byte_size(self)
    }

    fn with_neighbors<R>(
        &self,
        _k: usize,
        v: VertexId,
        _ctx: &mut NeighborCtx,
        f: impl FnOnce(&[VertexId]) -> R,
    ) -> Result<R> {
        Ok(f(self.csr.neighbors(v)))
    }
}

/// Split a CSR into a DRAM head (first `k_limit` neighbors per vertex) and
/// an external tail (the rest). Returns `(head, tail_index, tail_values)`;
/// the tail arrays are written to files by the caller.
pub fn split_csr(csr: &CsrGraph, k_limit: u64) -> (CsrGraph, Vec<u64>, Vec<VertexId>) {
    let n = csr.num_vertices() as usize;
    let mut head_index: Vec<u64> = zeroed_in_order(n + 1);
    let mut tail_index: Vec<u64> = zeroed_in_order(n + 1);
    for v in 0..n {
        let degree = csr.degree(v as VertexId);
        let cut = k_limit.min(degree);
        head_index[v + 1] = head_index[v] + cut;
        tail_index[v + 1] = tail_index[v] + degree - cut;
    }
    let mut head_values = zeroed_in_order(head_index[n] as usize);
    let mut tail_values = zeroed_in_order(tail_index[n] as usize);
    for v in 0..n {
        let ns = csr.neighbors(v as VertexId);
        let (head, tail) = ns.split_at((head_index[v + 1] - head_index[v]) as usize);
        head_values[head_index[v] as usize..head_index[v + 1] as usize].copy_from_slice(head);
        tail_values[tail_index[v] as usize..tail_index[v + 1] as usize].copy_from_slice(tail);
    }
    (
        CsrGraph::new(head_index, head_values),
        tail_index,
        tail_values,
    )
}

/// Backward graph with its cold tail offloaded: DRAM head + external tail.
#[derive(Debug)]
pub struct SplitBackwardGraph<R> {
    head: CsrGraph,
    tail: ExtCsr<R>,
    partition: RangePartition,
    k_limit: u64,
    edgeless: Vec<u64>,
}

impl<R: ReadAt> SplitBackwardGraph<R> {
    /// Assemble from a DRAM head, an external tail CSR and the full CSR's
    /// [`CsrGraph::edgeless_mask`]. The mask comes from the full graph
    /// because at `k_limit = 0` the head has no row to tell an edgeless
    /// vertex from one whose whole list is in the tail.
    ///
    /// # Panics
    /// Panics when shapes disagree.
    pub fn new(
        head: CsrGraph,
        tail: ExtCsr<R>,
        partition: RangePartition,
        k_limit: u64,
        edgeless: Vec<u64>,
    ) -> Self {
        assert_eq!(head.num_vertices(), partition.num_vertices());
        assert_eq!(tail.num_vertices(), head.num_vertices());
        assert_eq!(
            edgeless.len() as u64,
            head.num_vertices().div_ceil(64),
            "one mask bit per vertex"
        );
        Self {
            head,
            tail,
            partition,
            k_limit,
            edgeless,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.head.num_vertices()
    }

    /// The per-vertex DRAM neighbor limit.
    pub fn k_limit(&self) -> u64 {
        self.k_limit
    }

    /// The domain partition.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// The hot head neighbors of `v` (in DRAM).
    #[inline]
    pub fn head_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.head.neighbors(v)
    }

    /// Hint the cache to load the first line of `v`'s head row
    /// ([`CsrGraph::prefetch_row`]).
    #[inline(always)]
    pub fn prefetch_head_row(&self, v: VertexId) {
        self.head.prefetch_row(v)
    }

    /// Number of tail (offloaded) neighbors of `v`. Zero storage requests
    /// (the tail index is consulted via the head shape only when needed —
    /// this uses the external index, so it does issue a request unless the
    /// index is pinned; pin with [`ExtCsr::with_dram_index`] upstream).
    pub fn tail_degree(&self, v: VertexId) -> Result<u64> {
        self.tail.degree(v as u64)
    }

    /// Stream the offloaded tail neighbors of `v` into `ctx.buf` and hand
    /// them to `f`. Issues storage requests on the tail's device.
    pub fn with_tail_neighbors<T>(
        &self,
        v: VertexId,
        ctx: &mut NeighborCtx,
        f: impl FnOnce(&[VertexId]) -> T,
    ) -> Result<T> {
        let NeighborCtx {
            reader,
            buf,
            scratch,
            ..
        } = ctx;
        self.tail.read_neighbors(v as u64, reader, buf, scratch)?;
        Ok(f(buf))
    }

    /// The vertices with no edge, as [`CsrGraph::edgeless_mask`] words.
    #[inline]
    pub fn edgeless_words(&self) -> &[u64] {
        &self.edgeless
    }

    /// DRAM footprint: the head and the edgeless mask.
    pub fn dram_byte_size(&self) -> u64 {
        self.head.byte_size() + self.edgeless.len() as u64 * 8
    }

    /// External footprint (tail index + values).
    pub fn nvm_byte_size(&self) -> u64 {
        self.tail.byte_size()
    }
}

/// One domain: each vertex's head, then its tail read from the device
/// after it in `ctx.buf`.
impl<R: ReadAt> DomainNeighbors for SplitBackwardGraph<R> {
    fn num_domains(&self) -> usize {
        1
    }

    fn num_vertices(&self) -> u64 {
        self.head.num_vertices()
    }

    fn num_values(&self) -> u64 {
        self.head.num_values() + self.tail.num_values()
    }

    fn byte_size(&self) -> u64 {
        self.dram_byte_size() + self.nvm_byte_size()
    }

    fn with_neighbors<T>(
        &self,
        _k: usize,
        v: VertexId,
        ctx: &mut NeighborCtx,
        f: impl FnOnce(&[VertexId]) -> T,
    ) -> Result<T> {
        let head = self.head.neighbors(v);
        let NeighborCtx {
            reader,
            buf,
            scratch,
            ..
        } = ctx;
        // An empty tail span issues no read.
        self.tail.read_neighbors(v as u64, reader, buf, scratch)?;
        if buf.is_empty() {
            return Ok(f(head));
        }
        buf.splice(0..0, head.iter().copied());
        Ok(f(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_csr, BuildOptions};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_semext::ext_csr::write_csr_files;
    use sembfs_semext::{FileBackend, TempDir};

    fn star_plus_path() -> CsrGraph {
        // Vertex 0 is a hub with 6 neighbors; 7-8-9 a path.
        let el = MemEdgeList::new(
            10,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (7, 8),
                (8, 9),
            ],
        );
        build_csr(&el, BuildOptions::default()).unwrap()
    }

    #[test]
    fn backward_graph_ranges() {
        let csr = star_plus_path();
        let bg = BackwardGraph::new(csr.clone(), RangePartition::new(10, 2));
        assert_eq!(bg.partition().range(0), 0..5);
        assert_eq!(bg.partition().range(1), 5..10);
        assert_eq!(bg.neighbors(0), csr.neighbors(0));
        // The CSR plus one mask word per 64 vertices.
        assert_eq!(bg.byte_size(), csr.byte_size() + 8);
        assert_eq!(bg.edgeless_words(), &[0]);
    }

    #[test]
    fn split_preserves_order_and_content() {
        let csr = star_plus_path();
        let (head, tail_index, tail_values) = split_csr(&csr, 2);
        for v in 0..10u32 {
            let full = csr.neighbors(v);
            let h = head.neighbors(v);
            let ts = tail_index[v as usize] as usize;
            let te = tail_index[v as usize + 1] as usize;
            let t = &tail_values[ts..te];
            assert_eq!(h.len(), full.len().min(2), "vertex {v}");
            let mut joined = h.to_vec();
            joined.extend_from_slice(t);
            assert_eq!(joined, full, "vertex {v}");
        }
    }

    #[test]
    fn split_zero_keeps_nothing_in_dram() {
        let csr = star_plus_path();
        let (head, _, tail_values) = split_csr(&csr, 0);
        assert_eq!(head.num_values(), 0);
        assert_eq!(tail_values.len() as u64, csr.num_values());
    }

    #[test]
    fn split_large_keeps_everything_in_dram() {
        let csr = star_plus_path();
        let (head, _, tail_values) = split_csr(&csr, 1000);
        assert_eq!(head.num_values(), csr.num_values());
        assert!(tail_values.is_empty());
    }

    #[test]
    fn split_backward_graph_reads_tail() {
        let csr = star_plus_path();
        let (head, tail_index, tail_values) = split_csr(&csr, 2);
        let dir = TempDir::new("split-bg").unwrap();
        let ip = dir.path().join("bg-tail.index");
        let vp = dir.path().join("bg-tail.values");
        write_csr_files(&ip, &vp, &tail_index, &tail_values).unwrap();
        let tail = ExtCsr::new(
            FileBackend::open(&ip).unwrap(),
            FileBackend::open(&vp).unwrap(),
        )
        .unwrap()
        .with_dram_index()
        .unwrap();

        let sbg = SplitBackwardGraph::new(
            head,
            tail,
            RangePartition::new(10, 2),
            2,
            csr.edgeless_mask(),
        );
        assert_eq!(sbg.k_limit(), 2);
        assert_eq!(sbg.head_neighbors(0), &[1, 2]);
        assert_eq!(sbg.tail_degree(0).unwrap(), 4);
        let mut ctx = NeighborCtx::dram();
        let t = sbg
            .with_tail_neighbors(0, &mut ctx, |ns| ns.to_vec())
            .unwrap();
        assert_eq!(t, vec![3, 4, 5, 6]);
        // Path vertices have no tail at limit 2.
        assert_eq!(sbg.tail_degree(8).unwrap(), 0);
        assert!(sbg.dram_byte_size() < csr.byte_size());
    }

    /// As top-down sources both graphs serve each whole ascending row
    /// from one domain; the split graph appends the tail to the head.
    #[test]
    fn backward_graphs_are_one_domain_row_sources() {
        let csr = star_plus_path();
        let (head, tail_index, tail_values) = split_csr(&csr, 2);
        let dir = TempDir::new("split-rows").unwrap();
        let ip = dir.path().join("bg-tail.index");
        let vp = dir.path().join("bg-tail.values");
        write_csr_files(&ip, &vp, &tail_index, &tail_values).unwrap();
        let tail = ExtCsr::new(
            FileBackend::open(&ip).unwrap(),
            FileBackend::open(&vp).unwrap(),
        )
        .unwrap();
        let part = RangePartition::new(10, 2);
        let split = SplitBackwardGraph::new(head, tail, part.clone(), 2, csr.edgeless_mask());
        let full = BackwardGraph::new(csr.clone(), part);
        assert_eq!(DomainNeighbors::num_domains(&full), 1);
        assert_eq!(DomainNeighbors::num_domains(&split), 1);
        assert_eq!(DomainNeighbors::num_values(&split), csr.num_values());
        let mut ctx = NeighborCtx::dram();
        for v in 0..10u32 {
            let a = full
                .with_neighbors(0, v, &mut ctx, |ns| ns.to_vec())
                .unwrap();
            let b = split
                .with_neighbors(0, v, &mut ctx, |ns| ns.to_vec())
                .unwrap();
            assert_eq!(a, csr.neighbors(v), "vertex {v}");
            assert_eq!(b, csr.neighbors(v), "vertex {v}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// split_csr partitions each sorted adjacency list at
            /// min(k, deg) preserving order, for arbitrary graphs and
            /// limits: the DRAM head holds the k smallest neighbours.
            #[test]
            fn split_partitions_cleanly(
                adj in proptest::collection::vec(
                    proptest::collection::vec(0u32..64, 0..30), 1..30),
                k in 0u64..20,
            ) {
                let csr = CsrGraph::from_adjacency(&adj);
                let (head, ti, tv) = split_csr(&csr, k);
                prop_assert_eq!(head.num_values() + tv.len() as u64, csr.num_values());
                for (v, list) in adj.iter().enumerate() {
                    let h = head.neighbors(v as VertexId);
                    let t = &tv[ti[v] as usize..ti[v + 1] as usize];
                    let mut joined = h.to_vec();
                    joined.extend_from_slice(t);
                    let mut want = list.clone();
                    want.sort_unstable();
                    prop_assert_eq!(&joined, &want);
                    prop_assert!(h.len() as u64 <= k);
                }
            }
        }
    }
}
