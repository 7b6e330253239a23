//! The neighbor-source abstraction shared by DRAM and semi-external
//! forward graphs.
//!
//! The top-down step is identical whether the forward graph lives in DRAM
//! or on NVM — only the way a neighbor sub-list is materialized differs.
//! [`DomainNeighbors`] abstracts "give me `v`'s neighbors that live in
//! domain `k`", and [`NeighborCtx`] carries the per-thread scratch (chunk
//! reader, decode buffers) the semi-external path needs, so the hot loop
//! allocates nothing.

use sembfs_semext::{ChunkedReader, NeighborBatch, Result, WindowScratch};

use crate::VertexId;

/// Per-thread scratch state for neighbor reads.
#[derive(Debug)]
pub struct NeighborCtx {
    /// The chunked reader used for external value spans.
    pub reader: ChunkedReader,
    /// Decoded neighbor buffer (reused across reads).
    pub buf: Vec<VertexId>,
    /// Raw byte scratch (reused across reads).
    pub scratch: Vec<u8>,
    /// When set, batch-capable sources serve
    /// [`DomainNeighbors::with_neighbors_batch`] through asynchronous
    /// batch submissions (the `libaio` aggregation of §VI-D) instead of
    /// one synchronous request per read.
    pub aggregate: bool,
    /// Scratch for batched reads.
    pub batch: NeighborBatch,
    /// Scratch for windowed reads and value prefetches.
    pub window: WindowScratch,
}

impl NeighborCtx {
    /// Scratch with a specific chunk reader (external graphs).
    pub fn new(reader: ChunkedReader) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            scratch: Vec::new(),
            aggregate: false,
            batch: NeighborBatch::new(),
            window: WindowScratch::default(),
        }
    }

    /// Scratch for DRAM-only graphs (the reader is never used).
    pub fn dram() -> Self {
        Self::new(ChunkedReader::unmerged())
    }

    /// Enable `libaio`-style batched submissions on batch-capable sources.
    pub fn with_aggregation(mut self) -> Self {
        self.aggregate = true;
        self
    }
}

impl Default for NeighborCtx {
    fn default() -> Self {
        Self::dram()
    }
}

/// A NUMA-partitioned neighbor source: for each `(domain, vertex)` pair,
/// the sub-list of `vertex`'s neighbors owned by `domain`.
pub trait DomainNeighbors: Send + Sync {
    /// Number of NUMA domains `ℓ`.
    fn num_domains(&self) -> usize;

    /// Number of vertices `n`.
    fn num_vertices(&self) -> u64;

    /// Total neighbor entries across all domains (`2M` for an undirected
    /// Graph500 instance).
    fn num_values(&self) -> u64;

    /// Total size in bytes of the structure (DRAM or NVM footprint).
    fn byte_size(&self) -> u64;

    /// True when neighbor reads are served from external memory (NVM),
    /// so every scanned edge is an NVM read. DRAM sources keep the
    /// default.
    fn is_external(&self) -> bool {
        false
    }

    /// Invoke `f` with the neighbors of `v` that live in domain `k`.
    ///
    /// The slice is only valid during the call; external implementations
    /// decode into `ctx.buf`.
    fn with_neighbors<R>(
        &self,
        k: usize,
        v: VertexId,
        ctx: &mut NeighborCtx,
        f: impl FnOnce(&[VertexId]) -> R,
    ) -> Result<R>;

    /// Degree of `v` within domain `k` (entries `f` would see).
    fn domain_degree(&self, k: usize, v: VertexId, ctx: &mut NeighborCtx) -> Result<u64> {
        self.with_neighbors(k, v, ctx, |ns| ns.len() as u64)
    }

    /// Start loading the domain-`k` index entries of `vs` ahead of their
    /// neighbor reads. A best-effort hint that never fails; the default
    /// (DRAM sources) does nothing.
    fn prefetch_index(&self, _k: usize, _vs: &[VertexId]) {}

    /// Start loading the domain-`k` neighbor lists of `vs` ahead of their
    /// reads, once [`prefetch_index`](Self::prefetch_index) has brought
    /// their index entries in (`ctx` holds the index read's scratch). A
    /// best-effort hint that never fails; the default (DRAM sources) does
    /// nothing.
    fn prefetch_values(&self, _k: usize, _vs: &[VertexId], _ctx: &mut NeighborCtx) {}

    /// Visit the domain-`k` neighbor lists of all of `vs`, invoking
    /// `f(v, neighbors)` per vertex in slice order. The default loops over
    /// [`with_neighbors`](Self::with_neighbors); semi-external sources
    /// override it to read nearby vertices of an ascending `vs` in shared
    /// page windows on a caching store, or to submit the whole batch
    /// asynchronously when `ctx.aggregate` is set (§VI-D's aggregation).
    fn with_neighbors_batch(
        &self,
        k: usize,
        vs: &[VertexId],
        ctx: &mut NeighborCtx,
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> Result<()> {
        for &v in vs {
            self.with_neighbors(k, v, ctx, |ns| f(v, ns))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_default_is_dram() {
        let ctx = NeighborCtx::default();
        assert_eq!(ctx.reader, ChunkedReader::unmerged());
        assert!(ctx.buf.is_empty());
    }
}
