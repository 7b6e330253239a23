//! The forward graph: destination-partitioned CSR for the top-down phase.
//!
//! Per §V-B2 / Fig. 6, each vertex's neighbor list is split by the NUMA
//! domain owning the *destination* vertex: domain `k` holds a CSR over all
//! `n` source vertices whose values are only the neighbors inside `k`'s
//! vertex range. A thread bound to domain `k` expands frontier vertices
//! against `k`'s sub-CSR exclusively, so all `tree`/bitmap writes stay
//! domain-local (the frontier itself is conceptually duplicated per
//! domain).
//!
//! [`DramForwardGraph`] keeps the per-domain CSRs in DRAM (the *DRAM-only*
//! scenario); [`ExtForwardGraph`] reads them from index/value files —
//! "twice as many files as the number of NUMA nodes" (§V-B2) — through any
//! [`ReadAt`] store, typically a metered
//! [`NvmStore`](sembfs_semext::NvmStore).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use rayon::prelude::*;
use sembfs_numa::RangePartition;
use sembfs_semext::ext_csr::ExtCsr;
use sembfs_semext::{ReadAt, Result};

use crate::graph::{zeroed_in_order, CsrGraph};
use crate::neighbors::{DomainNeighbors, NeighborCtx};
use crate::VertexId;

/// Row `v` of `csr` cut to the neighbors inside `range` (one domain's
/// vertex range): rows are ascending, so the cut is two binary searches.
// Called twice per vertex and domain: left out of line in
// `DramForwardGraph::from_csr`, the call made the DRAM layout build about
// 5% slower at SCALE 20.
#[inline(always)]
fn domain_row<'a>(csr: &'a CsrGraph, range: &Range<u64>, v: VertexId) -> &'a [VertexId] {
    let row = csr.neighbors(v);
    let lo = row.partition_point(|&w| u64::from(w) < range.start);
    let hi = row.partition_point(|&w| u64::from(w) < range.end);
    &row[lo..hi]
}

/// Write the forward graph of `csr` as the `fg-<k>.index` /
/// `fg-<k>.values` files in `dir` ("offload the constructed forward graph
/// to NVM", §V-A) without building it in DRAM: one pass over the CSR rows
/// per domain, one domain at a time, streams both of the domain's files.
/// They hold exactly the little-endian arrays
/// [`DramForwardGraph::from_csr`] builds. Returns the per-domain file
/// paths.
pub fn write_forward_files(
    csr: &CsrGraph,
    partition: &RangePartition,
    dir: impl AsRef<Path>,
) -> Result<Vec<(PathBuf, PathBuf)>> {
    assert_eq!(partition.num_vertices(), csr.num_vertices());
    let dir = dir.as_ref();
    let create = |path: &Path| -> Result<BufWriter<File>> {
        Ok(BufWriter::with_capacity(1 << 20, File::create(path)?))
    };
    // Row by row into both files in one pass: two element-by-element
    // `write_array_stream` passes made the SCALE-16 layout build about a
    // third slower.
    let mut row_bytes = Vec::new();
    (0..partition.num_domains())
        .map(|k| {
            let range = partition.range(k);
            let ip = dir.join(format!("fg-{k}.index"));
            let vp = dir.join(format!("fg-{k}.values"));
            let (mut index, mut values) = (create(&ip)?, create(&vp)?);
            let mut end = 0u64;
            index.write_all(&end.to_le_bytes())?;
            for v in 0..csr.num_vertices() {
                let row = domain_row(csr, &range, v as VertexId);
                row_bytes.clear();
                row_bytes.extend(row.iter().flat_map(|w| w.to_le_bytes()));
                values.write_all(&row_bytes)?;
                end += row.len() as u64;
                index.write_all(&end.to_le_bytes())?;
            }
            index.flush()?;
            values.flush()?;
            Ok((ip, vp))
        })
        .collect()
}

/// Forward graph in DRAM: one destination-filtered CSR per domain.
#[derive(Debug, Clone)]
pub struct DramForwardGraph {
    domains: Vec<CsrGraph>,
    partition: RangePartition,
}

impl DramForwardGraph {
    /// Build from a full undirected CSR by cutting every (ascending)
    /// adjacency list at the domain boundaries; domains in parallel.
    pub fn from_csr(csr: &CsrGraph, partition: &RangePartition) -> Self {
        assert_eq!(partition.num_vertices(), csr.num_vertices());
        let n = csr.num_vertices() as usize;
        let domains = (0..partition.num_domains())
            .into_par_iter()
            .map(|k| {
                let range = partition.range(k);
                let mut index: Vec<u64> = zeroed_in_order(n + 1);
                for v in 0..n {
                    let len = domain_row(csr, &range, v as VertexId).len() as u64;
                    index[v + 1] = index[v] + len;
                }
                let mut values = zeroed_in_order(index[n] as usize);
                for (v, span) in index.windows(2).enumerate() {
                    values[span[0] as usize..span[1] as usize].copy_from_slice(domain_row(
                        csr,
                        &range,
                        v as VertexId,
                    ));
                }
                CsrGraph::new(index, values)
            })
            .collect();

        Self {
            domains,
            partition: partition.clone(),
        }
    }

    /// The partition the graph was built with.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// Domain `k`'s sub-CSR.
    pub fn domain(&self, k: usize) -> &CsrGraph {
        &self.domains[k]
    }
}

impl DomainNeighbors for DramForwardGraph {
    fn num_domains(&self) -> usize {
        self.domains.len()
    }

    fn num_vertices(&self) -> u64 {
        self.partition.num_vertices()
    }

    fn num_values(&self) -> u64 {
        self.domains.iter().map(CsrGraph::num_values).sum()
    }

    fn byte_size(&self) -> u64 {
        self.domains.iter().map(CsrGraph::byte_size).sum()
    }

    fn with_neighbors<R>(
        &self,
        k: usize,
        v: VertexId,
        _ctx: &mut NeighborCtx,
        f: impl FnOnce(&[VertexId]) -> R,
    ) -> Result<R> {
        Ok(f(self.domains[k].neighbors(v)))
    }
}

/// Forward graph on (semi-)external memory: one [`ExtCsr`] per domain.
#[derive(Debug)]
pub struct ExtForwardGraph<R> {
    domains: Vec<ExtCsr<R>>,
    partition: RangePartition,
}

impl<R: ReadAt> ExtForwardGraph<R> {
    /// Assemble from per-domain external CSRs (one per partition domain).
    ///
    /// # Panics
    /// Panics when the domain count or vertex counts are inconsistent.
    pub fn new(domains: Vec<ExtCsr<R>>, partition: RangePartition) -> Self {
        assert_eq!(domains.len(), partition.num_domains(), "one CSR per domain");
        for d in &domains {
            assert_eq!(
                d.num_vertices(),
                partition.num_vertices(),
                "every domain CSR spans all source vertices"
            );
        }
        Self { domains, partition }
    }

    /// The partition the graph was built with.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// Domain `k`'s external CSR.
    pub fn domain(&self, k: usize) -> &ExtCsr<R> {
        &self.domains[k]
    }

    /// Pin every domain's index array in DRAM (ablation knob; the paper's
    /// baseline reads indices from NVM).
    pub fn with_dram_index(self) -> Result<Self> {
        let domains = self
            .domains
            .into_iter()
            .map(ExtCsr::with_dram_index)
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            domains,
            partition: self.partition,
        })
    }
}

impl<R: ReadAt> DomainNeighbors for ExtForwardGraph<R> {
    fn num_domains(&self) -> usize {
        self.domains.len()
    }

    fn num_vertices(&self) -> u64 {
        self.partition.num_vertices()
    }

    fn num_values(&self) -> u64 {
        self.domains.iter().map(ExtCsr::num_values).sum()
    }

    fn byte_size(&self) -> u64 {
        self.domains.iter().map(ExtCsr::byte_size).sum()
    }

    fn is_external(&self) -> bool {
        true
    }

    fn prefetch_index(&self, k: usize, vs: &[VertexId]) {
        self.domains[k].prefetch_index(vs);
    }

    fn prefetch_values(&self, k: usize, vs: &[VertexId], ctx: &mut NeighborCtx) {
        self.domains[k].prefetch_values(vs, &mut ctx.window);
    }

    fn with_neighbors<R2>(
        &self,
        k: usize,
        v: VertexId,
        ctx: &mut NeighborCtx,
        f: impl FnOnce(&[VertexId]) -> R2,
    ) -> Result<R2> {
        let NeighborCtx {
            reader,
            buf,
            scratch,
            ..
        } = ctx;
        self.domains[k].read_neighbors(v as u64, reader, buf, scratch)?;
        Ok(f(buf))
    }

    fn with_neighbors_batch(
        &self,
        k: usize,
        vs: &[VertexId],
        ctx: &mut NeighborCtx,
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> Result<()> {
        let d = &self.domains[k];
        if !ctx.aggregate {
            // A caching store serves the (ascending) unit in page windows,
            // one cache lookup per page. Uncached stores keep one read per
            // vertex, so their device requests stay as they were, and a
            // store under read faults (which does not prefetch either)
            // keeps one fault draw per vertex read.
            if d.values().store().prefetches() {
                return d.for_each_neighbors(vs, &ctx.reader, &mut ctx.window, f);
            }
            for &v in vs {
                self.with_neighbors(k, v, ctx, |ns| f(v, ns))?;
            }
            return Ok(());
        }
        // §VI-D aggregation: one batched submission for the whole dequeue
        // batch (the paper dequeues 64 vertices at a time, §V-C).
        ctx.scratch.clear();
        let ids: Vec<u64> = vs.iter().map(|&v| v as u64).collect();
        d.read_neighbors_batch(&ids, &ctx.reader, &mut ctx.batch)?;
        for (i, &v) in vs.iter().enumerate() {
            f(v, &ctx.batch.outs[i]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_csr, BuildOptions};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_graph500::KroneckerParams;
    use sembfs_semext::ext_csr::write_csr_files;
    use sembfs_semext::{FileBackend, TempDir};

    fn sample() -> (CsrGraph, RangePartition) {
        // 8 vertices, 2 domains: [0..4) and [4..8).
        let el = MemEdgeList::new(
            8,
            vec![
                (0, 1),
                (0, 4),
                (0, 7),
                (1, 5),
                (2, 3),
                (4, 5),
                (6, 7),
                (3, 4),
            ],
        );
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        (csr, RangePartition::new(8, 2))
    }

    #[test]
    fn domain_split_covers_all_neighbors() {
        let (csr, part) = sample();
        let fg = DramForwardGraph::from_csr(&csr, &part);
        assert_eq!(fg.num_values(), csr.num_values());
        let mut ctx = NeighborCtx::dram();
        for v in 0..8u32 {
            let mut combined: Vec<u32> = Vec::new();
            for k in 0..2 {
                fg.with_neighbors(k, v, &mut ctx, |ns| {
                    // Every neighbor must belong to domain k.
                    for &w in ns {
                        assert_eq!(part.domain_of(w as u64), k, "v {v} w {w}");
                    }
                    combined.extend_from_slice(ns);
                })
                .unwrap();
            }
            let mut expect = csr.neighbors(v).to_vec();
            expect.sort_unstable();
            combined.sort_unstable();
            assert_eq!(combined, expect, "vertex {v}");
        }
    }

    #[test]
    fn byte_size_exceeds_plain_csr_due_to_duplicated_index() {
        // The paper notes the forward graph is larger than the backward
        // graph: the index array is replicated per domain.
        let (csr, part) = sample();
        let fg = DramForwardGraph::from_csr(&csr, &part);
        assert!(fg.byte_size() > csr.byte_size());
        assert_eq!(
            fg.byte_size(),
            csr.values().len() as u64 * 4 + 2 * (csr.num_vertices() + 1) * 8
        );
    }

    #[test]
    fn external_matches_dram() {
        let p = KroneckerParams::graph500(8, 21);
        let el = p.generate();
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let part = RangePartition::new(csr.num_vertices(), 4);
        let fg = DramForwardGraph::from_csr(&csr, &part);

        let dir = TempDir::new("fwd-ext").unwrap();
        let paths = write_forward_files(&csr, &part, dir.path()).unwrap();
        assert_eq!(paths.len(), 4); // 2·ℓ files total, ℓ pairs

        let ext = ExtForwardGraph::new(
            paths
                .iter()
                .map(|(ip, vp)| {
                    ExtCsr::new(
                        FileBackend::open(ip).unwrap(),
                        FileBackend::open(vp).unwrap(),
                    )
                    .unwrap()
                })
                .collect(),
            part.clone(),
        );
        assert_eq!(ext.num_values(), fg.num_values());
        assert_eq!(ext.byte_size(), fg.byte_size());

        let mut dctx = NeighborCtx::dram();
        let mut ectx = NeighborCtx::dram();
        for v in (0..csr.num_vertices() as u32).step_by(17) {
            for k in 0..4 {
                let a = fg
                    .with_neighbors(k, v, &mut dctx, |ns| ns.to_vec())
                    .unwrap();
                let b = ext
                    .with_neighbors(k, v, &mut ectx, |ns| ns.to_vec())
                    .unwrap();
                assert_eq!(a, b, "v {v} k {k}");
            }
        }
    }

    #[test]
    fn streamed_files_hold_the_dram_forward_graph() {
        let el = KroneckerParams::graph500(12, 3).generate();
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        for domains in [1, 3, 4] {
            let part = RangePartition::new(csr.num_vertices(), domains);
            let fg = DramForwardGraph::from_csr(&csr, &part);
            let dir = TempDir::new("fwd-stream").unwrap();
            let paths = write_forward_files(&csr, &part, dir.path()).unwrap();
            assert_eq!(paths.len(), domains);
            let want = TempDir::new("fwd-dram").unwrap();
            for (k, (ip, vp)) in paths.iter().enumerate() {
                let (wi, wv) = (want.path().join("index"), want.path().join("values"));
                let g = fg.domain(k);
                write_csr_files(&wi, &wv, g.index(), g.values()).unwrap();
                let read = |p: &PathBuf| std::fs::read(p).unwrap();
                assert!(read(ip) == read(&wi), "{domains} domains: fg-{k}.index");
                assert!(read(vp) == read(&wv), "{domains} domains: fg-{k}.values");
            }
        }
    }

    #[test]
    fn dram_index_variant_agrees() {
        let (csr, part) = sample();
        let dir = TempDir::new("fwd-idx").unwrap();
        let paths = write_forward_files(&csr, &part, dir.path()).unwrap();
        let ext = ExtForwardGraph::new(
            paths
                .iter()
                .map(|(ip, vp)| {
                    ExtCsr::new(
                        FileBackend::open(ip).unwrap(),
                        FileBackend::open(vp).unwrap(),
                    )
                    .unwrap()
                })
                .collect(),
            part,
        )
        .with_dram_index()
        .unwrap();
        let mut ctx = NeighborCtx::dram();
        let deg: u64 = (0..8u32)
            .map(|v| {
                (0..2)
                    .map(|k| ext.domain_degree(k, v, &mut ctx).unwrap())
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(deg, csr.num_values());
    }

    #[test]
    fn single_domain_forward_is_the_whole_graph() {
        let (csr, _) = sample();
        let part = RangePartition::new(8, 1);
        let fg = DramForwardGraph::from_csr(&csr, &part);
        let mut ctx = NeighborCtx::dram();
        for v in 0..8u32 {
            let ns = fg.with_neighbors(0, v, &mut ctx, |ns| ns.to_vec()).unwrap();
            assert_eq!(ns, csr.neighbors(v));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Cutting sorted rows at the domain boundaries yields what a
            /// per-edge `domain_of` filter does, for any domain count and
            /// vertex counts not divisible by it.
            #[test]
            fn cut_points_equal_per_edge_filter(
                n in 1u32..70,
                raw in proptest::collection::vec((0u32..1000, 0u32..1000), 0..300),
                domains in 1usize..=8,
            ) {
                let edges = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
                let csr = build_csr(&MemEdgeList::new(n.into(), edges), BuildOptions::default()).unwrap();
                let part = RangePartition::new(n.into(), domains);
                let fg = DramForwardGraph::from_csr(&csr, &part);
                for k in 0..domains {
                    let rows: Vec<Vec<VertexId>> = (0..n)
                        .map(|v| {
                            csr.neighbors(v)
                                .iter()
                                .copied()
                                .filter(|&w| part.domain_of(w.into()) == k)
                                .collect()
                        })
                        .collect();
                    prop_assert_eq!(fg.domain(k), &CsrGraph::from_adjacency(&rows));
                }
            }
        }
    }
}
