//! The bottom-up step (Fig. 2) and its neighbor sources.
//!
//! Every unvisited vertex probes its neighbor list for a frontier member
//! and stops at the first hit ("the bottom-up approach terminates the
//! vertex searches … once we find [a frontier vertex]"). Adjacency lists
//! are sorted ascending (a [`CsrGraph`](sembfs_csr::CsrGraph) invariant),
//! so the first hit is also the **smallest** frontier neighbor: the early
//! exit yields the same canonical parent as the min-parent top-down claim
//! and [`crate::reference_bfs`], at any thread count.
//!
//! [`par_bottom_up_step`] range-partitions the vertices per NUMA domain
//! (§V-C) into work units claimed from a shared cursor. A unit walks the
//! visited bitmap a word at a time, next to the source's mask of edgeless
//! vertices, and probes only the bits that are in neither: the many
//! already-visited vertices of a late level cost one word load per 64, and
//! a vertex with no edge (38% of a SCALE-20 Kronecker graph) is never
//! probed, though it stays unvisited. Discoveries of a word are published
//! with one `fetch_or` into `visited` and one into `next`.
//!
//! Each probe of a DRAM list starts a new row of the value array, a cache
//! miss that the hardware prefetcher does not see coming: the rows of
//! the vertices left to probe lie far apart. So before a unit probes the
//! vertices of one word, it hints those of the word
//! `PROBE_LOOKAHEAD` ahead ([`BottomUpSource::prefetch_probe`]), and
//! their first value lines load while the current word's probes run.
//! The hint names exactly the vertices the unit will probe, and changes
//! no probe's result.
//!
//! [`BottomUpSource`] abstracts where the neighbor list lives:
//!
//! * [`BackwardGraph`] — fully in DRAM (the paper's implemented layout);
//! * [`SplitBackwardGraph`] — DRAM head + NVM tail (§VI-E, the extension
//!   the paper only *estimates*; here it actually runs, counting how many
//!   probes spill to external memory for Fig. 14). The head holds each
//!   list's smallest ids, so head-then-tail first hit is still the minimum.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use sembfs_csr::{BackwardGraph, NeighborCtx, SplitBackwardGraph};
use sembfs_numa::{DomainCounters, LocalDomainCounters, RangePartition};
use sembfs_semext::{ReadAt, Result};

use crate::bitmap::AtomicBitmap;
use crate::workers::run_workers;
use crate::VertexId;

/// Vertices per bottom-up work unit. Unit boundaries inside a domain are
/// multiples of this, so only domain boundaries can split a bitmap word.
const BOTTOM_UP_CHUNK: u64 = 4096;

/// Result of probing one vertex's neighbors for a frontier member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The frontier neighbor found, if any (becomes the parent).
    pub parent: Option<VertexId>,
    /// Neighbor entries examined in DRAM.
    pub dram_edges: u64,
    /// Neighbor entries examined on external memory.
    pub nvm_edges: u64,
}

/// A neighbor source for the bottom-up probe.
pub trait BottomUpSource: Send + Sync {
    /// The NUMA vertex partition.
    fn partition(&self) -> &RangePartition;

    /// One bit per vertex, 64 to a word, set when the vertex has no edge
    /// ([`sembfs_csr::CsrGraph::edgeless_mask`]). Such a vertex is never
    /// probed: no probe could find it a parent.
    fn edgeless_words(&self) -> &[u64];

    /// Probe `w`'s neighbors in ascending order; stop at the first
    /// neighbor for which `in_frontier` is true — the smallest one.
    fn search_parent(
        &self,
        w: VertexId,
        ctx: &mut NeighborCtx,
        in_frontier: impl Fn(VertexId) -> bool,
    ) -> Result<SearchOutcome>;

    /// Full degree of `w` (used for TEPS edge accounting).
    fn full_degree(&self, w: VertexId, ctx: &mut NeighborCtx) -> Result<u64>;

    /// A hint that `w` will be probed soon: a DRAM source starts loading
    /// the first line of `w`'s list. Changes nothing a probe returns.
    #[inline(always)]
    fn prefetch_probe(&self, _w: VertexId) {}
}

impl BottomUpSource for BackwardGraph {
    fn partition(&self) -> &RangePartition {
        BackwardGraph::partition(self)
    }

    fn edgeless_words(&self) -> &[u64] {
        BackwardGraph::edgeless_words(self)
    }

    // The probe of every unvisited vertex: left to LLVM's heuristics it
    // can end up out of line in `scan_unit`, a call per vertex that cost
    // DRAM-only bottom-up levels about a third of their speed.
    #[inline(always)]
    fn search_parent(
        &self,
        w: VertexId,
        _ctx: &mut NeighborCtx,
        in_frontier: impl Fn(VertexId) -> bool,
    ) -> Result<SearchOutcome> {
        let ns = self.neighbors(w);
        let hit = ns.iter().position(|&v| in_frontier(v));
        Ok(SearchOutcome {
            parent: hit.map(|i| ns[i]),
            dram_edges: hit.map_or(ns.len(), |i| i + 1) as u64,
            nvm_edges: 0,
        })
    }

    fn full_degree(&self, w: VertexId, _ctx: &mut NeighborCtx) -> Result<u64> {
        Ok(self.degree(w))
    }

    #[inline(always)]
    fn prefetch_probe(&self, w: VertexId) {
        self.csr().prefetch_row(w)
    }
}

impl<R: ReadAt> BottomUpSource for SplitBackwardGraph<R> {
    fn partition(&self) -> &RangePartition {
        SplitBackwardGraph::partition(self)
    }

    fn edgeless_words(&self) -> &[u64] {
        SplitBackwardGraph::edgeless_words(self)
    }

    // Inlined into `scan_unit` for the same reason as the DRAM probe: the
    // head walk runs for every unvisited vertex.
    #[inline]
    fn search_parent(
        &self,
        w: VertexId,
        ctx: &mut NeighborCtx,
        in_frontier: impl Fn(VertexId) -> bool,
    ) -> Result<SearchOutcome> {
        // Hot head first — usually terminates here (§VI-E's premise).
        let mut dram_edges = 0u64;
        for &v in self.head_neighbors(w) {
            dram_edges += 1;
            if in_frontier(v) {
                return Ok(SearchOutcome {
                    parent: Some(v),
                    dram_edges,
                    nvm_edges: 0,
                });
            }
        }
        // Cold tail: stream from external memory.
        let mut nvm_edges = 0u64;
        let parent = self.with_tail_neighbors(w, ctx, |ns| {
            for &v in ns {
                nvm_edges += 1;
                if in_frontier(v) {
                    return Some(v);
                }
            }
            None
        })?;
        Ok(SearchOutcome {
            parent,
            dram_edges,
            nvm_edges,
        })
    }

    fn full_degree(&self, w: VertexId, _ctx: &mut NeighborCtx) -> Result<u64> {
        Ok(self.head_neighbors(w).len() as u64 + self.tail_degree(w)?)
    }

    // The head only: a tail read is a device request, not a cache line.
    #[inline(always)]
    fn prefetch_probe(&self, w: VertexId) {
        self.prefetch_head_row(w)
    }
}

/// Output of one bottom-up step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BottomUpOutput {
    /// Vertices discovered (set in `next`).
    pub discovered: u64,
    /// Neighbor entries probed in DRAM.
    pub dram_edges: u64,
    /// Neighbor entries probed on external memory (split layout only).
    pub nvm_edges: u64,
}

impl BottomUpOutput {
    fn add(&mut self, other: &BottomUpOutput) {
        self.discovered += other.discovered;
        self.dram_edges += other.dram_edges;
        self.nvm_edges += other.nvm_edges;
    }
}

/// Visited-bitmap words between a to-probe vertex's prefetch hint and
/// its probe (see the module docs). Chosen by a sweep of 0, 1, 2 and 4 on
/// the SCALE-20 DRAM layout (EXPERIMENTS.md).
const PROBE_LOOKAHEAD: usize = 1;

/// Probe every unvisited vertex of `range` that has an edge, a
/// visited-bitmap word at a time, hinting the probes of the word
/// [`PROBE_LOOKAHEAD`] ahead; see the module docs.
#[allow(clippy::too_many_arguments)]
fn scan_unit<B: BottomUpSource>(
    b: &B,
    range: std::ops::Range<u64>,
    frontier: &AtomicBitmap,
    next: &AtomicBitmap,
    parent: &[AtomicU32],
    visited: &AtomicBitmap,
    ctx: &mut NeighborCtx,
    out: &mut BottomUpOutput,
) -> Result<()> {
    let edgeless = b.edgeless_words();
    // The vertices of word `wi` that this unit probes: in its range, not
    // visited, and with an edge. Only this unit sets visited bits inside
    // its range, so the set is the same at hint time and at probe time.
    let to_probe = |wi: usize| {
        let base = wi as u64 * 64;
        let lo = range.start.max(base) - base;
        let hi = range.end.min(base + 64) - base;
        let in_range = (u64::MAX >> (64 - (hi - lo))) << lo;
        !(visited.word(wi) | edgeless[wi]) & in_range
    };
    let first = (range.start / 64) as usize;
    let last = ((range.end - 1) / 64) as usize;
    for ahead in first..=last + PROBE_LOOKAHEAD {
        if ahead <= last {
            let mut hints = to_probe(ahead);
            while hints != 0 {
                b.prefetch_probe((ahead * 64) as VertexId + hints.trailing_zeros());
                hints &= hints - 1;
            }
        }
        let Some(wi) = ahead.checked_sub(PROBE_LOOKAHEAD).filter(|&wi| wi >= first) else {
            continue;
        };
        let base = wi as u64 * 64;
        let mut todo = to_probe(wi);
        let mut found = 0u64;
        while todo != 0 {
            let bit = todo.trailing_zeros();
            todo &= todo - 1;
            let w = (base + u64::from(bit)) as VertexId;
            let so = b.search_parent(w, ctx, |v| frontier.get(v))?;
            out.dram_edges += so.dram_edges;
            out.nvm_edges += so.nvm_edges;
            if let Some(p) = so.parent {
                // w has a unique owner unit: plain store.
                parent[w as usize].store(p, Ordering::Relaxed);
                found |= 1 << bit;
            }
        }
        if found != 0 {
            // The frontier bitmap (not `visited`) arbitrates searches, so
            // publishing mid-step is safe. Units of two domains can share
            // a word, hence the atomic OR.
            visited.or_word(wi, found);
            next.or_word(wi, found);
            out.discovered += u64::from(found.count_ones());
        }
    }
    Ok(())
}

/// Run one bottom-up step on `threads` explicit workers (one runs on the
/// calling thread): every unvisited vertex with an edge probes `frontier`
/// (bitmap of the previous level) through `b`; finds are recorded in
/// `parent`, `visited`, and `next`.
///
/// `counters`, when given, are charged every probe as domain-local
/// traffic (a vertex's own adjacency list lives in its domain).
#[allow(clippy::too_many_arguments)]
pub fn par_bottom_up_step<B: BottomUpSource>(
    b: &B,
    frontier: &AtomicBitmap,
    next: &AtomicBitmap,
    parent: &[AtomicU32],
    visited: &AtomicBitmap,
    threads: usize,
    make_ctx: &(dyn Fn() -> NeighborCtx + Sync),
    counters: Option<&DomainCounters>,
) -> Result<BottomUpOutput> {
    let part = b.partition();
    let domains = part.num_domains();
    // Work units never straddle a domain boundary, so probes stay
    // domain-local.
    let mut units: Vec<(usize, std::ops::Range<u64>)> = Vec::new();
    for k in 0..domains {
        let range = part.range(k);
        let mut s = range.start;
        while s < range.end {
            let e = ((s / BOTTOM_UP_CHUNK + 1) * BOTTOM_UP_CHUNK).min(range.end);
            units.push((k, s..e));
            s = e;
        }
    }
    if units.is_empty() {
        return Ok(BottomUpOutput::default());
    }

    let cursor = AtomicUsize::new(0);
    let workers = threads.max(1).min(units.len());

    let results = run_workers(workers, |_| -> Result<_> {
        let tracer = sembfs_obs::global();
        let step_start = tracer.is_enabled().then(|| tracer.now_ns());
        let mut ctx = make_ctx();
        let mut out = BottomUpOutput::default();
        let mut local = counters.map(|_| LocalDomainCounters::new(domains));
        loop {
            let u = cursor.fetch_add(1, Ordering::Relaxed);
            if u >= units.len() {
                break;
            }
            let (k, ref range) = units[u];
            let mut unit = BottomUpOutput::default();
            scan_unit(
                b,
                range.clone(),
                frontier,
                next,
                parent,
                visited,
                &mut ctx,
                &mut unit,
            )?;
            if let Some(local) = local.as_mut() {
                local.record(k, k, unit.dram_edges + unit.nvm_edges);
            }
            out.add(&unit);
        }
        if let Some(start_ns) = step_start {
            tracer.span(
                start_ns,
                tracer.now_ns(),
                sembfs_obs::TraceEvent::Step {
                    dir: sembfs_obs::Dir::BottomUp,
                    scanned_edges: out.dram_edges + out.nvm_edges,
                },
            );
        }
        Ok((out, local))
    });

    let mut total = BottomUpOutput::default();
    for r in results {
        let (out, local) = r?;
        total.add(&out);
        if let (Some(counters), Some(local)) = (counters, local) {
            counters.merge(&local);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_bfs;
    use crate::tree::{new_parent_array, snapshot_parents};
    use crate::INVALID_PARENT;
    use sembfs_csr::backward::split_csr;
    use sembfs_csr::{build_csr, BuildOptions, CsrGraph};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_semext::ext_csr::{write_csr_files, ExtCsr};
    use sembfs_semext::{FileBackend, TempDir};

    fn csr(edges: Vec<(u32, u32)>, n: u64) -> CsrGraph {
        build_csr(&MemEdgeList::new(n, edges), BuildOptions::default()).unwrap()
    }

    fn backward(edges: Vec<(u32, u32)>, n: u64, domains: usize) -> BackwardGraph {
        BackwardGraph::new(csr(edges, n), RangePartition::new(n, domains))
    }

    /// One step from `frontier` with the frontier already visited.
    fn step<B: BottomUpSource>(
        b: &B,
        frontier: &[VertexId],
        threads: usize,
    ) -> (BottomUpOutput, Vec<VertexId>, AtomicBitmap) {
        let n = b.partition().num_vertices();
        let parent = new_parent_array(n, frontier.first().copied().unwrap_or(0));
        let visited = AtomicBitmap::new(n);
        let front = AtomicBitmap::new(n);
        for &v in frontier {
            visited.set(v);
            front.set(v);
        }
        let next = AtomicBitmap::new(n);
        let out = par_bottom_up_step(
            b,
            &front,
            &next,
            &parent,
            &visited,
            threads,
            &NeighborCtx::dram,
            None,
        )
        .unwrap();
        (out, snapshot_parents(&parent), next)
    }

    /// A whole bottom-up-only search from `root`.
    fn bottom_up_bfs<B: BottomUpSource>(b: &B, root: VertexId, threads: usize) -> Vec<VertexId> {
        let n = b.partition().num_vertices();
        let parent = new_parent_array(n, root);
        let visited = AtomicBitmap::new(n);
        visited.set(root);
        let mut front = AtomicBitmap::new(n);
        front.set(root);
        let mut next = AtomicBitmap::new(n);
        loop {
            next.clear();
            let out = par_bottom_up_step(
                b,
                &front,
                &next,
                &parent,
                &visited,
                threads,
                &NeighborCtx::dram,
                None,
            )
            .unwrap();
            if out.discovered == 0 {
                return snapshot_parents(&parent);
            }
            std::mem::swap(&mut front, &mut next);
        }
    }

    #[test]
    fn discovers_level_from_frontier() {
        // Star: 0 is the frontier, 1..=4 unvisited.
        let bg = backward(vec![(0, 1), (0, 2), (0, 3), (0, 4)], 5, 2);
        let (out, parent, next) = step(&bg, &[0], 2);
        assert_eq!(out.discovered, 4);
        assert_eq!(next.count_ones(), 4);
        assert_eq!(&parent[1..], &[0, 0, 0, 0]);
    }

    #[test]
    fn early_termination_counts_fewer_probes() {
        // Vertex 3 has neighbors [0, 1, 2]; frontier contains 0 → one
        // probe suffices.
        let bg = backward(vec![(3, 0), (3, 1), (3, 2)], 4, 1);
        let (out, parent, _) = step(&bg, &[0], 1);
        assert_eq!(out.discovered, 1);
        // 3 probed once (hit 0 immediately); 1 and 2 probed their single
        // neighbor (3, not in frontier) once each.
        assert_eq!(out.dram_edges, 3);
        assert_eq!(parent[3], 0);
    }

    #[test]
    fn no_frontier_discovers_nothing() {
        let bg = backward(vec![(0, 1)], 2, 1);
        let (out, _, next) = step(&bg, &[], 1);
        assert_eq!(out.discovered, 0);
        assert_eq!(next.count_ones(), 0);
    }

    #[test]
    fn first_hit_is_min_frontier_neighbor() {
        // Inserted as 2, 0, 1; the CSR stores [0, 1, 2]. Against frontier
        // {1, 2} the first hit is 1 — the minimum — after two probes.
        let bg = backward(vec![(3, 2), (3, 0), (3, 1)], 4, 1);
        let so = bg
            .search_parent(3, &mut NeighborCtx::dram(), |v| v == 1 || v == 2)
            .unwrap();
        assert_eq!((so.parent, so.dram_edges), (Some(1), 2));
        let (out, parent, next) = step(&bg, &[1, 2], 4);
        assert_eq!(out.discovered, 1);
        assert_eq!(parent[3], 1);
        assert!(next.get(3));
    }

    #[test]
    fn unaligned_domains_match_reference_at_every_thread_count() {
        // n = 1000 over 3 domains: every domain boundary falls inside a
        // bitmap word, and the last word is partial.
        let n = 1000u64;
        let mut rng = sembfs_graph500::rng::Xoshiro256::seed_from(5, 0);
        let edges: Vec<(u32, u32)> = (0..3000)
            .map(|_| {
                let u = (rng.next_u64() % n) as u32;
                (u, (rng.next_u64() % n) as u32)
            })
            .collect();
        let graph = csr(edges, n);
        let root = (0..n as u32).max_by_key(|&v| graph.degree(v)).unwrap();
        let want = reference_bfs(&graph, root).parent;
        let bg = BackwardGraph::new(graph, RangePartition::new(n, 3));
        assert!(!bg.partition().range(1).start.is_multiple_of(64));
        for threads in [1, 2, 4] {
            assert_eq!(bottom_up_bfs(&bg, root, threads), want, "{threads} threads");
        }
    }

    fn split_source(
        csr: &CsrGraph,
        k: u64,
        domains: usize,
        dir: &TempDir,
    ) -> SplitBackwardGraph<FileBackend> {
        let (head, ti, tv) = split_csr(csr, k);
        let ip = dir.path().join("tail.index");
        let vp = dir.path().join("tail.values");
        write_csr_files(&ip, &vp, &ti, &tv).unwrap();
        let tail = ExtCsr::new(
            FileBackend::open(&ip).unwrap(),
            FileBackend::open(&vp).unwrap(),
        )
        .unwrap()
        .with_dram_index()
        .unwrap();
        SplitBackwardGraph::new(
            head,
            tail,
            RangePartition::new(csr.num_vertices(), domains),
            k,
            csr.edgeless_mask(),
        )
    }

    /// A [`BackwardGraph`] that counts the probes and the prefetch hints
    /// of every vertex.
    struct Probed {
        inner: BackwardGraph,
        probes: Vec<AtomicU32>,
        hints: Vec<AtomicU32>,
    }

    impl Probed {
        fn new(inner: BackwardGraph) -> Self {
            let counters = || {
                (0..inner.num_vertices())
                    .map(|_| AtomicU32::new(0))
                    .collect()
            };
            Self {
                probes: counters(),
                hints: counters(),
                inner,
            }
        }

        /// Probe and hint counts, then reset to zero.
        fn take(&self) -> (Vec<u32>, Vec<u32>) {
            let take = |c: &[AtomicU32]| c.iter().map(|x| x.swap(0, Ordering::Relaxed)).collect();
            (take(&self.probes), take(&self.hints))
        }
    }

    impl BottomUpSource for Probed {
        fn partition(&self) -> &RangePartition {
            self.inner.partition()
        }

        fn edgeless_words(&self) -> &[u64] {
            self.inner.edgeless_words()
        }

        fn search_parent(
            &self,
            w: VertexId,
            ctx: &mut NeighborCtx,
            in_frontier: impl Fn(VertexId) -> bool,
        ) -> Result<SearchOutcome> {
            self.probes[w as usize].fetch_add(1, Ordering::Relaxed);
            self.inner.search_parent(w, ctx, in_frontier)
        }

        fn full_degree(&self, w: VertexId, ctx: &mut NeighborCtx) -> Result<u64> {
            self.inner.full_degree(w, ctx)
        }

        fn prefetch_probe(&self, w: VertexId) {
            // Out of range panics here, in the worker, and fails the step.
            self.hints[w as usize].fetch_add(1, Ordering::Relaxed);
            self.inner.prefetch_probe(w)
        }
    }

    /// n = 1000 vertices of which only the 100 multiples of 10 have edges
    /// (300 random ones among them), and its highest-degree vertex.
    fn mostly_edgeless() -> (CsrGraph, VertexId) {
        let mut rng = sembfs_graph500::rng::Xoshiro256::seed_from(9, 0);
        let edges: Vec<(u32, u32)> = (0..300)
            .map(|_| {
                let u = (rng.next_u64() % 100) as u32 * 10;
                (u, (rng.next_u64() % 100) as u32 * 10)
            })
            .collect();
        let graph = csr(edges, 1000);
        let root = (0..1000).max_by_key(|&v| graph.degree(v)).unwrap();
        (graph, root)
    }

    #[test]
    fn edgeless_vertices_are_never_probed() {
        let (graph, root) = mostly_edgeless();
        let want = reference_bfs(&graph, root).parent;
        for threads in [1, 2, 4] {
            let b = Probed::new(BackwardGraph::new(
                graph.clone(),
                RangePartition::new(1000, 3),
            ));
            assert_eq!(bottom_up_bfs(&b, root, threads), want, "{threads} threads");
            let (probes, hints) = b.take();
            assert_eq!(probes, hints, "every probe hinted once, {threads} threads");
            for v in 0..1000u32 {
                if graph.degree(v) == 0 {
                    assert_eq!(probes[v as usize], 0, "edgeless vertex {v} probed");
                }
            }
            // A vertex with an edge that the root does not reach is probed
            // at every level.
            let unreached =
                (0..1000u32).find(|&v| graph.degree(v) > 0 && want[v as usize] == INVALID_PARENT);
            if let Some(v) = unreached {
                assert!(probes[v as usize] > 0);
            }
        }
    }

    #[test]
    fn hints_name_exactly_the_vertices_probed_in_the_same_step() {
        // Mostly edgeless, and all but every 7th vertex already visited;
        // three domains put unit boundaries inside bitmap words.
        let (graph, root) = mostly_edgeless();
        let n = graph.num_vertices();
        for threads in [1, 2, 4] {
            let b = Probed::new(BackwardGraph::new(graph.clone(), RangePartition::new(n, 3)));
            let parent = new_parent_array(n, root);
            let (visited, front, next) = (
                AtomicBitmap::new(n),
                AtomicBitmap::new(n),
                AtomicBitmap::new(n),
            );
            for v in (0..n as VertexId).filter(|v| v % 7 != 0) {
                visited.set(v);
            }
            for &v in graph.neighbors(root) {
                front.set(v);
            }
            let was_visited: Vec<bool> = (0..n as VertexId).map(|v| visited.get(v)).collect();
            let out = par_bottom_up_step(
                &b,
                &front,
                &next,
                &parent,
                &visited,
                threads,
                &NeighborCtx::dram,
                None,
            )
            .unwrap();
            assert!(out.discovered > 0, "{threads} threads");
            let (probes, hints) = b.take();
            assert_eq!(hints, probes, "{threads} threads");
            for v in 0..n as VertexId {
                let to_probe = !was_visited[v as usize] && graph.degree(v) > 0;
                assert_eq!(hints[v as usize], u32::from(to_probe), "vertex {v}");
            }
        }
    }

    #[test]
    fn prefetch_of_edgeless_tail_rows_is_harmless() {
        // Vertices 991..=999 have no edge: their rows start at the end of
        // the value array, and at k = 0 the head value array is empty.
        let (graph, _) = mostly_edgeless();
        let n = graph.num_vertices();
        assert_eq!(graph.neighbor_range(999).0, graph.num_values());
        let dram = BackwardGraph::new(graph.clone(), RangePartition::new(n, 3));
        let dir = TempDir::new("bu-prefetch").unwrap();
        let k0 = split_source(&graph, 0, 3, &dir);
        for v in 0..n as VertexId {
            dram.prefetch_probe(v);
            k0.prefetch_probe(v);
        }
    }

    #[test]
    fn mostly_edgeless_trees_match_reference_on_every_source() {
        let (graph, root) = mostly_edgeless();
        let want = reference_bfs(&graph, root).parent;
        assert!(want.iter().filter(|&&p| p != INVALID_PARENT).count() > 1);
        let dir = TempDir::new("bu-edgeless").unwrap();
        let dram = BackwardGraph::new(graph.clone(), RangePartition::new(1000, 3));
        let k0 = split_source(&graph, 0, 3, &dir);
        let dir2 = TempDir::new("bu-edgeless-k2").unwrap();
        let k2 = split_source(&graph, 2, 3, &dir2);
        assert_eq!(dram.edgeless_words(), k0.edgeless_words());
        for threads in [1, 2, 4] {
            assert_eq!(bottom_up_bfs(&dram, root, threads), want, "DRAM, {threads}");
            assert_eq!(bottom_up_bfs(&k0, root, threads), want, "k=0, {threads}");
            assert_eq!(bottom_up_bfs(&k2, root, threads), want, "k=2, {threads}");
        }
        // An edgeless root discovers nothing: a one-vertex tree.
        let isolated = (0..1000).find(|&v| graph.degree(v) == 0).unwrap();
        for b in [&k0, &k2] {
            let (out, parent, next) = step(b, &[isolated], 2);
            assert_eq!((out.discovered, next.count_ones()), (0, 0));
            assert_eq!(parent[isolated as usize], isolated);
            assert_eq!(parent.iter().filter(|&&p| p != INVALID_PARENT).count(), 1);
        }
    }

    /// Vertex 5 with neighbors [0, 1, 2, 3, 4], 2 of them in DRAM.
    fn fan(dir: &TempDir) -> SplitBackwardGraph<FileBackend> {
        let g = csr(vec![(5, 3), (5, 0), (5, 4), (5, 1), (5, 2)], 6);
        split_source(&g, 2, 1, dir)
    }

    #[test]
    fn split_source_spills_to_tail() {
        // Frontier contains only 4 → head misses (2 probes), tail finds it
        // (3rd tail probe).
        let dir = TempDir::new("bu-split").unwrap();
        let sbg = fan(&dir);
        let mut ctx = NeighborCtx::dram();
        let so = sbg.search_parent(5, &mut ctx, |v| v == 4).unwrap();
        assert_eq!(so.parent, Some(4));
        assert_eq!(so.dram_edges, 2);
        assert_eq!(so.nvm_edges, 3);
        assert_eq!(sbg.full_degree(5, &mut ctx).unwrap(), 5);
    }

    #[test]
    fn split_first_hit_is_min_across_head_and_tail() {
        // Head [0, 1], tail [2, 3, 4]. Frontier {1, 3}: the minimum is in
        // the head and the tail is never read; {3, 4}: it is the first
        // tail hit.
        let dir = TempDir::new("bu-split-min").unwrap();
        let sbg = fan(&dir);
        let mut ctx = NeighborCtx::dram();
        let so = sbg
            .search_parent(5, &mut ctx, |v| v == 1 || v == 3)
            .unwrap();
        assert_eq!((so.parent, so.dram_edges, so.nvm_edges), (Some(1), 2, 0));
        let so = sbg
            .search_parent(5, &mut ctx, |v| v == 3 || v == 4)
            .unwrap();
        assert_eq!((so.parent, so.dram_edges, so.nvm_edges), (Some(3), 2, 2));
        let so = sbg.search_parent(5, &mut ctx, |v| v == 0).unwrap();
        assert_eq!((so.parent, so.dram_edges, so.nvm_edges), (Some(0), 1, 0));
    }

    #[test]
    fn split_step_equals_dram_step() {
        // Both layouts must discover identical levels with identical
        // probe counts (split between DRAM and NVM differently).
        let g = csr(
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 5),
                (3, 6),
                (4, 7),
                (5, 8),
                (0, 9),
                (9, 10),
                (10, 11),
                (0, 12),
                (12, 13),
                (13, 14),
                (14, 15),
            ],
            16,
        );
        let dir = TempDir::new("bu-eq").unwrap();
        let sbg = split_source(&g, 1, 2, &dir);
        let bg = BackwardGraph::new(g, RangePartition::new(16, 2));
        for threads in [1, 2] {
            let (d_out, d_parent, _) = step(&bg, &[0], threads);
            let (s_out, s_parent, _) = step(&sbg, &[0], threads);
            assert_eq!(d_out.discovered, s_out.discovered);
            assert_eq!(d_parent, s_parent);
            assert_eq!(d_out.dram_edges, s_out.dram_edges + s_out.nvm_edges);
            assert!(s_out.nvm_edges > 0);
            assert_eq!(
                bottom_up_bfs(&bg, 0, threads),
                bottom_up_bfs(&sbg, 0, threads)
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// On both layouts, for any lists, frontier and DRAM limit k,
            /// the first hit is the smallest frontier neighbour and the
            /// probe count is its position plus one.
            #[test]
            fn first_hit_is_the_minimum_frontier_neighbor(
                adj in proptest::collection::vec(
                    proptest::collection::vec(0u32..40, 0..20), 1..40),
                frontier in proptest::collection::btree_set(0u32..40, 0..12),
                k in 0u64..8,
            ) {
                let g = CsrGraph::from_adjacency(&adj);
                let n = g.num_vertices();
                let dir = TempDir::new("bu-prop").unwrap();
                let sbg = split_source(&g, k, 1, &dir);
                let bg = BackwardGraph::new(g.clone(), RangePartition::new(n, 1));
                let in_frontier = |v: VertexId| frontier.contains(&v);
                let mut ctx = NeighborCtx::dram();
                for w in 0..n as VertexId {
                    let ns = g.neighbors(w);
                    let min = ns.iter().copied().filter(|v| in_frontier(*v)).min();
                    let probes = ns
                        .iter()
                        .position(|&v| in_frontier(v))
                        .map_or(ns.len(), |i| i + 1) as u64;
                    let so = bg.search_parent(w, &mut ctx, in_frontier).unwrap();
                    prop_assert_eq!(so.parent, min);
                    prop_assert_eq!(so.dram_edges, probes);
                    let so = sbg.search_parent(w, &mut ctx, in_frontier).unwrap();
                    prop_assert_eq!(so.parent, min);
                    prop_assert_eq!(so.dram_edges + so.nvm_edges, probes);
                    prop_assert!(so.dram_edges <= k);
                }
            }
        }
    }
}
