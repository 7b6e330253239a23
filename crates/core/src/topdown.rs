//! The top-down step (Fig. 1), NUMA-structured per §V-C.
//!
//! All domains expand the *entire* frontier (the frontier is conceptually
//! duplicated per domain, Fig. 6), but domain `k` only examines the
//! neighbor sub-lists living in `k`'s vertex range. Workers dequeue the
//! frontier in fixed batches (64 in the paper) and, on the semi-external
//! path, each batch's neighbor spans are fetched from NVM in ≤4 KiB chunks
//! through the [`NeighborCtx`] reader.
//!
//! The parent choice is canonical: every frontier neighbor of an unvisited
//! `w` proposes itself with `fetch_min` on the shared parent array, so `w`
//! keeps its **smallest** frontier neighbor — the parent
//! [`crate::reference_bfs`] picks — whatever the worker schedule. Exactly
//! one proposer (the one that observed `INVALID_PARENT`) appends `w` to its
//! thread-local next buffer; buffers are concatenated once every worker is
//! done. A lone worker proposes with a plain load and store instead.
//! Visited bits are set only *after* the step, otherwise a larger early
//! proposer would suppress a smaller later one.
//!
//! Work distribution is chunked work-stealing: a shared atomic cursor over
//! (domain × frontier-chunk) units. Idle workers immediately claim the next
//! unit, so on the semi-external path all workers issue page reads
//! concurrently and their throttled device waits overlap.
//!
//! On an external source each worker also looks ahead in the unit
//! sequence, so one worker keeps many device reads in flight: claiming
//! unit `u`, it prefetches the neighbor value spans of unit
//! `u + LOOKAHEAD` and the index entries of unit `u + 2·LOOKAHEAD`
//! ([`DomainNeighbors::prefetch_values`], [`DomainNeighbors::prefetch_index`]).
//! Index entries go one stage earlier because the value spans' bounds come
//! from them; the first claim of a step also covers the units before
//! those ([`lookahead`]). On a caching store the prefetches are
//! asynchronous device submissions, and by the time a unit is claimed its
//! pages are cached or in flight; stores that do not prefetch ignore the
//! hints.
//!
//! The step returns its next frontier ascending, so every unit of the
//! following step is a run of nearby vertices that walks each domain's
//! files forward. A caching source serves such a unit in page windows
//! (one index read and one value read per window, see
//! [`DomainNeighbors::with_neighbors_batch`]), and the hints are
//! windowed the same way.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use sembfs_csr::{DomainNeighbors, NeighborCtx};
use sembfs_numa::{DomainCounters, LocalDomainCounters, RangePartition};
use sembfs_semext::Result;

use crate::bitmap::AtomicBitmap;
use crate::workers::run_workers;
use crate::{VertexId, INVALID_PARENT};

/// Output of one top-down step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopDownOutput {
    /// The next frontier, ascending: one entry per newly visited vertex.
    pub next: Vec<VertexId>,
    /// Edges examined (all neighbor entries of the frontier).
    pub scanned_edges: u64,
}

/// Units between a claimed unit and the one whose value spans its worker
/// prefetches (index entries are prefetched `2 × LOOKAHEAD` ahead). With
/// page-windowed units on the throttled flash model (two workers, a page
/// cache a quarter of the forward graph), 8 and 12 measured alike and
/// about 30% faster than 4; at 2 the device latency went uncovered, and
/// at 16 prefetched pages were evicted before their unit came up.
const LOOKAHEAD: usize = 8;

/// The two-stage prefetch schedule of a worker that claims unit `u` of
/// `len` and looks `d` units ahead: it prefetches index entries for the
/// units in the first range and neighbor value spans for those in the
/// second.
///
/// Index entries run `2d` ahead and value spans `d` ahead, because a
/// value span's bounds come from its index entries. The claim of `u = 0`
/// also covers every unit before those, so short steps are prefetched
/// too; later claims cover one unit per stage, and none past `len`.
fn lookahead(u: usize, d: usize, len: usize) -> (Range<usize>, Range<usize>) {
    let stage = |ahead: usize| {
        let end = (u + ahead + 1).min(len);
        let start = if u == 0 { 0 } else { (u + ahead).min(end) };
        start..end
    };
    (stage(2 * d), stage(d))
}

/// Sort the duplicate-free next frontier `vs` ascending and set its bits
/// in `visited`, one atomic OR per word.
fn publish(vs: &mut [VertexId], visited: &AtomicBitmap) {
    vs.sort_unstable();
    for run in vs.chunk_by(|a, b| a / 64 == b / 64) {
        let mask = run.iter().fold(0, |m, &v| m | 1 << (v % 64));
        visited.or_word(run[0] as usize / 64, mask);
    }
}

/// One worker's step result: its next-frontier buffer, scanned edges, and
/// (when NUMA accounting is on) its private counter deltas.
type WorkerOutput = Result<(Vec<VertexId>, u64, Option<LocalDomainCounters>)>;

/// Expand `frontier` through `g` on `threads` explicit workers (one runs
/// on the calling thread), claiming unvisited neighbors with the
/// min-parent rule.
///
/// `make_ctx` builds each worker's scratch (supplying the chunk reader
/// appropriate for where `g` lives); `batch` is the dequeue granularity.
/// `counters`, when given, accrue per-domain locality: each neighbor-list
/// visit is charged from the frontier vertex's owning domain to the list's
/// domain, accumulated thread-local and merged once per step.
#[allow(clippy::too_many_arguments)]
pub fn par_top_down_step<G: DomainNeighbors>(
    g: &G,
    frontier: &[VertexId],
    parent: &[AtomicU32],
    visited: &AtomicBitmap,
    batch: usize,
    threads: usize,
    make_ctx: &(dyn Fn() -> NeighborCtx + Sync),
    counters: Option<&DomainCounters>,
) -> Result<TopDownOutput> {
    let domains = g.num_domains();
    let batch = batch.max(1);
    let num_chunks = frontier.len().div_ceil(batch);
    let total_units = domains * num_chunks;
    if total_units == 0 {
        return Ok(TopDownOutput {
            next: Vec::new(),
            scanned_edges: 0,
        });
    }
    // Owner partition of the *frontier* vertices, for locality charging.
    let part = counters.map(|_| RangePartition::new(g.num_vertices(), domains));

    let cursor = AtomicUsize::new(0);
    let workers = threads.max(1).min(total_units);
    // A lone worker claims with a plain load and store: the same minimum
    // as `fetch_min` without its atomic read-modify-write, which made
    // one-worker path and reachability queries about 1.2× slower.
    let alone = workers == 1;
    let external = g.is_external();
    // Unit `u` is frontier chunk `u % num_chunks` read in domain
    // `u / num_chunks`.
    let unit = |u: usize| {
        let c = u % num_chunks;
        (
            u / num_chunks,
            &frontier[c * batch..((c + 1) * batch).min(frontier.len())],
        )
    };

    let results = run_workers(workers, |_| -> WorkerOutput {
        let tracer = sembfs_obs::global();
        let step_start = tracer.is_enabled().then(|| tracer.now_ns());
        let mut ctx = make_ctx();
        let mut next = Vec::new();
        let mut scanned = 0u64;
        let mut local = counters.map(|_| LocalDomainCounters::new(domains));
        loop {
            let u = cursor.fetch_add(1, Ordering::Relaxed);
            if u >= total_units {
                break;
            }
            if external {
                let (index, values) = lookahead(u, LOOKAHEAD, total_units);
                for a in index {
                    let (k, chunk) = unit(a);
                    g.prefetch_index(k, chunk);
                }
                for a in values {
                    let (k, chunk) = unit(a);
                    g.prefetch_values(k, chunk, &mut ctx);
                }
            }
            let (k, chunk) = unit(u);
            // One dequeue batch; batch-capable sources may serve it as a
            // single async submission (§VI-D).
            g.with_neighbors_batch(k, chunk, &mut ctx, &mut |v, ns| {
                scanned += ns.len() as u64;
                if let (Some(local), Some(part)) = (local.as_mut(), &part) {
                    local.record(part.domain_of(v as u64), k, ns.len() as u64);
                }
                for &w in ns {
                    // Visited bits are stable during the step (set after
                    // every worker is done, below), so every frontier
                    // neighbor of an unvisited w gets to propose.
                    if !visited.get(w) {
                        let slot = &parent[w as usize];
                        let prev = if alone {
                            let prev = slot.load(Ordering::Relaxed);
                            if v < prev {
                                slot.store(v, Ordering::Relaxed);
                            }
                            prev
                        } else {
                            slot.fetch_min(v, Ordering::Relaxed)
                        };
                        if prev == INVALID_PARENT {
                            next.push(w);
                        }
                    }
                }
            })?;
        }
        if let Some(start_ns) = step_start {
            tracer.span(
                start_ns,
                tracer.now_ns(),
                sembfs_obs::TraceEvent::Step {
                    dir: sembfs_obs::Dir::TopDown,
                    scanned_edges: scanned,
                },
            );
        }
        Ok((next, scanned, local))
    });

    let mut next = Vec::new();
    let mut scanned_edges = 0u64;
    for r in results {
        let (n, s, local) = r?;
        next.extend(n);
        scanned_edges += s;
        if let (Some(counters), Some(local)) = (counters, local) {
            counters.merge(&local);
        }
    }
    // Exactly one worker claimed each discovered vertex, so the merged
    // buffers are duplicate-free; sorted, they make the next step's units
    // runs of nearby vertices (see the module docs). Publish the visited
    // bits now that no smaller parent proposal can arrive.
    publish(&mut next, visited);
    Ok(TopDownOutput {
        next,
        scanned_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{new_parent_array, snapshot_parents};
    use sembfs_csr::{build_csr, write_forward_files, BuildOptions, DramForwardGraph};
    use sembfs_graph500::edge_list::MemEdgeList;

    fn forward(edges: Vec<(u32, u32)>, n: u64, domains: usize) -> DramForwardGraph {
        let el = MemEdgeList::new(n, edges);
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        DramForwardGraph::from_csr(&csr, &RangePartition::new(n, domains))
    }

    #[test]
    fn publish_sorts_and_marks_by_word() {
        let mut rng = sembfs_graph500::rng::Xoshiro256::seed_from(5, 0);
        for (len, n) in [
            (0, 64),
            (3, 1000),
            (50, 100_000),
            (500, 1000),
            (700, 100_000),
        ] {
            let mut vs: Vec<VertexId> = (0..n as VertexId).collect();
            for i in (1..vs.len()).rev() {
                vs.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            vs.truncate(len);
            let mut want = vs.clone();
            want.sort_unstable();
            let visited = AtomicBitmap::new(n);
            publish(&mut vs, &visited);
            assert_eq!(vs, want, "{len} of {n}");
            assert_eq!(visited.iter_ones().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn lookahead_covers_every_position_once_per_stage() {
        for len in [0, 1, 5, 9, 40] {
            for d in [1, 4, 16] {
                let mut index = vec![0; len];
                let mut values = vec![0; len];
                for i in 0..len {
                    let (ix, vals) = lookahead(i, d, len);
                    // Never a position that was already visited.
                    assert!(ix.start >= i && vals.start >= i);
                    ix.for_each(|a| index[a] += 1);
                    vals.for_each(|a| values[a] += 1);
                }
                assert!(index.iter().all(|&c| c == 1), "index d={d} len={len}");
                assert!(values.iter().all(|&c| c == 1), "values d={d} len={len}");
            }
        }
        assert_eq!(lookahead(0, 4, 100), (0..9, 0..5));
        assert_eq!(lookahead(3, 4, 100), (11..12, 7..8));
        assert_eq!(lookahead(3, 4, 10), (10..10, 7..8));
    }

    fn step(
        g: &DramForwardGraph,
        frontier: &[VertexId],
        parent: &[AtomicU32],
        visited: &AtomicBitmap,
        batch: usize,
        threads: usize,
    ) -> TopDownOutput {
        par_top_down_step(
            g,
            frontier,
            parent,
            visited,
            batch,
            threads,
            &NeighborCtx::dram,
            None,
        )
        .unwrap()
    }

    #[test]
    fn expands_one_level() {
        let g = forward(vec![(0, 1), (0, 2), (0, 3), (0, 4)], 5, 2);
        let parent = new_parent_array(5, 0);
        let visited = AtomicBitmap::new(5);
        visited.set(0);
        let out = step(&g, &[0], &parent, &visited, 64, 4);
        let mut next = out.next.clone();
        next.sort_unstable();
        assert_eq!(next, vec![1, 2, 3, 4]);
        assert_eq!(out.scanned_edges, 4);
        assert_eq!(&snapshot_parents(&parent)[1..], &[0, 0, 0, 0]);
        for w in 1..5 {
            assert!(visited.get(w));
        }
    }

    #[test]
    fn already_visited_not_reclaimed() {
        let g = forward(vec![(0, 1), (1, 2)], 3, 1);
        let parent = new_parent_array(3, 0);
        let visited = AtomicBitmap::new(3);
        visited.set(0);
        visited.set(2); // pretend 2 was found earlier
        parent[2].store(99, Ordering::Relaxed);
        let out = step(&g, &[0], &parent, &visited, 64, 1);
        assert_eq!(out.next, vec![1]);
        assert_eq!(parent[2].load(Ordering::Relaxed), 99);
    }

    #[test]
    fn empty_frontier_is_a_noop() {
        let g = forward(vec![(0, 1)], 2, 1);
        let parent = new_parent_array(2, 0);
        let visited = AtomicBitmap::new(2);
        let out = step(&g, &[], &parent, &visited, 64, 2);
        assert!(out.next.is_empty());
        assert_eq!(out.scanned_edges, 0);
        assert_eq!(snapshot_parents(&parent)[1], INVALID_PARENT);
    }

    #[test]
    fn contended_targets_get_min_parent() {
        // Complete bipartite 32×32: every target is proposed by all 32
        // frontier vertices; the canonical winner is always vertex 0.
        let mut edges = Vec::new();
        for u in 0..32u32 {
            for w in 32..64u32 {
                edges.push((u, w));
            }
        }
        let g = forward(edges, 64, 4);
        let frontier: Vec<u32> = (0..32).collect();
        for threads in [1, 2, 4, 8] {
            let parent = new_parent_array(64, 0);
            let visited = AtomicBitmap::new(64);
            for &v in &frontier {
                visited.set(v);
            }
            let out = step(&g, &frontier, &parent, &visited, 4, threads);
            assert_eq!(out.next.len(), 32, "{threads} threads");
            assert_eq!(out.scanned_edges, 32 * 32);
            let snap = snapshot_parents(&parent);
            for (w, &p) in snap.iter().enumerate().skip(32) {
                assert_eq!(p, 0, "vertex {w} at {threads} threads");
            }
        }
    }

    #[test]
    fn claims_are_exactly_once() {
        // Each discovered vertex must appear in exactly one next buffer.
        let mut edges = Vec::new();
        for u in 0..16u32 {
            for w in 16..176u32 {
                edges.push((u, w));
            }
        }
        let g = forward(edges, 176, 2);
        let frontier: Vec<u32> = (0..16).collect();
        let parent = new_parent_array(176, 0);
        let visited = AtomicBitmap::new(176);
        for &v in &frontier {
            visited.set(v);
        }
        let out = step(&g, &frontier, &parent, &visited, 2, 8);
        let mut next = out.next.clone();
        next.sort_unstable();
        let deduped = next.len();
        next.dedup();
        assert_eq!(next.len(), deduped, "a vertex was claimed twice");
        assert_eq!(next, (16..176).collect::<Vec<u32>>());
    }

    #[test]
    fn thread_counts_agree_with_each_other() {
        // A denser random-ish graph; every thread count must produce the
        // same parent array from the same frontier.
        let p = sembfs_graph500::KroneckerParams::graph500(8, 8);
        let el = p.generate();
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let n = csr.num_vertices();
        let g = DramForwardGraph::from_csr(&csr, &RangePartition::new(n, 4));
        let root = (0..n as u32).find(|&v| csr.degree(v) > 0).unwrap();
        let run = |threads: usize| {
            let parent = new_parent_array(n, root);
            let visited = AtomicBitmap::new(n);
            visited.set(root);
            let mut frontier = vec![root];
            while !frontier.is_empty() {
                frontier = step(&g, &frontier, &parent, &visited, 8, threads).next;
            }
            snapshot_parents(&parent)
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "{threads} threads diverged");
        }
    }

    #[test]
    fn next_frontier_is_ascending_on_dram_and_external_sources() {
        use sembfs_csr::ExtForwardGraph;
        use sembfs_semext::{
            DelayMode, Device, DeviceProfile, ExtCsr, FileBackend, ShardedCachedStore,
            ShardedPageCache, TempDir,
        };

        /// Run every level top-down at 4 workers over units of 8,
        /// checking each next frontier, and return the parents.
        fn levels<G: DomainNeighbors>(g: &G, root: u32) -> Vec<u32> {
            let n = g.num_vertices();
            let parent = new_parent_array(n, root);
            let visited = AtomicBitmap::new(n);
            visited.set(root);
            let mut frontier = vec![root];
            while !frontier.is_empty() {
                let next = par_top_down_step(
                    g,
                    &frontier,
                    &parent,
                    &visited,
                    8,
                    4,
                    &NeighborCtx::dram,
                    None,
                )
                .unwrap()
                .next;
                assert!(next.windows(2).all(|p| p[0] < p[1]), "{next:?}");
                frontier = next;
            }
            snapshot_parents(&parent)
        }

        let el = sembfs_graph500::KroneckerParams::graph500(9, 8).generate();
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let n = csr.num_vertices();
        let part = RangePartition::new(n, 4);
        let dram = DramForwardGraph::from_csr(&csr, &part);
        let dir = TempDir::new("td-ascending").unwrap();
        let device = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
        // A cache smaller than the graph: the windowed read path, with
        // misses and evictions.
        let cache = ShardedPageCache::new(16 * 4096);
        let store = |path| {
            ShardedCachedStore::new(
                FileBackend::open(path).unwrap(),
                device.clone(),
                cache.clone(),
            )
        };
        let ext = ExtForwardGraph::new(
            write_forward_files(&csr, &part, dir.path())
                .unwrap()
                .iter()
                .map(|(ip, vp)| ExtCsr::new(store(ip), store(vp)).unwrap())
                .collect(),
            part,
        );
        let root = (0..n as u32).find(|&v| csr.degree(v) > 0).unwrap();
        assert_eq!(levels(&ext, root), levels(&dram, root));
    }

    #[test]
    fn counters_sum_to_scanned_edges() {
        let g = forward(vec![(0, 1), (0, 2), (1, 3), (2, 3)], 4, 2);
        let counters = DomainCounters::new(2);
        let parent = new_parent_array(4, 0);
        let visited = AtomicBitmap::new(4);
        visited.set(0);
        let out = par_top_down_step(
            &g,
            &[0],
            &parent,
            &visited,
            64,
            2,
            &NeighborCtx::dram,
            Some(&counters),
        )
        .unwrap();
        assert_eq!(
            counters.total_local() + counters.total_remote(),
            out.scanned_edges
        );
    }
}
