//! The hybrid BFS driver (§III-C, §V-C).
//!
//! A level-synchronous loop that starts top-down from the root, consults a
//! [`DirectionPolicy`] before every level, converts the frontier between
//! queue and bitmap forms at switches, and records a [`LevelStats`] per
//! level (including the monitored NVM device's I/O delta, which feeds
//! Figs. 11–13). The same loop backs [`hybrid_bfs`] (parent tree + TEPS),
//! [`hybrid_bfs_distances`] (per-vertex hop counts only),
//! [`hybrid_bfs_rings`] (per-level counts of a search cut off at a depth)
//! and [`bidirectional`] (two searches stepped toward each other, a level
//! at a time, until they meet).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sembfs_csr::{DomainNeighbors, NeighborCtx};
use sembfs_numa::DomainCounters;
use sembfs_semext::{ChunkedReader, Device, Result, ShardedPageCache};

use crate::bitmap::AtomicBitmap;
use crate::bottomup::{par_bottom_up_step, BottomUpSource};
use crate::frontier::{bitmap_to_queue, queue_to_bitmap};
use crate::level_stats::{Direction, LevelStats};
use crate::policy::{DirectionPolicy, PolicyCtx, PolicyEvent};
use crate::topdown::par_top_down_step;
use crate::tree::{new_parent_array, snapshot_parents};
use crate::workers::{run_workers, share, workers_for};
use crate::VertexId;

/// Tunables of a hybrid BFS execution.
#[derive(Debug, Clone, Default)]
pub struct BfsConfig {
    /// Vertices dequeued per worker per batch in the top-down step
    /// (the paper uses 64).
    pub batch: usize,
    /// Chunk reader used for semi-external neighbor reads (pass
    /// [`ChunkedReader::for_device`] of the forward device; ignored for
    /// DRAM graphs).
    pub reader: Option<ChunkedReader>,
    /// Device whose I/O statistics are snapshotted per level.
    pub io_monitor: Option<Arc<Device>>,
    /// Compute the frontier's outgoing-edge count each level and expose it
    /// to the policy (needed by [`crate::BeamerPolicy`]; costs one degree
    /// lookup per frontier vertex).
    pub count_frontier_edges: bool,
    /// Submit each top-down dequeue batch as one asynchronous device
    /// batch (`libaio`-style aggregation, §VI-D) instead of synchronous
    /// per-vertex reads. Only affects semi-external forward graphs.
    pub aggregate_io: bool,
    /// Page cache fronting the forward graph's stores: its counters are
    /// snapshotted per level ([`LevelStats::cache`]).
    pub cache_monitor: Option<Arc<ShardedPageCache>>,
    /// Worker threads of the step kernels (`0` runs one). The parent tree
    /// is bit-identical to [`crate::reference_bfs`] at any count.
    pub threads: usize,
    /// Per-domain locality counters charged by the step kernels
    /// (thread-local accumulate, merged once per step).
    pub numa_counters: Option<Arc<DomainCounters>>,
}

impl BfsConfig {
    /// The paper's defaults: batch of 64, no monitoring, synchronous
    /// `read(2)` I/O, one worker per available core. `SEMBFS_BFS_THREADS`
    /// overrides the worker count so test/CI matrices can flip every
    /// entry point at once.
    pub fn paper() -> Self {
        let threads = std::env::var("SEMBFS_BFS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .filter(|&t: &usize| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self {
            batch: 64,
            reader: None,
            io_monitor: None,
            count_frontier_edges: false,
            aggregate_io: false,
            cache_monitor: None,
            threads,
            numa_counters: None,
        }
    }

    /// Run the step kernels on exactly `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach per-domain locality counters.
    pub fn with_numa_counters(mut self, counters: Arc<DomainCounters>) -> Self {
        self.numa_counters = Some(counters);
        self
    }

    /// Enable `libaio`-style batched I/O submissions (§VI-D).
    pub fn with_aggregation(mut self) -> Self {
        self.aggregate_io = true;
        self
    }

    /// Attach an I/O monitor.
    pub fn with_monitor(mut self, dev: Arc<Device>) -> Self {
        self.io_monitor = Some(dev);
        self
    }

    /// Use a specific chunk reader for external reads.
    pub fn with_reader(mut self, reader: ChunkedReader) -> Self {
        self.reader = Some(reader);
        self
    }

    /// Attach a page-cache monitor (per-level counter deltas).
    pub fn with_cache_monitor(mut self, cache: Arc<ShardedPageCache>) -> Self {
        self.cache_monitor = Some(cache);
        self
    }
}

fn obs_dir(d: Direction) -> sembfs_obs::Dir {
    match d {
        Direction::TopDown => sembfs_obs::Dir::TopDown,
        Direction::BottomUp => sembfs_obs::Dir::BottomUp,
    }
}

/// The result of one hybrid BFS.
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Parent array (`INVALID_PARENT` for unreached vertices).
    pub parent: Vec<VertexId>,
    /// Per-level measurements.
    pub levels: Vec<LevelStats>,
    /// Vertices reached (including the root).
    pub visited: u64,
    /// Undirected input edges inside the traversed component — the edge
    /// count the official TEPS metric divides by (half the summed degree
    /// of visited vertices).
    pub teps_edges: u64,
    /// Wall time of the whole search, from the root push to the end of
    /// the last level: steps, frontier conversions, and policy decisions.
    /// The TEPS edge sweep after the search is excluded.
    pub elapsed: Duration,
}

impl BfsRun {
    /// TEPS of this run.
    pub fn teps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.teps_edges as f64 / s
        } else {
            0.0
        }
    }

    /// Edges actually scanned, summed over levels (Fig. 10's "total").
    pub fn scanned_edges(&self) -> u64 {
        self.levels.iter().map(|l| l.scanned_edges).sum()
    }
}

/// The result of a distances-only hybrid BFS ([`hybrid_bfs_distances`]).
#[derive(Debug, Clone)]
pub struct DistanceRun {
    /// Per-vertex hop count from the root
    /// ([`sembfs_graph500::validate::INVALID_LEVEL`] for unreached).
    pub levels: Vec<u32>,
    /// Vertices reached (including the root).
    pub visited: u64,
    /// Deepest level reached (0 for an isolated root).
    pub max_level: u32,
    /// Wall time of the whole search (as [`BfsRun::elapsed`]).
    pub elapsed: Duration,
}

/// What the level loop leaves in its per-vertex array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    /// Each vertex's parent, as the step kernels write it.
    Parents,
    /// Each vertex's level: the kernels' parent writes are overwritten
    /// after every step (they arbitrate through the visited bitmap and
    /// never read a claimed slot again).
    Levels,
    /// Nothing beyond the per-level [`LevelStats`]: the kernels' parent
    /// writes are left as they are and never read.
    Counts,
}

/// The per-worker neighbor-read scratch `cfg` asks for.
fn ctx_factory(cfg: &BfsConfig) -> impl Fn() -> NeighborCtx + Sync {
    let reader = cfg.reader.unwrap_or_else(ChunkedReader::unmerged);
    let aggregate = cfg.aggregate_io;
    move || {
        let ctx = NeighborCtx::new(reader);
        if aggregate {
            ctx.with_aggregation()
        } else {
            ctx
        }
    }
}

/// One search of the level loop, advanced a level at a time by
/// [`step`](Self::step): the per-vertex slots, the visited set, the
/// frontier in queue or bitmap form, and the per-level measurements.
/// [`traverse`] steps one to the end; [`bidirectional`] steps two toward
/// each other.
struct Search<'a, G, B, P: ?Sized> {
    forward: &'a G,
    backward: &'a B,
    policy: &'a P,
    cfg: &'a BfsConfig,
    record: Record,
    /// Emit `Switch`/`Level`/`Degraded` trace events.
    trace: bool,
    /// Parents or levels, per [`Record`].
    slots: Vec<AtomicU32>,
    visited: AtomicBitmap,
    visited_count: u64,
    // Frontier state: queue form for top-down, bitmap form for bottom-up.
    queue: Vec<VertexId>,
    front_bm: AtomicBitmap,
    next_bm: AtomicBitmap,
    bitmap_current: bool,
    was_degraded: bool,
    /// One entry per level run: the frontier's size and direction history.
    levels: Vec<LevelStats>,
}

impl<'a, G, B, P> Search<'a, G, B, P>
where
    G: DomainNeighbors,
    B: BottomUpSource,
    P: DirectionPolicy + ?Sized,
{
    fn new(
        forward: &'a G,
        backward: &'a B,
        root: VertexId,
        policy: &'a P,
        cfg: &'a BfsConfig,
        record: Record,
        trace: bool,
    ) -> Self {
        let n = forward.num_vertices();
        assert_eq!(
            n,
            backward.partition().num_vertices(),
            "graph size mismatch"
        );
        assert!((root as u64) < n, "root out of range");
        let visited = AtomicBitmap::new(n);
        visited.set(root);
        Self {
            forward,
            backward,
            policy,
            cfg,
            record,
            trace,
            slots: new_parent_array(n, root),
            visited,
            visited_count: 1,
            queue: vec![root],
            front_bm: AtomicBitmap::new(n),
            next_bm: AtomicBitmap::new(n),
            bitmap_current: false,
            was_degraded: false,
            levels: Vec::new(),
        }
    }

    /// Levels run so far: the distance from the root of the frontier.
    fn depth(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Vertices in the frontier: the last level's discoveries, or the root.
    fn frontier_size(&self) -> u64 {
        self.levels.last().map_or(1, |l| l.discovered)
    }

    /// Run the next level: the policy decision, the frontier conversion
    /// it demands, and one kernel step. The first level runs top-down from
    /// the root (§III-C: "we first start BFS from a source vertex by using
    /// the top-down approach") unless the policy overrides it.
    fn step(&mut self) -> Result<()> {
        let (forward, backward, cfg) = (self.forward, self.backward, self.cfg);
        let n = forward.num_vertices();
        let level = self.depth() + 1;
        let batch = if cfg.batch == 0 { 64 } else { cfg.batch };
        let threads = cfg.threads.max(1);
        let make_ctx = ctx_factory(cfg);
        let counters = cfg.numa_counters.as_deref();
        let tracer = sembfs_obs::global();
        let trace = self.trace;

        // The frontier's outgoing-edge count is computable in either
        // representation — a bitmap frontier (after a bottom-up level)
        // sums over its set bits, so Beamer-style policies keep seeing
        // `frontier_edges` across direction switches.
        let frontier_edges = if cfg.count_frontier_edges {
            let mut ctx = make_ctx();
            let mut sum = 0u64;
            if self.bitmap_current {
                for v in self.front_bm.iter_ones() {
                    sum += backward.full_degree(v, &mut ctx)?;
                }
            } else {
                for &v in &self.queue {
                    sum += backward.full_degree(v, &mut ctx)?;
                }
            }
            Some(sum)
        } else {
            None
        };

        // Per-level device-health check: the monitored device reports
        // degraded once its fault rate crosses the plan's threshold, and
        // the policy is told so it can bias to the DRAM-resident
        // bottom-up direction. The transition is traced once per edge
        // (healthy→degraded), not per level.
        let degraded = cfg.io_monitor.as_ref().is_some_and(|d| d.is_degraded());
        if degraded && !self.was_degraded && trace {
            if let Some(faults) = cfg.io_monitor.as_ref().and_then(|d| d.faults()) {
                let (errors, requests) = faults.health().counts();
                tracer.instant(sembfs_obs::TraceEvent::Degraded { errors, requests });
            }
        }
        self.was_degraded = degraded;
        let event = degraded.then_some(PolicyEvent::DeviceDegraded);

        let frontier_size = self.frontier_size();
        let (current, prev_frontier) = self
            .levels
            .last()
            .map_or((Direction::TopDown, 0), |l| (l.direction, l.frontier_size));
        let unvisited = n - self.visited_count;
        let decided = self.policy.decide(&PolicyCtx {
            current,
            level,
            n_all: n,
            frontier: frontier_size,
            prev_frontier,
            frontier_edges,
            unvisited,
            event,
        });

        // Record the decision with its full inputs: level, both frontier
        // sizes, n_all, unvisited, and the policy's α/β when it has that
        // form — enough to re-feed the policy offline and replay the
        // direction sequence from the trace alone.
        if trace {
            let (alpha, beta) = self.policy.thresholds().unwrap_or((0.0, 0.0));
            tracer.instant(sembfs_obs::TraceEvent::Switch {
                level,
                from: obs_dir(current),
                to: obs_dir(decided),
                frontier: frontier_size,
                prev_frontier,
                n_all: n,
                unvisited,
                alpha,
                beta,
            });
        }

        // Convert the frontier representation if the direction demands it.
        match decided {
            Direction::TopDown if self.bitmap_current => {
                self.queue = bitmap_to_queue(&self.front_bm, threads);
                self.bitmap_current = false;
            }
            Direction::BottomUp if !self.bitmap_current => {
                self.front_bm.clear();
                queue_to_bitmap(&self.queue, &self.front_bm, threads);
                self.bitmap_current = true;
            }
            _ => {}
        }

        let level_start_ns = trace.then(|| tracer.now_ns());
        let io_before = cfg.io_monitor.as_ref().map(|d| d.snapshot());
        let cache_before = cfg.cache_monitor.as_ref().map(|c| c.snapshot());
        let t0 = Instant::now();
        let (discovered, scanned, nvm_edges) = match decided {
            Direction::TopDown => {
                let out = par_top_down_step(
                    forward,
                    &self.queue,
                    &self.slots,
                    &self.visited,
                    batch,
                    threads,
                    &make_ctx,
                    counters,
                )?;
                // NVM share of top-down scans: with an external forward
                // graph every scanned edge is read from NVM (Fig. 10's
                // edge-level attribution); DRAM forward graphs contribute
                // none.
                let nvm = if forward.is_external() {
                    out.scanned_edges
                } else {
                    0
                };
                self.queue = out.next;
                (self.queue.len() as u64, out.scanned_edges, nvm)
            }
            Direction::BottomUp => {
                self.next_bm.clear();
                let out = par_bottom_up_step(
                    backward,
                    &self.front_bm,
                    &self.next_bm,
                    &self.slots,
                    &self.visited,
                    threads,
                    &make_ctx,
                    counters,
                )?;
                // The produced set becomes the next level's frontier.
                std::mem::swap(&mut self.front_bm, &mut self.next_bm);
                (
                    out.discovered,
                    out.dram_edges + out.nvm_edges,
                    out.nvm_edges,
                )
            }
        };
        let dt = t0.elapsed();
        let io = match (&cfg.io_monitor, io_before) {
            (Some(d), Some(before)) => Some(d.snapshot().delta(&before)),
            _ => None,
        };
        let cache = match (&cfg.cache_monitor, cache_before) {
            (Some(c), Some(before)) => Some(c.snapshot().delta(&before)),
            _ => None,
        };

        if let Some(start_ns) = level_start_ns {
            tracer.span(
                start_ns,
                tracer.now_ns(),
                sembfs_obs::TraceEvent::Level {
                    level,
                    dir: obs_dir(decided),
                    frontier: frontier_size,
                    discovered,
                    scanned_edges: scanned,
                    nvm_edges,
                    io_requests: io.as_ref().map_or(0, |i| i.requests),
                    io_bytes: io.as_ref().map_or(0, |i| i.bytes),
                    io_response_ns: io.as_ref().map_or(0, |i| i.response_ns),
                    io_wall_ns: io.as_ref().map_or(0, |i| i.wall_ns()),
                    cache_hits: cache.as_ref().map_or(0, |c| c.hits),
                    cache_misses: cache.as_ref().map_or(0, |c| c.misses),
                    cache_readahead_pages: cache.as_ref().map_or(0, |c| c.readahead_pages),
                    cache_prefetch_unused: cache.as_ref().map_or(0, |c| c.prefetch_unused),
                    threads: threads as u64,
                },
            );
        }

        if self.record == Record::Levels {
            let slots = &self.slots;
            let mark = |w: VertexId| slots[w as usize].store(level, Ordering::Relaxed);
            if self.bitmap_current {
                self.front_bm.iter_ones().for_each(mark);
            } else {
                self.queue.iter().copied().for_each(mark);
            }
        }

        self.visited_count += discovered;
        self.levels.push(LevelStats {
            level,
            direction: decided,
            frontier_size,
            discovered,
            scanned_edges: scanned,
            nvm_edges,
            elapsed: dt,
            io,
            cache,
            threads,
        });
        Ok(())
    }

    /// The least vertex of the frontier that `other` has visited: a word
    /// AND on a bitmap frontier, a bit test per vertex on the ascending
    /// queue.
    fn meeting(&self, other: &AtomicBitmap) -> Option<VertexId> {
        if self.bitmap_current {
            (0..self.front_bm.num_words()).find_map(|wi| {
                let both = self.front_bm.word(wi) & other.word(wi);
                (both != 0).then(|| (wi * 64) as VertexId + both.trailing_zeros())
            })
        } else {
            self.queue.iter().copied().find(|&v| other.get(v))
        }
    }

    /// The tree path from `v` up to the root (`Record::Parents` only).
    fn chain(&self, mut v: VertexId) -> Vec<VertexId> {
        let mut out = vec![v];
        loop {
            let p = self.slots[v as usize].load(Ordering::Relaxed);
            if p == v {
                return out;
            }
            out.push(p);
            v = p;
        }
    }
}

/// The level loop: one [`Search`] stepped until its frontier empties or
/// level `max_level` has run, whichever comes first, and its wall time
/// from the root push. `trace` emits its switch and level events.
#[allow(clippy::too_many_arguments)]
fn traverse<'a, G, B, P>(
    forward: &'a G,
    backward: &'a B,
    root: VertexId,
    policy: &'a P,
    cfg: &'a BfsConfig,
    record: Record,
    trace: bool,
    max_level: u32,
) -> Result<(Search<'a, G, B, P>, Duration)>
where
    G: DomainNeighbors,
    B: BottomUpSource,
    P: DirectionPolicy + ?Sized,
{
    // The Graph500 search timer starts at the root push.
    let start = Instant::now();
    let mut search = Search::new(forward, backward, root, policy, cfg, record, trace);
    while search.frontier_size() > 0 && search.depth() < max_level {
        search.step()?;
    }
    Ok((search, start.elapsed()))
}

/// Least visited-bitmap words the TEPS sweep hands a worker: each set bit
/// costs a degree lookup.
const SWEEP_WORDS_PER_WORKER: usize = 1 << 10;

/// The summed full degree of the vertices set in `visited`, on up to
/// `cfg.threads` workers that each walk a contiguous run of its words.
fn visited_degree_sum<B: BottomUpSource>(
    backward: &B,
    visited: &AtomicBitmap,
    cfg: &BfsConfig,
) -> Result<u64> {
    let words = visited.num_words();
    let workers = workers_for(words, SWEEP_WORDS_PER_WORKER, cfg.threads);
    let make_ctx = ctx_factory(cfg);
    run_workers(workers, |i| {
        let mut ctx = make_ctx();
        let mut sum = 0u64;
        for wi in share(i, workers, words) {
            let mut w = visited.word(wi);
            while w != 0 {
                let v = (wi * 64) as VertexId + w.trailing_zeros();
                w &= w - 1;
                sum += backward.full_degree(v, &mut ctx)?;
            }
        }
        Ok(sum)
    })
    .into_iter()
    .sum()
}

/// Run a hybrid BFS from `root` over `forward`/`backward` using `policy`.
pub fn hybrid_bfs<G, B, P>(
    forward: &G,
    backward: &B,
    root: VertexId,
    policy: &P,
    cfg: &BfsConfig,
) -> Result<BfsRun>
where
    G: DomainNeighbors,
    B: BottomUpSource,
    P: DirectionPolicy + ?Sized,
{
    // Only whole-graph parent-tree searches are traced.
    let tracer = sembfs_obs::global();
    let start_ns = tracer.is_enabled().then(|| tracer.now_ns());
    let (t, elapsed) = traverse(
        forward,
        backward,
        root,
        policy,
        cfg,
        Record::Parents,
        start_ns.is_some(),
        u32::MAX,
    )?;
    let end_ns = start_ns.map(|_| tracer.now_ns());

    // TEPS edge accounting: half the summed degree of visited vertices.
    // Accounting, not traversal: outside both the timer and the run span.
    let degree_sum = visited_degree_sum(backward, &t.visited, cfg)?;

    if let (Some(start_ns), Some(end_ns)) = (start_ns, end_ns) {
        tracer.span(
            start_ns,
            end_ns,
            sembfs_obs::TraceEvent::Run {
                root: root as u64,
                visited: t.visited_count,
                teps_edges: degree_sum / 2,
                levels: t.levels.len() as u64,
            },
        );
    }

    Ok(BfsRun {
        parent: snapshot_parents(&t.slots),
        levels: t.levels,
        visited: t.visited_count,
        teps_edges: degree_sum / 2,
        elapsed,
    })
}

/// Run a hybrid BFS from `root` recording only per-vertex *distances* —
/// no parent tree is built and no TEPS edge sweep runs.
///
/// Consumers that need one source's distances to every vertex (the
/// pseudo-diameter double sweep) would otherwise pay for a parent array
/// *and* an `O(n·depth)` parent-chain walk to recover levels; this entry
/// point writes each level number directly as its frontier is discovered.
pub fn hybrid_bfs_distances<G, B, P>(
    forward: &G,
    backward: &B,
    root: VertexId,
    policy: &P,
    cfg: &BfsConfig,
) -> Result<DistanceRun>
where
    G: DomainNeighbors,
    B: BottomUpSource,
    P: DirectionPolicy + ?Sized,
{
    let (t, elapsed) = traverse(
        forward,
        backward,
        root,
        policy,
        cfg,
        Record::Levels,
        false,
        u32::MAX,
    )?;
    // The root's slot holds its self-parent; unreached slots hold
    // INVALID_PARENT, the same bit pattern as INVALID_LEVEL.
    t.slots[root as usize].store(0, Ordering::Relaxed);
    Ok(DistanceRun {
        levels: snapshot_parents(&t.slots),
        visited: t.visited_count,
        max_level: t
            .levels
            .iter()
            .rev()
            .find(|l| l.discovered > 0)
            .map_or(0, |l| l.level),
        elapsed,
    })
}

/// Sizes of the BFS rings around `root` out to `depth` hops: `rings[d]`
/// is the number of vertices exactly `d` hops away, ring 0 being `root`
/// itself. The list ends at the first empty ring, so it never ends in a
/// zero.
///
/// The search is the hybrid level loop cut off after level `depth`: the
/// policy picks each ring's direction as in a whole-graph search, and no
/// per-vertex result is kept. A small ring expands top-down through the
/// forward graph; a wide one can probe the backward graph bottom-up.
pub fn hybrid_bfs_rings<G, B, P>(
    forward: &G,
    backward: &B,
    root: VertexId,
    depth: u32,
    policy: &P,
    cfg: &BfsConfig,
) -> Result<Vec<u64>>
where
    G: DomainNeighbors,
    B: BottomUpSource,
    P: DirectionPolicy + ?Sized,
{
    let (t, _) = traverse(
        forward,
        backward,
        root,
        policy,
        cfg,
        Record::Counts,
        false,
        depth,
    )?;
    Ok(std::iter::once(1)
        .chain(
            t.levels
                .iter()
                .map(|l| l.discovered)
                .take_while(|&ring| ring > 0),
        )
        .collect())
}

/// The outcome of one [`bidirectional`] search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BidirOutcome {
    /// Shortest-path hop count (`None` when disconnected).
    pub distance: Option<u32>,
    /// The path (`src` first), when requested and reachable.
    pub path: Option<Vec<VertexId>>,
    /// Edges scanned by both sides together (the query's work metric).
    pub scanned_edges: u64,
}

/// Point-to-point shortest path between `src` and `dst`: two level loops
/// stepped toward each other, each direction-optimizing under `policy`.
/// The source side expands through `forward` (top-down) and `backward`
/// (bottom-up); the destination side reads `backward` both ways. Each
/// round steps the side with the smaller frontier.
///
/// **Meeting rule.** After a step, the new frontier is intersected with
/// the other side's visited set. The two visited sets are disjoint
/// before, so when a side at depth `ds` first meets the other at depth
/// `dt`, balls of radii `ds − 1` and `dt` did not touch: every path is at
/// least `ds + dt` long, and every meeting vertex closes one of exactly
/// that length. A frontier that empties first means no path.
///
/// Set `want_path` for one shortest path: both sides then keep min-parent
/// trees, and the path joins their chains at the least-id meeting vertex,
/// so it depends on the graph, `src` and `dst` alone — not on the layout,
/// the policy or the worker count. Without it the sides keep no
/// per-vertex result. Neither side is traced.
pub fn bidirectional<G, B, P>(
    forward: &G,
    backward: &B,
    src: VertexId,
    dst: VertexId,
    want_path: bool,
    policy: &P,
    cfg: &BfsConfig,
) -> Result<BidirOutcome>
where
    G: DomainNeighbors,
    B: BottomUpSource + DomainNeighbors,
    P: DirectionPolicy + ?Sized,
{
    let n = forward.num_vertices();
    assert!(
        (src as u64) < n && (dst as u64) < n,
        "endpoint out of range"
    );
    if src == dst {
        return Ok(BidirOutcome {
            distance: Some(0),
            path: want_path.then(|| vec![src]),
            scanned_edges: 0,
        });
    }
    let record = if want_path {
        Record::Parents
    } else {
        Record::Counts
    };
    let mut s = Search::new(forward, backward, src, policy, cfg, record, false);
    let mut t = Search::new(backward, backward, dst, policy, cfg, record, false);
    let meet = loop {
        let (fs, ft) = (s.frontier_size(), t.frontier_size());
        if fs == 0 || ft == 0 {
            break None;
        }
        let meet = if fs <= ft {
            s.step()?;
            s.meeting(&t.visited)
        } else {
            t.step()?;
            t.meeting(&s.visited)
        };
        if meet.is_some() {
            break meet;
        }
    };
    let path = meet.filter(|_| want_path).map(|w| {
        let mut path = s.chain(w);
        path.reverse();
        path.extend(&t.chain(w)[1..]);
        path
    });
    let scanned_edges = s.levels.iter().chain(&t.levels).map(|l| l.scanned_edges);
    Ok(BidirOutcome {
        distance: meet.map(|_| s.depth() + t.depth()),
        path,
        scanned_edges: scanned_edges.sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlphaBetaPolicy, FixedPolicy};
    use sembfs_csr::{build_csr, BackwardGraph, BuildOptions, DramForwardGraph};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_graph500::INVALID_PARENT;
    use sembfs_numa::RangePartition;

    fn graphs(edges: Vec<(u32, u32)>, n: u64, domains: usize) -> (DramForwardGraph, BackwardGraph) {
        let el = MemEdgeList::new(n, edges);
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let part = RangePartition::new(n, domains);
        (
            DramForwardGraph::from_csr(&csr, &part),
            BackwardGraph::new(csr, part),
        )
    }

    /// Star with a tail: 0-{1,2,3,4}, 4-5, 5-6.
    fn star_tail() -> (DramForwardGraph, BackwardGraph) {
        graphs(vec![(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)], 8, 2)
    }

    #[test]
    fn basic_levels_and_parents() {
        let (fg, bg) = star_tail();
        let run = hybrid_bfs(
            &fg,
            &bg,
            0,
            &AlphaBetaPolicy::new(1e4, 1e4),
            &BfsConfig::paper(),
        )
        .unwrap();
        assert_eq!(run.visited, 7); // vertex 7 is isolated
        assert_eq!(run.parent[7], INVALID_PARENT);
        assert_eq!(run.parent[0], 0);
        assert_eq!(run.parent[6], 5);
        // Levels: 1 (finds 4 vertices), 2 (finds 5), 3 (finds 6), 4 (empty
        // frontier never recorded — the loop stops when discovery is 0, so
        // the last recorded level discovered 0 or the chain ended).
        assert!(run.levels.len() >= 3);
        assert_eq!(run.levels[0].frontier_size, 1);
        assert_eq!(run.levels[0].discovered, 4);
    }

    #[test]
    fn first_level_is_top_down() {
        let (fg, bg) = star_tail();
        // Even with a policy that prefers bottom-up, level 1 starts from
        // the root top-down *unless* the policy explicitly overrides —
        // the paper's flow starts top-down; FixedPolicy(BottomUp) is the
        // explicit override.
        let run = hybrid_bfs(
            &fg,
            &bg,
            0,
            &AlphaBetaPolicy::new(1.0, 1e9),
            &BfsConfig::paper(),
        )
        .unwrap();
        assert_eq!(run.levels[0].direction, Direction::TopDown);
    }

    #[test]
    fn eager_policy_switches_to_bottom_up() {
        let (fg, bg) = star_tail();
        // α huge → threshold ~0 → switch as soon as the frontier grows.
        let run = hybrid_bfs(
            &fg,
            &bg,
            0,
            &AlphaBetaPolicy::new(1e9, 1e9),
            &BfsConfig::paper(),
        )
        .unwrap();
        assert!(run
            .levels
            .iter()
            .any(|l| l.direction == Direction::BottomUp));
        // Tree must still be complete.
        assert_eq!(run.visited, 7);
    }

    #[test]
    fn bottom_up_only_from_level_one() {
        let (fg, bg) = star_tail();
        let run = hybrid_bfs(
            &fg,
            &bg,
            0,
            &FixedPolicy(Direction::BottomUp),
            &BfsConfig::paper(),
        )
        .unwrap();
        assert!(run
            .levels
            .iter()
            .all(|l| l.direction == Direction::BottomUp));
        assert_eq!(run.visited, 7);
        assert_eq!(run.parent[6], 5);
    }

    #[test]
    fn teps_edges_counts_component_edges() {
        let (fg, bg) = star_tail();
        let run = hybrid_bfs(
            &fg,
            &bg,
            0,
            &AlphaBetaPolicy::new(1e4, 1e4),
            &BfsConfig::paper(),
        )
        .unwrap();
        // The component has 6 undirected edges.
        assert_eq!(run.teps_edges, 6);
        assert!(run.teps() > 0.0);
    }

    #[test]
    fn isolated_root_traverses_nothing() {
        // Vertex 3 of four, and vertex 200 of a graph where 253 of 256
        // vertices have no edge (0–1–2 over 3 domains).
        for (edges, n, domains, root) in
            [(vec![(0, 1)], 4, 2, 3), (vec![(0, 1), (1, 2)], 256, 3, 200)]
        {
            let (fg, bg) = graphs(edges, n, domains);
            for policy in [
                &AlphaBetaPolicy::new(1e4, 1e4) as &dyn DirectionPolicy,
                &FixedPolicy(Direction::TopDown),
                &FixedPolicy(Direction::BottomUp),
            ] {
                for threads in [1, 2, 4] {
                    let cfg = BfsConfig::paper().with_threads(threads);
                    let run = hybrid_bfs(&fg, &bg, root, policy, &cfg).unwrap();
                    assert_eq!(run.visited, 1);
                    assert_eq!(run.teps_edges, 0);
                    // One level ran (the empty expansion of the root).
                    assert_eq!(run.levels.len(), 1);
                    assert_eq!(run.levels[0].discovered, 0);
                    let reached: Vec<VertexId> = (0..n as VertexId)
                        .filter(|&v| run.parent[v as usize] != INVALID_PARENT)
                        .collect();
                    assert_eq!(reached, [root]);
                }
            }
        }
    }

    #[test]
    fn scanned_edges_totals_match_levels() {
        let (fg, bg) = star_tail();
        let run = hybrid_bfs(
            &fg,
            &bg,
            0,
            &AlphaBetaPolicy::new(2.0, 4.0),
            &BfsConfig::paper(),
        )
        .unwrap();
        let per_level: u64 = run.levels.iter().map(|l| l.scanned_edges).sum();
        assert_eq!(run.scanned_edges(), per_level);
    }

    #[test]
    fn distances_match_parent_tree_levels() {
        use sembfs_graph500::validate::{compute_levels, INVALID_LEVEL};
        let (fg, bg) = star_tail();
        for policy in [
            FixedPolicy(Direction::TopDown),
            FixedPolicy(Direction::BottomUp),
        ] {
            let run = hybrid_bfs(&fg, &bg, 0, &policy, &BfsConfig::paper()).unwrap();
            let want = compute_levels(&run.parent, 0).unwrap();
            let got = hybrid_bfs_distances(&fg, &bg, 0, &policy, &BfsConfig::paper()).unwrap();
            assert_eq!(got.levels, want, "policy {policy:?}");
            assert_eq!(got.visited, run.visited);
            assert_eq!(got.max_level, 3);
            assert_eq!(got.levels[7], INVALID_LEVEL);
        }
        // Hybrid policy (switches mid-run) must agree too.
        let hybrid = hybrid_bfs_distances(
            &fg,
            &bg,
            0,
            &AlphaBetaPolicy::new(1e9, 1e9),
            &BfsConfig::paper(),
        )
        .unwrap();
        assert_eq!(hybrid.levels[6], 3);
        assert_eq!(hybrid.levels[0], 0);
    }

    #[test]
    fn parallel_threads_match_reference_tree() {
        use crate::reference::reference_bfs;
        let p = sembfs_graph500::KroneckerParams::graph500(9, 8);
        let el = p.generate();
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let n = csr.num_vertices();
        let part = RangePartition::new(n, 4);
        let fg = DramForwardGraph::from_csr(&csr, &part);
        let root = (0..n as u32).find(|&v| csr.degree(v) > 0).unwrap();
        let want = reference_bfs(&csr, root);
        let bg = BackwardGraph::new(csr, part);
        for policy in [
            &FixedPolicy(Direction::TopDown) as &dyn DirectionPolicy,
            &FixedPolicy(Direction::BottomUp),
            &AlphaBetaPolicy::new(14.0, 24.0),
        ] {
            for threads in [1, 2, 4] {
                let cfg = BfsConfig::paper().with_threads(threads);
                let run = hybrid_bfs(&fg, &bg, root, policy, &cfg).unwrap();
                assert_eq!(run.parent, want.parent, "{threads} threads");
                assert_eq!(run.visited, want.visited);
                assert!(run.levels.iter().all(|l| l.threads == threads));
            }
        }
    }

    #[test]
    fn run_elapsed_covers_every_level() {
        let (fg, bg) = star_tail();
        for policy in [
            AlphaBetaPolicy::new(1e4, 1e4),
            AlphaBetaPolicy::new(1e9, 1e9),
        ] {
            let run = hybrid_bfs(&fg, &bg, 0, &policy, &BfsConfig::paper()).unwrap();
            let steps: Duration = run.levels.iter().map(|l| l.elapsed).sum();
            assert!(steps <= run.elapsed, "{steps:?} > {:?}", run.elapsed);
            let dist = hybrid_bfs_distances(&fg, &bg, 0, &policy, &BfsConfig::paper()).unwrap();
            assert!(dist.elapsed > Duration::ZERO);
        }
    }

    #[test]
    fn parallel_counters_account_every_scanned_edge() {
        let (fg, bg) = star_tail();
        let counters = Arc::new(sembfs_numa::DomainCounters::new(2));
        let cfg = BfsConfig::paper()
            .with_threads(2)
            .with_numa_counters(counters.clone());
        let run = hybrid_bfs(&fg, &bg, 0, &AlphaBetaPolicy::new(1e4, 1e4), &cfg).unwrap();
        assert_eq!(
            counters.total_local() + counters.total_remote(),
            run.scanned_edges()
        );
    }

    #[test]
    fn degraded_monitor_biases_all_levels_bottom_up() {
        use sembfs_semext::{DelayMode, DeviceProfile, FaultPlan};
        let (fg, bg) = star_tail();
        // A lazy policy that would otherwise run top-down throughout.
        let policy = AlphaBetaPolicy::new(1.0, 1e9);

        // Pre-degrade the device: the health monitor has seen a fault
        // rate far past the plan's threshold.
        let dev = sembfs_semext::Device::with_fault_plan(
            DeviceProfile::dram(),
            DelayMode::Accounting,
            FaultPlan::parse("degrade=0.1").unwrap(),
        );
        let health = dev.faults().unwrap().health();
        for _ in 0..100 {
            health.record_request();
            health.record_error();
        }
        assert!(dev.is_degraded());

        let cfg = BfsConfig::paper().with_monitor(dev);
        let run = hybrid_bfs(&fg, &bg, 0, &policy, &cfg).unwrap();
        assert!(
            run.levels
                .iter()
                .all(|l| l.direction == Direction::BottomUp),
            "degraded device must force bottom-up: {:?}",
            run.levels.iter().map(|l| l.direction).collect::<Vec<_>>()
        );
        // The traversal itself is unaffected.
        assert_eq!(run.visited, 7);
        assert_eq!(run.parent[6], 5);

        // Same graph with a healthy monitor stays top-down.
        let healthy = sembfs_semext::Device::unmetered();
        let cfg = BfsConfig::paper().with_monitor(healthy);
        let run = hybrid_bfs(&fg, &bg, 0, &policy, &cfg).unwrap();
        assert!(run.levels.iter().all(|l| l.direction == Direction::TopDown));
    }

    #[test]
    fn rings_stop_at_the_depth_and_at_the_first_empty_ring() {
        let (fg, bg) = star_tail();
        for policy in [
            &FixedPolicy(Direction::TopDown) as &dyn DirectionPolicy,
            &FixedPolicy(Direction::BottomUp),
            &AlphaBetaPolicy::new(1e9, 1e9),
        ] {
            let rings = |root, depth| {
                hybrid_bfs_rings(&fg, &bg, root, depth, policy, &BfsConfig::paper()).unwrap()
            };
            assert_eq!(rings(0, 0), vec![1]);
            assert_eq!(rings(0, 1), vec![1, 4]);
            assert_eq!(rings(0, 2), vec![1, 4, 1]);
            assert_eq!(rings(0, 3), vec![1, 4, 1, 1]);
            // Past the eccentricity: no trailing empty ring.
            assert_eq!(rings(0, 9), vec![1, 4, 1, 1]);
            assert_eq!(rings(6, 9), vec![1, 1, 1, 1, 3]);
            // Vertex 7 is isolated.
            assert_eq!(rings(7, 3), vec![1]);
        }
    }

    /// Two stepped searches find the reference distance under a
    /// top-down-only, a bottom-up-only (every meeting is then on a
    /// bottom-up level, found by the word-wise bitmap intersection) and an
    /// eager-switching policy, and all three return one path.
    #[test]
    fn bidirectional_matches_reference_under_every_policy() {
        use crate::reference::reference_bfs;
        use sembfs_graph500::validate::{compute_levels, INVALID_LEVEL};
        let el = sembfs_graph500::KroneckerParams::graph500(9, 8).generate();
        let csr = build_csr(&el, BuildOptions::default()).unwrap();
        let n = csr.num_vertices();
        let part = RangePartition::new(n, 4);
        let kron = (
            DramForwardGraph::from_csr(&csr, &part),
            BackwardGraph::new(csr, part),
        );
        let hub = (0..n as VertexId)
            .max_by_key(|&v| kron.1.degree(v))
            .unwrap();
        let leaf = (0..n as VertexId)
            .filter(|&v| kron.1.degree(v) > 0)
            .min_by_key(|&v| kron.1.degree(v))
            .unwrap();
        let isolated = (0..n as VertexId).find(|&v| kron.1.degree(v) == 0).unwrap();
        let cases = [
            (
                star_tail(),
                vec![(0, 6), (6, 0), (1, 6), (2, 3), (6, 7), (4, 4)],
            ),
            (
                kron,
                vec![(hub, leaf), (leaf, hub), (leaf, 0), (hub, isolated), (1, 2)],
            ),
        ];
        for ((fg, bg), pairs) in &cases {
            for &(src, dst) in pairs {
                let levels = compute_levels(&reference_bfs(bg.csr(), src).parent, src).unwrap();
                let want = (levels[dst as usize] != INVALID_LEVEL).then_some(levels[dst as usize]);
                let mut paths = Vec::new();
                for policy in [
                    &FixedPolicy(Direction::TopDown) as &dyn DirectionPolicy,
                    &FixedPolicy(Direction::BottomUp),
                    &AlphaBetaPolicy::new(1e9, 1e9),
                ] {
                    let cfg = BfsConfig::paper().with_threads(2);
                    let out = bidirectional(fg, bg, src, dst, true, policy, &cfg).unwrap();
                    assert_eq!(out.distance, want, "{src} → {dst} under {}", policy.label());
                    let counts = bidirectional(fg, bg, src, dst, false, policy, &cfg).unwrap();
                    assert_eq!(counts.distance, want);
                    assert_eq!(counts.path, None);
                    if let Some(path) = &out.path {
                        assert_eq!(path.len() as u32, want.unwrap() + 1);
                        assert_eq!((path[0], path[path.len() - 1]), (src, dst));
                        for hop in path.windows(2) {
                            assert!(bg.neighbors(hop[0]).contains(&hop[1]), "{hop:?}");
                        }
                    }
                    paths.push(out.path);
                }
                assert!(paths.windows(2).all(|p| p[0] == p[1]), "{paths:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn out_of_range_root_panics() {
        let (fg, bg) = graphs(vec![(0, 1)], 2, 1);
        let _ = hybrid_bfs(
            &fg,
            &bg,
            5,
            &FixedPolicy(Direction::TopDown),
            &BfsConfig::paper(),
        );
    }
}
