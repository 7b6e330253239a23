//! Bidirectional point-to-point BFS and bounded-depth neighborhoods over
//! a scenario's data layout.
//!
//! Two level-synchronous searches run toward each other: the source side
//! expands through the *forward* store (NVM-resident in the semi-external
//! scenarios — its frontier stays small, exactly the regime the paper
//! offloads), the destination side through the *backward* store (DRAM).
//! Each round expands whichever frontier is smaller.
//!
//! **Meeting rule.** Candidates are caught at edge-scan time: when the
//! source side scans an edge `(v, w)` and `w` already carries a
//! destination label, the connecting length `dist_s(v) + 1 + dist_t(w)`
//! is a candidate; symmetrically for the destination side. After the
//! source side has run `ds` rounds and the destination side `dt`, every
//! path of length ≤ `ds + dt − 1` has been caught (each such path has an
//! edge both of whose endpoint labels precede one of the two scans of
//! that edge), so the loop keeps expanding while
//! `best.is_none() || ds + dt < best` and the surviving `best` is the
//! exact shortest-path length. An exhausted frontier also terminates:
//! the exhausted side's labels are then exact distances, and the very
//! first edge scan into the opposite endpoint (labeled 0 from the start)
//! recorded the exact candidate — no candidate means unreachable.
//!
//! **Neighborhoods.** [`neighborhood`] is the core hybrid level loop cut
//! off at the query's depth ([`ScenarioData::run_rings`]), under Beamer's
//! edge rule: a ring whose lists hold few edges expands top-down through
//! the forward store, and a wide ring switches to probing the DRAM
//! backward graph bottom-up, the paper's split (§III-C, §V). A hub's
//! first ring thus reads one list from the device, and its second is
//! found in DRAM; a hub holding more than about 1/14 of all edges goes
//! bottom-up at once. The paper's flash α/β (α = 10⁶) would send every
//! first level bottom-up, a whole-graph probe for one list's worth of
//! answers.
//!
//! **Serial by design.** Each search is serial: the
//! engine's parallelism axis is *queries across workers*, not edges within
//! one query, so a neighborhood's kernels run on one worker
//! ([`search_config`]). One query still keeps several device reads in
//! flight. A neighborhood's top-down rings come out ascending, and the
//! top-down kernel reads a cached store in page windows with its units
//! prefetched ahead. The bidirectional source side visits whole frontiers
//! through [`ScenarioData::for_each_forward_neighbor`], which on a cached
//! external forward graph prefetches the lists of the vertices 16 and 32
//! frontier positions ahead while it visits the current one, but reads
//! each list on its own. The destination side reads the backward graph,
//! whose split tail is uncached and gets no prefetch; a split layout's
//! bottom-up rings probe that tail the same way.

use sembfs_core::{BeamerPolicy, BfsConfig, ScenarioData, VertexId};
use sembfs_graph500::validate::INVALID_LEVEL;
use sembfs_graph500::INVALID_PARENT;
use sembfs_semext::Result;

/// The outcome of one [`bidirectional_search`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BidirOutcome {
    /// Shortest-path hop count (`None` when disconnected).
    pub distance: Option<u32>,
    /// The reconstructed path (`src` first), when requested and reachable.
    pub path: Option<Vec<VertexId>>,
    /// Edges scanned by both sides together (the query's work metric).
    pub scanned_edges: u64,
}

/// One side of the search: its labels, its parents (path mode only),
/// its frontier, and the rounds it has run.
struct Half {
    dist: Vec<u32>,
    parent: Vec<VertexId>,
    frontier: Vec<VertexId>,
    depth: u32,
}

/// The best meeting found so far: total length, then the meet edge's
/// endpoints indexed by side (`[src side, dst side]`).
type Meet = Option<(u32, [VertexId; 2])>;

impl Half {
    fn new(n: usize, start: VertexId, want_path: bool) -> Self {
        let mut dist = vec![INVALID_LEVEL; n];
        dist[start as usize] = 0;
        Self {
            dist,
            parent: if want_path {
                vec![INVALID_PARENT; n]
            } else {
                Vec::new()
            },
            frontier: vec![start],
            depth: 0,
        }
    }

    /// Expand this side's frontier one level through `visit`, labeling
    /// new vertices and catching every scanned edge `(v, w)` whose `w`
    /// the other side (labels `other`) already reached. `side` is this
    /// side's index in [`Meet`]'s endpoint pair.
    fn expand(
        &mut self,
        side: usize,
        other: &[u32],
        best: &mut Meet,
        scanned: &mut u64,
        visit: impl FnOnce(&[VertexId], &mut dyn FnMut(VertexId, VertexId)) -> Result<()>,
    ) -> Result<()> {
        let Half {
            dist,
            parent,
            frontier,
            ..
        } = self;
        let mut next = Vec::new();
        visit(frontier, &mut |v, w| {
            *scanned += 1;
            let (dv, wi) = (dist[v as usize], w as usize);
            if dist[wi] == INVALID_LEVEL {
                dist[wi] = dv + 1;
                if !parent.is_empty() {
                    parent[wi] = v;
                }
                next.push(w);
            }
            if other[wi] != INVALID_LEVEL {
                let total = dv + 1 + other[wi];
                if best.is_none_or(|(b, _)| total < b) {
                    let mut ends = [w; 2];
                    ends[side] = v;
                    *best = Some((total, ends));
                }
            }
        })?;
        self.frontier = next;
        self.depth += 1;
        Ok(())
    }
}

/// Point-to-point shortest path between `src` and `dst` by bidirectional
/// BFS. Set `want_path` to also reconstruct one shortest path (costs two
/// parent arrays); distance-only calls skip them.
///
/// Runs serially on the calling thread by design, with the forward side's
/// device reads prefetched ahead (see the module docs).
pub fn bidirectional_search(
    data: &ScenarioData,
    src: VertexId,
    dst: VertexId,
    want_path: bool,
) -> Result<BidirOutcome> {
    let n = data.num_vertices();
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

    let n = n as usize;
    // Side 0 searches from src through the forward store: its parent[x]
    // is x's predecessor toward src. Side 1 searches from dst through the
    // backward store: its parent[x] is x's successor toward dst.
    let mut sides = [Half::new(n, src, want_path), Half::new(n, dst, want_path)];
    let mut best: Meet = None;
    let mut scanned = 0u64;
    let mut ctx = data.neighbor_ctx();

    loop {
        let [s, t] = &mut sides;
        if let Some((len, _)) = best {
            if s.depth + t.depth >= len {
                break;
            }
        }
        if s.frontier.is_empty() || t.frontier.is_empty() {
            break;
        }
        if s.frontier.len() <= t.frontier.len() {
            s.expand(0, &t.dist, &mut best, &mut scanned, |frontier, f| {
                data.for_each_forward_neighbor(frontier, &mut ctx, f)
            })?;
        } else {
            t.expand(1, &s.dist, &mut best, &mut scanned, |frontier, f| {
                data.for_each_backward_neighbor(frontier, &mut ctx, f)
            })?;
        }
    }

    let Some((len, [meet_a, meet_b])) = best else {
        return Ok(BidirOutcome {
            distance: None,
            path: None,
            scanned_edges: scanned,
        });
    };
    let path = want_path.then(|| {
        // src ← … ← meet_a, then meet_b → … → dst.
        let mut vertices = Vec::with_capacity(len as usize + 1);
        let mut x = meet_a;
        loop {
            vertices.push(x);
            if x == src {
                break;
            }
            x = sides[0].parent[x as usize];
        }
        vertices.reverse();
        let mut x = meet_b;
        loop {
            vertices.push(x);
            if x == dst {
                break;
            }
            x = sides[1].parent[x as usize];
        }
        debug_assert_eq!(vertices.len() as u32, len + 1);
        vertices
    });
    Ok(BidirOutcome {
        distance: Some(len),
        path,
        scanned_edges: scanned,
    })
}

/// The kernel config of every engine search: one step worker, because
/// the engine runs queries in parallel across its workers, and the
/// frontier's edge count, which [`neighborhood`]'s edge rule compares.
pub fn search_config() -> BfsConfig {
    BfsConfig {
        batch: 64,
        threads: 1,
        count_frontier_edges: true,
        ..BfsConfig::default()
    }
}

/// Sizes of the BFS rings around `v`: `counts[d]` = vertices exactly `d`
/// hops away, up to `depth` hops (ring 0 is `v` itself), ending at the
/// first empty ring. The search is the hybrid level loop cut off at
/// `depth` ([`ScenarioData::run_rings`]) under Beamer's edge rule, on the
/// kernels `cfg` configures (pass [`search_config`]; see the module docs).
pub fn neighborhood(
    data: &ScenarioData,
    v: VertexId,
    depth: u32,
    cfg: &BfsConfig,
) -> Result<Vec<u64>> {
    let policy = BeamerPolicy::with_defaults(data.csr().num_values() / 2);
    data.run_rings(v, depth, &policy, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sembfs_core::{Direction, FixedPolicy, Scenario, ScenarioOptions};
    use sembfs_graph500::KroneckerParams;
    use sembfs_semext::PAGE_BYTES;

    /// A depth-2 top-down ring search from the hub of a cold cached
    /// layout loads the frontier's lists ahead of their visits: pages are
    /// prefetched, none goes unused while the cache holds the whole
    /// forward graph, and no page is read from the device twice. The
    /// direction is forced: under [`neighborhood`]'s edge rule the hub's
    /// second ring is found bottom-up in DRAM and reads nothing ahead.
    #[test]
    fn hub_neighborhood_prefetches_each_page_once() {
        let el = KroneckerParams::graph500(10, 5).generate();
        // The build leaves the offloaded files in the cache; a one-page
        // cache keeps almost none of them, and growing it afterwards to
        // several times the forward graph means the query starts cold
        // and never evicts.
        let options = ScenarioOptions {
            page_cache_bytes: Some(PAGE_BYTES),
            ..Default::default()
        };
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, options).unwrap();
        let cache = data.page_cache().unwrap();
        cache.set_capacity_bytes(4 * data.forward_bytes());
        let device = data.device().unwrap();
        let hub = (0..data.num_vertices() as VertexId)
            .max_by_key(|&v| data.degree(v))
            .unwrap();
        let top_down = FixedPolicy(Direction::TopDown);
        let search = || data.run_rings(hub, 2, &top_down, &search_config());

        let (cache_before, io_before) = (cache.snapshot(), device.snapshot());
        let resident_before = cache.resident_pages() as u64;
        let rings = search().unwrap();
        assert_eq!(rings.len(), 3, "a hub reaches two rings: {rings:?}");
        let c = cache.snapshot().delta(&cache_before);
        let io = device.snapshot().delta(&io_before);
        assert!(c.readahead_pages > 0, "the query prefetched nothing");
        assert_eq!(c.prefetch_unused, 0);
        assert_eq!(c.evictions, 0);
        // Every page load, on demand or ahead, made a new resident page,
        // and the device delivered no more than those pages hold.
        let loaded = cache.resident_pages() as u64 - resident_before;
        assert_eq!(c.misses + c.readahead_pages, loaded);
        assert!(io.bytes <= loaded * PAGE_BYTES, "{} bytes", io.bytes);

        // Everything the query needs is now resident, and the edge rule's
        // search gives the same rings.
        let io_before = device.snapshot();
        assert_eq!(search().unwrap(), rings);
        let nbhd = neighborhood(&data, hub, 2, &search_config()).unwrap();
        assert_eq!(nbhd, rings);
        assert_eq!(device.snapshot().delta(&io_before).requests, 0);
    }
}
