//! Point queries on the core hybrid level loop: bidirectional search and
//! bounded-depth neighborhoods over a scenario's data layout.
//!
//! **Bidirectional search.** [`bidirectional_search`] steps two searches
//! toward each other ([`ScenarioData::run_bidirectional`]), a level at a
//! time, always the one with the smaller frontier: the source side
//! through the *forward* store (NVM-resident in the semi-external
//! scenarios), the destination side through the DRAM *backward* graph.
//! **Meeting rule:** after each step the new frontier is intersected with
//! the other side's visited set; the first meeting, of sides at depths
//! `ds` and `dt`, is exact at distance `ds + dt`, and a frontier that
//! empties first means no path. The path joins the two min-parent trees
//! at the least-id meeting vertex, so it is the same on every layout and
//! at every worker count.
//!
//! **Direction switch.** Every search here runs under Beamer's edge rule:
//! a frontier whose lists hold few edges expands top-down, and a wide one
//! probes the DRAM backward graph bottom-up, the paper's split (§III-C,
//! §V). A hub's first ring reads one list from the device and its second
//! is found in DRAM. The paper's flash α/β (α = 10⁶) would send every
//! first level bottom-up, a whole-graph probe for one list's answers.
//! [`neighborhood`] is the level loop cut off at the query's depth
//! ([`ScenarioData::run_rings`]).
//!
//! **No private read path.** Every top-down level is the core kernel's,
//! which reads a cached store in page windows with its units prefetched
//! ahead; every bottom-up level probes the backward graph (a split
//! layout's tail uncached). The engine's parallelism is *across queries*,
//! so every search runs its kernels on one worker ([`search_config`]).

use sembfs_core::{BeamerPolicy, BfsConfig, BidirOutcome, ScenarioData, VertexId};
use sembfs_semext::Result;

/// Beamer's edge rule over the scenario's undirected edge count: the
/// direction policy of every engine search.
fn edge_rule(data: &ScenarioData) -> BeamerPolicy {
    BeamerPolicy::with_defaults(data.csr().num_values() / 2)
}

/// Point-to-point shortest path between `src` and `dst` by bidirectional
/// BFS on the kernels `cfg` configures (pass [`search_config`]; see the
/// module docs). Set `want_path` to also get one shortest path; without
/// it only the distance is computed.
pub fn bidirectional_search(
    data: &ScenarioData,
    src: VertexId,
    dst: VertexId,
    want_path: bool,
    cfg: &BfsConfig,
) -> Result<BidirOutcome> {
    data.run_bidirectional(src, dst, want_path, &edge_rule(data), cfg)
}

/// The kernel config of every engine search: one step worker, because
/// the engine runs queries in parallel across its workers, and the
/// frontier's edge count, which the edge rule compares.
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
    data.run_rings(v, depth, &edge_rule(data), cfg)
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
