//! Property tests: bidirectional point-to-point search and neighborhood
//! rings must agree with the serial reference BFS on arbitrary graphs,
//! endpoints, and data layouts — reconstructed paths must be real edge
//! sequences of exactly the claimed length, and every layout must answer
//! exactly like the DRAM-only one.

use proptest::prelude::*;
use sembfs_core::{reference_bfs, Scenario, ScenarioData, ScenarioOptions};
use sembfs_graph500::edge_list::MemEdgeList;
use sembfs_graph500::validate::{compute_levels, INVALID_LEVEL};
use sembfs_graph500::VertexId;
use sembfs_numa::Topology;
use sembfs_query::{bidirectional_search, neighborhood, search_config};

const N: u32 = 32;

fn options() -> ScenarioOptions {
    ScenarioOptions {
        topology: Topology::new(2, 2),
        ..Default::default()
    }
}

/// The five layouts under test: every scenario (DRAM-only first), a
/// cached external forward graph, and a split backward graph so the
/// DRAM-head + NVM-tail read path is exercised too.
fn layouts(el: &MemEdgeList) -> Vec<(String, ScenarioData)> {
    let mut out = Vec::new();
    for sc in Scenario::ALL {
        out.push((
            sc.label().to_string(),
            ScenarioData::build(el, sc, options()).unwrap(),
        ));
    }
    out.push((
        "DRAM+PCIeFlash cached".to_string(),
        ScenarioData::build(el, Scenario::DramPcieFlash, cached_options(el)).unwrap(),
    ));
    let mut opts = options();
    opts.backward_offload_k = Some(2);
    out.push((
        "DRAM+SSD split-backward".to_string(),
        ScenarioData::build(el, Scenario::DramSsd, opts).unwrap(),
    ));
    out
}

/// A page cache of about a quarter of the forward graph (at least one
/// page) in a single CLOCK ring, so pages are evicted in the middle of a
/// query, prefetched ones included.
fn cached_options(el: &MemEdgeList) -> ScenarioOptions {
    let dram = ScenarioData::build(el, Scenario::DramOnly, options()).unwrap();
    ScenarioOptions {
        page_cache_bytes: Some(dram.forward_bytes() / 4),
        cache_shards: Some(1),
        ..options()
    }
}

/// Ring sizes around `v` up to `depth` from the reference BFS levels,
/// stopping at the first empty ring.
fn reference_rings(data: &ScenarioData, v: VertexId, depth: u32) -> Vec<u64> {
    let levels = compute_levels(&reference_bfs(data.csr(), v).parent, v).unwrap();
    (0..=depth)
        .map(|d| levels.iter().filter(|&&l| l == d).count() as u64)
        .take_while(|&ring| ring > 0)
        .collect()
}

proptest! {
    /// Bidirectional distance == reference serial BFS distance, in every
    /// layout; any returned path is a valid edge sequence of that length.
    #[test]
    fn bidir_matches_reference_in_all_layouts(
        edges in proptest::collection::vec((0u32..N, 0u32..N), 0..80),
        src in 0u32..N,
        dst in 0u32..N,
    ) {
        let el = MemEdgeList::new(N as u64, edges);
        for (label, data) in layouts(&el) {
            let want = {
                let run = reference_bfs(data.csr(), src);
                let levels = compute_levels(&run.parent, src).unwrap();
                (levels[dst as usize] != INVALID_LEVEL).then_some(levels[dst as usize])
            };
            let got = bidirectional_search(&data, src, dst, true, &search_config()).unwrap();
            prop_assert_eq!(got.distance, want, "{}: {} → {}", &label, src, dst);

            match got.distance {
                None => prop_assert!(got.path.is_none(), "{}: path without distance", &label),
                Some(d) => {
                    let path = got.path.as_ref().unwrap();
                    prop_assert_eq!(path.len() as u32, d + 1, "{}: wrong path length", &label);
                    prop_assert_eq!(path[0], src, "{}: path must start at src", &label);
                    prop_assert_eq!(*path.last().unwrap(), dst, "{}: path must end at dst", &label);
                    for pair in path.windows(2) {
                        prop_assert!(
                            data.csr().neighbors(pair[0]).contains(&pair[1]),
                            "{}: {} → {} is not an edge",
                            &label, pair[0], pair[1]
                        );
                    }
                }
            }
        }
    }

    /// Neighborhood ring sizes equal the reference BFS rings, in every
    /// layout.
    #[test]
    fn neighborhood_matches_reference_rings_in_all_layouts(
        edges in proptest::collection::vec((0u32..N, 0u32..N), 0..80),
        v in 0u32..N,
        depth in 0u32..5,
    ) {
        let el = MemEdgeList::new(N as u64, edges);
        for (label, data) in layouts(&el) {
            let want = reference_rings(&data, v, depth);
            let got = neighborhood(&data, v, depth, &search_config()).unwrap();
            prop_assert_eq!(got, want, "{}: rings around {} to depth {}", &label, v, depth);
        }
    }

    /// Every layout, the split backward graph included, returns exactly
    /// the DRAM-only answers: distance, path and scanned edges of a
    /// bidirectional search, and neighborhood rings.
    #[test]
    fn every_layout_answers_like_dram_only(
        edges in proptest::collection::vec((0u32..N, 0u32..N), 0..80),
        src in 0u32..N,
        dst in 0u32..N,
        depth in 0u32..5,
    ) {
        let el = MemEdgeList::new(N as u64, edges);
        let mut all = layouts(&el).into_iter();
        let (_, dram) = all.next().unwrap();
        let want_bidir = bidirectional_search(&dram, src, dst, true, &search_config()).unwrap();
        let want_rings = neighborhood(&dram, src, depth, &search_config()).unwrap();
        for (label, data) in all {
            let got = bidirectional_search(&data, src, dst, true, &search_config()).unwrap();
            prop_assert_eq!(&got, &want_bidir, "{}: {} → {}", &label, src, dst);
            let rings = neighborhood(&data, src, depth, &search_config()).unwrap();
            prop_assert_eq!(&rings, &want_rings, "{}: rings around {}", &label, src);
        }
    }

    /// Distance-only calls agree with path calls and never allocate a path.
    #[test]
    fn distance_only_agrees_with_path_mode(
        edges in proptest::collection::vec((0u32..N, 0u32..N), 0..60),
        src in 0u32..N,
        dst in 0u32..N,
    ) {
        let el = MemEdgeList::new(N as u64, edges);
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, options()).unwrap();
        let with_path = bidirectional_search(&data, src, dst, true, &search_config()).unwrap();
        let without = bidirectional_search(&data, src, dst, false, &search_config()).unwrap();
        prop_assert_eq!(without.distance, with_path.distance);
        prop_assert!(without.path.is_none());
    }

    /// The whole-graph distances-only search (`hybrid_bfs_distances`,
    /// the analytics' sweep) agrees with the reference BFS too.
    #[test]
    fn run_distances_matches_reference(
        edges in proptest::collection::vec((0u32..N, 0u32..N), 0..60),
        src in 0u32..N,
    ) {
        let el = MemEdgeList::new(N as u64, edges);
        for sc in Scenario::ALL {
            let data = ScenarioData::build(&el, sc, options()).unwrap();
            let run = reference_bfs(data.csr(), src);
            let want = compute_levels(&run.parent, src).unwrap();
            let got = data
                .run_distances(src, &sc.best_policy(), &sembfs_core::BfsConfig::paper())
                .unwrap();
            prop_assert_eq!(&got.levels, &want, "{} from {}", sc.label(), src);
        }
    }
}

/// Deterministic spot check: a path graph's endpoints meet in the middle.
#[test]
fn path_graph_end_to_end() {
    let el = MemEdgeList::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let data = ScenarioData::build(&el, Scenario::DramOnly, options()).unwrap();
    let out = bidirectional_search(&data, 0, 5, true, &search_config()).unwrap();
    assert_eq!(out.distance, Some(5));
    assert_eq!(out.path.unwrap(), vec![0, 1, 2, 3, 4, 5]);
    // Disconnected pair.
    let el2 = MemEdgeList::new(4, vec![(0, 1), (2, 3)]);
    let data2 = ScenarioData::build(&el2, Scenario::DramOnly, options()).unwrap();
    let out2 = bidirectional_search(&data2, 0, 3, true, &search_config()).unwrap();
    assert_eq!(out2.distance, None);
    assert!(out2.path.is_none());
    // Trivial self-query.
    let out3 = bidirectional_search(&data2, 2, 2, true, &search_config()).unwrap();
    assert_eq!(out3.distance, Some(0));
    assert_eq!(out3.path.unwrap(), vec![2 as VertexId]);
}

/// The cached layout really evicts during one query: a wheel's
/// neighborhood spans more pages than its cache holds.
#[test]
fn cached_layout_evicts_mid_query() {
    let mut edges: Vec<(u32, u32)> = (1..N).map(|v| (0, v)).collect();
    edges.extend((1..N).map(|v| (v, v % (N - 1) + 1)));
    let el = MemEdgeList::new(N as u64, edges);
    let data = ScenarioData::build(&el, Scenario::DramPcieFlash, cached_options(&el)).unwrap();
    let cache = data.page_cache().unwrap();
    let before = cache.snapshot();
    assert_eq!(
        neighborhood(&data, 1, 2, &search_config()).unwrap(),
        reference_rings(&data, 1, 2)
    );
    assert!(cache.snapshot().delta(&before).evictions > 0);
}

/// A path is a function of the graph and its endpoints: on a SCALE-12
/// Kronecker graph, every layout at 1, 2 and 4 kernel workers returns the
/// same path, of the reference length, between a hub, a least-degree
/// vertex, the vertex farthest from it and an isolated one.
#[test]
fn paths_are_canonical_across_workers() {
    let el = sembfs_graph500::KroneckerParams::graph500(12, 3).generate();
    let all = layouts(&el);
    let csr = all[0].1.csr();
    let n = csr.num_vertices() as VertexId;
    let hub = (0..n).max_by_key(|&v| csr.degree(v)).unwrap();
    let least = (0..n)
        .filter(|&v| csr.degree(v) > 0)
        .min_by_key(|&v| csr.degree(v))
        .unwrap();
    let isolated = (0..n).find(|&v| csr.degree(v) == 0).unwrap();
    let from_least = compute_levels(&reference_bfs(csr, least).parent, least).unwrap();
    let far = (0..n)
        .filter(|&v| from_least[v as usize] != INVALID_LEVEL)
        .max_by_key(|&v| from_least[v as usize])
        .unwrap();
    assert!(from_least[hub as usize] != INVALID_LEVEL && from_least[far as usize] > 2);
    for (src, dst) in [
        (hub, least),
        (least, hub),
        (least, far),
        (far, hub),
        (least, isolated),
        (isolated, hub),
    ] {
        let levels = compute_levels(&reference_bfs(csr, src).parent, src).unwrap();
        let want = (levels[dst as usize] != INVALID_LEVEL).then_some(levels[dst as usize]);
        let mut paths = Vec::new();
        for (label, data) in &all {
            for threads in [1, 2, 4] {
                let cfg = search_config().with_threads(threads);
                let got = bidirectional_search(data, src, dst, true, &cfg).unwrap();
                assert_eq!(got.distance, want, "{label}, {threads} workers");
                paths.push(got.path);
            }
        }
        assert!(
            paths.iter().all(|p| p == &paths[0]),
            "{src} → {dst}: {paths:?}"
        );
    }
}
