//! Property tests: bidirectional point-to-point search must agree with
//! the serial reference BFS on arbitrary graphs, endpoints, and data
//! layouts — and reconstructed paths must be real edge sequences of
//! exactly the claimed length.

use proptest::prelude::*;
use sembfs_core::{reference_bfs, Scenario, ScenarioData, ScenarioOptions};
use sembfs_graph500::edge_list::MemEdgeList;
use sembfs_graph500::validate::{compute_levels, INVALID_LEVEL};
use sembfs_graph500::VertexId;
use sembfs_numa::Topology;
use sembfs_query::bidirectional_search;

const N: u32 = 32;

fn options() -> ScenarioOptions {
    ScenarioOptions {
        topology: Topology::new(2, 2),
        ..Default::default()
    }
}

/// The four layouts under test: every scenario, plus a split backward
/// graph so the DRAM-head + NVM-tail read path is exercised too.
fn layouts(el: &MemEdgeList) -> Vec<(String, ScenarioData)> {
    let mut out = Vec::new();
    for sc in Scenario::ALL {
        out.push((
            sc.label().to_string(),
            ScenarioData::build(el, sc, options()).unwrap(),
        ));
    }
    let mut opts = options();
    opts.backward_offload_k = Some(2);
    out.push((
        "DRAM+SSD split-backward".to_string(),
        ScenarioData::build(el, Scenario::DramSsd, opts).unwrap(),
    ));
    out
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
            let got = bidirectional_search(&data, src, dst, true).unwrap();
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

    /// Distance-only calls agree with path calls and never allocate a path.
    #[test]
    fn distance_only_agrees_with_path_mode(
        edges in proptest::collection::vec((0u32..N, 0u32..N), 0..60),
        src in 0u32..N,
        dst in 0u32..N,
    ) {
        let el = MemEdgeList::new(N as u64, edges);
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, options()).unwrap();
        let with_path = bidirectional_search(&data, src, dst, true).unwrap();
        let without = bidirectional_search(&data, src, dst, false).unwrap();
        prop_assert_eq!(without.distance, with_path.distance);
        prop_assert!(without.path.is_none());
    }

    /// The engine's whole-graph Distance path agrees with the reference
    /// BFS too (it runs `hybrid_bfs_distances` under the hood).
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
    let out = bidirectional_search(&data, 0, 5, true).unwrap();
    assert_eq!(out.distance, Some(5));
    assert_eq!(out.path.unwrap(), vec![0, 1, 2, 3, 4, 5]);
    // Disconnected pair.
    let el2 = MemEdgeList::new(4, vec![(0, 1), (2, 3)]);
    let data2 = ScenarioData::build(&el2, Scenario::DramOnly, options()).unwrap();
    let out2 = bidirectional_search(&data2, 0, 3, true).unwrap();
    assert_eq!(out2.distance, None);
    assert!(out2.path.is_none());
    // Trivial self-query.
    let out3 = bidirectional_search(&data2, 2, 2, true).unwrap();
    assert_eq!(out3.distance, Some(0));
    assert_eq!(out3.path.unwrap(), vec![2 as VertexId]);
}
