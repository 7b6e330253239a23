//! The distributed hybrid BFS (Beamer et al., MTAAP'13) as a model over
//! one core search.
//!
//! The search itself is the core engine's level loop
//! ([`ScenarioData::run`](sembfs_core::ScenarioData::run)) on the
//! cluster's layout, one worker per node. The 1-D communication of each
//! level is then read off the tree:
//!
//! * **top-down**: frontier owners send `(child, parent)` claims to each
//!   child's owner, 8 bytes per claim. Every edge from level `d` to level
//!   `d+1` is a claim; claims whose endpoints share an owner never reach
//!   the network and are not charged. One message per ordered node pair
//!   that exchanges claims.
//! * **bottom-up**: one allgather replicates the frontier bitmap
//!   (`⌈n/64⌉·8·(p−1)` bytes in `⌈log₂ p⌉` rounds, at least 1), then every
//!   node probes its local unvisited vertices with no per-edge
//!   communication — the property that made bottom-up attractive for
//!   distributed memory in the first place.
//!
//! The simulated level time is the measured step time split evenly over
//! the `p` nodes (a perfectly balanced partition of the work) plus the
//! modeled network phase.

use std::time::Duration;

use sembfs_core::policy::DirectionPolicy;
use sembfs_core::{BfsConfig, Direction, LevelStats};
use sembfs_graph500::validate::{compute_levels, INVALID_LEVEL};
use sembfs_semext::Result;

use crate::cluster::DistGraph;
use crate::network::NetStats;
use crate::VertexId;

/// Per-level measurements of the distributed search.
#[derive(Debug, Clone)]
pub struct DistLevelStats {
    /// The core engine's measurements of the level, over the whole graph.
    pub core: LevelStats,
    /// Simulated level time: `core.elapsed / p + net_time`.
    pub sim_time: Duration,
    /// The level's network share of `sim_time`.
    pub net_time: Duration,
    /// Bytes exchanged this level.
    pub net_bytes: u64,
}

/// Result of a distributed BFS.
#[derive(Debug, Clone)]
pub struct DistBfsRun {
    /// Global parent array.
    pub parent: Vec<VertexId>,
    /// Per-level measurements.
    pub levels: Vec<DistLevelStats>,
    /// Vertices reached (including the root).
    pub visited: u64,
    /// Undirected edges in the traversed component (TEPS numerator).
    pub teps_edges: u64,
    /// Total simulated wall time.
    pub sim_elapsed: Duration,
    /// Aggregate traffic.
    pub net: NetStats,
}

impl DistBfsRun {
    /// Simulated TEPS.
    pub fn sim_teps(&self) -> f64 {
        let s = self.sim_elapsed.as_secs_f64();
        if s > 0.0 {
            self.teps_edges as f64 / s
        } else {
            0.0
        }
    }
}

/// Run the distributed hybrid BFS from `root` under `policy`.
pub fn dist_hybrid_bfs(
    graph: &DistGraph,
    root: VertexId,
    policy: &dyn DirectionPolicy,
) -> Result<DistBfsRun> {
    let p = graph.num_nodes();
    let run = graph
        .data()
        .run(root, policy, &BfsConfig::paper().with_threads(1))?;
    let claims = remote_claims(graph, &run.parent, root, &run.levels);

    let gather_bytes = graph.num_vertices().div_ceil(64) * 8 * (p as u64 - 1);
    let gather_rounds = (p as u32).next_power_of_two().trailing_zeros().max(1);
    let mut net = NetStats::default();
    let mut sim_elapsed = Duration::ZERO;
    let mut levels = Vec::with_capacity(run.levels.len());
    for (core, pairs) in run.levels.into_iter().zip(claims) {
        let (net_bytes, rounds) = match core.direction {
            Direction::TopDown => {
                for &count in pairs.iter().filter(|&&c| c > 0) {
                    net.message(8 * count);
                }
                (8 * pairs.iter().sum::<u64>(), 1)
            }
            Direction::BottomUp => {
                if gather_bytes > 0 {
                    net.collective(gather_bytes);
                }
                (gather_bytes, gather_rounds)
            }
        };
        let net_time = graph.spec().network.phase_time(net_bytes, rounds);
        let sim_time = core.elapsed / p as u32 + net_time;
        sim_elapsed += sim_time;
        levels.push(DistLevelStats {
            core,
            sim_time,
            net_time,
            net_bytes,
        });
    }

    Ok(DistBfsRun {
        parent: run.parent,
        levels,
        visited: run.visited,
        teps_edges: run.teps_edges,
        sim_elapsed,
        net,
    })
}

/// Remote top-down claims of each level, as counts indexed
/// `[level − 1][src · p + dst]` by the owners of the frontier vertex and
/// of the claimed child (all zero on bottom-up levels): one pass over the
/// CSR counting the edges `(u, w)` with `level(w) = level(u) + 1`.
fn remote_claims(
    graph: &DistGraph,
    parent: &[VertexId],
    root: VertexId,
    levels: &[LevelStats],
) -> Vec<Vec<u64>> {
    let p = graph.num_nodes();
    let depth = compute_levels(parent, root).expect("the core engine returns a valid tree");
    let csr = graph.data().csr();
    let mut claims = vec![vec![0u64; p * p]; levels.len()];
    for src in 0..p {
        for u in graph.partition().range(src) {
            let d = depth[u as usize];
            // The step producing level d + 1 is `levels[d]`.
            if d == INVALID_LEVEL || levels[d as usize].direction != Direction::TopDown {
                continue;
            }
            for &w in csr.neighbors(u as VertexId) {
                let dst = graph.owner(w);
                if depth[w as usize] == d + 1 && dst != src {
                    claims[d as usize][src * p + dst] += 1;
                }
            }
        }
    }
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use sembfs_core::{reference_bfs, AlphaBetaPolicy, FixedPolicy};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_graph500::{select_roots, validate_bfs_tree, KroneckerParams};

    fn kron(scale: u32, seed: u64) -> MemEdgeList {
        KroneckerParams::graph500(scale, seed).generate()
    }

    /// Bytes of the remote claims of `run`'s top-down levels, counted edge
    /// by edge from the edge list and the reference tree's levels.
    pub(super) fn brute_force_claim_bytes(
        el: &MemEdgeList,
        g: &DistGraph,
        root: VertexId,
        run: &DistBfsRun,
    ) -> u64 {
        let reference = reference_bfs(g.data().csr(), root);
        let depth = compute_levels(&reference.parent, root).unwrap();
        let mut bytes = 0;
        for &(a, b) in el.as_slice() {
            for (u, w) in [(a, b), (b, a)] {
                let (du, dw) = (depth[u as usize], depth[w as usize]);
                if du != INVALID_LEVEL
                    && dw == du + 1
                    && run.levels[du as usize].core.direction == Direction::TopDown
                    && g.owner(u) != g.owner(w)
                {
                    bytes += 8;
                }
            }
        }
        bytes
    }

    #[test]
    fn path_graph_all_nodes() {
        let el = MemEdgeList::new(8, (0..7).map(|i| (i, i + 1)).collect());
        let g = DistGraph::build(&el, ClusterSpec::dram(4)).unwrap();
        let run = dist_hybrid_bfs(&g, 0, &AlphaBetaPolicy::new(1e3, 1e3)).unwrap();
        assert_eq!(run.visited, 8);
        assert_eq!(run.parent[7], 6);
        validate_bfs_tree(&run.parent, 0, &el).unwrap();
    }

    #[test]
    fn matches_single_node_levels_on_kronecker() {
        let el = kron(10, 33);
        let single = DistGraph::build(&el, ClusterSpec::dram(1)).unwrap();
        let multi = DistGraph::build(&el, ClusterSpec::dram(4)).unwrap();
        let roots = select_roots(single.num_vertices(), 2, 7, |v| single.degree(v));
        for &root in &roots {
            let a = dist_hybrid_bfs(&single, root, &AlphaBetaPolicy::new(1e4, 1e5)).unwrap();
            let b = dist_hybrid_bfs(&multi, root, &AlphaBetaPolicy::new(1e4, 1e5)).unwrap();
            let la = compute_levels(&a.parent, root).unwrap();
            let lb = compute_levels(&b.parent, root).unwrap();
            assert_eq!(la, lb, "root {root}");
            assert_eq!(a.visited, b.visited);
            validate_bfs_tree(&b.parent, root, &el).unwrap();
        }
    }

    #[test]
    fn trees_equal_reference_at_every_node_count() {
        let policies: [&dyn DirectionPolicy; 3] = [
            &AlphaBetaPolicy::new(1e4, 1e5),
            &FixedPolicy(Direction::TopDown),
            &FixedPolicy(Direction::BottomUp),
        ];
        for scale in [10, 12] {
            let el = kron(scale, 7);
            for p in [1, 2, 3, 4, 8] {
                let g = DistGraph::build(&el, ClusterSpec::dram(p)).unwrap();
                for root in select_roots(g.num_vertices(), 2, 3, |v| g.degree(v)) {
                    let want = reference_bfs(g.data().csr(), root).parent;
                    for policy in policies {
                        let run = dist_hybrid_bfs(&g, root, policy).unwrap();
                        assert!(run.parent == want, "SCALE {scale} p {p} root {root}");
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_directions_validate() {
        let el = kron(9, 4);
        let g = DistGraph::build(&el, ClusterSpec::dram(3)).unwrap();
        let root = select_roots(g.num_vertices(), 1, 2, |v| g.degree(v))[0];
        for policy in [
            FixedPolicy(Direction::TopDown),
            FixedPolicy(Direction::BottomUp),
        ] {
            let run = dist_hybrid_bfs(&g, root, &policy).unwrap();
            validate_bfs_tree(&run.parent, root, &el).unwrap();
            assert!(run.visited > 1);
        }
    }

    #[test]
    fn network_traffic_accounted() {
        let el = kron(9, 8);
        let mut spec = ClusterSpec::dram(4);
        spec.network = crate::NetworkProfile::ten_gbe();
        let g = DistGraph::build(&el, spec).unwrap();
        let root = select_roots(g.num_vertices(), 1, 5, |v| g.degree(v))[0];
        // α/β (15, 20) runs top-down levels on both sides of its
        // bottom-up ones at this size.
        let run = dist_hybrid_bfs(&g, root, &AlphaBetaPolicy::new(15.0, 20.0)).unwrap();
        let (td, bu): (Vec<_>, Vec<_>) = run
            .levels
            .iter()
            .partition(|l| l.core.direction == Direction::TopDown);
        assert!(
            !td.is_empty() && !bu.is_empty(),
            "policy must mix directions"
        );
        let gather = g.num_vertices().div_ceil(64) * 8 * 3;
        assert!(bu.iter().all(|l| l.net_bytes == gather));
        assert_eq!(run.net.collectives, bu.len() as u64);
        let td_bytes: u64 = td.iter().map(|l| l.net_bytes).sum();
        assert!(td_bytes > 0);
        assert_eq!(td_bytes, brute_force_claim_bytes(&el, &g, root, &run));
        assert_eq!(run.net.bytes, td_bytes + gather * bu.len() as u64);
        assert!(run.levels.iter().all(|l| l.net_time > Duration::ZERO));
        assert!(run.sim_teps() > 0.0);
    }

    #[test]
    fn single_node_has_no_traffic() {
        let el = kron(9, 8);
        let g = DistGraph::build(&el, ClusterSpec::dram(1)).unwrap();
        let root = select_roots(g.num_vertices(), 1, 5, |v| g.degree(v))[0];
        let run = dist_hybrid_bfs(&g, root, &AlphaBetaPolicy::new(15.0, 20.0)).unwrap();
        let dirs = |d| run.levels.iter().filter(|l| l.core.direction == d).count();
        assert!(dirs(Direction::TopDown) > 0 && dirs(Direction::BottomUp) > 0);
        assert_eq!(run.net, NetStats::default());
        assert!(run.levels.iter().all(|l| l.net_bytes == 0));
    }

    #[test]
    fn nvm_cluster_validates_and_meters_devices() {
        let el = kron(9, 12);
        let mut spec = ClusterSpec::flash_cluster(2);
        spec.delay_mode = sembfs_semext::DelayMode::Accounting;
        let g = DistGraph::build(&el, spec).unwrap();
        let root = select_roots(g.num_vertices(), 1, 3, |v| g.degree(v))[0];
        let run = dist_hybrid_bfs(&g, root, &AlphaBetaPolicy::new(1e4, 1e5)).unwrap();
        validate_bfs_tree(&run.parent, root, &el).unwrap();
        let reqs = g.device().unwrap().snapshot().requests;
        assert!(reqs > 0, "the node device must have served reads");
    }
}

#[cfg(test)]
mod level_semantics_tests {
    use super::tests::brute_force_claim_bytes;
    use super::*;
    use crate::cluster::ClusterSpec;
    use sembfs_core::{AlphaBetaPolicy, FixedPolicy};
    use sembfs_graph500::edge_list::MemEdgeList;

    /// Star-with-tail: 0-{1,2,3}, 3-4, 4-5 over 3 nodes of 2 vertices.
    fn edges() -> MemEdgeList {
        MemEdgeList::new(6, vec![(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    }

    fn graph() -> DistGraph {
        DistGraph::build(&edges(), ClusterSpec::dram(3)).unwrap()
    }

    #[test]
    fn level_stats_chain_consistently() {
        let g = graph();
        let run = dist_hybrid_bfs(&g, 0, &AlphaBetaPolicy::new(1e3, 1e3)).unwrap();
        // Frontier sizes chain: each level's input is the prior's output.
        let mut expect = 1;
        for l in &run.levels {
            assert_eq!(l.core.frontier_size, expect, "level {}", l.core.level);
            expect = l.core.discovered;
        }
        assert_eq!(run.visited, 6);
        // Simulated time covers every level.
        let total: Duration = run.levels.iter().map(|l| l.sim_time).sum();
        assert_eq!(total, run.sim_elapsed);
    }

    #[test]
    fn top_down_traffic_is_claim_sized() {
        let g = graph();
        let run = dist_hybrid_bfs(&g, 0, &FixedPolicy(Direction::TopDown)).unwrap();
        // Level 1 sends 0→2 and 0→3 from node 0 to node 1 (0→1 stays on
        // node 0); level 2 sends 3→4 from node 1 to node 2; 4→5 is local.
        let bytes: Vec<u64> = run.levels.iter().map(|l| l.net_bytes).collect();
        assert_eq!(bytes, [16, 8, 0, 0]);
        assert_eq!(
            run.net.bytes,
            brute_force_claim_bytes(&edges(), &g, 0, &run)
        );
        assert_eq!(run.net.messages, 2, "one message per node pair and level");
        assert_eq!(run.net.collectives, 0, "pure top-down never allgathers");
    }

    #[test]
    fn bottom_up_traffic_is_bitmap_sized() {
        let g = graph();
        let run = dist_hybrid_bfs(&g, 0, &FixedPolicy(Direction::BottomUp)).unwrap();
        assert_eq!(run.net.messages, 0, "pure bottom-up sends no claims");
        assert_eq!(run.net.collectives as usize, run.levels.len());
        // One bitmap word to each of the two other nodes, every level.
        assert!(run.levels.iter().all(|l| l.net_bytes == 16));
    }

    #[test]
    fn teps_edges_counts_component() {
        let g = graph();
        let run = dist_hybrid_bfs(&g, 0, &AlphaBetaPolicy::new(1e2, 1e2)).unwrap();
        // 5 undirected edges, all inside the component.
        assert_eq!(run.teps_edges, 5);
    }
}
