//! End-to-end benchmark of the simulated multi-node searcher: host time of
//! one search plus its traffic derivation, by node count. (The network is
//! priced after the search, so the profile does not change host time.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sembfs_core::AlphaBetaPolicy;
use sembfs_dist::{dist_hybrid_bfs, ClusterSpec, DistGraph};
use sembfs_graph500::{select_roots, KroneckerParams};

const SCALE: u32 = 13;

fn bench_node_counts(c: &mut Criterion) {
    let params = KroneckerParams::graph500(SCALE, 5);
    let edges = params.generate();
    let policy = AlphaBetaPolicy::new(1e4, 1e5);
    let mut g = c.benchmark_group("dist_bfs_nodes");
    g.throughput(Throughput::Elements(params.num_edges()));
    g.sample_size(15);
    for nodes in [1usize, 2, 4, 8] {
        let graph = DistGraph::build(&edges, ClusterSpec::dram(nodes)).unwrap();
        let root = select_roots(graph.num_vertices(), 1, 2, |v| graph.degree(v))[0];
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &graph, |b, graph| {
            b.iter(|| dist_hybrid_bfs(graph, root, &policy).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_node_counts);
criterion_main!(benches);
