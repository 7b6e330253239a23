//! Multi-node extension (the paper's §VIII future work): the hybrid BFS
//! on a simulated cluster whose nodes each apply the semi-external layout
//! locally — forward copy on per-node flash, backward copy in per-node
//! DRAM — communicating over a modeled interconnect.
//!
//! ```sh
//! cargo run --release --example distributed [scale] [nodes]
//! ```

use sembfs::dist::{dist_hybrid_bfs, ClusterSpec, DistGraph, NetworkProfile};
use sembfs::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(15);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let params = KroneckerParams::graph500(scale, 7);
    println!("== distributed hybrid BFS: SCALE {scale} on {nodes} simulated flash nodes ==\n");
    let edges = params.generate();

    let mut spec = ClusterSpec::flash_cluster(nodes);
    spec.network = NetworkProfile::infiniband_qdr();
    let graph = DistGraph::build(&edges, spec).expect("cluster build");

    for k in 0..nodes {
        println!(
            "node {k}: vertices {:?}, DRAM {:.1} MiB (backward), NVM {:.1} MiB (forward)",
            graph.partition().range(k),
            graph.node_dram_bytes(k) as f64 / (1 << 20) as f64,
            graph.node_nvm_bytes(k) as f64 / (1 << 20) as f64,
        );
    }

    let root = select_roots(params.num_vertices(), 1, 3, |v| graph.degree(v))[0];
    let policy = AlphaBetaPolicy::new(1e4, 1e5);
    let run = dist_hybrid_bfs(&graph, root, &policy).expect("bfs");
    validate_bfs_tree(&run.parent, root, &edges).expect("validate");

    println!("\n level  direction   frontier  discovered    comm KiB   sim ms");
    for l in &run.levels {
        println!(
            " {:>5}  {:<10} {:>9}  {:>10}  {:>10.1}  {:>7.3}",
            l.core.level,
            l.core.direction.to_string(),
            l.core.frontier_size,
            l.core.discovered,
            l.net_bytes as f64 / 1024.0,
            l.sim_time.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\nvisited {} vertices | simulated {:.2} MTEPS | traffic: {:.1} KiB in {} messages \
         + {} collectives",
        run.visited,
        run.sim_teps() / 1e6,
        run.net.bytes as f64 / 1024.0,
        run.net.messages,
        run.net.collectives,
    );
    if let Some(dev) = graph.device() {
        let s = dev.snapshot();
        println!(
            "node devices: {} requests, avgrq-sz {:.1} sectors",
            s.requests,
            s.avgrq_sz()
        );
    }
}
