//! Extension experiment: multi-node scaling of the semi-external hybrid
//! BFS (the paper's §VIII future work, simulated).
//!
//! Sweeps the node count for two clusters — all-DRAM nodes over an ideal
//! network, and flash-offloaded nodes over InfiniBand — reporting
//! simulated TEPS, the communication share of the runtime, and per-node
//! DRAM demand. The headline of the single-node paper should survive
//! scale-out: per-node DRAM shrinks ∝ 1/p while the α/β policy keeps the
//! device traffic bounded.

use sembfs_bench::{mteps, BenchEnv, Table};
use sembfs_core::AlphaBetaPolicy;
use sembfs_dist::{dist_hybrid_bfs, ClusterSpec, DistGraph, NetworkProfile};
use sembfs_graph500::select_roots;
use sembfs_semext::DelayMode;

fn main() {
    let env = BenchEnv::from_env();
    env.print_header(
        "Extension: simulated multi-node scaling (paper §VIII future work)",
        "not in the paper — composes the offload technique with 1-D distributed BFS",
    );
    let edges = env.generate();
    let policy = AlphaBetaPolicy::new(1e4, 1e5);

    for (cluster_name, mk_spec) in [
        (
            "DRAM nodes / ideal net",
            Box::new(|p: usize| ClusterSpec::dram(p)) as Box<dyn Fn(usize) -> ClusterSpec>,
        ),
        (
            "flash nodes / InfiniBand",
            Box::new(|p: usize| {
                let mut s = ClusterSpec::flash_cluster(p);
                s.network = NetworkProfile::infiniband_qdr();
                s.delay_mode = DelayMode::Throttled;
                s
            }),
        ),
    ] {
        println!("[{cluster_name}]");
        let mut table = Table::new(&[
            "nodes",
            "sim MTEPS",
            "comm %",
            "MiB moved/run",
            "node DRAM MiB",
            "node NVM MiB",
        ]);
        for p in [1usize, 2, 4, 8] {
            let graph = DistGraph::build(&edges, mk_spec(p)).expect("cluster build");
            let roots = select_roots(graph.num_vertices(), env.num_roots.min(4), env.seed, |v| {
                graph.degree(v)
            });
            let mut teps: Vec<f64> = Vec::new();
            let mut comm_frac = 0.0;
            let mut bytes = 0u64;
            for &root in &roots {
                let run = dist_hybrid_bfs(&graph, root, &policy).expect("bfs");
                teps.push(run.sim_teps());
                let net: f64 = run.levels.iter().map(|l| l.net_time.as_secs_f64()).sum();
                comm_frac += net / run.sim_elapsed.as_secs_f64().max(1e-12);
                bytes += run.net.bytes;
            }
            teps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let dram_mib = (0..p).map(|k| graph.node_dram_bytes(k)).max().unwrap();
            let nvm_mib = (0..p).map(|k| graph.node_nvm_bytes(k)).max().unwrap();
            table.row(&[
                p.to_string(),
                mteps(teps[teps.len() / 2]),
                format!("{:.1}", 100.0 * comm_frac / roots.len() as f64),
                format!(
                    "{:.1}",
                    bytes as f64 / roots.len() as f64 / (1 << 20) as f64
                ),
                format!("{:.1}", dram_mib as f64 / (1 << 20) as f64),
                format!("{:.1}", nvm_mib as f64 / (1 << 20) as f64),
            ]);
        }
        table.print();
        println!();
    }
    println!("expected: per-node memory ∝ 1/p; communication share grows with p");
}
