//! Extension experiment: the Green Graph500 argument (§I / §VIII).
//!
//! The paper ranked 4th in the Big Data category at 4.35 MTEPS/W by
//! processing a large graph on *one* NVM-equipped server. The energy
//! claim is architectural: to hold the same graph in DRAM you need either
//! double the DRAM on one node or several nodes — both costlier in watts
//! per TEPS once DRAM is the dominant consumer. This bin combines
//! measured (simulated) TEPS with a documented 2013-era power model:
//!
//! * one DRAM-only node, fully provisioned (Table I: 128 GB class), on
//!   one step worker like each modeled cluster node;
//! * one DRAM+PCIeFlash node with half the DRAM (64 GB class);
//! * a 2-node DRAM cluster of half-DRAM nodes (same total capacity),
//!   simulated by `sembfs-dist` over InfiniBand.

use sembfs_bench::{measure_with, BenchEnv, Table};
use sembfs_core::{AlphaBetaPolicy, BfsConfig, PowerModel, Scenario};
use sembfs_dist::{dist_hybrid_bfs, ClusterSpec, DistGraph, NetworkProfile};
use sembfs_graph500::select_roots;

fn main() {
    let env = BenchEnv::from_env();
    env.print_header(
        "Extension: Green Graph500 MTEPS/W estimate",
        "paper: 4.35 MTEPS/W, rank 4 (Big Data), single fat NVM server (Nov 2013)",
    );
    let edges = env.generate();
    let power = PowerModel::era_2013();
    let policy = AlphaBetaPolicy::new(1e4, 1e5);

    // Provisioned capacities of the Table I machine classes.
    let (full_dram_gib, half_dram_gib) = (128.0, 64.0);

    let mut table = Table::new(&[
        "deployment",
        "median MTEPS",
        "modeled W",
        "MTEPS/W",
        "relative",
    ]);
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    // A single node runs one step worker, as each modeled cluster node
    // does (one worker, its time divided by the node count).
    let one_worker = BfsConfig::paper().with_threads(1);

    // 1 × DRAM-only node.
    {
        let data = env.build(&edges, Scenario::DramOnly, env.measured_options());
        let (_, median) = measure_with(&data, &env.roots(&data), &policy, &one_worker);
        rows.push((
            "1 x DRAM-only node (128 GiB class)".into(),
            median,
            power.node_watts(full_dram_gib, 0, 0),
        ));
    }
    // 1 × DRAM+PCIeFlash node.
    {
        let data = env.build(&edges, Scenario::DramPcieFlash, env.measured_options());
        let (_, median) = measure_with(&data, &env.roots(&data), &policy, &one_worker);
        rows.push((
            "1 x DRAM+PCIeFlash node (64 GiB class)".into(),
            median,
            power.node_watts(half_dram_gib, 1, 0),
        ));
    }
    // 2 × half-DRAM nodes over commodity 10 GbE (same total capacity);
    // Green Graph500's Big Data rivals were commodity clusters.
    {
        let mut spec = ClusterSpec::dram(2);
        spec.network = NetworkProfile::ten_gbe();
        let graph = DistGraph::build(&edges, spec).expect("cluster");
        let roots = select_roots(graph.num_vertices(), env.num_roots, env.seed, |v| {
            graph.degree(v)
        });
        let mut teps: Vec<f64> = roots
            .iter()
            .map(|&r| dist_hybrid_bfs(&graph, r, &policy).expect("bfs").sim_teps())
            .collect();
        teps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        rows.push((
            "2 x DRAM nodes (64 GiB each, 10 GbE)".into(),
            teps[teps.len() / 2],
            2.0 * power.node_watts(half_dram_gib, 0, 0),
        ));
    }

    let base_mpw = power.mteps_per_watt(rows[0].1, rows[0].2);
    for (label, teps, watts) in rows {
        let mpw = power.mteps_per_watt(teps, watts);
        table.row(&[
            label,
            format!("{:.2}", teps / 1e6),
            format!("{watts:.0}"),
            format!("{mpw:.4}"),
            format!("{:.2}x", mpw / base_mpw),
        ]);
    }
    table.print();
    println!(
        "\npaper shape check: the NVM node trades ~20 % TEPS for ~2 % of the power \
         budget vs the full-DRAM node. NOTE on the cluster row: at reduced SCALE the \
         bottom-up allgather is tiny (n/8 = {} KiB per level vs 16+ MiB at the paper's \
         SCALE 27+), so scale-out looks cheap here; the paper's single-node MTEPS/W \
         win materializes in the communication-bound regime its graphs occupy.",
        (1u64 << env.scale) / 8 / 1024
    );
}
