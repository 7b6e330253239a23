//! Figure 8: BFS performance for the main (SCALE 27) instance — the three
//! scenarios, each at its best switching parameters, plus the
//! top-down-only, bottom-up-only, and Graph500-reference baselines.
//!
//! Paper: DRAM-only 5.12 GTEPS; DRAM+PCIeFlash 4.22 GTEPS (−19.18 %);
//! DRAM+SSD 2.76 GTEPS (−47.1 %); top-down-only 0.6; bottom-up-only 0.4;
//! reference v2.1.4 0.04 — all on the DRAM-only box for the baselines.

use std::time::Instant;

use sembfs_bench::{measure, mteps, spare_dram_for, trace_begin, trace_finish, BenchEnv, Table};
use sembfs_core::{reference_bfs, Direction, FixedPolicy, Scenario};

fn main() {
    let env = BenchEnv::from_env();
    env.print_header(
        "Figure 8: BFS Performance (main SCALE)",
        "SCALE 27 — DRAM-only 5.12 GTEPS, +PCIeFlash 4.22 (−19.18 %), +SSD 2.76 \
         (−47.1 %); TD-only 0.6, BU-only 0.4, reference 0.04",
    );
    let edges = env.generate();

    let mut table = Table::new(&[
        "configuration",
        "alpha",
        "beta",
        "median MTEPS",
        "vs DRAM-only %",
    ]);
    let mut rows: Vec<(String, String, String, f64)> = Vec::new();

    // Hybrid per scenario at the α/β the paper found best for it (§VI-B):
    // one fixed setting each, so the gaps are not a maximum over noisy
    // medians. No page-cache model here: at the paper's main SCALE the
    // forward graph (40.1 GB) dwarfs the spare DRAM (≈16 GB) and the
    // measured iostat queues (Figs. 12/13) show the reads really reached
    // the device. Fig. 9 is the cached regime.
    let _ = spare_dram_for(&env, env.scale);
    for sc in Scenario::ALL {
        let data = env.build(&edges, sc, env.measured_options());
        trace_begin(&data);
        let roots = env.roots(&data);
        let policy = sc.best_policy();
        let (_, median) = measure(&data, &roots, &policy);
        rows.push((
            sc.label().to_string(),
            format!("{:.0e}", policy.alpha),
            format!("{:.0e}", policy.beta),
            median,
        ));
    }
    let dram = rows[0].3; // `Scenario::ALL` starts with DRAM-only.

    // Baselines on the DRAM-only configuration (as in the paper).
    let data = env.build(&edges, Scenario::DramOnly, env.measured_options());
    let roots = env.roots(&data);
    for (label, dir) in [
        ("top-down only", Direction::TopDown),
        ("bottom-up only", Direction::BottomUp),
    ] {
        let (_, median) = measure(&data, &roots, &FixedPolicy(dir));
        rows.push((label.to_string(), "-".into(), "-".into(), median));
    }
    // Graph500 reference (serial top-down).
    {
        let mut teps = Vec::new();
        for &root in &roots {
            let t0 = Instant::now();
            let run = reference_bfs(data.csr(), root);
            let dt = t0.elapsed().as_secs_f64();
            // Same edge accounting as the hybrid searchers.
            let edges_in_component = run
                .parent
                .iter()
                .enumerate()
                .filter(|(_, &p)| p != sembfs_core::INVALID_PARENT)
                .map(|(v, _)| data.csr().degree(v as u32))
                .sum::<u64>()
                / 2;
            teps.push(edges_in_component as f64 / dt);
        }
        teps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rows.push((
            "Graph500 reference".into(),
            "-".into(),
            "-".into(),
            teps[teps.len() / 2],
        ));
    }

    for (label, a, b, median) in rows {
        table.row(&[
            label,
            a,
            b,
            mteps(median),
            format!("{:+.1}", (median / dram - 1.0) * 100.0),
        ]);
    }
    table.print();
    println!("\npaper shape check: DRAM-only > +PCIeFlash > +SSD ≫ TD-only > BU-only ≫ reference");
    trace_finish();
}
