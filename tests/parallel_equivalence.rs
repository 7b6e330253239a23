//! Differential harness for the hybrid BFS kernels.
//!
//! Runs the serial canonical `reference_bfs` against the 1/2/4/8-thread
//! hybrid across every storage layout (all-DRAM, external forward graph,
//! the same behind a page cache a quarter of its size, cold-tail backward
//! offload) × device profiles × a recoverable `FaultPlan`, under the
//! scenario's best policy and top-down at every level, asserting the
//! parent trees are *bit-identical* — not just level-equivalent — and
//! that the `ValidationReport`s agree. The
//! min-parent claim top-down and the first hit on sorted adjacency
//! bottom-up make the tree a pure function of the graph, so any
//! divergence is a kernel bug, not an acceptable alternative tree.

use sembfs::prelude::*;
use sembfs::semext::{DeviceProfile, FaultPlan};
use sembfs_csr::{build_csr, BuildOptions};
use sembfs_graph500::validate::ValidationReport;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn kron(scale: u32, seed: u64) -> MemEdgeList {
    KroneckerParams::graph500(scale, seed).generate()
}

/// A fault plan every read survives given the retry budget: transient
/// EIO, checksummed corruption (healed by `verify_pages`), short stalls.
fn recoverable_plan() -> FaultPlan {
    FaultPlan::parse("seed=29,eio=0.04,corrupt=0.03,stall=0.02,stall_us=40,retries=20")
        .expect("valid fault spec")
}

/// The storage layouts for `edges`. The cached layout's page cache holds
/// about a quarter of the forward graph, so CLOCK evicts (prefetched pages
/// too) in the middle of a top-down level. `k = 4` puts a meaningful
/// share of backward edges on the device for a Kronecker graph (hubs far
/// exceed degree 4) while the hot prefix stays in DRAM.
fn layouts(edges: &MemEdgeList) -> Vec<(&'static str, Scenario, ScenarioOptions)> {
    let base = ScenarioOptions {
        topology: Topology::new(2, 2),
        ..Default::default()
    };
    let csr = build_csr(edges, BuildOptions::default()).unwrap();
    let domains = base.topology.domains() as u64;
    let forward_bytes = csr.num_values() * 4 + domains * (csr.num_vertices() + 1) * 8;
    vec![
        ("dram", Scenario::DramOnly, base.clone()),
        ("external-forward", Scenario::DramPcieFlash, base.clone()),
        (
            "cached-external-forward",
            Scenario::DramPcieFlash,
            ScenarioOptions {
                page_cache_bytes: Some(forward_bytes / 4),
                ..base.clone()
            },
        ),
        (
            "cold-tail",
            Scenario::DramPcieFlash,
            ScenarioOptions {
                backward_offload_k: Some(4),
                ..base
            },
        ),
    ]
}

/// Serial oracle: canonical tree + its validation report.
fn oracle(edges: &MemEdgeList, root: VertexId) -> (Vec<VertexId>, ValidationReport) {
    let csr = build_csr(edges, BuildOptions::default()).unwrap();
    let parent = reference_bfs(&csr, root).parent;
    let report = validate_bfs_tree(&parent, root, edges).expect("reference tree validates");
    (parent, report)
}

fn assert_all_threads_match(
    edges: &MemEdgeList,
    scenario: Scenario,
    opts: &ScenarioOptions,
    label: &str,
) {
    let data = ScenarioData::build(edges, scenario, opts.clone()).unwrap();
    let roots = select_roots(data.csr().num_vertices(), 2, 7, |v| data.degree(v));
    // The best flash policy leaves the forward graph after the root level;
    // top-down at every level reads it (and its cache) throughout.
    let best = scenario.best_policy();
    let top_down = FixedPolicy(Direction::TopDown);
    let policies: [&dyn DirectionPolicy; 2] = [&best, &top_down];
    for &root in &roots {
        let (want_parent, want_report) = oracle(edges, root);
        for policy in policies {
            for threads in THREADS {
                let cfg = BfsConfig::paper().with_threads(threads);
                let run = data.run(root, policy, &cfg).unwrap();
                let case = format!("{label} root {root} {} threads {threads}", policy.label());
                assert_eq!(run.parent, want_parent, "{case}: parent tree diverged");
                let report = validate_bfs_tree(&run.parent, root, edges).unwrap();
                assert_eq!(report, want_report, "{case}: validation report diverged");
            }
        }
    }
    if let Some(cache) = data.page_cache() {
        // The cached layout really ran the lookahead against a cache too
        // small to hold the graph (and, under read faults, did not).
        let snap = cache.snapshot();
        assert!(snap.evictions > 0, "{label}: the cache never evicted");
        let prefetching = opts
            .fault_plan
            .as_ref()
            .is_none_or(|p| !p.has_read_faults());
        assert_eq!(
            snap.readahead_pages > 0,
            prefetching,
            "{label}: prefetched {} pages",
            snap.readahead_pages
        );
    }
}

#[test]
fn every_layout_matches_reference_at_every_thread_count() {
    let edges = kron(11, 41);
    for (label, scenario, opts) in layouts(&edges) {
        assert_all_threads_match(&edges, scenario, &opts, label);
    }
}

#[test]
fn device_profiles_do_not_change_the_tree() {
    let edges = kron(10, 77);
    for profile in [
        DeviceProfile::iodrive2(),
        DeviceProfile::intel_ssd_320(),
        DeviceProfile::nvme_gen4(),
    ] {
        for (label, scenario, mut opts) in layouts(&edges) {
            if scenario == Scenario::DramOnly {
                continue; // no device to override
            }
            let name = profile.name;
            opts.device_profile_override = Some(profile.clone());
            assert_all_threads_match(&edges, scenario, &opts, &format!("{label}/{name}"));
        }
    }
}

#[test]
fn recoverable_faults_leave_parallel_trees_bit_identical() {
    let edges = kron(10, 53);
    for (label, scenario, mut opts) in layouts(&edges) {
        if scenario == Scenario::DramOnly {
            continue; // fault plans apply to the device path
        }
        opts.fault_plan = Some(recoverable_plan());
        assert_all_threads_match(&edges, scenario, &opts, &format!("{label}/faulted"));
    }
}

#[test]
fn fixed_direction_parallel_kernels_match_reference() {
    // Force each kernel to run every level so both parallel paths are
    // exercised end-to-end (the best policies switch almost immediately).
    let edges = kron(10, 19);
    let data = ScenarioData::build(
        &edges,
        Scenario::DramPcieFlash,
        ScenarioOptions {
            topology: Topology::new(2, 2),
            ..Default::default()
        },
    )
    .unwrap();
    let root = select_roots(data.csr().num_vertices(), 1, 3, |v| data.degree(v))[0];
    let (want_parent, want_report) = oracle(&edges, root);
    for direction in [Direction::TopDown, Direction::BottomUp] {
        for threads in THREADS {
            let cfg = BfsConfig::paper().with_threads(threads);
            let run = data.run(root, &FixedPolicy(direction), &cfg).unwrap();
            assert_eq!(
                run.parent, want_parent,
                "{direction:?} threads {threads}: parent tree diverged"
            );
            let report = validate_bfs_tree(&run.parent, root, &edges).unwrap();
            assert_eq!(report, want_report);
        }
    }
}

#[test]
fn mostly_edgeless_graph_matches_reference_on_every_layout() {
    // A SCALE-10 Kronecker graph spread over four times as many vertices:
    // at least three in four have no edge, so every bottom-up level skips
    // most of the vertex range by the edgeless mask. Split at k = 0 too,
    // where the head has no row to tell an edgeless vertex apart.
    let kr = kron(10, 61);
    let spread = |v: VertexId| 4 * v + 1;
    let edges = MemEdgeList::new(
        4 << 10,
        kr.as_slice()
            .iter()
            .map(|&(u, v)| (spread(u), spread(v)))
            .collect(),
    );
    let mut cases = layouts(&edges);
    cases.push((
        "cold-tail-k0",
        Scenario::DramPcieFlash,
        ScenarioOptions {
            topology: Topology::new(2, 2),
            backward_offload_k: Some(0),
            ..Default::default()
        },
    ));
    for (label, scenario, opts) in cases {
        assert_all_threads_match(&edges, scenario, &opts, &format!("{label}/edgeless"));
    }
}
