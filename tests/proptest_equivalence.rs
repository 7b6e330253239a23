//! Property-based end-to-end equivalence: for *arbitrary* graphs, roots,
//! and switching parameters, every searcher in the workspace must produce
//! the reference BFS's level assignment and a tree that validates against
//! the edge list.

use proptest::prelude::*;
use sembfs::dist::{dist_hybrid_bfs, ClusterSpec, DistGraph};
use sembfs::prelude::*;
use sembfs_core::policy::PolicyCtx;
use sembfs_core::AccessPath;
use sembfs_csr::{build_csr, BuildOptions};
use sembfs_graph500::validate::compute_levels;
use sembfs_semext::{DramBackend, ReadAt, ShardedCachedStore, ShardedPageCache};

fn arb_graph() -> impl Strategy<Value = (MemEdgeList, u32)> {
    (
        2u64..60,
        proptest::collection::vec((0u32..60, 0u32..60), 1..150),
    )
        .prop_map(|(n, raw)| {
            let n = n.max(raw.iter().flat_map(|&(u, v)| [u, v]).max().unwrap_or(0) as u64 + 1);
            let edges: Vec<(u32, u32)> = raw;
            // Root: an endpoint of the first edge (guaranteed degree ≥ 1).
            let root = edges[0].0;
            (MemEdgeList::new(n, edges), root)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Hybrid BFS under the default configuration gives the serial
    /// reference's tree bit for bit for any graph, any α/β, any scenario,
    /// and validates.
    #[test]
    fn hybrid_always_matches_reference(
        (edges, root) in arb_graph(),
        alpha_exp in 0u32..7,
        beta_exp in 0u32..7,
        scenario_pick in 0usize..3,
    ) {
        let csr = build_csr(&edges, BuildOptions::default()).unwrap();
        let want = reference_bfs(&csr, root).parent;

        let scenario = Scenario::ALL[scenario_pick];
        let data = ScenarioData::build(
            &edges,
            scenario,
            ScenarioOptions { topology: Topology::new(3, 1), ..Default::default() },
        )
        .unwrap();
        let policy = AlphaBetaPolicy::new(
            10f64.powi(alpha_exp as i32),
            10f64.powi(beta_exp as i32),
        );
        let run = data.run(root, &policy, &BfsConfig::paper()).unwrap();
        prop_assert_eq!(&run.parent, &want);
        validate_bfs_tree(&run.parent, root, &edges).unwrap();
    }

    /// The kernels are deterministic for any graph, any α/β, and any
    /// worker count: the parent tree is *bit-identical* to the canonical
    /// serial `reference_bfs` (min-parent tie-break), the tree validates,
    /// and the distances-only entry point agrees on every level.
    #[test]
    fn parallel_always_matches_reference_bit_exactly(
        (edges, root) in arb_graph(),
        alpha_exp in 0u32..7,
        beta_exp in 0u32..7,
        scenario_pick in 0usize..3,
        threads in 1usize..9,
    ) {
        let csr = build_csr(&edges, BuildOptions::default()).unwrap();
        let want = reference_bfs(&csr, root).parent;
        let expect_levels = compute_levels(&want, root).unwrap();

        let scenario = Scenario::ALL[scenario_pick];
        let data = ScenarioData::build(
            &edges,
            scenario,
            ScenarioOptions { topology: Topology::new(3, 1), ..Default::default() },
        )
        .unwrap();
        let policy = AlphaBetaPolicy::new(
            10f64.powi(alpha_exp as i32),
            10f64.powi(beta_exp as i32),
        );
        let cfg = BfsConfig::paper().with_threads(threads);
        let run = data.run(root, &policy, &cfg).unwrap();
        prop_assert_eq!(&run.parent, &want, "threads {}", threads);
        let report = validate_bfs_tree(&run.parent, root, &edges).unwrap();
        prop_assert_eq!(&report.levels, &expect_levels);

        let dist = data.run_distances(root, &policy, &cfg).unwrap();
        prop_assert_eq!(&dist.levels, &expect_levels);
        prop_assert_eq!(dist.visited, run.visited);
        prop_assert_eq!(dist.max_level, report.max_level);
    }

    /// The distributed searcher's tree equals the reference's for any node
    /// count.
    #[test]
    fn dist_always_matches_reference(
        (edges, root) in arb_graph(),
        nodes in 1usize..6,
        alpha_exp in 0u32..6,
    ) {
        let csr = build_csr(&edges, BuildOptions::default()).unwrap();
        let want = reference_bfs(&csr, root).parent;
        let expect = compute_levels(&want, root).unwrap();

        let graph = DistGraph::build(&edges, ClusterSpec::dram(nodes)).unwrap();
        let policy = AlphaBetaPolicy::new(10f64.powi(alpha_exp as i32), 100.0);
        let run = dist_hybrid_bfs(&graph, root, &policy).unwrap();
        let got = compute_levels(&run.parent, root).unwrap();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(&run.parent, &want);
        validate_bfs_tree(&run.parent, root, &edges).unwrap();
    }

    /// Any *recoverable* fault plan — transient EIO, checksummed
    /// corruption, stalls — leaves the BFS output bit-identical to the
    /// fault-free run, on every storage layout. Recoverability is
    /// probabilistic: a run that exhausts its retry budget fails *typed*
    /// (`RetriesExhausted`/`ChecksumMismatch`, discarded here), it never
    /// silently diverges.
    #[test]
    fn recoverable_faults_leave_bfs_bit_identical(
        (edges, root) in arb_graph(),
        fault_seed in any::<u64>(),
        eio in 0u32..16,
        corrupt in 0u32..10,
        stall in 0u32..6,
        scenario_pick in 1usize..3,
        cache in proptest::option::of(1u64..(1 << 18)),
        mmap in any::<bool>(),
    ) {
        let scenario = Scenario::ALL[scenario_pick];
        let opts = |fault_plan| ScenarioOptions {
            topology: Topology::new(2, 1),
            page_cache_bytes: cache,
            access_path: if mmap { AccessPath::Mmap } else { AccessPath::Pread },
            fault_plan,
            ..Default::default()
        };
        let policy = AlphaBetaPolicy::new(1e3, 1e3);
        let clean = ScenarioData::build(&edges, scenario, opts(None))
            .unwrap()
            .run(root, &policy, &BfsConfig::paper())
            .unwrap();

        let spec = format!(
            "seed={fault_seed},eio={},corrupt={},stall={},stall_us=40,retries=12",
            eio as f64 / 100.0,
            corrupt as f64 / 100.0,
            stall as f64 / 100.0,
        );
        let plan = sembfs::semext::FaultPlan::parse(&spec).unwrap();
        let data = ScenarioData::build(&edges, scenario, opts(Some(plan))).unwrap();
        match data.run(root, &policy, &BfsConfig::paper()) {
            Ok(run) => {
                prop_assert_eq!(&run.parent, &clean.parent, "spec {}", spec);
                prop_assert_eq!(run.visited, clean.visited);
                validate_bfs_tree(&run.parent, root, &edges).unwrap();
            }
            // Retry budget exhausted — legal, typed, and rare at these
            // rates. The case carries no equivalence information.
            Err(sembfs::semext::Error::RetriesExhausted { .. })
            | Err(sembfs::semext::Error::ChecksumMismatch { .. }) => {
                prop_assume!(false);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// Aggregated (libaio) and synchronous I/O produce identical trees,
    /// with and without the page-cache front.
    #[test]
    fn aggregation_does_not_change_results(
        (edges, root) in arb_graph(),
        cache in proptest::option::of(1u64..(1 << 20)),
    ) {
        let data = ScenarioData::build(
            &edges,
            Scenario::DramPcieFlash,
            ScenarioOptions {
                topology: Topology::new(2, 1),
                page_cache_bytes: cache,
                ..Default::default()
            },
        )
        .unwrap();
        let policy = AlphaBetaPolicy::new(1e3, 1e3);
        let sync = data.run(root, &policy, &BfsConfig::paper()).unwrap();
        let agg = data
            .run(root, &policy, &BfsConfig::paper().with_aggregation())
            .unwrap();
        prop_assert_eq!(&sync.parent, &agg.parent);
        prop_assert_eq!(sync.visited, agg.visited);
    }
}

/// Replays a pre-baked per-level direction schedule (cycling when the
/// search outlives it), forcing TD→BU→TD flips at levels no threshold
/// policy would pick — the switching machinery must stay correct under
/// *any* schedule, not just plausible ones.
struct SchedulePolicy(Vec<Direction>);

impl DirectionPolicy for SchedulePolicy {
    fn decide(&self, ctx: &PolicyCtx) -> Direction {
        self.0[(ctx.level as usize - 1) % self.0.len()]
    }

    fn label(&self) -> String {
        "scheduled".to_string()
    }
}

/// Deterministic byte/offset stream for the cache property (the shim
/// proptest has no `Vec<u8>` strategy; a splitmix walk over the case's
/// seed keeps every run reproducible).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any forced direction schedule — including strict alternation that
    /// switches at *every* level — produces the reference tree on small Kronecker graphs, in every scenario,
    /// with the sharded page cache in front of the external stores.
    #[test]
    fn forced_direction_switches_match_reference(
        scale in 3u32..7,
        seed in any::<u64>(),
        strict in any::<bool>(),
        start_bu in any::<bool>(),
        bits in proptest::collection::vec(any::<bool>(), 1..10),
        scenario_pick in 0usize..3,
        shards in 1usize..5,
        readahead in 0usize..3,
    ) {
        let edges = KroneckerParams::graph500(scale, seed).generate();
        let root = edges.as_slice()[0].0;

        let csr = build_csr(&edges, BuildOptions::default()).unwrap();
        let want = reference_bfs(&csr, root).parent;

        let schedule: Vec<Direction> = if strict {
            // TD→BU→TD at every feasible level (optionally BU first).
            (0..12)
                .map(|i| {
                    if (i + start_bu as usize).is_multiple_of(2) {
                        Direction::TopDown
                    } else {
                        Direction::BottomUp
                    }
                })
                .collect()
        } else {
            bits.iter()
                .map(|&b| if b { Direction::BottomUp } else { Direction::TopDown })
                .collect()
        };

        let data = ScenarioData::build(
            &edges,
            Scenario::ALL[scenario_pick],
            ScenarioOptions {
                topology: Topology::new(2, 1),
                page_cache_bytes: Some(8 * 4096),
                cache_shards: Some(shards),
                cache_readahead_pages: readahead,
                ..Default::default()
            },
        )
        .unwrap();
        let run = data
            .run(root, &SchedulePolicy(schedule), &BfsConfig::paper())
            .unwrap();
        prop_assert_eq!(&run.parent, &want);
        validate_bfs_tree(&run.parent, root, &edges).unwrap();
    }

    /// Reads through an undersized sharded cache are byte-identical to
    /// the backing store under concurrent access, for any shard count,
    /// capacity, and readahead window.
    #[test]
    fn sharded_cache_reads_match_backend(
        len in 1usize..(1 << 16),
        shards in 1usize..9,
        cap_pages in 1u64..32,
        readahead in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let data: Vec<u8> = (0..len).map(|_| (mix(&mut state) >> 56) as u8).collect();

        let device = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
        let cache = ShardedPageCache::with_shards(cap_pages * 4096, shards);
        cache.set_readahead_pages(readahead);
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device, cache.clone());

        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                let data = &data;
                scope.spawn(move || {
                    let mut state = seed ^ t.wrapping_mul(0xA076_1D64_78BD_642F);
                    for _ in 0..32 {
                        let r = mix(&mut state);
                        let off = (r as usize) % data.len();
                        let max = (data.len() - off).min(3 * 4096);
                        let want = 1 + (r >> 40) as usize % max;
                        let mut buf = vec![0u8; want];
                        store.read_at(off as u64, &mut buf).unwrap();
                        assert_eq!(&buf[..], &data[off..off + want], "offset {off}");
                    }
                });
            }
        });

        // Every read was classified: demand accesses all counted, and the
        // cache never holds more than its budget.
        let (hits, misses) = cache.stats();
        prop_assert!(hits + misses > 0);
        prop_assert!(cache.resident_pages() as u64 <= cap_pages.max(1));
    }
}
