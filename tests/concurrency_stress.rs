//! Seeded-interleaving stress for the concurrent pieces ISSUE 5 leans on:
//! the `ShardedPageCache` under N threads hammering *overlapping* page
//! ranges of a faulted device, and the shared frontier merge of the
//! parallel top-down kernel. Every test fixes its seeds so a failing
//! interleaving reproduces; counter-consistency assertions (cache
//! hit/miss totals vs issued page accesses, `DomainCounters` totals vs
//! device-ground-truth scanned edges) catch lost or double-counted work
//! that correctness-only checks would miss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sembfs::prelude::*;
use sembfs::semext::{
    DelayMode, Device, DeviceProfile, DramBackend, FaultPlan, ReadAt, ShardedCachedStore,
    ShardedPageCache,
};

const PAGE: u64 = 4096;

/// splitmix64 — deterministic per-thread offset streams.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 8 threads × 256 reads over a 64-page backend through a 7-page cache:
/// constant eviction pressure, every page contended. The clean device
/// lets us assert *exact* counter consistency: with readahead off, every
/// page an `read_at` spans is classified exactly once as a hit or a miss.
#[test]
fn overlapping_readers_keep_exact_hit_miss_accounting() {
    let len = (64 * PAGE) as usize;
    let mut state = 0x5EED_u64;
    let data: Vec<u8> = (0..len).map(|_| (mix(&mut state) >> 56) as u8).collect();

    let device = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
    let cache = ShardedPageCache::with_shards(7 * PAGE, 4);
    let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device, cache.clone());

    let spanned = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let store = &store;
            let data = &data;
            let spanned = &spanned;
            scope.spawn(move || {
                let mut state = 0xABCD_EF00 ^ t;
                for _ in 0..256 {
                    let r = mix(&mut state);
                    let off = (r as usize) % (len - 1);
                    let want = 1 + (r >> 40) as usize % (len - off).min(3 * PAGE as usize);
                    let mut buf = vec![0u8; want];
                    store.read_at(off as u64, &mut buf).unwrap();
                    assert_eq!(&buf[..], &data[off..off + want], "offset {off}");
                    let first = off as u64 / PAGE;
                    let last = (off + want - 1) as u64 / PAGE;
                    spanned.fetch_add(last - first + 1, Ordering::Relaxed);
                }
            });
        }
    });

    let (hits, misses) = cache.stats();
    assert_eq!(
        hits + misses,
        spanned.load(Ordering::Relaxed),
        "every spanned page must be classified exactly once"
    );
    assert!(cache.resident_pages() as u64 <= 7);
    // The aggregate snapshot must equal the sum of its shards — the
    // accumulate-then-merge paths may not lose or double-count.
    let total = cache.snapshot();
    let by_shard = cache.per_shard();
    assert_eq!(
        total.hits,
        by_shard.iter().map(|s| s.hits).sum::<u64>(),
        "shard hit counters disagree with the aggregate"
    );
    assert_eq!(total.misses, by_shard.iter().map(|s| s.misses).sum::<u64>());
    assert_eq!(
        total.evictions,
        by_shard.iter().map(|s| s.evictions).sum::<u64>()
    );
}

/// The same hammering against a *faulted* device (transient EIO + stalls,
/// generous retry budget): data must stay correct, counters must stay
/// monotonic and bounded (retries may re-classify a page, so the exact
/// identity relaxes to a lower bound), and the device must have seen
/// real traffic.
#[test]
fn faulted_device_reads_stay_correct_under_contention() {
    let len = (48 * PAGE) as usize;
    let mut state = 0xFA17_u64;
    let data: Vec<u8> = (0..len).map(|_| (mix(&mut state) >> 56) as u8).collect();

    let plan = FaultPlan::parse("seed=31,eio=0.08,stall=0.05,stall_us=30,retries=24").unwrap();
    let device =
        Device::with_fault_plan(DeviceProfile::intel_ssd_320(), DelayMode::Accounting, plan);
    let cache = ShardedPageCache::with_shards(5 * PAGE, 2);
    let store = ShardedCachedStore::new(
        DramBackend::new(data.clone()),
        device.clone(),
        cache.clone(),
    );

    let spanned = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let store = &store;
            let data = &data;
            let spanned = &spanned;
            scope.spawn(move || {
                let mut state = 0x00DD_F00D ^ t.rotate_left(17);
                for _ in 0..192 {
                    let r = mix(&mut state);
                    let off = (r as usize) % (len - 1);
                    let want = 1 + (r >> 40) as usize % (len - off).min(2 * PAGE as usize);
                    let mut buf = vec![0u8; want];
                    store.read_at(off as u64, &mut buf).unwrap();
                    assert_eq!(&buf[..], &data[off..off + want], "offset {off}");
                    let first = off as u64 / PAGE;
                    let last = (off + want - 1) as u64 / PAGE;
                    spanned.fetch_add(last - first + 1, Ordering::Relaxed);
                }
            });
        }
    });

    let (hits, misses) = cache.stats();
    assert!(
        hits + misses >= spanned.load(Ordering::Relaxed),
        "page accesses were lost: {hits}+{misses} < {}",
        spanned.load(Ordering::Relaxed)
    );
    let io = device.snapshot();
    assert!(io.requests > 0, "the device saw no traffic");
    assert!(io.bytes >= io.requests * PAGE, "sub-page device reads");
}

/// Frontier-merge stress: a dense bipartite layer where all 64 frontier
/// vertices propose every target, swept at 1..=8 workers with tiny work
/// units to maximize interleaving. Exactly-once claims, canonical
/// min-parents, and `DomainCounters` totals equal to the scanned-edge
/// ground truth must all hold on every repetition.
#[test]
fn shared_frontier_merge_claims_exactly_once_under_contention() {
    use sembfs_core::par_top_down_step;
    use sembfs_core::tree::{new_parent_array, snapshot_parents};
    use sembfs_core::AtomicBitmap;
    use sembfs_csr::{build_csr, BuildOptions, DramForwardGraph, NeighborCtx};
    use sembfs_numa::{DomainCounters, RangePartition};

    let n = 64 + 512u64;
    let mut edges = Vec::new();
    for u in 0..64u32 {
        for w in 64..(64 + 512u32) {
            edges.push((u, w));
        }
    }
    let el = MemEdgeList::new(n, edges);
    let csr = build_csr(&el, BuildOptions::default()).unwrap();
    let g = DramForwardGraph::from_csr(&csr, &RangePartition::new(n, 4));
    let frontier: Vec<u32> = (0..64).collect();

    for rep in 0..6u64 {
        for threads in [2usize, 4, 8] {
            let parent = new_parent_array(n, 0);
            let visited = AtomicBitmap::new(n);
            for &v in &frontier {
                visited.set(v);
            }
            let counters = DomainCounters::new(4);
            // batch 1 ⇒ one frontier vertex per work unit: the unit
            // cursor is hammered 64×domains times per step.
            let out = par_top_down_step(
                &g,
                &frontier,
                &parent,
                &visited,
                1,
                threads,
                &NeighborCtx::dram,
                Some(&counters),
            )
            .unwrap();

            let mut next = out.next.clone();
            next.sort_unstable();
            let before = next.len();
            next.dedup();
            assert_eq!(next.len(), before, "rep {rep}: a vertex was claimed twice");
            assert_eq!(next, (64..64 + 512u32).collect::<Vec<u32>>(), "rep {rep}");
            assert_eq!(out.scanned_edges, 64 * 512, "rep {rep}");
            assert_eq!(
                counters.total_local() + counters.total_remote(),
                out.scanned_edges,
                "rep {rep} threads {threads}: counters lost edges"
            );
            let snap = snapshot_parents(&parent);
            for (w, &p) in snap.iter().enumerate().skip(64) {
                assert_eq!(p, 0, "rep {rep}: non-minimal parent for {w}");
            }
        }
    }
}

/// End-to-end: an 8-thread external-forward run under a recoverable fault
/// plan must (a) stay bit-identical to the clean serial tree and (b)
/// keep the per-thread `DomainCounters` merge equal to the run's own
/// scanned-edge total — the accumulate-then-merge fix, exercised through
/// the full stack rather than the kernel in isolation.
#[test]
fn faulted_parallel_run_keeps_counters_consistent() {
    use sembfs_numa::DomainCounters;

    let edges = KroneckerParams::graph500(10, 61).generate();
    let opts = |fault_plan| ScenarioOptions {
        topology: Topology::new(2, 2),
        fault_plan,
        ..Default::default()
    };
    let data = ScenarioData::build(&edges, Scenario::DramPcieFlash, opts(None)).unwrap();
    let root = select_roots(data.csr().num_vertices(), 1, 5, |v| data.degree(v))[0];
    let policy = AlphaBetaPolicy::new(10.0, 10.0); // external-heavy: NVM every level
    let want = reference_bfs(data.csr(), root).parent;

    let plan = FaultPlan::parse("seed=47,eio=0.05,corrupt=0.02,stall=0.03,stall_us=40,retries=20")
        .unwrap();
    let faulted = ScenarioData::build(&edges, Scenario::DramPcieFlash, opts(Some(plan))).unwrap();
    for threads in [2usize, 8] {
        let counters = Arc::new(DomainCounters::new(2));
        let cfg = BfsConfig::paper()
            .with_threads(threads)
            .with_numa_counters(counters.clone());
        let run = faulted.run(root, &policy, &cfg).unwrap();
        assert_eq!(run.parent, want, "threads {threads}: tree diverged");
        assert_eq!(
            counters.total_local() + counters.total_remote(),
            run.scanned_edges(),
            "threads {threads}: merged counters disagree with scanned edges"
        );
        validate_bfs_tree(&run.parent, root, &edges).unwrap();
    }
}
