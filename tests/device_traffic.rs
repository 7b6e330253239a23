//! Device traffic per storage layout, pinned.
//!
//! Every offloaded layout (pread, mmap, DRAM index, page cache, §VI-E
//! split tail) runs the same searches, and the device counters
//! `(requests, bytes, sectors)` and the page cache's `(hits, misses)` must
//! equal the recorded constants. Trees are checked elsewhere; this test
//! catches a change to *how* a layout reads the device: a store that
//! starts or stops prefetching, merging, windowing or caching shifts these
//! counters even when every tree stays the same.

use sembfs::prelude::*;

/// Offloaded layouts: label and the options that differ from the base.
fn layouts() -> Vec<(&'static str, ScenarioOptions)> {
    use sembfs::core::AccessPath;
    let base = ScenarioOptions {
        topology: Topology::new(4, 1),
        ..Default::default()
    };
    let cache = Some(1 << 20);
    vec![
        ("pread", base.clone()),
        (
            "mmap",
            ScenarioOptions {
                access_path: AccessPath::Mmap,
                ..base.clone()
            },
        ),
        (
            "pread+dram_index",
            ScenarioOptions {
                dram_index: true,
                ..base.clone()
            },
        ),
        (
            "cache",
            ScenarioOptions {
                page_cache_bytes: cache,
                ..base.clone()
            },
        ),
        (
            "cache+dram_index",
            ScenarioOptions {
                page_cache_bytes: cache,
                dram_index: true,
                ..base.clone()
            },
        ),
        (
            "split2",
            ScenarioOptions {
                backward_offload_k: Some(2),
                ..base.clone()
            },
        ),
        (
            "split2+cache",
            ScenarioOptions {
                backward_offload_k: Some(2),
                page_cache_bytes: cache,
                ..base.clone()
            },
        ),
        (
            "split2+mmap",
            ScenarioOptions {
                backward_offload_k: Some(2),
                access_path: AccessPath::Mmap,
                ..base
            },
        ),
    ]
}

/// A cache of 64 pages with readahead 4: it thrashes, so the order in
/// which workers fill it shows in the counters. Pinned at one worker only.
fn thrashing_cache() -> ScenarioOptions {
    ScenarioOptions {
        topology: Topology::new(4, 1),
        page_cache_bytes: Some(64 * 4096),
        cache_readahead_pages: 4,
        ..Default::default()
    }
}

/// `(requests, bytes, sectors, cache hits, cache misses)` after a forced
/// top-down search and a best-policy search from each of three roots.
fn traffic(
    edges: &MemEdgeList,
    scenario: Scenario,
    opts: ScenarioOptions,
    workers: usize,
) -> [u64; 5] {
    let data = ScenarioData::build(edges, scenario, opts).unwrap();
    let cfg = BfsConfig::paper().with_threads(workers);
    let roots = select_roots(data.num_vertices(), 3, 11, |v| data.degree(v));
    for &root in &roots {
        data.run(root, &FixedPolicy(Direction::TopDown), &cfg)
            .unwrap();
        data.run(root, &scenario.best_policy(), &cfg).unwrap();
    }
    let io = data.device().unwrap().snapshot();
    let (hits, misses) = data.page_cache().map_or((0, 0), |c| c.stats());
    [io.requests, io.bytes, io.sectors, hits, misses]
}

/// Recorded `(scenario, layout, workers) → traffic`.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, usize, [u64; 5])] = &[
    ("DRAM+PCIeFlash", "pread", 1, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+PCIeFlash", "pread", 2, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+PCIeFlash", "mmap", 1, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+PCIeFlash", "mmap", 2, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+PCIeFlash", "pread+dram_index", 1, [30437, 124850176, 243848, 0, 0]),
    ("DRAM+PCIeFlash", "pread+dram_index", 2, [30437, 124850176, 243848, 0, 0]),
    ("DRAM+PCIeFlash", "cache", 1, [0, 0, 0, 4892, 0]),
    ("DRAM+PCIeFlash", "cache", 2, [0, 0, 0, 4892, 0]),
    ("DRAM+PCIeFlash", "cache+dram_index", 1, [0, 0, 0, 2576, 0]),
    ("DRAM+PCIeFlash", "cache+dram_index", 2, [0, 0, 0, 2576, 0]),
    ("DRAM+PCIeFlash", "split2", 1, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+PCIeFlash", "split2", 2, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+PCIeFlash", "split2+cache", 1, [14799, 60977152, 119096, 4892, 0]),
    ("DRAM+PCIeFlash", "split2+cache", 2, [14799, 60977152, 119096, 4892, 0]),
    ("DRAM+PCIeFlash", "split2+mmap", 1, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+PCIeFlash", "split2+mmap", 2, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+PCIeFlash", "cache64+readahead4", 1, [1775, 8818688, 17224, 4613, 279]),
    ("DRAM+SSD", "pread", 1, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+SSD", "pread", 2, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+SSD", "mmap", 1, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+SSD", "mmap", 2, [70909, 290492416, 567368, 0, 0]),
    ("DRAM+SSD", "pread+dram_index", 1, [30437, 124850176, 243848, 0, 0]),
    ("DRAM+SSD", "pread+dram_index", 2, [30437, 124850176, 243848, 0, 0]),
    ("DRAM+SSD", "cache", 1, [0, 0, 0, 4892, 0]),
    ("DRAM+SSD", "cache", 2, [0, 0, 0, 4892, 0]),
    ("DRAM+SSD", "cache+dram_index", 1, [0, 0, 0, 2576, 0]),
    ("DRAM+SSD", "cache+dram_index", 2, [0, 0, 0, 2576, 0]),
    ("DRAM+SSD", "split2", 1, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+SSD", "split2", 2, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+SSD", "split2+cache", 1, [14799, 60977152, 119096, 4892, 0]),
    ("DRAM+SSD", "split2+cache", 2, [14799, 60977152, 119096, 4892, 0]),
    ("DRAM+SSD", "split2+mmap", 1, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+SSD", "split2+mmap", 2, [85708, 351469568, 686464, 0, 0]),
    ("DRAM+SSD", "cache64+readahead4", 1, [1775, 8818688, 17224, 4613, 279]),
];

#[test]
fn device_traffic_per_layout_is_pinned() {
    let edges = KroneckerParams::graph500(12, 5).generate();
    let mut got = Vec::new();
    for scenario in [Scenario::DramPcieFlash, Scenario::DramSsd] {
        for (label, opts) in layouts() {
            for workers in [1, 2] {
                let t = traffic(&edges, scenario, opts.clone(), workers);
                got.push((scenario.label(), label, workers, t));
            }
        }
        let t = traffic(&edges, scenario, thrashing_cache(), 1);
        got.push((scenario.label(), "cache64+readahead4", 1, t));
    }
    let table: String = got
        .iter()
        .map(|(s, l, w, t)| format!("    ({s:?}, {l:?}, {w}, {t:?}),\n"))
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "recorded table:\n{table}");
    for (g, e) in got.iter().zip(EXPECTED) {
        assert_eq!(
            (g.0, g.1, g.2, g.3),
            (e.0, e.1, e.2, e.3),
            "device traffic changed; table now:\n{table}"
        );
    }
}
