//! Neighborhood ring counts on every data layout: the hybrid ring search
//! must count exactly the reference BFS rings whichever direction each
//! ring takes and wherever its lists live, and a hub's query must read
//! from the device no more than its own forward lists.

use sembfs_core::{reference_bfs, AccessPath, Scenario, ScenarioData, ScenarioOptions};
use sembfs_csr::DramForwardGraph;
use sembfs_graph500::validate::compute_levels;
use sembfs_graph500::{KroneckerParams, MemEdgeList, VertexId};
use sembfs_numa::Topology;
use sembfs_query::{neighborhood, search_config};
use sembfs_semext::PAGE_BYTES;

const SCALE: u32 = 12;
/// Deeper than any SCALE-12 Kronecker eccentricity.
const PAST_ECCENTRICITY: u32 = 64;

fn graph() -> MemEdgeList {
    KroneckerParams::graph500(SCALE, 4).generate()
}

fn options() -> ScenarioOptions {
    ScenarioOptions {
        topology: Topology::new(4, 1),
        ..Default::default()
    }
}

/// Every layout a query can run on: DRAM-only, the forward graph read
/// with `pread` or `mmap`, behind a 1 MiB page cache, with its index in
/// DRAM, and a split backward graph with and without the cache.
fn layouts(el: &MemEdgeList) -> Vec<(&'static str, ScenarioData)> {
    let cache = Some(1 << 20);
    let flash = [
        ("pread", options()),
        (
            "mmap",
            ScenarioOptions {
                access_path: AccessPath::Mmap,
                ..options()
            },
        ),
        (
            "1 MiB cache",
            ScenarioOptions {
                page_cache_bytes: cache,
                ..options()
            },
        ),
        (
            "dram_index",
            ScenarioOptions {
                dram_index: true,
                ..options()
            },
        ),
        (
            "split k=2",
            ScenarioOptions {
                backward_offload_k: Some(2),
                ..options()
            },
        ),
        (
            "split k=2 + cache",
            ScenarioOptions {
                backward_offload_k: Some(2),
                page_cache_bytes: cache,
                ..options()
            },
        ),
    ];
    let dram = ScenarioData::build(el, Scenario::DramOnly, options()).unwrap();
    std::iter::once(("DRAM-only", dram))
        .chain(flash.into_iter().map(|(label, opts)| {
            (
                label,
                ScenarioData::build(el, Scenario::DramPcieFlash, opts).unwrap(),
            )
        }))
        .collect()
}

/// Ring sizes around `v` up to `depth` from the reference BFS levels,
/// stopping at the first empty ring.
fn reference_rings(data: &ScenarioData, v: VertexId, depth: u32) -> Vec<u64> {
    let levels = compute_levels(&reference_bfs(data.csr(), v).parent, v).unwrap();
    let mut rings = vec![0u64; depth as usize + 1];
    for &l in &levels {
        if l <= depth {
            rings[l as usize] += 1;
        }
    }
    rings.into_iter().take_while(|&ring| ring > 0).collect()
}

/// The hub, a vertex of the smallest nonzero degree, and an isolated one.
fn centers(data: &ScenarioData) -> [(&'static str, VertexId); 3] {
    let vertices = 0..data.num_vertices() as VertexId;
    let hub = vertices.clone().max_by_key(|&v| data.degree(v)).unwrap();
    let low = vertices
        .clone()
        .filter(|&v| data.degree(v) > 0)
        .min_by_key(|&v| data.degree(v))
        .unwrap();
    let isolated = vertices
        .clone()
        .find(|&v| data.degree(v) == 0)
        .expect("a Kronecker graph has isolated vertices");
    [("hub", hub), ("low-degree", low), ("isolated", isolated)]
}

#[test]
fn rings_match_the_reference_on_every_layout() {
    let el = graph();
    let cfg = search_config();
    for (label, data) in layouts(&el) {
        for (kind, v) in centers(&data) {
            for depth in (0..=4).chain([PAST_ECCENTRICITY]) {
                let got = neighborhood(&data, v, depth, &cfg).unwrap();
                let want = reference_rings(&data, v, depth);
                assert_eq!(got, want, "{label}: {kind} {v} to depth {depth}");
            }
            let full = neighborhood(&data, v, PAST_ECCENTRICITY, &cfg).unwrap();
            assert!(full.len() <= PAST_ECCENTRICITY as usize, "{label}: {kind}");
            assert_ne!(
                full.last(),
                Some(&0),
                "{label}: {kind} ends in an empty ring"
            );
        }
        let [(_, hub), _, (_, isolated)] = centers(&data);
        assert!(neighborhood(&data, hub, 2, &cfg).unwrap().len() == 3);
        assert_eq!(neighborhood(&data, isolated, 4, &cfg).unwrap(), vec![1]);
    }
}

/// A hub's depth-2 query reads at most its own forward lists from the
/// device and finds the second ring in DRAM: device bytes stay within the
/// pages of the hub's index entries and value spans, over every domain.
/// The SCALE-12 hub's first ring already holds enough edges to go
/// bottom-up; smaller hubs read their lists top-down.
#[test]
fn hub_query_reads_only_its_own_forward_lists() {
    let el = graph();
    let data = ScenarioData::build(&el, Scenario::DramPcieFlash, options()).unwrap();
    let fg = DramForwardGraph::from_csr(data.csr(), data.partition());
    let pages = |first_byte: u64, end_byte: u64| {
        if end_byte > first_byte {
            (end_byte - 1) / PAGE_BYTES - first_byte / PAGE_BYTES + 1
        } else {
            0
        }
    };
    let own_pages = |v: VertexId| -> u64 {
        let v = v as usize;
        (0..data.partition().num_domains())
            .map(|k| {
                let index = fg.domain(k).index();
                pages(v as u64 * 8, (v as u64 + 2) * 8) + pages(index[v] * 4, index[v + 1] * 4)
            })
            .sum()
    };

    let mut hubs: Vec<VertexId> = (0..data.num_vertices() as VertexId).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(data.degree(v)));
    let device = data.device().unwrap();
    let mut read_any = false;
    for &hub in &hubs[..16] {
        let before = device.snapshot();
        let rings = neighborhood(&data, hub, 2, &search_config()).unwrap();
        let io = device.snapshot().delta(&before);
        assert_eq!(rings, reference_rings(&data, hub, 2), "hub {hub}");
        assert!(
            io.bytes <= own_pages(hub) * PAGE_BYTES,
            "hub {hub}: {} bytes read, its lists span {} pages",
            io.bytes,
            own_pages(hub)
        );
        read_any |= io.requests > 0;
    }
    assert!(read_any, "no hub read its first ring from the device");
}
