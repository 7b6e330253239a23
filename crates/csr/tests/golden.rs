//! Golden digests: the Kronecker instance, its CSR and its per-domain
//! forward graph must stay bit-identical across changes to generation or
//! construction, or every recorded measurement loses its meaning.
//!
//! The digest is FNV-1a over 64-bit words: edges as `(u << 32) | v`, a
//! CSR as every index entry followed by every value widened to `u64`.
//! The values were recorded with graph seed 1 and do not depend on the
//! worker count. The SCALE-20 check takes seconds in release builds, so
//! it is ignored by default:
//!
//! ```sh
//! cargo test --release -p sembfs-csr golden_digests_scale_20 -- --ignored
//! ```

use sembfs_csr::{build_csr, BuildOptions, CsrGraph, DomainNeighbors, DramForwardGraph};
use sembfs_graph500::edge_list::MemEdgeList;
use sembfs_graph500::KroneckerParams;
use sembfs_numa::RangePartition;

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0100_0000_01b3)
    })
}

fn edge_digest(edges: &MemEdgeList) -> u64 {
    digest(
        edges
            .as_slice()
            .iter()
            .map(|&(u, v)| (u64::from(u) << 32) | u64::from(v)),
    )
}

fn csr_digest(csr: &CsrGraph) -> u64 {
    digest(
        csr.index()
            .iter()
            .copied()
            .chain(csr.values().iter().map(|&v| u64::from(v))),
    )
}

#[test]
fn golden_digests_scale_16() {
    let edges = KroneckerParams::graph500(16, 1).generate();
    assert_eq!(edge_digest(&edges), 0x20c3_49fe_1ce2_7ef3);
    let csr = build_csr(&edges, BuildOptions::default()).unwrap();
    assert_eq!(csr_digest(&csr), 0x00ec_2092_4df3_d181);

    let forward = DramForwardGraph::from_csr(&csr, &RangePartition::new(csr.num_vertices(), 4));
    let domains: Vec<u64> = (0..forward.num_domains())
        .map(|k| csr_digest(forward.domain(k)))
        .collect();
    assert_eq!(
        domains,
        [
            0xe073_f589_381b_d601,
            0x08f7_c343_9762_79b2,
            0x3d76_b9b3_655d_5788,
            0xb7ed_45e3_1bdc_695b,
        ]
    );
}

#[test]
#[ignore = "seconds in release, minutes in debug; run by name with --ignored"]
fn golden_digests_scale_20() {
    let edges = KroneckerParams::graph500(20, 1).generate();
    assert_eq!(edge_digest(&edges), 0x78bb_ae5f_890f_cdba);
    let csr = build_csr(&edges, BuildOptions::default()).unwrap();
    assert_eq!(csr.num_values(), 33_554_432);
    assert_eq!(csr_digest(&csr), 0xeb93_4f79_f6e3_21c7);
}
