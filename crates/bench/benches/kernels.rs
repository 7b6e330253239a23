//! Microbenchmarks of the two step kernels (one worker) and the frontier
//! conversions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sembfs_core::bitmap::AtomicBitmap;
use sembfs_core::frontier::{bitmap_to_queue, queue_to_bitmap};
use sembfs_core::tree::new_parent_array;
use sembfs_core::{par_bottom_up_step, par_top_down_step};
use sembfs_csr::{build_csr, BackwardGraph, BuildOptions, DramForwardGraph, NeighborCtx};
use sembfs_graph500::KroneckerParams;
use sembfs_numa::RangePartition;

const SCALE: u32 = 14;

fn setup() -> (DramForwardGraph, BackwardGraph, u64) {
    let params = KroneckerParams::graph500(SCALE, 3);
    let csr = build_csr(&params.generate(), BuildOptions::default()).unwrap();
    let n = csr.num_vertices();
    let part = RangePartition::new(n, 4);
    let fg = DramForwardGraph::from_csr(&csr, &part);
    let bg = BackwardGraph::new(csr, part);
    (fg, bg, n)
}

/// A mid-size frontier: everything the root reaches in one level.
fn level1_frontier(fg: &DramForwardGraph, n: u64) -> Vec<u32> {
    use sembfs_csr::DomainNeighbors;
    let root = (0..n as u32)
        .max_by_key(|&v| {
            let mut ctx = NeighborCtx::dram();
            (0..fg.num_domains())
                .map(|k| fg.domain_degree(k, v, &mut ctx).unwrap())
                .sum::<u64>()
        })
        .unwrap();
    let parent = new_parent_array(n, root);
    let visited = AtomicBitmap::new(n);
    visited.set(root);
    par_top_down_step(
        fg,
        &[root],
        &parent,
        &visited,
        64,
        1,
        &NeighborCtx::dram,
        None,
    )
    .unwrap()
    .next
}

fn bench_top_down(c: &mut Criterion) {
    let (fg, _, n) = setup();
    let frontier = level1_frontier(&fg, n);
    let mut g = c.benchmark_group("top_down_step");
    g.throughput(Throughput::Elements(frontier.len() as u64));
    for batch in [16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                let parent = new_parent_array(n, frontier[0]);
                let visited = AtomicBitmap::new(n);
                for &v in &frontier {
                    visited.set(v);
                }
                par_top_down_step(
                    &fg,
                    &frontier,
                    &parent,
                    &visited,
                    batch,
                    1,
                    &NeighborCtx::dram,
                    None,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_bottom_up(c: &mut Criterion) {
    let (fg, bg, n) = setup();
    let frontier_q = level1_frontier(&fg, n);
    let mut g = c.benchmark_group("bottom_up_step");
    g.throughput(Throughput::Elements(n));
    g.bench_function("level2", |b| {
        b.iter(|| {
            let parent = new_parent_array(n, frontier_q[0]);
            let visited = AtomicBitmap::new(n);
            let frontier = AtomicBitmap::new(n);
            for &v in &frontier_q {
                visited.set(v);
                frontier.set(v);
            }
            let next = AtomicBitmap::new(n);
            par_bottom_up_step(
                &bg,
                &frontier,
                &next,
                &parent,
                &visited,
                1,
                &NeighborCtx::dram,
                None,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_frontier_conversion(c: &mut Criterion) {
    let n = 1u64 << 20;
    let threads = rayon::current_num_threads();
    let queue: Vec<u32> = (0..n as u32).step_by(7).collect();
    let mut g = c.benchmark_group("frontier_conversion");
    g.throughput(Throughput::Elements(queue.len() as u64));
    g.bench_function("queue_to_bitmap", |b| {
        b.iter(|| {
            let bm = AtomicBitmap::new(n);
            queue_to_bitmap(&queue, &bm, threads);
            bm
        })
    });
    let bm = AtomicBitmap::new(n);
    queue_to_bitmap(&queue, &bm, threads);
    g.bench_function("bitmap_to_queue", |b| {
        b.iter(|| bitmap_to_queue(&bm, threads))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_top_down,
    bench_bottom_up,
    bench_frontier_conversion
);
criterion_main!(benches);
