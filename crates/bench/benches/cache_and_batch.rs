//! Microbenchmarks of the sharded page-cache model and the batched
//! (libaio-style) submission path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sembfs_core::{hybrid_bfs, BfsConfig, Direction, FixedPolicy};
use sembfs_csr::{build_csr, write_forward_files, BackwardGraph, BuildOptions, ExtForwardGraph};
use sembfs_graph500::{select_roots, KroneckerParams};
use sembfs_numa::RangePartition;
use sembfs_semext::ext_csr::ExtCsr;
use sembfs_semext::{
    BatchRead, ChunkedReader, DelayMode, Device, DeviceProfile, DramBackend, FileBackend, ReadAt,
    ShardedCachedStore, ShardedPageCache, TempDir, PAGE_BYTES,
};

fn bench_batch_vs_loop(c: &mut Criterion) {
    let data = vec![9u8; 1 << 20];
    let mut g = c.benchmark_group("submission_model");
    for batch in [8usize, 64] {
        let dev = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
        let store = sembfs_semext::NvmStore::new(DramBackend::new(data.clone()), dev);
        g.bench_with_input(BenchmarkId::new("loop_read_at", batch), &batch, |b, &n| {
            let mut buf = vec![0u8; 64];
            b.iter(|| {
                for i in 0..n {
                    store.read_at((i * 4096) as u64, &mut buf).unwrap();
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("read_batch_at", batch), &batch, |b, &n| {
            let mut bufs = vec![vec![0u8; 64]; n];
            b.iter(|| {
                let mut reqs: Vec<BatchRead<'_>> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, buf)| BatchRead {
                        offset: (i * 4096) as u64,
                        buf: &mut buf[..],
                    })
                    .collect();
                store.read_batch_at(&mut reqs).unwrap();
            })
        });
    }
    g.finish();
}

/// `threads` workers each issuing `reads` pseudo-random page-aligned
/// 4 KiB reads.
fn hammer<S: ReadAt + Sync>(store: &S, threads: u64, reads: usize, span: u64) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut buf = vec![0u8; PAGE_BYTES as usize];
                for _ in 0..reads {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    store
                        .read_at((x % span) & !(PAGE_BYTES - 1), &mut buf)
                        .unwrap();
                }
            });
        }
    });
}

/// The sharded cache (data-holding slots: hits are served from DRAM)
/// under concurrent 4 KiB reads of a warm file-backed store — the Fig. 9
/// spare-DRAM regime where the working set fits the cache.
fn bench_concurrent_cache_frontends(c: &mut Criterion) {
    const THREADS: u64 = 4;
    const READS: usize = 256;
    let bytes = 32u64 << 20;
    let span = bytes - PAGE_BYTES;
    let tmp = TempDir::new("cache-frontends").unwrap();
    let path = tmp.path().join("warm.dat");
    std::fs::write(&path, vec![5u8; bytes as usize]).unwrap();

    let mut g = c.benchmark_group("concurrent_cache_frontends");
    g.throughput(Throughput::Bytes(THREADS * READS as u64 * PAGE_BYTES));

    let dev = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
    // A little slack over the file size: pages hash unevenly over the
    // stripes, and an exactly-sized sharded cache would evict at the hot
    // stripes.
    let cache = ShardedPageCache::new(bytes + (bytes >> 2));
    let sharded = ShardedCachedStore::new(FileBackend::open(&path).unwrap(), dev, cache);
    sharded.warm().unwrap();
    g.bench_function("sharded_striped", |b| {
        b.iter(|| hammer(&sharded, THREADS, READS, span))
    });
    g.finish();
}

/// A multi-threaded top-down BFS over a SCALE 20 Kronecker graph whose
/// forward CSR sits on a simulated device behind the sharded cache. The
/// budget covers the offloaded bytes (the paper's SCALE 26/Fig. 9
/// spare-DRAM regime), so the cache's data-holding slots serve the whole
/// traversal from DRAM through the page-windowed reads every cached
/// workload runs.
fn bench_ext_bfs_cache_frontend(c: &mut Criterion) {
    let scale: u32 = std::env::var("BENCH_BFS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    std::env::set_var("RAYON_NUM_THREADS", "4");

    let edges = KroneckerParams::graph500(scale, 5).generate();
    let csr = build_csr(&edges, BuildOptions::default()).unwrap();
    let partition = RangePartition::new(csr.num_vertices(), 4);
    let tmp = TempDir::new("cache-bench").unwrap();
    let paths = write_forward_files(&csr, &partition, tmp.path()).unwrap();
    let backward = BackwardGraph::new(csr.clone(), partition.clone());
    let root = select_roots(csr.num_vertices(), 1, 2, |v| csr.degree(v))[0];

    let file_bytes: u64 = paths
        .iter()
        .map(|(ip, vp)| std::fs::metadata(ip).unwrap().len() + std::fs::metadata(vp).unwrap().len())
        .sum();
    // Slack over the file size: pages hash unevenly over the stripes.
    let budget = file_bytes + (file_bytes >> 2);
    let policy = FixedPolicy(Direction::TopDown);

    let mut g = c.benchmark_group("ext_bfs_cache_frontend");
    g.sample_size(10);
    g.throughput(Throughput::Elements(csr.num_values() / 2));

    let dev = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
    let cache = ShardedPageCache::new(budget);
    cache.set_readahead_pages(4);
    let domains = paths
        .iter()
        .map(|(ip, vp)| {
            let index = ShardedCachedStore::new(FileBackend::open(ip)?, dev.clone(), cache.clone());
            let values =
                ShardedCachedStore::new(FileBackend::open(vp)?, dev.clone(), cache.clone());
            index.warm()?;
            values.warm()?;
            ExtCsr::new(index, values)
        })
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let forward = ExtForwardGraph::new(domains, partition.clone());
    let cfg = BfsConfig::paper()
        .with_reader(ChunkedReader::for_device(&dev))
        .with_cache_monitor(cache.clone());
    g.bench_function("sharded_cache", |b| {
        b.iter(|| hybrid_bfs(&forward, &backward, root, &policy, &cfg).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_batch_vs_loop,
    bench_concurrent_cache_frontends,
    bench_ext_bfs_cache_frontend
);
criterion_main!(benches);
