//! Semi-external memory layer for `sembfs`.
//!
//! The paper offloads the forward CSR graph (and optionally the tail of the
//! backward graph) from DRAM to NVM devices — a FusionIO ioDrive2 PCIe
//! flash card and an Intel SSD 320 — and reads it back on demand in ≤4 KiB
//! chunks through the POSIX `read(2)` API (§V). This crate provides that
//! storage layer, plus the **device substitution** required for the
//! reproduction: we do not have 2013-era NVM hardware, so reads can be
//! routed through a [`Device`] model that imposes calibrated service times
//! (seek overhead, bandwidth, IOPS ceiling) on a shared device timeline and
//! records the same `iostat` quantities the paper reports (`avgqu-sz` in
//! Fig. 12, `avgrq-sz` in Fig. 13).
//!
//! Layers, bottom-up:
//!
//! * [`ReadAt`] — positional-read trait; [`DramBackend`], [`FileBackend`]
//!   (pread-style), [`MmapBackend`] implement it.
//! * [`Device`] / [`DeviceProfile`] — the simulated NVM: every request
//!   reserves `max(bytes/bandwidth, 1/IOPS, overhead)` on an atomic device
//!   timeline; in [`DelayMode::Throttled`] the caller really waits until
//!   its modeled completion time (so wall-clock TEPS shapes are honest),
//!   in [`DelayMode::Accounting`] only the statistics are kept.
//! * [`NvmStore`] — a backend bound to a device; all reads are metered.
//! * [`ShardedPageCache`] / [`ShardedCachedStore`] — the modeled OS page
//!   cache (CLOCK over lock-striped shards, holding page bytes) and a
//!   metered store fronted by it: only misses reach the device, and
//!   prefetch hints load pages asynchronously.
//! * [`ChunkedReader`] — the paper's access path: application-level ≤4 KiB
//!   chunk reads with kernel-style merging of contiguous chunks into
//!   larger device requests.
//! * [`ExtArray`] / [`ExtCsr`] — typed little-endian arrays and CSR
//!   index/value file pairs stored on external memory.
//! * [`TempDir`] — scratch-directory utility for tests, examples, benches.

pub mod backend;
pub mod chunked;
pub mod device;
pub mod error;
pub mod ext_array;
pub mod ext_csr;
pub mod fault;
pub mod iostat;
pub mod shard_cache;
pub mod striped;
pub mod tempdir;

pub use backend::{BatchRead, DramBackend, FileBackend, MmapBackend, ReadAt};
pub use chunked::ChunkedReader;
pub use device::{DelayMode, Device, DeviceProfile, NvmStore};
pub use error::{Error, Result};
pub use ext_array::ExtArray;
pub use ext_csr::{ExtCsr, NeighborBatch, WindowScratch};
pub use fault::{
    retry_blocking, Backoff, DeviceHealth, FaultKind, FaultPlan, FaultSnapshot, FaultState,
    PageIntegrity, RetryPolicy,
};
pub use iostat::{CacheSnapshot, IoSnapshot, IoStats};
pub use shard_cache::{PagePin, ShardedCachedStore, ShardedPageCache, PAGE_BYTES};
pub use striped::StripedStore;
pub use tempdir::TempDir;

/// The application-level chunk size the paper uses for NVM reads (§V-B1):
/// "our current implementation reads a continuous region for a vertex at
/// 4KB chunks by using POSIX read(2) API".
pub const APP_CHUNK_BYTES: usize = 4096;

/// Disk sector size used for `avgrq-sz` accounting (iostat reports request
/// sizes in 512-byte sectors).
pub const SECTOR_BYTES: u64 = 512;

/// Page-cache behaviour checked on a single CLOCK ring: a one-shard
/// [`ShardedPageCache`] read through [`ShardedCachedStore`], which is how
/// every offloaded file of a scenario with one cache shard is read.
#[cfg(test)]
mod cache {
    mod tests {
        use std::sync::Arc;

        use crate::{
            DelayMode, Device, DeviceProfile, DramBackend, ReadAt, ShardedCachedStore,
            ShardedPageCache, PAGE_BYTES,
        };

        type Store = ShardedCachedStore<DramBackend>;

        fn dev() -> Arc<Device> {
            Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting)
        }

        /// A one-shard cache of `capacity` pages.
        fn ring(capacity: u64) -> Arc<ShardedPageCache> {
            ShardedPageCache::with_shards(capacity * PAGE_BYTES, 1)
        }

        /// A store of `pages` pages filled with `byte`, fronted by `cache`.
        fn store(
            pages: u64,
            byte: u8,
            device: &Arc<Device>,
            cache: &Arc<ShardedPageCache>,
        ) -> Store {
            let data = vec![byte; (pages * PAGE_BYTES) as usize];
            ShardedCachedStore::new(DramBackend::new(data), device.clone(), cache.clone())
        }

        /// Read page `page` of `store`; returns whether the cache served it.
        fn access(store: &Store, page: u64) -> bool {
            let (hits, _) = store.cache().stats();
            let mut buf = vec![0u8; PAGE_BYTES as usize];
            store.read_at(page * PAGE_BYTES, &mut buf).unwrap();
            store.cache().stats().0 > hits
        }

        #[test]
        fn second_access_hits() {
            let device = dev();
            let c = ring(10);
            let s = store(4, 1, &device, &c);
            assert!(!access(&s, 3));
            assert!(access(&s, 3));
            assert_eq!(c.stats(), (1, 1));
            assert!((c.hit_rate() - 0.5).abs() < 1e-12);
            assert_eq!(device.snapshot().requests, 1, "only the miss is charged");
        }

        #[test]
        fn files_are_namespaced() {
            let device = dev();
            let c = ring(10);
            let a = store(1, 0xa, &device, &c);
            let b = store(1, 0xb, &device, &c);
            assert!(!access(&a, 0));
            assert!(!access(&b, 0), "same page number, different file");
            assert!(access(&a, 0));
            let mut buf = vec![0u8; PAGE_BYTES as usize];
            b.read_at(0, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&x| x == 0xb),
                "a hit serves its own file's bytes"
            );
        }

        #[test]
        fn clock_evicts_cold_pages() {
            let device = dev();
            let c = ring(2);
            let s = store(5, 1, &device, &c);
            access(&s, 1);
            access(&s, 2);
            // Keep 1 hot, stream 3 and 4 through.
            assert!(access(&s, 1));
            access(&s, 3);
            access(&s, 4);
            // The ring stays at capacity and keeps answering.
            assert_eq!(c.capacity_pages(), 2);
            assert_eq!(c.resident_pages(), 2);
            let (h, m) = c.stats();
            assert_eq!(h + m, 5);
            assert_eq!(c.snapshot().evictions, 2);
            assert_eq!(
                device.snapshot().requests,
                m,
                "every miss reaches the device"
            );
        }

        #[test]
        fn working_set_within_capacity_hits_forever() {
            let device = dev();
            let c = ring(4);
            let s = store(4, 1, &device, &c);
            for _ in 0..10 {
                for p in 0..4 {
                    access(&s, p);
                }
            }
            let (h, m) = c.stats();
            assert_eq!(m, 4, "only the cold misses");
            assert_eq!(h, 36);
            assert_eq!(device.snapshot().requests, 4);
        }

        #[test]
        fn cached_store_charges_only_misses() {
            let device = dev();
            let c = ring(16);
            let s = store(16, 7, &device, &c);

            let mut buf = vec![0u8; 3 * PAGE_BYTES as usize];
            s.read_at(0, &mut buf).unwrap();
            let cold = device.snapshot();
            assert_eq!(cold.bytes, 3 * PAGE_BYTES); // one merged 3-page miss run
            assert_eq!(cold.requests, 1);

            s.read_at(0, &mut buf).unwrap();
            let warm = device.snapshot();
            assert_eq!(warm.requests, cold.requests, "warm read is free");
            assert!((c.hit_rate() - 0.5).abs() < 1e-12);
            assert!(buf.iter().all(|&x| x == 7));
        }

        #[test]
        fn partial_hit_splits_miss_runs() {
            let device = dev();
            let c = ring(8);
            let s = store(8, 1, &device, &c);

            // Warm page 2 only.
            access(&s, 2);
            device.reset_stats();
            // Read pages 0..=4: miss runs [0,1] and [3,4], page 2 hits.
            let mut buf = vec![0u8; 5 * PAGE_BYTES as usize];
            s.read_at(0, &mut buf).unwrap();
            let snap = device.snapshot();
            assert_eq!(snap.requests, 2);
            assert_eq!(snap.bytes, 4 * PAGE_BYTES);
        }

        #[test]
        fn thrashing_working_set_keeps_missing() {
            let device = dev();
            let c = ring(2);
            let s = store(4, 1, &device, &c);
            for _ in 0..5 {
                for p in 0..4 {
                    access(&s, p);
                }
            }
            assert!(
                c.hit_rate() < 0.5,
                "hit rate {} on a thrashing set",
                c.hit_rate()
            );
            assert_eq!(
                device.snapshot().requests,
                c.stats().1,
                "every miss reaches the device"
            );
        }
    }
}
