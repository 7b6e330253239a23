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
//! * [`ChunkedReader`] — the paper's access path: application-level ≤4 KiB
//!   chunk reads with kernel-style merging of contiguous chunks into
//!   larger device requests.
//! * [`ExtArray`] / [`ExtCsr`] — typed little-endian arrays and CSR
//!   index/value file pairs stored on external memory.
//! * [`TempDir`] — scratch-directory utility for tests, examples, benches.

pub mod backend;
pub mod cache;
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
pub use cache::{CachedStore, PageCache};
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
pub use shard_cache::{PagePin, ShardedCachedStore, ShardedPageCache};
pub use striped::StripedStore;
pub use tempdir::TempDir;

/// The application-level chunk size the paper uses for NVM reads (§V-B1):
/// "our current implementation reads a continuous region for a vertex at
/// 4KB chunks by using POSIX read(2) API".
pub const APP_CHUNK_BYTES: usize = 4096;

/// Disk sector size used for `avgrq-sz` accounting (iostat reports request
/// sizes in 512-byte sectors).
pub const SECTOR_BYTES: u64 = 512;
