//! The modeled OS page cache the paper's runs sat on.
//!
//! The paper's Fig. 9 result (at SCALE 26 the DRAM+PCIeFlash scenario is
//! *competitive* with DRAM-only) is only possible because the 64 GB
//! machine has spare DRAM beyond the backward graph and status data, and
//! Linux caches the forward graph's file pages there: after first touch,
//! most "NVM reads" are DRAM hits. At SCALE 27 the spare (≈16 GB) covers
//! less than half the 40 GB forward graph, so the device stays on the
//! critical path. [`ShardedPageCache`] models that: a byte budget of 4 KiB
//! pages shared by all of a scenario's offloaded files, like the real page
//! cache. Pages hash onto a power-of-two number of shards, each an
//! independent CLOCK (second-chance) ring behind its own mutex, so workers
//! expanding one frontier concurrently rarely contend. The cache *holds
//! the page bytes*: a hit is served straight from DRAM without touching
//! the backing store.
//!
//! [`ShardedCachedStore`] fronts any [`ReadAt`] backend with a shared
//! [`ShardedPageCache`]: demand misses are read from the backend in
//! consecutive-page runs (charged to the device through the store's
//! [`ChunkedReader`] merge limit, like the kernel's plugged request
//! queue), and sequential access patterns trigger readahead of the
//! following pages.
//!
//! A page being filled is *pinned* between its reservation and the moment
//! its bytes are published: a concurrent reader that races the fill
//! simply falls through to the backend instead of blocking, and CLOCK
//! never evicts a pinned page. Every published page also carries the
//! device-clock time its data is *ready*. Demand misses and readahead
//! wait for their device reads before publishing, so their pages are
//! ready at once. [`ShardedCachedStore`]'s [`ReadAt::prefetch`] is
//! asynchronous instead: it reads and verifies the pages, submits their
//! device requests without waiting ([`Device::submit`]), and publishes
//! them *in flight*, ready at the requests' completion. A demand read that
//! hits an in-flight page waits until its ready time ([`Device::wait`]),
//! so no byte is served earlier than the modeled device could deliver it,
//! while one caller keeps many requests in flight.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::ReadAt;
use crate::chunked::ChunkedReader;
use crate::device::Device;
use crate::error::Result;
use crate::fault::{self, PageIntegrity};
use crate::iostat::CacheSnapshot;
use crate::APP_CHUNK_BYTES;

/// Page size of the cache (the kernel's 4 KiB).
pub const PAGE_BYTES: u64 = APP_CHUNK_BYTES as u64;

/// Default shard count: enough stripes that a handful of BFS workers
/// rarely collide, few enough that each shard's CLOCK ring still sees a
/// meaningful share of the working set.
pub const DEFAULT_SHARDS: usize = 8;

/// Hasher of `(file, page)` keys: one multiply per word (the rustc `Fx`
/// scheme) instead of SipHash, whose flood resistance page numbers do not
/// need and whose cost every cache probe would pay.
#[derive(Debug, Default, Clone, Copy)]
struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `(file, page)` → slot index.
type PageMap = HashMap<(u32, u64), usize, BuildHasherDefault<PageKeyHasher>>;

/// One cached page.
#[derive(Debug)]
struct Slot {
    key: (u32, u64),
    /// CLOCK reference bit (second chance).
    referenced: bool,
    /// Reserved by an in-flight fill; never evicted, not yet readable.
    pinned: bool,
    /// Holds valid data (lookups only hit filled slots).
    filled: bool,
    /// Device-clock time the data is ready (0: ready now).
    ready_ns: u64,
    /// Loaded ahead of demand and not yet hit by a demand read.
    unused_ahead: bool,
    data: Box<[u8]>,
}

/// One lock stripe: an independent CLOCK ring over its own slots. Aligned
/// to its own cache lines, so workers probing different shards never
/// write to a shared line.
#[derive(Debug)]
#[repr(align(128))]
struct ClockShard {
    /// `(file, page)` → slot index.
    map: PageMap,
    slots: Vec<Slot>,
    hand: usize,
    /// Slots this shard may hold (its share of the cache budget).
    capacity: usize,
}

impl ClockShard {
    /// Claim a slot for `key`, evicting via CLOCK when full. Returns the
    /// slot index and, when a filled page was displaced, whether it was a
    /// page loaded ahead of demand that no demand read ever hit; `None`
    /// when every slot is pinned.
    fn claim(&mut self, key: (u32, u64)) -> Option<(usize, Option<bool>)> {
        if self.slots.len() < self.capacity {
            let slot = self.slots.len();
            self.slots.push(Slot {
                key,
                referenced: false,
                pinned: true,
                filled: false,
                ready_ns: 0,
                unused_ahead: false,
                data: vec![0u8; PAGE_BYTES as usize].into_boxed_slice(),
            });
            self.map.insert(key, slot);
            return Some((slot, None));
        }
        // CLOCK sweep: two full passes clear every reference bit, so a
        // victim is found unless all slots are pinned.
        let len = self.slots.len();
        if len == 0 {
            return None; // zero-budget shard (capacity smaller than shard count)
        }
        for _ in 0..2 * len + 1 {
            let hand = self.hand;
            self.hand = (hand + 1) % len;
            let slot = &mut self.slots[hand];
            if slot.pinned {
                continue;
            }
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            let evicted = slot.filled.then_some(slot.unused_ahead);
            self.map.remove(&slot.key);
            slot.key = key;
            slot.referenced = false;
            slot.pinned = true;
            slot.filled = false;
            slot.unused_ahead = false;
            self.map.insert(key, hand);
            return Some((hand, evicted));
        }
        None
    }
}

/// Per-shard counters, kept outside the mutex so statistics never extend
/// the critical section (and, like the shards, on lines of their own).
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShardStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    readahead: AtomicU64,
    prefetch_unused: AtomicU64,
}

impl ShardStats {
    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            readahead_pages: self.readahead.load(Ordering::Relaxed),
            prefetch_unused: self.prefetch_unused.load(Ordering::Relaxed),
        }
    }

    /// Count one displaced filled page (see [`ClockShard::claim`]).
    fn note_eviction(&self, unused_ahead: bool) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if unused_ahead {
            self.prefetch_unused.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A shared page cache striped over independently locked CLOCK shards.
///
/// ```
/// use sembfs_semext::{ShardedPageCache, PAGE_BYTES};
///
/// let cache = ShardedPageCache::with_shards(8 * PAGE_BYTES, 4);
/// let file = cache.register_file();
/// let mut buf = [0u8; 4];
/// assert_eq!(cache.copy_page(file, 3, 0, &mut buf), None); // cold miss
/// if let Some(pin) = cache.reserve(file, 3) {
///     pin.fill(&[7u8; 16]); // short fills are zero-padded
/// }
/// // Warm hit: data served, ready at once.
/// assert_eq!(cache.copy_page(file, 3, 0, &mut buf), Some(0));
/// assert_eq!(buf, [7u8; 4]);
/// assert_eq!(cache.stats(), (1, 1));
/// ```
#[derive(Debug)]
pub struct ShardedPageCache {
    shards: Vec<Mutex<ClockShard>>,
    stats: Vec<ShardStats>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    capacity_pages: AtomicUsize,
    readahead_pages: AtomicUsize,
    next_file: AtomicU64,
}

impl ShardedPageCache {
    /// A cache of `capacity_bytes` striped over [`DEFAULT_SHARDS`] shards.
    pub fn new(capacity_bytes: u64) -> Arc<Self> {
        Self::with_shards(capacity_bytes, DEFAULT_SHARDS)
    }

    /// A cache of `capacity_bytes` (rounded down to whole pages, at least
    /// one page) striped over `shards` lock stripes (rounded up to a power
    /// of two, at least one).
    pub fn with_shards(capacity_bytes: u64, shards: usize) -> Arc<Self> {
        let shards = shards.max(1).next_power_of_two();
        let capacity_pages = ((capacity_bytes / PAGE_BYTES) as usize).max(1);
        let cache = Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ClockShard {
                        map: PageMap::default(),
                        slots: Vec::new(),
                        hand: 0,
                        capacity: 0,
                    })
                })
                .collect(),
            stats: (0..shards).map(|_| ShardStats::default()).collect(),
            mask: shards as u64 - 1,
            capacity_pages: AtomicUsize::new(capacity_pages),
            readahead_pages: AtomicUsize::new(0),
            next_file: AtomicU64::new(0),
        };
        cache.distribute_capacity(capacity_pages);
        Arc::new(cache)
    }

    /// Spread `total` page slots over the shards (earlier shards absorb
    /// the remainder).
    fn distribute_capacity(&self, total: usize) {
        let n = self.shards.len();
        let base = total / n;
        let rem = total % n;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock();
            shard.capacity = (base + usize::from(i < rem)).max(usize::from(total < n && i == 0));
            // Best-effort shrink: drop unpinned tail slots beyond the new
            // budget (pinned slots are released by their in-flight fills
            // and reused by the CLOCK sweep afterwards).
            while shard.slots.len() > shard.capacity {
                match shard.slots.last() {
                    Some(s) if !s.pinned => {
                        let s = shard.slots.pop().expect("nonempty");
                        shard.map.remove(&s.key);
                        if s.filled {
                            self.stats[i].note_eviction(s.unused_ahead);
                        }
                    }
                    _ => break,
                }
            }
            if shard.hand >= shard.slots.len() {
                shard.hand = 0;
            }
        }
    }

    fn shard_of(&self, file: u32, page: u64) -> usize {
        // Fibonacci-style mix so consecutive pages spread across shards
        // (a sequential scan touches every stripe, not one).
        let mut x = ((file as u64) << 32 | (file as u64)) ^ page;
        x ^= x >> 33;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 29;
        (x & self.mask) as usize
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages.load(Ordering::Relaxed)
    }

    /// Re-budget the cache to `capacity_bytes` (rounded down to whole
    /// pages, at least one). Excess resident pages are evicted best-effort
    /// (pinned in-flight pages are released by their fills and reclaimed
    /// by later CLOCK sweeps).
    pub fn set_capacity_bytes(&self, capacity_bytes: u64) {
        let pages = ((capacity_bytes / PAGE_BYTES) as usize).max(1);
        self.capacity_pages.store(pages, Ordering::Relaxed);
        self.distribute_capacity(pages);
    }

    /// Pages to load ahead of a sequential reader (0 disables readahead).
    pub fn readahead_pages(&self) -> usize {
        self.readahead_pages.load(Ordering::Relaxed)
    }

    /// Set the sequential readahead window, in pages.
    pub fn set_readahead_pages(&self, pages: usize) {
        self.readahead_pages.store(pages, Ordering::Relaxed);
    }

    /// Register a file; returns its cache namespace id.
    pub fn register_file(&self) -> u32 {
        self.next_file.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Demand lookup of `(file, page)`: on a hit, copy
    /// `page[page_offset .. page_offset + dst.len()]` into `dst`, mark the
    /// page referenced, and return the device-clock time its data is
    /// ready (0 unless it was prefetched and may still be in flight; the
    /// caller must not use the bytes before then). On a miss (absent or
    /// still pinned by a fill) return `None` — the caller reads the
    /// backend.
    pub fn copy_page(
        &self,
        file: u32,
        page: u64,
        page_offset: usize,
        dst: &mut [u8],
    ) -> Option<u64> {
        debug_assert!(page_offset + dst.len() <= PAGE_BYTES as usize);
        let si = self.shard_of(file, page);
        {
            let mut shard = self.shards[si].lock();
            if let Some(&slot) = shard.map.get(&(file, page)) {
                let s = &mut shard.slots[slot];
                if s.filled {
                    dst.copy_from_slice(&s.data[page_offset..page_offset + dst.len()]);
                    // Write only on change: hot pages are probed by every
                    // worker, and a store would bounce their line.
                    if !s.referenced || s.unused_ahead {
                        s.referenced = true;
                        s.unused_ahead = false;
                    }
                    let ready = s.ready_ns;
                    drop(shard);
                    self.stats[si].hits.fetch_add(1, Ordering::Relaxed);
                    return Some(ready);
                }
            }
        }
        self.stats[si].misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Reserve a pinned slot for `(file, page)` ahead of a fill.
    ///
    /// Returns `None` when the page is already cached or being filled by
    /// another thread, or when every slot of its shard is pinned — in all
    /// three cases the caller just proceeds without caching. Dropping the
    /// returned [`PagePin`] without filling releases the reservation.
    pub fn reserve(&self, file: u32, page: u64) -> Option<PagePin<'_>> {
        let si = self.shard_of(file, page);
        let mut shard = self.shards[si].lock();
        if shard.map.contains_key(&(file, page)) {
            return None;
        }
        let (slot, evicted) = shard.claim((file, page))?;
        drop(shard);
        if let Some(unused_ahead) = evicted {
            self.stats[si].note_eviction(unused_ahead);
            sembfs_obs::global().instant(sembfs_obs::TraceEvent::CacheEvict { pages: 1 });
        }
        Some(PagePin {
            cache: self,
            shard: si,
            slot,
            key: (file, page),
            filled: false,
        })
    }

    /// Count `pages` pages loaded by readahead/prefetch against the shard
    /// of `(file, page)`.
    fn note_readahead(&self, file: u32, page: u64, pages: u64) {
        let si = self.shard_of(file, page);
        self.stats[si].readahead.fetch_add(pages, Ordering::Relaxed);
    }

    /// `(hits, misses)` so far, summed over shards.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.snapshot();
        (s.hits, s.misses)
    }

    /// Demand hit rate in `[0, 1]` (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        self.snapshot().hit_rate()
    }

    /// All counters, summed over shards.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut total = CacheSnapshot::default();
        for s in &self.stats {
            let s = s.snapshot();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.readahead_pages += s.readahead_pages;
            total.prefetch_unused += s.prefetch_unused;
        }
        total
    }

    /// Register the cache's aggregate counters as pull-style metrics on a
    /// registry (Prometheus exposition).
    pub fn register_metrics(self: &Arc<Self>, registry: &sembfs_obs::MetricsRegistry) {
        use sembfs_obs::Metric;
        let cache = Arc::clone(self);
        registry.register_source(Box::new(move || {
            let snap = cache.snapshot();
            let labels: &[(&str, &str)] = &[];
            vec![
                Metric::counter("sembfs_cache_hits_total", labels, snap.hits as f64),
                Metric::counter("sembfs_cache_misses_total", labels, snap.misses as f64),
                Metric::counter(
                    "sembfs_cache_evictions_total",
                    labels,
                    snap.evictions as f64,
                ),
                Metric::counter(
                    "sembfs_cache_readahead_pages_total",
                    labels,
                    snap.readahead_pages as f64,
                ),
                Metric::counter(
                    "sembfs_cache_prefetch_unused_total",
                    labels,
                    snap.prefetch_unused as f64,
                ),
                Metric::gauge("sembfs_cache_hit_rate", labels, snap.hit_rate()),
                Metric::gauge(
                    "sembfs_cache_resident_pages",
                    labels,
                    cache.resident_pages() as f64,
                ),
            ]
        }));
    }

    /// Per-shard counter snapshots (load-balance diagnostics for the
    /// shard-count ablation).
    pub fn per_shard(&self) -> Vec<CacheSnapshot> {
        self.stats.iter().map(ShardStats::snapshot).collect()
    }

    /// Resident (filled) pages across all shards.
    pub fn resident_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().slots.iter().filter(|s| s.filled).count())
            .sum()
    }
}

/// A reserved, pinned cache slot awaiting its page data.
///
/// Obtained from [`ShardedPageCache::reserve`]; consumed by
/// [`fill`](PagePin::fill). Dropping an unfilled pin releases the slot.
#[must_use = "an unfilled reservation blocks the slot until dropped"]
#[derive(Debug)]
pub struct PagePin<'a> {
    cache: &'a ShardedPageCache,
    shard: usize,
    slot: usize,
    key: (u32, u64),
    filled: bool,
}

impl PagePin<'_> {
    /// Publish `data` as the page's contents (short fills — the file's
    /// last page — are zero-padded), ready at once, and unpin the slot.
    pub fn fill(self, data: &[u8]) {
        self.publish(data, 0, false);
    }

    /// [`fill`](Self::fill) with the device-clock time the data is ready
    /// and whether the page was loaded ahead of demand.
    fn publish(mut self, data: &[u8], ready_ns: u64, ahead: bool) {
        debug_assert!(data.len() <= PAGE_BYTES as usize);
        let mut shard = self.cache.shards[self.shard].lock();
        let s = &mut shard.slots[self.slot];
        debug_assert_eq!(s.key, self.key, "pinned slot cannot be reassigned");
        s.data[..data.len()].copy_from_slice(data);
        s.data[data.len()..].fill(0);
        s.filled = true;
        s.pinned = false;
        s.referenced = true;
        s.ready_ns = ready_ns;
        s.unused_ahead = ahead;
        self.filled = true;
        drop(shard);
        sembfs_obs::global().instant(sembfs_obs::TraceEvent::CacheFill { pages: 1 });
    }
}

impl Drop for PagePin<'_> {
    fn drop(&mut self) {
        if self.filled {
            return;
        }
        // Abandoned fill: release the slot as an empty eviction candidate.
        let mut shard = self.cache.shards[self.shard].lock();
        let s = &mut shard.slots[self.slot];
        debug_assert_eq!(s.key, self.key, "pinned slot cannot be reassigned");
        s.pinned = false;
        s.filled = false;
        shard.map.remove(&self.key);
    }
}

/// A device-metered store fronted by a shared [`ShardedPageCache`].
///
/// Hits are served from cached page data without touching the backend or
/// the device. Misses are read from the backend in consecutive-page runs
/// and charged to the device through the store's [`ChunkedReader`] merge
/// limit (one request per merged span, like the kernel's plugged queue).
/// When the cache's readahead window is nonzero, a read that continues the
/// previous one sequentially also loads the following pages ahead of
/// demand.
#[derive(Debug)]
pub struct ShardedCachedStore<B> {
    backend: B,
    device: Arc<Device>,
    cache: Arc<ShardedPageCache>,
    reader: ChunkedReader,
    file_id: u32,
    /// First page past the previous demand read (sequential detector).
    last_end_page: AtomicU64,
    /// Sealed per-page checksums; every fill is verified against them, so
    /// a torn or corrupted page can never enter the cache as valid data.
    integrity: Option<Arc<PageIntegrity>>,
}

impl<B: ReadAt> ShardedCachedStore<B> {
    /// Front `backend` with `cache`, metering misses on `device` with the
    /// device's own merge limit.
    pub fn new(backend: B, device: Arc<Device>, cache: Arc<ShardedPageCache>) -> Self {
        let reader = ChunkedReader::for_device(&device);
        Self::with_reader(backend, device, cache, reader)
    }

    /// Same, with an explicit chunk reader for the miss-run splitting.
    pub fn with_reader(
        backend: B,
        device: Arc<Device>,
        cache: Arc<ShardedPageCache>,
        reader: ChunkedReader,
    ) -> Self {
        let file_id = cache.register_file();
        Self {
            backend,
            device,
            cache,
            reader,
            file_id,
            last_end_page: AtomicU64::new(u64::MAX),
            integrity: None,
        }
    }

    /// Attach per-page checksums sealed at build time. Every cache fill
    /// (demand miss, readahead, warm) is verified before the pages become
    /// servable; a mismatch surfaces as
    /// [`crate::Error::ChecksumMismatch`] and the pages are not admitted.
    pub fn with_integrity(mut self, integrity: Arc<PageIntegrity>) -> Self {
        self.integrity = Some(integrity);
        self
    }

    /// The sealed page checksums, when attached.
    pub fn integrity(&self) -> Option<&Arc<PageIntegrity>> {
        self.integrity.as_ref()
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<ShardedPageCache> {
        &self.cache
    }

    /// This store's cache file namespace.
    pub fn file_id(&self) -> u32 {
        self.file_id
    }

    /// Load every page of this store into the cache (subject to capacity)
    /// without device charges: writing a file through the kernel leaves
    /// its pages in the page cache, so a freshly offloaded graph starts
    /// warm.
    pub fn warm(&self) -> Result<()> {
        let pages = self.backend.len().div_ceil(PAGE_BYTES);
        self.load_pages(0, pages, Load::Warm)
    }

    /// The device's fault state, when a read fault can fire.
    fn active_faults(&self) -> Option<&Arc<fault::FaultState>> {
        self.device.faults().filter(|f| f.plan().has_read_faults())
    }

    /// Submit a `bytes`-long backend read to the device without waiting,
    /// split at the reader's merge limit (§V-B1's chunking: the device
    /// sees one request per merged span, never an unbounded transfer).
    /// Returns the last request's completion time.
    fn submit(&self, bytes: u64) -> u64 {
        let merge = self.reader.merge_limit() as u64;
        let mut completion = 0;
        let mut rest = bytes;
        while rest > 0 {
            let take = rest.min(merge);
            completion = completion.max(self.device.submit(take));
            rest -= take;
        }
        completion
    }

    /// Read the page-aligned span starting at `span_start` from the
    /// backend into `scratch` and verify it against the sealed checksums,
    /// when attached. Returns the device-clock time the bytes are ready:
    /// 0 except for [`Load::Ahead`].
    ///
    /// [`Load::Sync`] reads on a device with active fault rates go through
    /// the resilient path ([`fault::faulted_read`]): faults are drawn,
    /// verified-bad attempts retry under backoff, and exhaustion surfaces
    /// typed errors. [`Load::Ahead`] never runs under such a plan (see
    /// [`ReadAt::prefetch`]) and submits only spans that verified.
    fn read_span(&self, span_start: u64, scratch: &mut [u8], load: Load) -> Result<u64> {
        if load == Load::Sync {
            if let Some(state) = self.active_faults() {
                // The fault path charges the device once per attempt; the
                // merge-limit split does not apply to retried reads.
                fault::faulted_read(
                    &self.backend,
                    &self.device,
                    self.integrity.as_deref(),
                    state,
                    span_start,
                    scratch,
                )?;
                return Ok(0);
            }
        }
        self.backend.read_at(span_start, scratch)?;
        if load == Load::Sync {
            self.device.wait(self.submit(scratch.len() as u64));
        }
        if let Some(integrity) = &self.integrity {
            integrity.verify_span(span_start / PAGE_BYTES, scratch)?;
        }
        Ok(match load {
            Load::Ahead => self.submit(scratch.len() as u64),
            Load::Warm | Load::Sync => 0,
        })
    }

    /// Load pages `[first, last_excl)` that are not yet cached, reading
    /// the backend in contiguous reserved runs. Loads other than
    /// [`Load::Warm`] count in the readahead statistic. A run that fails
    /// drops its pins, leaving its pages uncached.
    fn load_pages(&self, first: u64, last_excl: u64, load: Load) -> Result<()> {
        let size = self.backend.len();
        let last_excl = last_excl.min(size.div_ceil(PAGE_BYTES));
        let ahead = load != Load::Warm;
        let mut page = first;
        while page < last_excl {
            let run_start = page;
            let mut pins = Vec::new();
            while page < last_excl {
                match self.cache.reserve(self.file_id, page) {
                    Some(pin) => {
                        pins.push(pin);
                        page += 1;
                    }
                    None => break,
                }
            }
            if pins.is_empty() {
                page += 1; // already cached / in flight: skip it
                continue;
            }
            let span_start = run_start * PAGE_BYTES;
            let span_end = (run_start + pins.len() as u64) * PAGE_BYTES;
            let span_end = span_end.min(size);
            let mut scratch = vec![0u8; (span_end - span_start) as usize];
            let ready = self.read_span(span_start, &mut scratch, load)?;
            if ahead {
                self.cache
                    .note_readahead(self.file_id, run_start, pins.len() as u64);
            }
            for (i, pin) in pins.into_iter().enumerate() {
                let off = i * PAGE_BYTES as usize;
                let end = scratch.len().min(off + PAGE_BYTES as usize);
                pin.publish(&scratch[off..end], ready, ahead);
            }
        }
        Ok(())
    }

    /// Read the miss run `[run_start, run_end_excl)` from the backend,
    /// charge the device, copy the requested window into `buf`, and
    /// publish the pages.
    fn service_miss_run(
        &self,
        run_start: u64,
        run_end_excl: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        let size = self.backend.len();
        let span_start = run_start * PAGE_BYTES;
        let span_end = (run_end_excl * PAGE_BYTES).min(size);
        let mut scratch = vec![0u8; (span_end - span_start) as usize];
        self.read_span(span_start, &mut scratch, Load::Sync)?;

        let copy_start = offset.max(span_start);
        let copy_end = (offset + buf.len() as u64).min(span_end);
        buf[(copy_start - offset) as usize..(copy_end - offset) as usize].copy_from_slice(
            &scratch[(copy_start - span_start) as usize..(copy_end - span_start) as usize],
        );

        for p in run_start..run_end_excl {
            if let Some(pin) = self.cache.reserve(self.file_id, p) {
                let off = ((p - run_start) * PAGE_BYTES) as usize;
                let end = scratch.len().min(off + PAGE_BYTES as usize);
                pin.fill(&scratch[off..end]);
            }
        }
        Ok(())
    }
}

/// How [`ShardedCachedStore::load_pages`] reads its pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    /// Pages the offload writer left in DRAM: no device access.
    Warm,
    /// Blocking device reads (demand misses, sequential readahead).
    Sync,
    /// Asynchronous prefetch: submitted without waiting, published in
    /// flight.
    Ahead,
}

impl<B: ReadAt> ReadAt for ShardedCachedStore<B> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let size = self.backend.len();
        if offset
            .checked_add(buf.len() as u64)
            .is_none_or(|end| end > size)
        {
            // Out of bounds: delegate for the canonical error.
            return self.backend.read_at(offset, buf);
        }

        let first = offset / PAGE_BYTES;
        let last = (offset + buf.len() as u64 - 1) / PAGE_BYTES;
        let mut run_start: Option<u64> = None;
        // Latest ready time of the in-flight pages this read hit.
        let mut ready = 0;
        for page in first..=last {
            let page_start = page * PAGE_BYTES;
            let s = offset.max(page_start);
            let e = (offset + buf.len() as u64).min(page_start + PAGE_BYTES);
            let dst = &mut buf[(s - offset) as usize..(e - offset) as usize];
            match self
                .cache
                .copy_page(self.file_id, page, (s - page_start) as usize, dst)
            {
                Some(page_ready) => {
                    ready = ready.max(page_ready);
                    if let Some(rs) = run_start.take() {
                        self.service_miss_run(rs, page, offset, buf)?;
                    }
                }
                None => {
                    run_start.get_or_insert(page);
                }
            }
        }
        if let Some(rs) = run_start.take() {
            self.service_miss_run(rs, last + 1, offset, buf)?;
        }
        self.device.wait(ready);

        // Sequential readahead: a read continuing exactly where the
        // previous one ended pulls the next window in ahead of demand.
        // The detector is only fed while readahead is on: a store-wide
        // atomic written by every read would bounce between the workers'
        // cores.
        let ra = self.cache.readahead_pages() as u64;
        if ra > 0 && self.last_end_page.swap(last + 1, Ordering::Relaxed) == first {
            self.load_pages(last + 1, last + 1 + ra, Load::Sync)?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.backend.len()
    }

    fn prefetches(&self) -> bool {
        self.active_faults().is_none()
    }

    fn prefetch(&self, offset: u64, len: u64) {
        let size = self.backend.len();
        if !self.prefetches() || len == 0 || offset >= size {
            return;
        }
        let first = offset / PAGE_BYTES;
        let end = offset.saturating_add(len).min(size);
        let last_excl = end.div_ceil(PAGE_BYTES);
        // A prefetch never fails its caller: pages it could not read or
        // verify stay uncached, and the demand read reports the error.
        let _ = self.load_pages(first, last_excl, Load::Ahead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DramBackend;
    use crate::device::{DelayMode, DeviceProfile};

    fn dev() -> Arc<Device> {
        Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting)
    }

    fn patterned(pages: usize) -> Vec<u8> {
        (0..pages * PAGE_BYTES as usize)
            .map(|i| (i % 251) as u8)
            .collect()
    }

    #[test]
    fn hit_serves_cached_bytes() {
        let cache = ShardedPageCache::with_shards(8 * PAGE_BYTES, 4);
        let f = cache.register_file();
        let mut buf = [0u8; 8];
        assert!(cache.copy_page(f, 5, 16, &mut buf).is_none());
        cache.reserve(f, 5).unwrap().fill(&patterned(1));
        assert!(cache.copy_page(f, 5, 16, &mut buf).is_some());
        assert_eq!(&buf[..], &patterned(1)[16..24]);
        assert_eq!(cache.stats(), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_snapshot_is_monotone_and_sums_shards() {
        // The aggregate CacheSnapshot is the query engine's global
        // hit-rate source: every counter must be non-decreasing over an
        // arbitrary access mix, and always equal the per-shard sum.
        let device = dev();
        let cache = ShardedPageCache::with_shards(4 * PAGE_BYTES, 4); // undersized: evicts
        let data = patterned(32);
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device, cache.clone());
        let mut prev = cache.snapshot();
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        for i in 0..100u64 {
            // Mix of repeats (hits), strides (misses + evictions), and a
            // readahead-eligible sequential run.
            let off = match i % 4 {
                0 => 0,
                1 => (i % 32) * PAGE_BYTES,
                2 => ((i * 7) % 31) * PAGE_BYTES,
                _ => (i % 8) * PAGE_BYTES + 128,
            };
            store.read_at(off, &mut buf[..256]).unwrap();
            let now = cache.snapshot();
            assert!(now.hits >= prev.hits, "hits regressed at step {i}");
            assert!(now.misses >= prev.misses, "misses regressed at step {i}");
            assert!(
                now.evictions >= prev.evictions,
                "evictions regressed at step {i}"
            );
            assert!(
                now.readahead_pages >= prev.readahead_pages,
                "readahead regressed at step {i}"
            );
            assert!(now.accesses() > prev.accesses(), "step {i} not counted");
            prev = now;
        }
        let sum = cache
            .per_shard()
            .iter()
            .fold(CacheSnapshot::default(), |a, s| CacheSnapshot {
                hits: a.hits + s.hits,
                misses: a.misses + s.misses,
                evictions: a.evictions + s.evictions,
                readahead_pages: a.readahead_pages + s.readahead_pages,
                prefetch_unused: a.prefetch_unused + s.prefetch_unused,
            });
        assert_eq!(prev, sum, "aggregate must equal per-shard sum");
        assert!(prev.hits > 0 && prev.misses > 0 && prev.evictions > 0);
        assert!(prev.hit_rate() > 0.0 && prev.hit_rate() < 1.0);
    }

    #[test]
    fn files_are_namespaced() {
        let cache = ShardedPageCache::with_shards(8 * PAGE_BYTES, 2);
        let a = cache.register_file();
        let b = cache.register_file();
        cache.reserve(a, 0).unwrap().fill(&[1u8; 8]);
        let mut buf = [0u8; 1];
        assert!(cache.copy_page(a, 0, 0, &mut buf).is_some());
        assert!(
            cache.copy_page(b, 0, 0, &mut buf).is_none(),
            "different namespace"
        );
    }

    #[test]
    fn reserve_is_exclusive_until_dropped() {
        let cache = ShardedPageCache::with_shards(4 * PAGE_BYTES, 1);
        let f = cache.register_file();
        let pin = cache.reserve(f, 7).unwrap();
        assert!(cache.reserve(f, 7).is_none(), "in-flight page is exclusive");
        let mut buf = [0u8; 1];
        assert!(
            cache.copy_page(f, 7, 0, &mut buf).is_none(),
            "unfilled page never hits"
        );
        drop(pin); // abandoned: slot released
        assert!(cache.reserve(f, 7).is_some(), "slot reusable after abort");
    }

    #[test]
    fn clock_evicts_cold_pages_and_counts() {
        let cache = ShardedPageCache::with_shards(2 * PAGE_BYTES, 1);
        let f = cache.register_file();
        cache.reserve(f, 1).unwrap().fill(&[1]);
        cache.reserve(f, 2).unwrap().fill(&[2]);
        // Keep 1 hot.
        let mut buf = [0u8; 1];
        assert!(cache.copy_page(f, 1, 0, &mut buf).is_some());
        cache.reserve(f, 3).unwrap().fill(&[3]);
        cache.reserve(f, 4).unwrap().fill(&[4]);
        let snap = cache.snapshot();
        assert_eq!(snap.evictions, 2, "two filled pages displaced");
        assert_eq!(cache.resident_pages(), 2);
    }

    #[test]
    fn pinned_pages_survive_clock() {
        let cache = ShardedPageCache::with_shards(2 * PAGE_BYTES, 1);
        let f = cache.register_file();
        let pin = cache.reserve(f, 0).unwrap();
        cache.reserve(f, 1).unwrap().fill(&[1]);
        // Shard full; page 0 pinned, page 1 evictable.
        let pin2 = cache.reserve(f, 2).unwrap();
        // Both slots now pinned: a third reservation must fail, not spin.
        assert!(cache.reserve(f, 3).is_none());
        pin.fill(&[0]);
        pin2.fill(&[2]);
        let mut buf = [0u8; 1];
        assert!(cache.copy_page(f, 0, 0, &mut buf).is_some());
        assert_eq!(buf, [0]);
    }

    #[test]
    fn capacity_shrink_evicts_and_grow_readmits() {
        let cache = ShardedPageCache::with_shards(8 * PAGE_BYTES, 2);
        let f = cache.register_file();
        for p in 0..8 {
            cache.reserve(f, p).unwrap().fill(&[p as u8]);
        }
        // Hash imbalance may push one shard past its share (evicting), but
        // most of the working set is resident.
        assert!(cache.resident_pages() > 4);
        cache.set_capacity_bytes(2 * PAGE_BYTES);
        assert_eq!(cache.capacity_pages(), 2);
        assert!(cache.resident_pages() <= 2);
        cache.set_capacity_bytes(8 * PAGE_BYTES);
        for p in 0..8 {
            let _ = cache.reserve(f, p).map(|pin| pin.fill(&[p as u8]));
        }
        // Pages hash unevenly over the 2 shards, so an overloaded shard may
        // hold fewer than its arithmetic share — but the budget is back.
        assert!(cache.resident_pages() > 2);
    }

    #[test]
    fn tiny_capacity_still_one_page_per_populated_shard() {
        // A 1-page cache over many shards must still admit a page.
        let cache = ShardedPageCache::with_shards(PAGE_BYTES, 8);
        let f = cache.register_file();
        let mut admitted = 0;
        for p in 0..64 {
            if let Some(pin) = cache.reserve(f, p) {
                pin.fill(&[0]);
                admitted += 1;
            }
        }
        assert!(admitted > 0);
    }

    #[test]
    fn store_reads_are_byte_identical() {
        let data = patterned(16);
        let cache = ShardedPageCache::with_shards(16 * PAGE_BYTES, 4);
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), dev(), cache);
        for (off, n) in [
            (0u64, 1usize),
            (4095, 2),
            (100, 10_000),
            (5 * PAGE_BYTES, PAGE_BYTES as usize),
            (16 * PAGE_BYTES - 7, 7),
        ] {
            let mut cold = vec![0u8; n];
            store.read_at(off, &mut cold).unwrap();
            assert_eq!(&cold[..], &data[off as usize..off as usize + n], "cold");
            let mut warm = vec![0u8; n];
            store.read_at(off, &mut warm).unwrap();
            assert_eq!(cold, warm, "warm");
        }
        let mut oob = vec![0u8; 8];
        assert!(store.read_at(16 * PAGE_BYTES - 4, &mut oob).is_err());
    }

    #[test]
    fn store_charges_only_misses_with_merge_splitting() {
        let device = dev();
        let cache = ShardedPageCache::with_shards(16 * PAGE_BYTES, 4);
        let store = ShardedCachedStore::new(
            DramBackend::new(patterned(16)),
            device.clone(),
            cache.clone(),
        );

        // 3 consecutive cold pages fit one iodrive2 16 KiB merged request.
        let mut buf = vec![0u8; 3 * PAGE_BYTES as usize];
        store.read_at(0, &mut buf).unwrap();
        let cold = device.snapshot();
        assert_eq!(cold.requests, 1);
        assert_eq!(cold.bytes, 3 * PAGE_BYTES);

        store.read_at(0, &mut buf).unwrap();
        let warm = device.snapshot();
        assert_eq!(warm.requests, cold.requests, "warm read is free");
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);

        // 8 cold pages (32 KiB) split at the 16 KiB merge limit.
        device.reset_stats();
        let mut big = vec![0u8; 8 * PAGE_BYTES as usize];
        store.read_at(8 * PAGE_BYTES, &mut big).unwrap();
        assert_eq!(device.snapshot().requests, 2);
    }

    #[test]
    fn partial_hit_splits_miss_runs() {
        let device = dev();
        let cache = ShardedPageCache::with_shards(8 * PAGE_BYTES, 4);
        let data = patterned(8);
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device.clone(), cache);

        // Warm page 2 only.
        let mut one = vec![0u8; PAGE_BYTES as usize];
        store.read_at(2 * PAGE_BYTES, &mut one).unwrap();
        device.reset_stats();
        // Read pages 0..=4: miss runs [0,1] and [3,4], page 2 hits.
        let mut buf = vec![0u8; 5 * PAGE_BYTES as usize];
        store.read_at(0, &mut buf).unwrap();
        let snap = device.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.bytes, 4 * PAGE_BYTES);
        assert_eq!(&buf[..], &data[..5 * PAGE_BYTES as usize]);
    }

    #[test]
    fn warm_store_never_touches_device() {
        let device = dev();
        let cache = ShardedPageCache::with_shards(32 * PAGE_BYTES, 4);
        let data = patterned(16);
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device.clone(), cache);
        store.warm().unwrap();
        assert_eq!(device.snapshot().requests, 0, "warming is charge-free");
        let mut buf = vec![0u8; data.len()];
        store.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(device.snapshot().requests, 0, "fully warm reads are free");
    }

    #[test]
    fn sequential_reads_trigger_readahead() {
        let device = dev();
        let cache = ShardedPageCache::with_shards(64 * PAGE_BYTES, 4);
        cache.set_readahead_pages(4);
        let store = ShardedCachedStore::new(
            DramBackend::new(patterned(32)),
            device.clone(),
            cache.clone(),
        );

        let mut page = vec![0u8; PAGE_BYTES as usize];
        store.read_at(0, &mut page).unwrap(); // not sequential yet
        assert_eq!(cache.snapshot().readahead_pages, 0);
        store.read_at(PAGE_BYTES, &mut page).unwrap(); // sequential
        let snap = cache.snapshot();
        assert_eq!(snap.readahead_pages, 4, "window loaded ahead");
        device.reset_stats();
        // Pages 2..=5 are now resident: with readahead paused, the
        // continued scan is served entirely from cache.
        cache.set_readahead_pages(0);
        for p in 2..=5u64 {
            store.read_at(p * PAGE_BYTES, &mut page).unwrap();
        }
        let snap = device.snapshot();
        assert_eq!(snap.requests, 0, "readahead absorbed the scan");
    }

    #[test]
    fn readahead_clips_at_eof() {
        let device = dev();
        let cache = ShardedPageCache::with_shards(64 * PAGE_BYTES, 2);
        cache.set_readahead_pages(8);
        let data = patterned(3); // only 3 pages
        let store = ShardedCachedStore::new(DramBackend::new(data), device, cache.clone());
        let mut page = vec![0u8; PAGE_BYTES as usize];
        store.read_at(0, &mut page).unwrap();
        store.read_at(PAGE_BYTES, &mut page).unwrap();
        assert_eq!(
            cache.snapshot().readahead_pages,
            1,
            "only page 2 exists past the window"
        );
    }

    #[test]
    fn prefetch_loads_span_and_demand_hits() {
        let device = dev();
        let cache = ShardedPageCache::with_shards(32 * PAGE_BYTES, 4);
        let data = patterned(16);
        let store = ShardedCachedStore::new(
            DramBackend::new(data.clone()),
            device.clone(),
            cache.clone(),
        );
        store.prefetch(2 * PAGE_BYTES, 4 * PAGE_BYTES);
        assert_eq!(cache.snapshot().readahead_pages, 4);
        assert!(device.snapshot().requests > 0, "prefetch pays the device");
        let before = device.snapshot().requests;
        let mut buf = vec![0u8; 4 * PAGE_BYTES as usize];
        store.read_at(2 * PAGE_BYTES, &mut buf).unwrap();
        assert_eq!(
            &buf[..],
            &data[2 * PAGE_BYTES as usize..6 * PAGE_BYTES as usize]
        );
        assert_eq!(device.snapshot().requests, before, "demand read is free");
        // Past-EOF prefetches are clipped, not errors.
        store.prefetch(15 * PAGE_BYTES, 64 * PAGE_BYTES);
        store.prefetch(1 << 40, 8);
    }

    #[test]
    fn demand_read_waits_for_an_in_flight_prefetch() {
        use std::time::{Duration, Instant};
        let latency = Duration::from_millis(50);
        let profile = DeviceProfile {
            latency,
            ..DeviceProfile::iodrive2()
        };
        let device = Device::new(profile, DelayMode::Throttled);
        let data = patterned(4);
        let cache = ShardedPageCache::with_shards(8 * PAGE_BYTES, 2);
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device.clone(), cache);
        let mut buf = vec![0u8; 64];

        // Before its completion: the prefetch returns at once, and the
        // demand read blocks until the device could have delivered.
        let t0 = Instant::now();
        store.prefetch(0, PAGE_BYTES);
        assert!(t0.elapsed() < latency, "prefetch must not wait");
        store.read_at(100, &mut buf).unwrap();
        assert!(
            t0.elapsed() >= latency,
            "served before the device delivered"
        );
        assert_eq!(&buf[..], &data[100..164]);

        // After its completion: the demand read does not block.
        store.prefetch(PAGE_BYTES, PAGE_BYTES);
        std::thread::sleep(latency + Duration::from_millis(5));
        let t1 = Instant::now();
        store.read_at(PAGE_BYTES + 100, &mut buf).unwrap();
        assert!(
            t1.elapsed() < latency,
            "a completed prefetch is a plain hit"
        );
        assert_eq!(device.snapshot().requests, 2, "demand hits charge nothing");
    }

    #[test]
    fn accounting_reads_never_wait_for_prefetches() {
        use std::time::{Duration, Instant};
        let profile = DeviceProfile {
            latency: Duration::from_secs(10),
            ..DeviceProfile::iodrive2()
        };
        let device = Device::new(profile, DelayMode::Accounting);
        let data = patterned(8);
        let cache = ShardedPageCache::with_shards(32 * PAGE_BYTES, 2);
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device.clone(), cache);
        let t0 = Instant::now();
        store.prefetch(0, 8 * PAGE_BYTES);
        let mut buf = vec![0u8; data.len()];
        store.read_at(0, &mut buf).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(buf, data);
        assert_eq!(
            device.snapshot().requests,
            2,
            "32 KiB at a 16 KiB merge limit"
        );
    }

    #[test]
    fn prefetch_of_a_torn_page_admits_nothing() {
        let good = patterned(8);
        let integrity = Arc::new(PageIntegrity::seal_bytes(&good));
        let mut torn = good.clone();
        torn[3 * PAGE_BYTES as usize + 7] ^= 0x80;
        let device = dev();
        let cache = ShardedPageCache::with_shards(16 * PAGE_BYTES, 4);
        let store = ShardedCachedStore::new(DramBackend::new(torn), device.clone(), cache.clone())
            .with_integrity(integrity);

        store.prefetch(2 * PAGE_BYTES, 3 * PAGE_BYTES);
        assert_eq!(cache.resident_pages(), 0, "the failed run admits nothing");
        assert_eq!(cache.snapshot().readahead_pages, 0);
        assert_eq!(
            device.snapshot().requests,
            0,
            "an unverified span is never submitted"
        );
        let mut buf = vec![0u8; 16];
        match store.read_at(3 * PAGE_BYTES, &mut buf) {
            Err(crate::Error::ChecksumMismatch { page: 3, .. }) => {}
            other => panic!("expected ChecksumMismatch on page 3, got {other:?}"),
        }
    }

    #[test]
    fn prefetch_of_cached_or_in_flight_pages_is_free() {
        let device = dev();
        let cache = ShardedPageCache::with_shards(16 * PAGE_BYTES, 4);
        let store = ShardedCachedStore::new(
            DramBackend::new(patterned(8)),
            device.clone(),
            cache.clone(),
        );
        store.prefetch(0, 4 * PAGE_BYTES);
        assert_eq!(device.snapshot().requests, 1, "one merged 16 KiB request");
        // In flight (Accounting completions lie in the modeled future).
        store.prefetch(0, 4 * PAGE_BYTES);
        let mut buf = vec![0u8; 8];
        store.read_at(0, &mut buf).unwrap();
        // Cached and already hit.
        store.prefetch(PAGE_BYTES / 2, PAGE_BYTES);
        assert_eq!(device.snapshot().requests, 1);
        let snap = cache.snapshot();
        assert_eq!(snap.readahead_pages, 4);
        assert_eq!((snap.hits, snap.misses), (1, 0), "prefetch is not demand");
    }

    #[test]
    fn prefetched_pages_evicted_before_any_hit_count_as_unused() {
        let cache = ShardedPageCache::with_shards(2 * PAGE_BYTES, 1);
        let store = ShardedCachedStore::new(DramBackend::new(patterned(8)), dev(), cache.clone());
        store.prefetch(0, 2 * PAGE_BYTES);
        let mut buf = vec![0u8; 8];
        store.read_at(0, &mut buf).unwrap(); // page 0 used, page 1 not
        store.prefetch(2 * PAGE_BYTES, 2 * PAGE_BYTES); // displaces both
        let snap = cache.snapshot();
        assert_eq!(snap.evictions, 2);
        assert_eq!(snap.prefetch_unused, 1);
        let registry = sembfs_obs::MetricsRegistry::new();
        cache.register_metrics(&registry);
        assert!(
            registry
                .prometheus_text()
                .contains("sembfs_cache_prefetch_unused_total 1"),
            "{}",
            registry.prometheus_text()
        );
    }

    #[test]
    fn prefetch_is_off_under_read_faults() {
        use crate::fault::{FaultPlan, FaultSnapshot};
        let plan = FaultPlan::parse("seed=3,eio=0.5").unwrap();
        let device =
            Device::with_fault_plan(DeviceProfile::iodrive2(), DelayMode::Accounting, plan);
        let cache = ShardedPageCache::with_shards(16 * PAGE_BYTES, 4);
        let store = ShardedCachedStore::new(
            DramBackend::new(patterned(8)),
            device.clone(),
            cache.clone(),
        );
        assert!(!store.prefetches());
        store.prefetch(0, 8 * PAGE_BYTES);
        assert_eq!(cache.resident_pages(), 0);
        assert_eq!(device.snapshot().requests, 0);
        assert_eq!(
            device.faults().unwrap().snapshot(),
            FaultSnapshot::default()
        );
    }

    #[test]
    fn torn_page_is_rejected_at_fill_never_served() {
        // Seal checksums over good data, then tear one page behind the
        // store's back: every read touching it must report the mismatch,
        // and the cache must never serve the torn bytes as valid.
        let good = patterned(8);
        let integrity = Arc::new(PageIntegrity::seal_bytes(&good));
        let mut torn = good.clone();
        torn[3 * PAGE_BYTES as usize + 99] ^= 0x01;
        let cache = ShardedPageCache::with_shards(16 * PAGE_BYTES, 4);
        let store = ShardedCachedStore::new(DramBackend::new(torn), dev(), cache.clone())
            .with_integrity(integrity);

        // Intact pages read fine.
        let mut buf = vec![0u8; 64];
        store.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..], &good[..64]);

        // The torn page errors with its index, on cold and repeat reads.
        for _ in 0..2 {
            match store.read_at(3 * PAGE_BYTES + 50, &mut buf) {
                Err(crate::Error::ChecksumMismatch { page, .. }) => assert_eq!(page, 3),
                other => panic!("expected ChecksumMismatch, got {other:?}"),
            }
        }
        // warm() trips over it too.
        assert!(matches!(
            store.warm(),
            Err(crate::Error::ChecksumMismatch { page: 3, .. })
        ));
    }

    #[test]
    fn faulted_cached_store_heals_and_stays_byte_identical() {
        use crate::fault::FaultPlan;
        use crate::DeviceProfile;

        let data = patterned(32);
        // 30% combined fault rate: with 10 retries a chain of all-faulted
        // draws (0.3^11 ≈ 2e-6 per read) never exhausts in this test.
        let plan = FaultPlan::parse("seed=6,eio=0.2,corrupt=0.1,retries=10").unwrap();
        let device =
            Device::with_fault_plan(DeviceProfile::iodrive2(), DelayMode::Accounting, plan);
        let integrity = Arc::new(PageIntegrity::seal_bytes(&data));
        let cache = ShardedPageCache::with_shards(8 * PAGE_BYTES, 4); // undersized: refills
        let store = ShardedCachedStore::new(DramBackend::new(data.clone()), device.clone(), cache)
            .with_integrity(integrity);

        let mut buf = vec![0u8; 600];
        for i in 0..300u64 {
            let off = (i * 4099) % (data.len() as u64 - 600);
            store.read_at(off, &mut buf).unwrap();
            assert_eq!(
                &buf[..],
                &data[off as usize..off as usize + 600],
                "off {off}"
            );
        }
        let snap = device.faults().unwrap().snapshot();
        assert!(snap.total() > 10, "faults fired: {snap:?}");
        assert_eq!(snap.checksum_failures, snap.corrupt);
    }

    #[test]
    fn concurrent_readers_agree_with_backend() {
        let data = Arc::new(patterned(64));
        let cache = ShardedPageCache::with_shards(16 * PAGE_BYTES, 8); // undersized: evicts
        let store = Arc::new(ShardedCachedStore::new(
            DramBackend::new(data.as_ref().clone()),
            dev(),
            cache,
        ));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = Arc::clone(&store);
                let data = Arc::clone(&data);
                scope.spawn(move || {
                    let mut buf = vec![0u8; 3 * PAGE_BYTES as usize];
                    for i in 0..200u64 {
                        // Deterministic per-thread pseudo-random offsets.
                        let x = (t * 1_000_003 + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let off = x % (64 * PAGE_BYTES - buf.len() as u64);
                        store.read_at(off, &mut buf).unwrap();
                        assert_eq!(
                            &buf[..],
                            &data[off as usize..off as usize + buf.len()],
                            "offset {off}"
                        );
                    }
                });
            }
        });
    }
}
