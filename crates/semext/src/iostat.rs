//! `iostat`-style request statistics for simulated NVM devices.
//!
//! The paper analyzes device behaviour during BFS with `iostat` (§VI-D):
//! `avgqu-sz` — the average queue length of outstanding requests — and
//! `avgrq-sz` — the average request size in 512-byte sectors. We compute
//! both exactly from per-request records instead of periodic sampling:
//!
//! * `avgrq-sz = total_sectors / requests` (identical to iostat's
//!   definition).
//! * `avgqu-sz = Σ response_time / observed_wall_time`, which is iostat's
//!   `aqu-sz` (derived from Little's law: average number in system equals
//!   arrival rate times mean response time).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::SECTOR_BYTES;

/// Monotonic, thread-safe accumulation of request statistics.
///
/// All counters use relaxed atomics: per-request accuracy matters, cross-
/// counter ordering does not (snapshots are approximate at nanosecond
/// granularity, exactly like iostat's sampling).
#[derive(Debug, Default)]
pub struct IoStats {
    requests: AtomicU64,
    bytes: AtomicU64,
    sectors: AtomicU64,
    /// Σ (completion − arrival) per request, nanoseconds.
    response_ns: AtomicU64,
    /// Σ modeled device service time per request, nanoseconds.
    service_ns: AtomicU64,
    /// Earliest arrival seen (ns since device epoch); `u64::MAX` when none.
    first_arrival_ns: AtomicU64,
    /// Latest completion seen (ns since device epoch).
    last_completion_ns: AtomicU64,
    /// Σ queue length observed at arrival (requests ahead of this one).
    queued_at_arrival: AtomicU64,
}

impl IoStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        let s = Self::default();
        s.first_arrival_ns.store(u64::MAX, Ordering::Relaxed);
        s
    }

    /// Record one completed request.
    ///
    /// `arrival_ns`/`completion_ns` are on the owning device's clock,
    /// `service_ns` is the modeled device busy time, and `queue_ahead` is
    /// the number of whole requests that were already reserved on the
    /// device timeline when this one arrived.
    pub fn record(
        &self,
        bytes: u64,
        arrival_ns: u64,
        completion_ns: u64,
        service_ns: u64,
        queue_ahead: u64,
    ) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.sectors
            .fetch_add(bytes.div_ceil(SECTOR_BYTES), Ordering::Relaxed);
        self.response_ns
            .fetch_add(completion_ns.saturating_sub(arrival_ns), Ordering::Relaxed);
        self.service_ns.fetch_add(service_ns, Ordering::Relaxed);
        self.first_arrival_ns
            .fetch_min(arrival_ns, Ordering::Relaxed);
        self.last_completion_ns
            .fetch_max(completion_ns, Ordering::Relaxed);
        self.queued_at_arrival
            .fetch_add(queue_ahead, Ordering::Relaxed);
    }

    /// Take a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            sectors: self.sectors.load(Ordering::Relaxed),
            response_ns: self.response_ns.load(Ordering::Relaxed),
            service_ns: self.service_ns.load(Ordering::Relaxed),
            first_arrival_ns: self.first_arrival_ns.load(Ordering::Relaxed),
            last_completion_ns: self.last_completion_ns.load(Ordering::Relaxed),
            queued_at_arrival: self.queued_at_arrival.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to the freshly-created state.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.sectors.store(0, Ordering::Relaxed);
        self.response_ns.store(0, Ordering::Relaxed);
        self.service_ns.store(0, Ordering::Relaxed);
        self.first_arrival_ns.store(u64::MAX, Ordering::Relaxed);
        self.last_completion_ns.store(0, Ordering::Relaxed);
        self.queued_at_arrival.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`] with the derived iostat metrics.
///
/// Subtract two snapshots (`later.delta(&earlier)`) to get the statistics
/// of an interval — e.g. a single BFS level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Completed requests.
    pub requests: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total 512-byte sectors transferred (per-request ceiling).
    pub sectors: u64,
    /// Σ per-request response time (queue wait + service), ns.
    pub response_ns: u64,
    /// Σ per-request modeled service time, ns.
    pub service_ns: u64,
    /// Earliest arrival in the window (device clock, ns).
    pub first_arrival_ns: u64,
    /// Latest completion in the window (device clock, ns).
    pub last_completion_ns: u64,
    /// Σ requests already queued at each arrival.
    pub queued_at_arrival: u64,
}

impl IoSnapshot {
    /// Average request size in 512-byte sectors (`avgrq-sz`); 0 when idle.
    pub fn avgrq_sz(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.sectors as f64 / self.requests as f64
        }
    }

    /// Average queue length (`avgqu-sz` / `aqu-sz`): total response time
    /// divided by the observed wall time of the window; 0 when idle.
    pub fn avgqu_sz(&self) -> f64 {
        let wall = self.wall_ns();
        if wall == 0 {
            0.0
        } else {
            self.response_ns as f64 / wall as f64
        }
    }

    /// Mean queue length seen by an arriving request (an alternative
    /// arrival-sampled estimate of queue pressure).
    pub fn mean_queue_at_arrival(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queued_at_arrival as f64 / self.requests as f64
        }
    }

    /// Mean per-request response time (`await`) in milliseconds.
    pub fn await_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.response_ns as f64 / self.requests as f64 / 1e6
        }
    }

    /// Observed wall time of the window in nanoseconds (0 when idle).
    pub fn wall_ns(&self) -> u64 {
        if self.requests == 0 || self.first_arrival_ns == u64::MAX {
            0
        } else {
            self.last_completion_ns
                .saturating_sub(self.first_arrival_ns)
        }
    }

    /// Device utilization estimate in `[0, 1]` (`%util / 100`).
    pub fn utilization(&self) -> f64 {
        let wall = self.wall_ns();
        if wall == 0 {
            0.0
        } else {
            (self.service_ns as f64 / wall as f64).min(1.0)
        }
    }

    /// Throughput in MiB/s over the window; 0 when idle.
    pub fn throughput_mib_s(&self) -> f64 {
        let wall = self.wall_ns();
        if wall == 0 {
            0.0
        } else {
            (self.bytes as f64 / (1 << 20) as f64) / (wall as f64 / 1e9)
        }
    }

    /// Counter-wise difference `self − earlier` (window statistics).
    ///
    /// The window's `first_arrival_ns` is taken as the earlier snapshot's
    /// last completion (the start of the interval). Differences saturate:
    /// when the two snapshots race concurrent recorders the window can
    /// observe an "earlier" snapshot taken mid-update, and a clamped zero
    /// beats a debug-mode underflow panic.
    pub fn delta(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            requests: self.requests.saturating_sub(earlier.requests),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            sectors: self.sectors.saturating_sub(earlier.sectors),
            response_ns: self.response_ns.saturating_sub(earlier.response_ns),
            service_ns: self.service_ns.saturating_sub(earlier.service_ns),
            first_arrival_ns: if earlier.requests == 0 {
                self.first_arrival_ns
            } else {
                earlier.last_completion_ns
            },
            last_completion_ns: self.last_completion_ns,
            queued_at_arrival: self
                .queued_at_arrival
                .saturating_sub(earlier.queued_at_arrival),
        }
    }
}

/// Point-in-time counters of a page cache
/// ([`ShardedPageCache`](crate::ShardedPageCache)).
///
/// Like [`IoSnapshot`], snapshots are monotonic and meant to be windowed:
/// `after.delta(&before)` yields the activity of one BFS level or one
/// benchmark phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Demand lookups served from a cached page.
    pub hits: u64,
    /// Demand lookups that had to go to the backing store.
    pub misses: u64,
    /// Filled pages displaced by CLOCK replacement.
    pub evictions: u64,
    /// Pages loaded ahead of demand (sequential readahead + explicit
    /// prefetch), not counted in `hits`/`misses`.
    pub readahead_pages: u64,
    /// Pages loaded ahead of demand that were evicted before their first
    /// demand hit: the wasted share of `readahead_pages`.
    pub prefetch_unused: u64,
}

impl CacheSnapshot {
    /// Demand lookups observed (`hits + misses`).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Demand hit rate in `[0, 1]` (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference `self − earlier` (windowed view). Saturating for
    /// the same reason as [`IoSnapshot::delta`]: sharded cache snapshots
    /// are not a single atomic read, so a window bound taken while other
    /// threads charge counters can transiently run "ahead" per-field.
    pub fn delta(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            readahead_pages: self.readahead_pages.saturating_sub(earlier.readahead_pages),
            prefetch_unused: self.prefetch_unused.saturating_sub(earlier.prefetch_unused),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_accounting_rounds_up() {
        let s = IoStats::new();
        s.record(1, 0, 10, 10, 0); // 1 byte → 1 sector
        s.record(512, 10, 20, 10, 0); // exactly 1 sector
        s.record(513, 20, 30, 10, 0); // 2 sectors
        let snap = s.snapshot();
        assert_eq!(snap.sectors, 4);
        assert_eq!(snap.requests, 3);
        assert!((snap.avgrq_sz() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn avgqu_sz_is_littles_law() {
        let s = IoStats::new();
        // Two overlapping requests over a 100ns window, each 80ns response:
        // aqu-sz = 160/100 = 1.6.
        s.record(4096, 0, 80, 40, 0);
        s.record(4096, 20, 100, 40, 1);
        let snap = s.snapshot();
        assert_eq!(snap.wall_ns(), 100);
        assert!((snap.avgqu_sz() - 1.6).abs() < 1e-12);
        assert!((snap.mean_queue_at_arrival() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_snapshot_is_all_zero() {
        let snap = IoStats::new().snapshot();
        assert_eq!(snap.avgrq_sz(), 0.0);
        assert_eq!(snap.avgqu_sz(), 0.0);
        assert_eq!(snap.wall_ns(), 0);
        assert_eq!(snap.utilization(), 0.0);
        assert_eq!(snap.throughput_mib_s(), 0.0);
    }

    #[test]
    fn delta_isolates_window() {
        let s = IoStats::new();
        s.record(4096, 0, 50, 50, 0);
        let before = s.snapshot();
        s.record(8192, 100, 200, 80, 0);
        s.record(4096, 150, 260, 60, 1);
        let d = s.snapshot().delta(&before);
        assert_eq!(d.requests, 2);
        assert_eq!(d.bytes, 12288);
        assert_eq!(d.first_arrival_ns, 50); // window starts at prior completion
        assert_eq!(d.last_completion_ns, 260);
        assert_eq!(d.queued_at_arrival, 1);
    }

    #[test]
    fn racy_window_bounds_saturate_instead_of_underflowing() {
        // An "earlier" snapshot observed mid-update can be per-field ahead
        // of a later one; the delta must clamp to zero, not panic.
        let ahead = IoSnapshot {
            requests: 5,
            bytes: 5 * 4096,
            sectors: 40,
            response_ns: 500,
            service_ns: 250,
            first_arrival_ns: 0,
            last_completion_ns: 90,
            queued_at_arrival: 3,
        };
        let behind = IoSnapshot {
            requests: 4,
            ..ahead
        };
        let d = behind.delta(&ahead);
        assert_eq!(d.requests, 0);
        assert_eq!(d.bytes, 0);
        let c_ahead = CacheSnapshot {
            hits: 10,
            misses: 4,
            evictions: 2,
            readahead_pages: 1,
            prefetch_unused: 1,
        };
        let c_behind = CacheSnapshot { hits: 9, ..c_ahead };
        let cd = c_behind.delta(&c_ahead);
        assert_eq!(cd.hits, 0);
        assert_eq!(cd.misses, 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let s = IoStats::new();
        s.record(100, 5, 10, 5, 2);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.first_arrival_ns, u64::MAX);
        assert_eq!(snap.wall_ns(), 0);
    }

    #[test]
    fn utilization_capped_at_one() {
        let s = IoStats::new();
        // service exceeds wall (parallel overlapping service): cap at 1.
        s.record(4096, 0, 10, 100, 0);
        assert_eq!(s.snapshot().utilization(), 1.0);
    }

    #[test]
    fn await_ms_mean() {
        let s = IoStats::new();
        s.record(1, 0, 2_000_000, 1, 0); // 2 ms response
        s.record(1, 0, 4_000_000, 1, 0); // 4 ms response
        assert!((s.snapshot().await_ms() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let s = std::sync::Arc::new(IoStats::new());
        let mut hs = Vec::new();
        for t in 0..4 {
            let s = s.clone();
            hs.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let at = t * 1000 + i;
                    s.record(512, at, at + 10, 10, 0);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.requests, 4000);
        assert_eq!(snap.sectors, 4000);
        assert_eq!(snap.response_ns, 40_000);
    }
}
