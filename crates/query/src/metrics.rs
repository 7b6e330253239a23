//! Engine metrics: the shared log-bucket latency histogram (now provided
//! by `sembfs-obs`, re-exported here for compatibility) and the aggregate
//! [`QueryStats`] report.

use std::time::Duration;

use sembfs_semext::{CacheSnapshot, IoSnapshot};

pub use sembfs_obs::{HistogramSnapshot, LatencyHistogram};

/// An aggregate engine report over one measurement window.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Queries answered (including result-cache hits).
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Queries answered straight from the result cache.
    pub result_cache_hits: u64,
    /// Wall-clock span of the window.
    pub elapsed: Duration,
    /// Mean latency.
    pub mean_latency: Duration,
    /// Median latency (log-bucket resolution).
    pub p50_latency: Duration,
    /// 99th-percentile latency (log-bucket resolution).
    pub p99_latency: Duration,
    /// Worst latency.
    pub max_latency: Duration,
    /// Page-cache activity during the window (`None` without a cache).
    pub cache: Option<CacheSnapshot>,
    /// Device activity during the window (`None` in DRAM-only scenarios).
    pub io: Option<IoSnapshot>,
}

impl QueryStats {
    /// Queries per second over the window.
    pub fn qps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.completed as f64 / s
        } else {
            0.0
        }
    }

    /// Global page-cache hit rate over the window, when a cache exists.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.cache.map(|c| c.hit_rate())
    }

    /// Mean NVM bytes read per completed query (0 without a device).
    pub fn nvm_bytes_per_query(&self) -> f64 {
        match (&self.io, self.completed) {
            (Some(io), c) if c > 0 => io.bytes as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// A compact multi-line human-readable report.
    pub fn report(&self) -> String {
        let mut out = format!(
            "completed {} ({:.1} q/s), rejected {}, result-cache hits {}\n\
             latency mean {:?} / p50 {:?} / p99 {:?} / max {:?}",
            self.completed,
            self.qps(),
            self.rejected,
            self.result_cache_hits,
            self.mean_latency,
            self.p50_latency,
            self.p99_latency,
            self.max_latency,
        );
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                "\npage cache: {} hits / {} misses (hit rate {:.4}), \
                 {} pages loaded ahead, {} evicted unused",
                cache.hits,
                cache.misses,
                cache.hit_rate(),
                cache.readahead_pages,
                cache.prefetch_unused
            ));
        }
        if let Some(io) = &self.io {
            out.push_str(&format!(
                "\ndevice: {} requests, {} bytes ({:.0} B/query), avgqu-sz {:.2}",
                io.requests,
                io.bytes,
                self.nvm_bytes_per_query(),
                io.avgqu_sz()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shows_prefetch_and_queue_depth() {
        let ms = Duration::from_millis;
        let stats = QueryStats {
            completed: 4,
            rejected: 0,
            result_cache_hits: 1,
            elapsed: ms(2000),
            mean_latency: ms(2),
            p50_latency: ms(1),
            p99_latency: ms(5),
            max_latency: ms(6),
            cache: Some(CacheSnapshot {
                hits: 90,
                misses: 10,
                evictions: 7,
                readahead_pages: 40,
                prefetch_unused: 3,
            }),
            io: Some(IoSnapshot {
                requests: 50,
                bytes: 8192,
                // 2 ms of requests outstanding per 1 ms of device time.
                response_ns: 2_000_000,
                first_arrival_ns: 1_000_000,
                last_completion_ns: 2_000_000,
                ..Default::default()
            }),
        };
        let report = stats.report();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(
            lines[2..],
            [
                "page cache: 90 hits / 10 misses (hit rate 0.9000), \
                 40 pages loaded ahead, 3 evicted unused",
                "device: 50 requests, 8192 bytes (2048 B/query), avgqu-sz 2.00",
            ]
        );
        assert_eq!(
            lines[0],
            "completed 4 (2.0 q/s), rejected 0, result-cache hits 1"
        );
    }
}
