//! The metric catalog (each metric's name, unit and better direction, as
//! `BENCHMARK.json` lists them) and the metric map one run fills in.
//!
//! Per-layer names are `<layer>.<metric>`, the layer being the workspace
//! crate that does the work: `graph500`, `csr`, `core`, `semext`, `query`
//! and `obs`.

use std::collections::BTreeMap;
use std::time::Duration;

use sembfs_semext::{CacheSnapshot, IoSnapshot};

use crate::stats::ratio;

/// Bytes per MiB.
pub const MIB: f64 = 1_048_576.0;

/// One catalog entry.
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

/// End-to-end metrics, measured untraced. Every workload reports each. An
/// operation is one Graph500 search (the whole `ScenarioData::run` call)
/// or one query (client submit to reply).
pub const END_TO_END: &[MetricDef] = &[
    higher("ops_per_s", "1/s"),
    lower("op_p50_ms", "ms"),
    lower("op_p99_ms", "ms"),
    lower("setup_s", "s"),
    lower("peak_rss_mib", "MiB"),
    lower("dram_mib", "MiB"),
];

/// Per-layer metrics, measured traced, per search or per query. A layer
/// the workload does not use reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("graph500.gen_s", "s"),
    lower("graph500.validate_ms", "ms"),
    lower("csr.csr_build_s", "s"),
    lower("core.layout_build_s", "s"),
    lower("core.reference_ms", "ms"),
    higher("core.bfs_mteps", "MTEPS"),
    lower("core.td_edges", "count"),
    lower("core.bu_edges", "count"),
    lower("core.td_ms", "ms"),
    lower("core.bu_ms", "ms"),
    higher("core.td_medges_s", "Medges/s"),
    higher("core.bu_medges_s", "Medges/s"),
    lower("core.levels", "count"),
    lower("core.switches", "count"),
    lower("core.between_levels_ms", "ms"),
    lower("semext.dev_requests", "count"),
    lower("semext.dev_mib", "MiB"),
    lower("semext.dev_wait_ms", "ms"),
    lower("semext.dev_busy_ms", "ms"),
    higher("semext.dev_avgqu_sz", "requests"),
    higher("semext.dev_overlap", "ratio"),
    higher("semext.dev_avgrq_kib", "KiB"),
    lower("semext.io_share", "ratio"),
    higher("semext.cache_hit_ratio", "ratio"),
    lower("semext.cache_evictions", "count"),
    lower("semext.cache_readahead_pages", "count"),
    lower("query.engine_start_ms", "ms"),
    higher("query.qcache_hit_ratio", "ratio"),
    lower("query.q_path_p50_ms", "ms"),
    lower("query.q_reach_p50_ms", "ms"),
    lower("query.q_nbhd_p50_ms", "ms"),
    lower("query.q_handoff_us", "us"),
    lower("query.q_dev_kib_per_q", "KiB"),
    lower("query.q_rejected", "count"),
    higher("obs.trace_overhead", "ratio"),
];

/// Graph500 TEPS of the untraced searches, shown in the report only:
/// `query-flash` has no TEPS, and a gated metric exists on every workload.
pub const INFO: &[MetricDef] = &[
    higher("bfs_teps", "MTEPS"),
    higher("bfs_teps_median", "MTEPS"),
];

/// The metrics one run measured.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record a metric. Panics on a name outside the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            [END_TO_END, PER_LAYER, INFO]
                .iter()
                .any(|catalog| catalog.iter().any(|d| d.name == name)),
            "{name} is not in the metric catalog"
        );
        self.values.insert(name, value);
    }

    /// A metric's value; 0 when it was not measured.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The measured metrics of `catalog`, in catalog order.
    pub fn measured(&self, catalog: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        catalog
            .iter()
            .filter_map(|d| self.values.get(d.name).map(|&v| (d, v)))
            .collect()
    }

    /// Every metric of `catalog`, in catalog order. One that was not
    /// measured reads 0 (its layer did no work), or panics when
    /// `required`.
    pub fn all(
        &self,
        catalog: &'static [MetricDef],
        required: bool,
    ) -> Vec<(&'static MetricDef, f64)> {
        catalog
            .iter()
            .map(|d| {
                let value = self.values.get(d.name).copied();
                assert!(value.is_some() || !required, "{} was not measured", d.name);
                (d, value.unwrap_or(0.0))
            })
            .collect()
    }
}

/// Device activity summed over windows (BFS levels or serving slices).
#[derive(Debug, Default, Clone, Copy)]
pub struct DeviceTotals {
    requests: u64,
    bytes: u64,
    response_ns: u64,
    service_ns: u64,
    wall_ns: u64,
}

impl DeviceTotals {
    pub fn add(&mut self, window: &IoSnapshot) {
        self.requests += window.requests;
        self.bytes += window.bytes;
        self.response_ns += window.response_ns;
        self.service_ns += window.service_ns;
        self.wall_ns += window.wall_ns();
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The `semext` device metrics per operation (`ops` searches or
    /// queries). `io_share` is the windows' device wall time as a share
    /// of `elapsed`.
    pub fn report(&self, ops: f64, elapsed: Duration, m: &mut Metrics) {
        let response = self.response_ns as f64;
        let wall = self.wall_ns as f64;
        m.set("semext.dev_requests", ratio(self.requests as f64, ops));
        m.set("semext.dev_mib", ratio(self.bytes as f64 / MIB, ops));
        m.set("semext.dev_wait_ms", ratio(response / 1e6, ops));
        m.set(
            "semext.dev_busy_ms",
            ratio(self.service_ns as f64 / 1e6, ops),
        );
        m.set("semext.dev_avgqu_sz", ratio(response, wall));
        let overlap = if response > 0.0 {
            (1.0 - wall / response).max(0.0)
        } else {
            0.0
        };
        m.set("semext.dev_overlap", overlap);
        m.set(
            "semext.dev_avgrq_kib",
            ratio(self.bytes as f64 / 1024.0, self.requests as f64),
        );
        m.set("semext.io_share", ratio(wall, elapsed.as_nanos() as f64));
    }
}

/// Add a page-cache window to a total.
pub fn add_cache(total: &mut CacheSnapshot, window: &CacheSnapshot) {
    total.hits += window.hits;
    total.misses += window.misses;
    total.evictions += window.evictions;
    total.readahead_pages += window.readahead_pages;
}

/// The `semext` page-cache metrics, per operation where they are counts.
pub fn report_cache(cache: &CacheSnapshot, ops: f64, m: &mut Metrics) {
    m.set("semext.cache_hit_ratio", cache.hit_rate());
    m.set("semext.cache_evictions", ratio(cache.evictions as f64, ops));
    m.set(
        "semext.cache_readahead_pages",
        ratio(cache.readahead_pages as f64, ops),
    );
}
