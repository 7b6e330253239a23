//! `ext_query_throughput` — concurrent point-query throughput over the
//! semi-external layouts (new exhibit; no direct paper analogue).
//!
//! One shared graph per scenario serves closed-loop clients issuing the
//! Zipf point-query mix (shortest paths, reachability, neighborhoods)
//! through a [`QueryEngine`] worker pool. The sweep axes are
//!
//! * scenario — DRAM+PCIe-Flash and DRAM+SSD (Table II layouts),
//! * page-cache budget — a fraction of the NVM-resident bytes, so the
//!   throttled device actually sees the miss traffic,
//! * workers — 1, 2, 4, 8 threads sharing the page cache and device.
//!
//! Per configuration it reports QPS, p50/p99 latency, the shared-cache
//! hit rate, device bytes per query and the device queue depth
//! (`avgqu-sz`). Each query's search is serial, but its forward reads
//! prefetch the neighbor lists ahead, so one query keeps several device
//! reads in flight, and a neighborhood finds its wide rings bottom-up in
//! the DRAM backward graph; extra workers add throughput insofar as their
//! device waits overlap too, which is the semi-external story in
//! miniature. The result cache is disabled so every answer is a fresh
//! computation.
//!
//! Pass `--smoke` for a seconds-long CI subset.

use std::sync::Arc;
use std::time::Duration;

use sembfs_bench::{layout_bytes, mib, BenchEnv, Table};
use sembfs_core::{Scenario, ScenarioData, ScenarioOptions};
use sembfs_graph500::rng::Xoshiro256;
use sembfs_obs::MetricsRegistry;
use sembfs_query::{EngineConfig, QueryEngine, QueryMix, QueryStats, ZipfSampler};

/// Queries answered per (scenario, budget, workers) configuration.
const REQUESTS: usize = 192;
const REQUESTS_SMOKE: usize = 24;
/// Zipf exponent and support of the endpoint popularity distribution.
const ZIPF_THETA: f64 = 1.0;
const ZIPF_SUPPORT: usize = 4096;

struct Sweep {
    scenarios: Vec<Scenario>,
    /// Cache budgets as fractions of the NVM-resident bytes (1.0 first:
    /// that build also sizes the NVM set for the partial budgets).
    fractions: Vec<f64>,
    workers: Vec<usize>,
    requests: usize,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env = BenchEnv::from_env();
    env.print_header(
        "ext_query_throughput — point-query QPS vs workers and cache budget",
        "new exhibit: concurrent query serving over the Table II layouts",
    );
    let sweep = if smoke {
        Sweep {
            scenarios: vec![Scenario::DramPcieFlash],
            fractions: vec![1.0, 0.25],
            workers: vec![1, 2],
            requests: REQUESTS_SMOKE,
        }
    } else {
        Sweep {
            scenarios: vec![Scenario::DramPcieFlash, Scenario::DramSsd],
            fractions: vec![1.0, 0.5, 0.25],
            workers: vec![1, 2, 4, 8],
            requests: REQUESTS,
        }
    };

    eprintln!("generating SCALE {} edge list...", env.scale);
    let edges = env.generate();
    // Prometheus exposition of the last measured configuration, appended
    // after the table so scrapes and the human-readable rows agree.
    let mut prom_snapshot: Option<(String, String)> = None;
    let mut table = Table::new(&[
        "scenario",
        "cache MiB",
        "budget",
        "workers",
        "QPS",
        "p50 us",
        "p99 us",
        "hit rate",
        "NVM KiB/q",
        "avgqu-sz",
    ]);

    for &scenario in &sweep.scenarios {
        // The full-budget build tells us how many bytes live on NVM; the
        // partial budgets are fractions of that figure.
        let (fg_analytic, _, _) = layout_bytes(env.scale, 16, env.topology.domains());
        let mut nvm_total = 2 * fg_analytic;
        for &frac in &sweep.fractions {
            let budget = ((nvm_total as f64 * frac) as u64).max(64 << 10);
            eprintln!(
                "building {} with {} MiB page cache ({}x NVM set)...",
                scenario.label(),
                mib(budget),
                frac
            );
            let opts = ScenarioOptions {
                page_cache_bytes: Some(budget),
                ..env.measured_options()
            };
            let data = Arc::new(ScenarioData::build(&edges, scenario, opts).expect("build"));
            nvm_total = data.nvm_bytes();
            let sampler = Arc::new(ZipfSampler::from_degrees(&data, ZIPF_THETA, ZIPF_SUPPORT));

            // One warm-up round so every worker count starts from the
            // same warm shared cache (the steady state under this budget).
            serve(&data, &sampler, 2, sweep.requests / 2, env.seed, None);

            for &workers in &sweep.workers {
                let registry = MetricsRegistry::new();
                let stats = serve(
                    &data,
                    &sampler,
                    workers,
                    sweep.requests,
                    env.seed,
                    Some(&registry),
                );
                prom_snapshot = Some((
                    format!(
                        "{} / {} MiB / {} workers",
                        scenario.label(),
                        mib(budget),
                        workers
                    ),
                    registry.prometheus_text(),
                ));
                let hit_rate = stats
                    .cache_hit_rate()
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.4}"));
                let kib_per_q = format!("{:.1}", stats.nvm_bytes_per_query() / 1024.0);
                let avgqu_sz = stats
                    .io
                    .map_or_else(|| "-".to_string(), |io| format!("{:.2}", io.avgqu_sz()));
                eprintln!(
                    "  {} workers: {:.0} QPS, p99 {} us, hit rate {}",
                    workers,
                    stats.qps(),
                    micros(stats.p99_latency),
                    hit_rate
                );
                table.row(&[
                    scenario.label().to_string(),
                    mib(budget),
                    format!("{frac}x"),
                    workers.to_string(),
                    format!("{:.0}", stats.qps()),
                    micros(stats.p50_latency),
                    micros(stats.p99_latency),
                    hit_rate,
                    kib_per_q,
                    avgqu_sz,
                ]);
            }
        }
    }
    table.print();
    println!();
    println!(
        "note: every query runs the core level loop; its top-down levels read \
         forward lists in page windows with the kernel's unit prefetch, so \
         avgqu-sz can exceed 1 even at 1 worker; wide frontiers go bottom-up \
         in DRAM; more workers overlap further device waits; budgets below \
         1.0x force that device traffic."
    );
    if let Some((config, text)) = prom_snapshot {
        println!();
        println!("--- prometheus snapshot ({config}) ---");
        print!("{text}");
    }
}

/// Serve `requests` queries from twice as many closed-loop clients as
/// workers; returns the engine's aggregate stats for the window.
fn serve(
    data: &Arc<ScenarioData>,
    sampler: &Arc<ZipfSampler>,
    workers: usize,
    requests: usize,
    seed: u64,
    registry: Option<&MetricsRegistry>,
) -> QueryStats {
    let clients = 2 * workers;
    let engine = Arc::new(QueryEngine::new(
        data.clone(),
        EngineConfig {
            workers,
            // Ample queue: this measures service throughput, not admission.
            queue_capacity: 8 * clients,
            result_cache_entries: 0,
        },
    ));
    if let Some(registry) = registry {
        if let Some(dev) = data.device() {
            dev.register_metrics(registry);
        }
        if let Some(cache) = data.page_cache() {
            cache.register_metrics(registry);
        }
        engine.register_metrics(registry);
    }
    std::thread::scope(|scope| {
        for c in 0..clients {
            let engine = engine.clone();
            let sampler = sampler.clone();
            let per_client = requests / clients + usize::from(c < requests % clients);
            scope.spawn(move || {
                let mix = QueryMix::point_queries();
                let mut rng = Xoshiro256::seed_from(seed, c as u64 + 1);
                for _ in 0..per_client {
                    let query = mix.sample(&sampler, &mut rng);
                    engine.run(query).expect("query");
                }
            });
        }
    });
    engine.stats()
}

fn micros(d: Duration) -> String {
    format!("{:.0}", d.as_secs_f64() * 1e6)
}
