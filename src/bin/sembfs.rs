//! `sembfs` — command-line front end for the library.
//!
//! ```text
//! sembfs generate  --scale 18 --out edges.bin            # Graph500 Step 1
//! sembfs info      --scale 18                            # sizes per Table II
//! sembfs bfs       --scale 18 --scenario flash --roots 8 # Steps 2–4
//! sembfs sweep     --scale 16 --scenario flash           # mini Fig. 7
//! sembfs query     --scale 14 --scenario flash --pairs 4 # point queries
//! sembfs serve-sim --scale 14 --scenario flash --clients 8  # load test
//! ```
//!
//! Flags may appear in any order; every command accepts `--seed`.

use std::collections::HashMap;
use std::sync::Arc;

use sembfs::graph500::driver::run_rounds;
use sembfs::graph500::edge_list::generate_edge_file;
use sembfs::graph500::rng::Xoshiro256;
use sembfs::prelude::*;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            // A following `--flag` means this flag is boolean-valued.
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    flags.insert(name.to_string(), value.clone());
                    i += 2;
                }
                None => {
                    flags.insert(name.to_string(), String::new());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn scenario_of(flags: &HashMap<String, String>) -> Scenario {
    match flags.get("scenario").map(String::as_str) {
        None | Some("dram") => Scenario::DramOnly,
        Some("flash") => Scenario::DramPcieFlash,
        Some("ssd") => Scenario::DramSsd,
        Some(other) => {
            eprintln!("bad --scenario {other:?}: expected dram|flash|ssd");
            std::process::exit(2);
        }
    }
}

/// `--faults seed=1,eio=0.01,...` → a validated plan (exits on a bad spec).
fn fault_plan_of(flags: &HashMap<String, String>) -> Option<sembfs::semext::FaultPlan> {
    let spec = flags.get("faults").filter(|s| !s.is_empty())?;
    match sembfs::semext::FaultPlan::parse(spec) {
        Ok(plan) => Some(plan),
        Err(e) => {
            eprintln!("bad --faults spec: {e}");
            std::process::exit(2);
        }
    }
}

/// One-line fault/resilience summary when the scenario's device carries a
/// fault plan.
fn print_fault_summary(data: &ScenarioData) {
    let Some(dev) = data.device() else { return };
    let Some(faults) = dev.faults() else { return };
    let s = faults.snapshot();
    println!(
        "faults: {} eio, {} corrupt, {} stall | {} retries, {} checksum failures | wear x{:.2}{}",
        s.eio,
        s.corrupt,
        s.stall,
        s.retries,
        s.checksum_failures,
        dev.wear_factor(),
        if dev.is_degraded() { " | DEGRADED" } else { "" }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        usage();
        return;
    };
    let flags = parse_flags(&args[1..]);
    let scale: u32 = flag(&flags, "scale", 16);
    let seed: u64 = flag(&flags, "seed", 1);
    let params = KroneckerParams::graph500(scale, seed);

    match command.as_str() {
        "generate" => {
            let out = flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| format!("kron-s{scale}.edges"));
            let m = generate_edge_file(&params, &out, 1 << 16).expect("generate");
            println!("wrote {m} edges ({} bytes) to {out}", m * 8);
        }
        "info" => {
            let edges = params.generate();
            let data =
                ScenarioData::build(&edges, Scenario::DramOnly, Default::default()).expect("build");
            println!(
                "SCALE {scale}: {} vertices, {} edges",
                params.num_vertices(),
                params.num_edges()
            );
            let fg = data.forward_bytes();
            let bg = data.backward_dram_bytes();
            let st = data.status_bytes();
            for (name, b) in [
                ("forward graph", fg),
                ("backward graph", bg),
                ("status data", st),
            ] {
                println!("  {name:>15}: {:>10.1} MiB", b as f64 / (1 << 20) as f64);
            }
            println!(
                "  {:>15}: {:>10.1} MiB",
                "total",
                (fg + bg + st) as f64 / (1 << 20) as f64
            );
        }
        "bfs" => {
            let scenario = scenario_of(&flags);
            let num_roots: usize = flag(&flags, "roots", 8);
            let trace_out = flags.get("trace-out").filter(|p| !p.is_empty()).cloned();
            // Checksum mode prints *only* runtime-independent lines
            // (parent-tree digests, visited/scanned counts) so two runs of
            // the same seed diff clean — the CI determinism gate.
            let checksum = flags.contains_key("checksum");
            let edges = params.generate();
            let opts = ScenarioOptions {
                delay_mode: sembfs::semext::DelayMode::Throttled,
                fault_plan: fault_plan_of(&flags),
                ..Default::default()
            };
            let data = ScenarioData::build(&edges, scenario, opts).expect("build");
            if trace_out.is_some() {
                data.align_trace_epoch();
                sembfs::obs::global().set_enabled(true);
            }
            let roots = select_roots(params.num_vertices(), num_roots, seed, |v| data.degree(v));
            let policy = scenario.best_policy();
            let mut cfg = BfsConfig::paper();
            if let Some(t) = flags.get("threads").and_then(|v| v.parse().ok()) {
                cfg = cfg.with_threads(t);
            }
            println!(
                "{} | {} | {num_roots} roots | {} threads",
                scenario.label(),
                policy.label(),
                cfg.threads.max(1)
            );
            let mut digests: Vec<(VertexId, u64, u64, u64)> = Vec::new();
            let summary = run_rounds(&roots, &edges, |root| {
                let run = data.run(root, &policy, &cfg).expect("bfs");
                if checksum {
                    digests.push((
                        root,
                        parent_checksum(&run.parent),
                        run.visited,
                        run.scanned_edges(),
                    ));
                }
                (run.parent, run.teps_edges, run.elapsed)
            })
            .expect("all rounds validate");
            if checksum {
                for (root, digest, visited, scanned) in &digests {
                    println!(
                        "root {root}: parent-tree {digest:016x} | visited {visited} | scanned {scanned}"
                    );
                }
            } else {
                println!("{}", summary.teps_stats.to_report());
                println!("score (median): {:.3} MTEPS", summary.median_teps() / 1e6);
                print_fault_summary(&data);
            }
            if let Some(path) = trace_out {
                let tracer = sembfs::obs::global();
                tracer.set_enabled(false);
                let samples = tracer.drain();
                sembfs::obs::write_jsonl(std::path::Path::new(&path), &samples)
                    .expect("write trace");
                let dropped = tracer.dropped();
                println!(
                    "trace: {} samples → {path}{}",
                    samples.len(),
                    if dropped > 0 {
                        format!(" ({dropped} dropped)")
                    } else {
                        String::new()
                    }
                );
                println!("view:  sembfs report {path}");
            }
        }
        "report" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: sembfs report TRACE.jsonl [--chrome OUT.json]");
                std::process::exit(2);
            };
            let samples = sembfs::obs::read_jsonl(std::path::Path::new(path)).expect("read trace");
            if let Some(out) = flags.get("chrome").filter(|p| !p.is_empty()) {
                std::fs::write(out, sembfs::obs::chrome_trace(&samples)).expect("write chrome");
                println!("wrote Chrome trace ({} samples) to {out}", samples.len());
            } else {
                let reports = sembfs::obs::build_reports(&samples);
                print!("{}", sembfs::obs::render_reports(&reports));
            }
        }
        "sweep" => {
            let scenario = scenario_of(&flags);
            let num_roots: usize = flag(&flags, "roots", 4);
            let edges = params.generate();
            let opts = ScenarioOptions {
                delay_mode: sembfs::semext::DelayMode::Throttled,
                ..Default::default()
            };
            let data = ScenarioData::build(&edges, scenario, opts).expect("build");
            let roots = select_roots(params.num_vertices(), num_roots, seed, |v| data.degree(v));
            println!(
                "{} | median MTEPS over {} roots",
                scenario.label(),
                roots.len()
            );
            println!("{:>10} {:>10} {:>10} {:>10}", "alpha", "0.1a", "1a", "10a");
            for alpha in [1e2, 1e3, 1e4, 1e5, 1e6] {
                print!("{alpha:>10.0e}");
                for bm in [0.1, 1.0, 10.0] {
                    let policy = AlphaBetaPolicy::new(alpha, alpha * bm);
                    let mut teps: Vec<f64> = roots
                        .iter()
                        .map(|&r| {
                            data.run(r, &policy, &BfsConfig::paper())
                                .expect("bfs")
                                .teps()
                        })
                        .collect();
                    teps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    print!(" {:>10.2}", teps[teps.len() / 2] / 1e6);
                }
                println!();
            }
        }
        "query" => {
            let scenario = scenario_of(&flags);
            let pairs: usize = flag(&flags, "pairs", 4);
            let workers: usize = flag(&flags, "workers", 2);
            let data = Arc::new(build_query_data(&params, scenario, &flags));
            let engine = QueryEngine::new(
                data.clone(),
                EngineConfig {
                    workers,
                    ..Default::default()
                },
            );
            // Explicit --src/--dst, or degree-selected pairs.
            let endpoints: Vec<(VertexId, VertexId)> = match (flags.get("src"), flags.get("dst")) {
                (Some(s), Some(d)) => vec![(
                    s.parse().expect("--src must be a vertex id"),
                    d.parse().expect("--dst must be a vertex id"),
                )],
                _ => {
                    let picks =
                        select_roots(params.num_vertices(), 2 * pairs, seed, |v| data.degree(v));
                    picks
                        .chunks(2)
                        .filter(|c| c.len() == 2)
                        .map(|c| (c[0], c[1]))
                        .collect()
                }
            };
            println!(
                "{} | {} workers | {} pairs",
                scenario.label(),
                workers,
                endpoints.len()
            );
            for (src, dst) in endpoints {
                let resp = engine
                    .run(Query::ShortestPath { src, dst })
                    .expect("query failed");
                // Cross-check against the serial reference BFS.
                let want = {
                    let run = sembfs::core::reference_bfs(data.csr(), src);
                    let levels =
                        sembfs::graph500::validate::compute_levels(&run.parent, src).expect("tree");
                    let l = levels[dst as usize];
                    (l != sembfs::graph500::validate::INVALID_LEVEL).then_some(l)
                };
                match resp.result {
                    QueryResult::Path { distance, vertices } => {
                        assert_eq!(Some(distance), want, "validation failed for {src}→{dst}");
                        println!(
                            "  {src} → {dst}: {distance} hops via {vertices:?}  ({:?}, validated)",
                            resp.latency
                        );
                    }
                    QueryResult::NoPath => {
                        assert_eq!(None, want, "validation failed for {src}→{dst}");
                        println!(
                            "  {src} → {dst}: unreachable  ({:?}, validated)",
                            resp.latency
                        );
                    }
                    other => panic!("unexpected result {other:?}"),
                }
            }
            println!("{}", engine.stats().report());
            print_fault_summary(&data);
        }
        "serve-sim" => {
            let scenarios: Vec<Scenario> = match flags.get("scenario").map(String::as_str) {
                Some("all") => Scenario::ALL.to_vec(),
                _ => vec![scenario_of(&flags)],
            };
            let clients: usize = flag(&flags, "clients", 8);
            let workers: usize = flag(&flags, "workers", 4);
            let requests: usize = flag(&flags, "requests", 100);
            let queue: usize = flag(&flags, "queue", 64);
            let zipf: f64 = flag(&flags, "zipf", 1.0);
            let result_cache: usize = flag(&flags, "result-cache", 1024);
            let prometheus = flags.contains_key("prometheus");
            for scenario in scenarios {
                let data = Arc::new(build_query_data(&params, scenario, &flags));
                let registry = sembfs::obs::MetricsRegistry::new();
                if let Some(dev) = data.device() {
                    dev.register_metrics(&registry);
                }
                if let Some(cache) = data.page_cache() {
                    cache.register_metrics(&registry);
                }
                let engine = Arc::new(QueryEngine::new(
                    data.clone(),
                    EngineConfig {
                        workers,
                        queue_capacity: queue,
                        result_cache_entries: result_cache,
                    },
                ));
                engine.register_metrics(&registry);
                let sampler = Arc::new(ZipfSampler::from_degrees(&data, zipf, 4096));
                println!(
                    "{} | {clients} clients × {requests} requests | {workers} workers, queue {queue}, zipf θ={zipf}",
                    scenario.label()
                );
                std::thread::scope(|scope| {
                    for c in 0..clients {
                        let engine = engine.clone();
                        let sampler = sampler.clone();
                        scope.spawn(move || {
                            let mix = QueryMix::point_queries();
                            let mut rng = Xoshiro256::seed_from(seed, c as u64 + 1);
                            // Closed loop: overload is retried with the
                            // shared capped-backoff helper (generous
                            // budget — exhaustion here means the pool is
                            // truly starved, not just momentarily full).
                            let policy = sembfs::semext::RetryPolicy {
                                max_retries: 64,
                                base: std::time::Duration::from_micros(200),
                                cap: std::time::Duration::from_millis(20),
                                deadline: std::time::Duration::from_secs(60),
                            };
                            for r in 0..requests {
                                let query = mix.sample(&sampler, &mut rng);
                                sembfs::semext::retry_blocking(
                                    policy,
                                    seed ^ ((c as u64) << 32 | r as u64),
                                    |e| matches!(e, QueryError::Overloaded { .. }),
                                    || engine.run(query),
                                )
                                .unwrap_or_else(|e| panic!("query failed: {e}"));
                            }
                        });
                    }
                });
                println!("{}", engine.stats().report());
                print_fault_summary(&data);
                println!();
                if prometheus {
                    println!("{}", registry.prometheus_text());
                }
            }
        }
        _ => usage(),
    }
}

/// FNV-1a digest of a parent array — stable across runs, platforms, and
/// thread counts (the deterministic kernels guarantee the array itself is).
fn parent_checksum(parent: &[VertexId]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &p in parent {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Build a scenario layout for the query commands: throttled device (so
/// latency percentiles mean something), page cache on NVM scenarios.
fn build_query_data(
    params: &KroneckerParams,
    scenario: Scenario,
    flags: &HashMap<String, String>,
) -> ScenarioData {
    let cache_mb: u64 = flag(flags, "cache-mb", 16);
    let edges = params.generate();
    let opts = ScenarioOptions {
        delay_mode: sembfs::semext::DelayMode::Throttled,
        page_cache_bytes: scenario.device_profile().map(|_| cache_mb << 20),
        fault_plan: fault_plan_of(flags),
        ..Default::default()
    };
    ScenarioData::build(&edges, scenario, opts).expect("build scenario")
}

fn usage() {
    eprintln!(
        "usage: sembfs <command> [flags]\n\
         commands:\n\
         \x20 generate  --scale N [--seed S] [--out FILE]   write a Kronecker edge file\n\
         \x20 info      --scale N [--seed S]                print Table II-style sizes\n\
         \x20 bfs       --scale N [--scenario dram|flash|ssd] [--roots R] [--threads T]\n\
         \x20           [--trace-out TRACE.jsonl] [--faults SPEC] [--checksum]  run the benchmark\n\
         \x20           (--threads T sets the kernel workers, default every core;\n\
         \x20            --checksum prints only run-invariant digests for determinism diffs)\n\
         \x20 report    TRACE.jsonl [--chrome OUT.json]      per-level table from a trace\n\
         \x20 sweep     --scale N [--scenario dram|flash|ssd] [--roots R]  α/β sweep\n\
         \x20 query     --scale N [--scenario dram|flash|ssd] [--src A --dst B | --pairs P]\n\
         \x20           [--workers W] [--cache-mb M] [--faults SPEC]  validated point queries\n\
         \x20 serve-sim --scale N [--scenario dram|flash|ssd|all] [--clients C] [--workers W]\n\
         \x20           [--requests R] [--queue Q] [--zipf THETA] [--result-cache E]\n\
         \x20           [--cache-mb M] [--faults SPEC] [--prometheus]  closed-loop load test\n\
         \n\
         --faults SPEC injects deterministic device faults on NVM scenarios. SPEC is a\n\
         comma list of key=value: seed=N, eio=RATE, corrupt=RATE, stall=RATE,\n\
         stall_us=MICROS, wear_gb=GB, retries=N, degrade=RATIO. Rates are per-request\n\
         probabilities in [0,1]; e.g. --faults seed=7,eio=0.01,corrupt=0.001,stall=0.005"
    );
}
