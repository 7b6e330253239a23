//! `sembfs-perfbench`: the benchmark of sembfs, end to end and per layer.
//!
//! One run builds one workload's data layout from `--seed`, measures it
//! for `--seconds`, checks every answer outside the timed window, and
//! prints a readable report whose last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Run it from
//! the repository root; `README.md` describes the workloads and metrics.

mod bfs;
mod metrics;
mod query;
mod spans;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use sembfs_obs::json::JsonObj;

use crate::metrics::{Metrics, END_TO_END, INFO, MIB, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, ratio};
use crate::workload::{Load, Spec, Workload};

const USAGE: &str = "usage: sembfs-perfbench --workload bfs-dram|bfs-flash-ext|query-flash|all \
                     --seed N [--seconds S] [--trace 0|1]";

/// Directory, under the working directory, for the flash layouts' device
/// files. Every layout removes its own subdirectory.
const DATA_DIR: &str = ".bench_data";

/// Per-layer times read off the benchmark's spans: the metric, the span,
/// and the factor from seconds to the metric's unit.
const SPAN_METRICS: [(&str, &str, f64); 6] = [
    ("graph500.gen_s", "graph500.KroneckerParams::generate", 1.0),
    ("csr.csr_build_s", "csr.build_csr", 1.0),
    ("core.layout_build_s", "core.ScenarioData::from_csr", 1.0),
    ("query.engine_start_ms", "query.QueryEngine::new", 1e3),
    ("graph500.validate_ms", "graph500.validate_bfs_tree", 1e3),
    ("core.reference_ms", "core.reference_bfs", 1e3),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// One workload, or all three in order (`--workload all`).
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed) = (None, None);
    let (mut seconds, mut trace) = (Duration::from_secs(10), false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workloads = Some(vec![workload]);
            }
            "--seed" => {
                let parsed = value.parse::<u64>();
                seed = Some(
                    parsed.map_err(|_| format!("--seed takes a whole number, not {value:?}"))?,
                );
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 3600.0)
                    .map(Duration::from_secs_f64)
                    .ok_or_else(|| {
                        format!("--seconds takes a number in (0, 3600], not {value:?}")
                    })?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What one run measured.
struct RunResult {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    spans: Spans,
}

/// Set up `spec`'s layout under `base`, measure it for `seconds`, and
/// check every answer.
fn run(
    spec: &Spec,
    seed: u64,
    seconds: Duration,
    trace: bool,
    base: &Path,
) -> sembfs_semext::Result<RunResult> {
    reset_peak_rss()?;
    let mut spans = Spans::new(trace);
    let (layout, setups) = workload::set_up(spec, base, &mut spans)?;
    let mut m = Metrics::default();
    let (attempted, failed) = match spec.load {
        Load::Bfs { .. } => {
            let out = bfs::measure(&layout, spec, seed, seconds, trace, &mut spans);
            out.report(&mut m, trace);
            (out.attempted, out.failed)
        }
        Load::Serve { .. } => {
            let out = query::measure(&layout, spec, seed, seconds, trace, &mut spans);
            out.report(&mut m, trace);
            (out.records.len() as u64, out.failed)
        }
    };
    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mib", peak_rss_mib());
    m.set("dram_mib", layout.dram_bytes() as f64 / MIB);
    if trace {
        for (metric, span, scale) in SPAN_METRICS {
            let values: Vec<f64> = spans
                .durations(span)
                .iter()
                .map(|d| d.as_secs_f64() * scale)
                .collect();
            m.set(metric, median(&values));
        }
    }
    Ok(RunResult {
        metrics: m,
        attempted,
        failed,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sembfs-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for &workload in &args.workloads {
        let spec = workload.spec();
        pin_environment(spec.workers);
        let result = run(
            &spec,
            args.seed,
            args.seconds,
            args.trace,
            Path::new(DATA_DIR),
        );
        // Empty once every layout is gone; a concurrent run keeps it.
        let _ = std::fs::remove_dir(DATA_DIR);
        match result {
            Ok(result) => {
                print_report(&args, &spec, &result);
                if result.failed > 0 {
                    status = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("sembfs-perfbench: {} failed: {e}", workload.name());
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

/// Pin the configuration against the environment. Every `SEMBFS_*` knob
/// is cleared (`BfsConfig::paper` reads `SEMBFS_BFS_THREADS`, and unset
/// it selects the legacy kernels; the benchmark passes its worker count
/// explicitly), and the data-parallel helpers get the workload's workers.
fn pin_environment(workers: usize) {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(key, _)| key)
        .filter(|key| key.to_string_lossy().starts_with("SEMBFS_"))
        .collect();
    for key in knobs {
        eprintln!("sembfs-perfbench: clearing {}", key.to_string_lossy());
        std::env::remove_var(&key);
    }
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so a workload's peak does not include an earlier one's.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out revision, as `git rev-parse HEAD` gives it.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// The readable report, then the JSON result line.
fn print_report(args: &Args, spec: &Spec, result: &RunResult) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "sembfs-perfbench | workload {} | seed {} | {} s | trace {}",
        spec.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    println!("host: {cores} cores | git revision {}", git_revision());
    println!("config: {}", spec.describe());
    if args.trace {
        print!("{}", result.spans.render());
    }
    let m = &result.metrics;
    for (def, value) in [END_TO_END, INFO, PER_LAYER]
        .into_iter()
        .flat_map(|catalog| m.measured(catalog))
    {
        println!(
            "{:<30} {value:>16.6} {:<9} ({} is better)",
            def.name, def.unit, def.better
        );
    }
    println!(
        "{:<30} {:>16.6} ({} failed of {} attempted)",
        "error_rate",
        ratio(result.failed as f64, result.attempted as f64),
        result.failed,
        result.attempted
    );
    let reported = if args.trace {
        m.all(PER_LAYER, false)
    } else {
        m.all(END_TO_END, true)
    };
    let mut metrics = JsonObj::new();
    for (def, value) in reported {
        let metric = JsonObj::new().f64("value", value).str("unit", def.unit);
        metrics = metrics.raw(def.name, &metric.finish());
    }
    let line = JsonObj::new()
        .bool("correct", result.failed == 0)
        .u64("attempted", result.attempted)
        .u64("failed", result.failed)
        .raw("metrics", &metrics.finish())
        .finish();
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    use sembfs_core::Direction;
    use sembfs_obs::Json;
    use sembfs_semext::TempDir;

    use super::*;
    use crate::metrics::MetricDef;

    /// Runs share the process-global tracer, so they go one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    const SEED: u64 = 7;
    const WINDOW: Duration = Duration::from_millis(300);

    /// `workload` at SCALE 11 with few roots.
    fn tiny(workload: Workload) -> Spec {
        let mut spec = workload.spec();
        spec.scale = 11;
        if let Load::Bfs { roots, .. } = &mut spec.load {
            *roots = 4;
        }
        spec
    }

    /// A traced run of the tiny `workload`; every answer must check out.
    fn tiny_run(workload: Workload) -> RunResult {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let dir = TempDir::new("perfbench-test").expect("temp dir");
        let result = run(&tiny(workload), SEED, WINDOW, true, dir.path()).expect("run");
        assert_eq!(result.failed, 0, "{} had failures", workload.name());
        assert!(result.attempted > 0);
        result.metrics.all(END_TO_END, true);
        result
    }

    /// The timed searches of a traced run of the tiny BFS `workload`.
    fn tiny_searches(workload: Workload) -> Vec<bfs::Search> {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let dir = TempDir::new("perfbench-test").expect("temp dir");
        let spec = tiny(workload);
        let mut spans = Spans::new(true);
        let (layout, _) = workload::set_up(&spec, dir.path(), &mut spans).expect("set-up");
        let out = bfs::measure(&layout, &spec, SEED, WINDOW, true, &mut spans);
        assert_eq!(out.failed, 0);
        assert!(!out.searches.is_empty());
        for search in &out.searches {
            assert!(search.level_time() <= search.wall);
            assert_eq!(search.level_time() + search.between_levels(), search.wall);
        }
        out.searches
    }

    #[test]
    fn bfs_dram_runs_the_kernels_without_device_or_cache() {
        let r = tiny_run(Workload::BfsDram);
        let m = &r.metrics;
        // At this SCALE the first frontier already exceeds n/α, so every
        // level runs bottom-up.
        assert!(m.get("core.bu_edges") > 0.0);
        assert!(m.get("core.switches") > 0.0);
        assert!(m.get("obs.trace_overhead") > 0.0);
        for name in [
            "semext.dev_requests",
            "semext.dev_mib",
            "semext.cache_hit_ratio",
            "query.q_path_p50_ms",
        ] {
            assert_eq!(m.get(name), 0.0, "{name}");
        }
        let searches = tiny_searches(Workload::BfsDram);
        assert!(searches
            .iter()
            .flat_map(|s| &s.levels)
            .all(|l| l.io.is_none()));
    }

    #[test]
    fn bfs_flash_ext_reads_top_down_levels_through_cache_and_device() {
        let r = tiny_run(Workload::BfsFlashExt);
        let hit = r.metrics.get("semext.cache_hit_ratio");
        assert!(hit > 0.0 && hit < 1.0, "cache hit ratio {hit}");
        assert!(r.metrics.get("semext.dev_requests") > 0.0);
        let searches = tiny_searches(Workload::BfsFlashExt);
        let top_down_reads = searches
            .iter()
            .flat_map(|s| &s.levels)
            .any(|l| l.direction == Direction::TopDown && l.io.is_some_and(|io| io.requests > 0));
        assert!(top_down_reads, "no top-down level reached the device");
    }

    #[test]
    fn query_flash_serves_without_bfs_kernels() {
        let r = tiny_run(Workload::QueryFlash);
        for name in ["core.td_edges", "core.bu_edges", "core.levels"] {
            assert_eq!(r.metrics.get(name), 0.0, "{name}");
        }
        assert!(r.metrics.get("op_p50_ms") > 0.0);
        assert!(r.metrics.get("query.q_path_p50_ms") > 0.0);
    }

    #[test]
    fn peak_rss_is_the_workloads_own() {
        let alone = tiny_run(Workload::QueryFlash).metrics.get("peak_rss_mib");
        // An earlier, larger workload in the same process (`--workload all`).
        let mut hog = vec![0u8; 256 << 20];
        for page in hog.chunks_mut(4096) {
            page[0] = 1;
        }
        assert!(peak_rss_mib() >= 256.0);
        drop(hog);
        let after = tiny_run(Workload::QueryFlash).metrics.get("peak_rss_mib");
        assert!(alone > 0.0);
        assert!(
            (after - alone).abs() < 16.0,
            "{after} MiB after a 256 MiB peak, {alone} MiB alone"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload query-flash --seed 3 --seconds 10 --trace 1"),
            Ok(Args {
                workloads: vec![Workload::QueryFlash],
                seed: 3,
                seconds: Duration::from_secs(10),
                trace: true,
            })
        );
        assert_eq!(
            parse("--workload all --seed 1").map(|a| a.workloads),
            Ok(Workload::ALL.to_vec())
        );
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload bfs-dram",
            "--workload bfs-dram --seed x",
            "--workload bfs-dram --seed 1 --trace 2",
            "--workload bfs-dram --seed 1 --seconds -1",
            "--workload bfs-dram --seed 1 --bogus 1",
            "--workload bfs-dram --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn keys(json: &Json) -> Vec<&str> {
        match json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {json:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            keys(&json),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| json.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let field = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("missing {key}"))
                .to_string()
        };

        let workloads = list("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for w in &workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = field(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let mut seen = BTreeSet::new();
        let catalogs: [(&str, &[MetricDef], &[&str]); 2] = [
            (
                "end_to_end",
                END_TO_END,
                &["name", "unit", "better", "bound"],
            ),
            ("per_layer", PER_LAYER, &["name", "unit", "better"]),
        ];
        for (key, catalog, entry_keys) in catalogs {
            let entries = list(key);
            assert_eq!(entries.len(), catalog.len(), "{key}");
            for (entry, def) in entries.iter().zip(catalog) {
                assert_eq!(keys(entry), entry_keys);
                assert_eq!(field(entry, "name"), def.name);
                assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(entry, "better"), def.better, "{}", def.name);
                assert!(valid_name(def.name), "{}", def.name);
                assert!(valid_unit(def.unit), "{}", def.unit);
                assert!(seen.insert(def.name), "{} is listed twice", def.name);
            }
        }

        let bound = |name: &str| {
            let entry = list("end_to_end")
                .into_iter()
                .find(|e| field(e, "name") == name)
                .expect(name);
            entry.get("bound").and_then(Json::as_f64).expect("bound")
        };
        let setup = bound("setup_s");
        for def in END_TO_END {
            let b = bound(def.name);
            assert!(b > 0.0 && b <= 0.25, "{}", def.name);
            assert!(b <= setup, "setup_s has the largest bound");
        }
    }
}
