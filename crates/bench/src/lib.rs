//! Shared harness for the figure/table regeneration binaries.
//!
//! Every exhibit of the paper's evaluation (§VI) has a binary in
//! `src/bin/` that prints the same rows/series the paper reports, scaled
//! to a local problem size. All binaries read their knobs from environment
//! variables so they run argument-less under CI:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `SEMBFS_SCALE` | main problem SCALE (Fig. 7/8/10–14; paper: 27) | 18 |
//! | `SEMBFS_SMALL_SCALE` | the "fits in DRAM" SCALE (Fig. 9; paper: 26) | 15 |
//! | `SEMBFS_ROOTS` | BFS roots per measurement (paper: 64) | 8 |
//! | `SEMBFS_SEED` | generator seed | 1 |
//! | `SEMBFS_DEVICE_SCALE` | slow-down factor on the device models | 1.0 |
//! | `SEMBFS_DOMAINS` | NUMA domains ℓ (paper: 4) | 4 |
//! | `SEMBFS_TRACE_OUT` | write a JSONL trace of the measurement here | off |

use std::sync::Arc;

use sembfs_core::{BfsConfig, BfsRun, DirectionPolicy, Scenario, ScenarioData, ScenarioOptions};
use sembfs_graph500::{select_roots, KroneckerParams, MemEdgeList, VertexId};
use sembfs_numa::Topology;
use sembfs_semext::{DelayMode, Device};

/// Knobs shared by every exhibit binary.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Problem SCALE for the main experiments.
    pub scale: u32,
    /// The reduced SCALE whose working set "fits in DRAM" (Fig. 9).
    pub small_scale: u32,
    /// BFS roots per configuration.
    pub num_roots: usize,
    /// Generator seed.
    pub seed: u64,
    /// Device slow-down factor (1.0 = calibrated paper-era profiles).
    pub device_scale: f64,
    /// NUMA topology model.
    pub topology: Topology,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchEnv {
    /// Read the environment (see module docs for the variable table).
    pub fn from_env() -> Self {
        let domains: usize = env_parse("SEMBFS_DOMAINS", 4);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            scale: env_parse("SEMBFS_SCALE", 18),
            small_scale: env_parse("SEMBFS_SMALL_SCALE", 15),
            num_roots: env_parse("SEMBFS_ROOTS", 8),
            seed: env_parse("SEMBFS_SEED", 1),
            device_scale: env_parse("SEMBFS_DEVICE_SCALE", 1.0),
            topology: Topology::new(domains.max(1), (threads / domains.max(1)).max(1)),
        }
    }

    /// Print the Table I-style header every binary leads with.
    pub fn print_header(&self, exhibit: &str, paper_setup: &str) {
        println!("=== {exhibit} ===");
        println!("paper setup : {paper_setup}");
        println!(
            "this run    : SCALE {} (small {}), {} roots, seed {}, {}x{} topology, \
             device scale {}",
            self.scale,
            self.small_scale,
            self.num_roots,
            self.seed,
            self.topology.domains(),
            self.topology.cores_per_domain(),
            self.device_scale
        );
        println!();
    }

    /// Generate the main Kronecker instance.
    pub fn generate(&self) -> MemEdgeList {
        KroneckerParams::graph500(self.scale, self.seed).generate()
    }

    /// Generate the reduced ("fits in DRAM") instance.
    pub fn generate_small(&self) -> MemEdgeList {
        KroneckerParams::graph500(self.small_scale, self.seed).generate()
    }

    /// Scenario options with throttled (wall-clock-accurate) devices.
    pub fn measured_options(&self) -> ScenarioOptions {
        ScenarioOptions {
            topology: self.topology,
            delay_mode: DelayMode::Throttled,
            device_scale: self.device_scale,
            ..Default::default()
        }
    }

    /// Scenario options with accounting-only devices (fast, for counting
    /// experiments where wall time is not the quantity).
    pub fn accounting_options(&self) -> ScenarioOptions {
        ScenarioOptions {
            topology: self.topology,
            delay_mode: DelayMode::Accounting,
            device_scale: self.device_scale,
            ..Default::default()
        }
    }

    /// Build a scenario over `edges`.
    pub fn build(
        &self,
        edges: &MemEdgeList,
        scenario: Scenario,
        opts: ScenarioOptions,
    ) -> ScenarioData {
        ScenarioData::build(edges, scenario, opts).expect("scenario build")
    }

    /// Select the benchmark roots for a built scenario.
    pub fn roots(&self, data: &ScenarioData) -> Vec<VertexId> {
        select_roots(data.csr().num_vertices(), self.num_roots, self.seed, |v| {
            data.degree(v)
        })
    }
}

/// Run `policy` from every root; returns the runs and the median TEPS.
pub fn measure(
    data: &ScenarioData,
    roots: &[VertexId],
    policy: &dyn DirectionPolicy,
) -> (Vec<BfsRun>, f64) {
    measure_with(data, roots, policy, &BfsConfig::paper())
}

/// [`measure`] on the kernels `cfg` configures.
pub fn measure_with(
    data: &ScenarioData,
    roots: &[VertexId],
    policy: &dyn DirectionPolicy,
    cfg: &BfsConfig,
) -> (Vec<BfsRun>, f64) {
    let runs: Vec<BfsRun> = roots
        .iter()
        .map(|&r| data.run(r, policy, cfg).expect("bfs"))
        .collect();
    let mut teps: Vec<f64> = runs.iter().map(BfsRun::teps).collect();
    teps.sort_by(|a, b| a.partial_cmp(b).expect("finite TEPS"));
    let median = teps[teps.len() / 2];
    (runs, median)
}

/// Reset the scenario device's statistics (between measurement windows).
pub fn reset_device(data: &ScenarioData) {
    if let Some(dev) = data.device() {
        dev.reset_stats();
    }
}

/// The scenario device, when present.
pub fn device_of(data: &ScenarioData) -> Option<&Arc<Device>> {
    data.device()
}

/// The one-flag trace opt-in shared by the exhibit binaries: when
/// `SEMBFS_TRACE_OUT` is set, align the tracer's epoch with the scenario
/// device (so BFS spans and device spans share a timeline) and start
/// recording. Returns whether tracing was turned on.
pub fn trace_begin(data: &ScenarioData) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static EPOCH_ALIGNED: AtomicBool = AtomicBool::new(false);
    if std::env::var_os("SEMBFS_TRACE_OUT").is_none() {
        return false;
    }
    // Align only once: device spans translate onto whatever epoch the
    // tracer holds, but moving the epoch mid-trace would shear the
    // timeline of the samples already recorded.
    if !EPOCH_ALIGNED.swap(true, Ordering::Relaxed) {
        data.align_trace_epoch();
    }
    sembfs_obs::global().set_enabled(true);
    true
}

/// Counterpart of [`trace_begin`]: drain the recorded samples to the
/// `SEMBFS_TRACE_OUT` JSONL file and stop recording. No-op when the
/// variable is unset.
pub fn trace_finish() {
    let Some(path) = std::env::var_os("SEMBFS_TRACE_OUT") else {
        return;
    };
    let tracer = sembfs_obs::global();
    tracer.set_enabled(false);
    let samples = tracer.drain();
    let path = std::path::PathBuf::from(path);
    match sembfs_obs::write_jsonl(&path, &samples) {
        Ok(()) => eprintln!(
            "trace: {} samples -> {} ({} dropped)",
            samples.len(),
            path.display(),
            tracer.dropped()
        ),
        Err(e) => eprintln!("trace: writing {} failed: {e}", path.display()),
    }
}

/// A simple aligned-column table printer for the exhibit rows.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Analytic sizes of one scenario's data structures at a given SCALE
/// (edge factor 16): `(forward, backward, status)` bytes. Matches the
/// built structures exactly (value arrays hold `2M` `u32`s; the forward
/// index is replicated per domain).
pub fn layout_bytes(scale: u32, edge_factor: u64, domains: usize) -> (u64, u64, u64) {
    let n = 1u64 << scale;
    let m = n * edge_factor;
    let values = 2 * m * 4;
    let fg = values + (n + 1) * 8 * domains as u64;
    let bg = values + (n + 1) * 8;
    let status = sembfs_core::status_data_bytes(n, domains);
    (fg, bg, status)
}

/// The DRAM budget of the paper's NVM machines, scaled to this run: the
/// paper's 64 GB box holds 64/88.3 of its SCALE 27 working set; we grant
/// the same *fraction* of the main-scale working set. Spare DRAM beyond
/// the resident structures becomes the modeled page cache.
pub fn paper_dram_budget(env: &BenchEnv) -> u64 {
    let (fg, bg, st) = layout_bytes(env.scale, 16, env.topology.domains());
    let total = fg + bg + st;
    (total as f64 * (64.0 / 88.3)) as u64
}

/// Page-cache bytes available at `scale` under the fixed main-scale DRAM
/// budget (zero when the resident set already exceeds the budget).
pub fn spare_dram_for(env: &BenchEnv, scale: u32) -> u64 {
    let (_, bg, st) = layout_bytes(scale, 16, env.topology.domains());
    paper_dram_budget(env).saturating_sub(bg + st)
}

/// Format bytes as MiB with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// Format a TEPS value in MTEPS with two decimals.
pub fn mteps(teps: f64) -> String {
    format!("{:.2}", teps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let env = BenchEnv::from_env();
        assert!(env.scale >= 10);
        assert!(env.num_roots >= 1);
        assert!(env.topology.domains() >= 1);
    }

    #[test]
    fn table_rejects_arity_mismatch() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&["only-one".into()]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mib(1 << 20), "1.0");
        assert_eq!(mteps(2_500_000.0), "2.50");
    }

    #[test]
    fn measure_end_to_end_small() {
        let env = BenchEnv {
            scale: 10,
            small_scale: 8,
            num_roots: 2,
            seed: 3,
            device_scale: 1.0,
            topology: Topology::new(2, 1),
        };
        let edges = env.generate();
        let data = env.build(&edges, Scenario::DramOnly, env.accounting_options());
        let roots = env.roots(&data);
        let (runs, median) = measure(&data, &roots, &Scenario::DramOnly.best_policy());
        assert_eq!(runs.len(), 2);
        assert!(median > 0.0);
    }
}
