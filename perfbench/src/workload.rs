//! The three workloads: their fixed configuration, and the set-up that
//! builds each one's data layout from the seed.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use sembfs_core::{
    AlphaBetaPolicy, Direction, DirectionPolicy, FixedPolicy, Scenario, ScenarioData,
    ScenarioOptions,
};
use sembfs_csr::{build_csr, BuildOptions};
use sembfs_graph500::{KroneckerParams, MemEdgeList};
use sembfs_numa::Topology;
use sembfs_query::{EngineConfig, QueryEngine};
use sembfs_semext::{DelayMode, Result, TempDir};

use crate::spans::Spans;

/// NUMA domains of the topology model: the paper's socket count, with one
/// modeled core each on any host.
pub const DOMAINS: usize = 4;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Kronecker generator seed. Each workload's graph is one fixed instance
/// and `--seed` draws the roots and query streams on it, so runs with
/// different seeds sample the same system rather than different graphs.
pub const GRAPH_SEED: u64 = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BfsDram,
    BfsFlashExt,
    QueryFlash,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BfsDram,
        Workload::BfsFlashExt,
        Workload::QueryFlash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BfsDram => "bfs-dram",
            Workload::BfsFlashExt => "bfs-flash-ext",
            Workload::QueryFlash => "query-flash",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed configuration; `BENCHMARK.json` says why each
    /// was chosen.
    pub fn spec(self) -> Spec {
        match self {
            Workload::BfsDram => Spec {
                workload: self,
                scale: 20,
                scenario: Scenario::DramOnly,
                // One worker: two-worker DRAM runs on a shared two-core
                // host spread too widely between processes.
                workers: 1,
                load: Load::Bfs {
                    roots: 16,
                    policy: Policy::AlphaBeta(AlphaBetaPolicy::dram_only_best()),
                },
                cache: CacheBudget::None,
            },
            Workload::BfsFlashExt => Spec {
                workload: self,
                scale: 18,
                scenario: Scenario::DramPcieFlash,
                workers: 2,
                // Top-down at every level keeps the searches on the
                // flash-resident forward graph, which the paper's flash
                // optimum (α = 1e6) never reads after the root. α = β = 10
                // does too, but splits searches into two cost modes by root
                // degree; top-down scans the whole component from any root.
                load: Load::Bfs {
                    roots: 8,
                    policy: Policy::Fixed(FixedPolicy(Direction::TopDown)),
                },
                cache: CacheBudget::ForwardShare(4),
            },
            Workload::QueryFlash => Spec {
                workload: self,
                scale: 16,
                scenario: Scenario::DramPcieFlash,
                workers: 2,
                load: Load::Serve { clients: 2 },
                cache: CacheBudget::Bytes(4 << 20),
            },
        }
    }
}

/// What a workload runs on its layout.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Whole passes of Graph500 searches from `roots` roots.
    Bfs { roots: usize, policy: Policy },
    /// `clients` closed-loop clients querying the engine.
    Serve { clients: usize },
}

/// The direction policy of a BFS workload.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// The paper's α/β rule.
    AlphaBeta(AlphaBetaPolicy),
    /// One direction at every level.
    Fixed(FixedPolicy),
}

impl Policy {
    pub fn rule(&self) -> &dyn DirectionPolicy {
        match self {
            Policy::AlphaBeta(policy) => policy,
            Policy::Fixed(policy) => policy,
        }
    }
}

/// Page-cache budget of a flash layout.
#[derive(Debug, Clone, Copy)]
pub enum CacheBudget {
    None,
    /// `1/n` of the forward graph's bytes.
    ForwardShare(u64),
    Bytes(u64),
}

/// A workload's configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub scale: u32,
    pub scenario: Scenario,
    /// BFS kernel workers or query-engine workers; also the width of the
    /// data-parallel helpers (generator, CSR build, validator).
    pub workers: usize,
    pub load: Load,
    pub cache: CacheBudget,
}

impl Spec {
    /// One line for the report.
    pub fn describe(&self) -> String {
        let load = match self.load {
            Load::Bfs { roots, policy } => format!(
                "{roots} roots per pass, {}, {} BFS workers",
                policy.rule().label(),
                self.workers
            ),
            Load::Serve { clients } => format!(
                "{clients} closed-loop clients, {} engine workers",
                self.workers
            ),
        };
        let cache = match self.cache {
            CacheBudget::None => "no page cache".to_string(),
            CacheBudget::ForwardShare(n) => format!("page cache 1/{n} of the forward graph"),
            CacheBudget::Bytes(bytes) => format!("page cache {} MiB", bytes >> 20),
        };
        format!(
            "SCALE {} | {} | {load} | {cache} | NUMA model {DOMAINS} domains",
            self.scale,
            self.scenario.label()
        )
    }
}

/// A built workload. Fields drop in order, so the engine's workers stop
/// before the scenario goes and the layout's files are removed last.
pub struct Layout {
    pub engine: Option<QueryEngine>,
    pub data: Arc<ScenarioData>,
    /// The generated edge list, kept for validation.
    pub edges: MemEdgeList,
    pub page_cache_bytes: u64,
    _dir: TempDir,
}

impl Layout {
    /// Modeled DRAM-resident bytes (Table II): the backward graph, the BFS
    /// status data, a DRAM forward graph, and the page-cache budget.
    pub fn dram_bytes(&self) -> u64 {
        let data = &self.data;
        let forward = if data.nvm_bytes() == 0 {
            data.forward_bytes()
        } else {
            0
        };
        data.backward_dram_bytes() + data.status_bytes() + forward + self.page_cache_bytes
    }
}

/// Build `spec`'s layout `SETUP_REPS` times, each from scratch after
/// dropping the previous one, and keep the last. Returns it with the wall
/// time of every build.
pub fn set_up(spec: &Spec, base: &Path, spans: &mut Spans) -> Result<(Layout, Vec<Duration>)> {
    let mut layout = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(layout.take());
        let (built, time) = spans.time("setup", |spans| build(spec, base, spans));
        layout = Some(built?);
        times.push(time);
    }
    Ok((layout.expect("at least one set-up ran"), times))
}

/// Generation, CSR build, layout (offload write, checksum seal, cache
/// warm) and, for serving, engine start.
fn build(spec: &Spec, base: &Path, spans: &mut Spans) -> Result<Layout> {
    let dir = TempDir::new_in(base, spec.workload.name())?;
    let params = KroneckerParams::graph500(spec.scale, GRAPH_SEED);
    let (edges, _) = spans.time("graph500.KroneckerParams::generate", |_| params.generate());
    let options = BuildOptions {
        sort_neighbors: true,
        ..BuildOptions::default()
    };
    let (csr, _) = spans.time("csr.build_csr", |_| build_csr(&edges, options));
    let csr = csr?;
    // The forward graph holds the adjacency values and one index array per
    // domain.
    let forward_bytes = csr.num_values() * 4 + DOMAINS as u64 * (csr.num_vertices() + 1) * 8;
    let page_cache_bytes = match spec.cache {
        CacheBudget::None => 0,
        CacheBudget::ForwardShare(n) => forward_bytes / n,
        CacheBudget::Bytes(bytes) => bytes,
    };
    let options = ScenarioOptions {
        topology: Topology::new(DOMAINS, 1),
        delay_mode: DelayMode::Throttled,
        sort_neighbors: true,
        page_cache_bytes: (page_cache_bytes > 0).then_some(page_cache_bytes),
        data_dir: Some(dir.path().to_path_buf()),
        ..ScenarioOptions::default()
    };
    let (data, _) = spans.time("core.ScenarioData::from_csr", |_| {
        ScenarioData::from_csr(csr, spec.scenario, options)
    });
    let data = Arc::new(data?);
    let engine = match spec.load {
        Load::Bfs { .. } => None,
        Load::Serve { .. } => {
            let config = EngineConfig {
                workers: spec.workers,
                queue_capacity: 64,
                result_cache_entries: 1024,
            };
            let (engine, _) = spans.time("query.QueryEngine::new", |_| {
                QueryEngine::new(data.clone(), config)
            });
            Some(engine)
        }
    };
    Ok(Layout {
        engine,
        data,
        edges,
        page_cache_bytes,
        _dir: dir,
    })
}
