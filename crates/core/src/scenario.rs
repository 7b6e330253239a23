//! The machine scenarios of Table I and their data layouts (§V-A, §VI-A).
//!
//! * **DRAM-only** — everything in DRAM (the 128 GB machine).
//! * **DRAM+PCIeFlash** — forward graph offloaded to a FusionIO ioDrive2
//!   model; backward graph + status data in DRAM (the 64 GB machine).
//! * **DRAM+SSD** — same layout on an Intel SSD 320 model.
//!
//! [`ScenarioData::build`] performs the paper's Steps 1–2: construct both
//! CSR graphs from the edge list, write the forward graph's per-domain
//! index/value files to the scenario's device, and (optionally, §VI-E)
//! split the backward graph's cold tail onto the same device.
//! [`ScenarioData::run`] then executes any policy's BFS over that layout.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sembfs_csr::backward::split_csr;
use sembfs_csr::{
    build_csr, write_forward_files, BackwardGraph, BuildOptions, CsrGraph, DramForwardGraph,
    ExtForwardGraph, SplitBackwardGraph,
};
use sembfs_graph500::edge_list::EdgeList;
use sembfs_numa::{RangePartition, Topology};
use sembfs_semext::ext_csr::{write_csr_files, ExtCsr};
use sembfs_semext::{
    ChunkedReader, DelayMode, Device, DeviceProfile, FaultPlan, FileBackend, MmapBackend, NvmStore,
    PageIntegrity, ReadAt, Result, ShardedCachedStore, ShardedPageCache, TempDir,
};

use crate::hybrid::{
    bidirectional, hybrid_bfs, hybrid_bfs_distances, hybrid_bfs_rings, BfsConfig, BfsRun,
    BidirOutcome, DistanceRun,
};
use crate::policy::DirectionPolicy;
use crate::tree::status_data_bytes;
use crate::{AlphaBetaPolicy, VertexId};

/// Evaluate `$body` with `$f` and `$b` bound to `$data`'s forward and
/// backward stores at their concrete types: one arm per layout.
macro_rules! with_stores {
    ($data:expr, |$f:ident, $b:ident| $body:expr) => {
        match (&$data.forward, &$data.backward) {
            (ForwardStore::Dram($f), BackwardStore::Dram($b)) => $body,
            (ForwardStore::Dram($f), BackwardStore::Split($b)) => $body,
            (ForwardStore::Ext($f), BackwardStore::Dram($b)) => $body,
            (ForwardStore::Ext($f), BackwardStore::Split($b)) => $body,
        }
    };
}

/// The three machine configurations of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// All datasets in DRAM.
    DramOnly,
    /// Forward graph on PCIe flash (FusionIO ioDrive2 model).
    DramPcieFlash,
    /// Forward graph on SATA SSD (Intel SSD 320 model).
    DramSsd,
}

impl Scenario {
    /// All three scenarios, in the paper's presentation order.
    pub const ALL: [Scenario; 3] = [
        Scenario::DramOnly,
        Scenario::DramPcieFlash,
        Scenario::DramSsd,
    ];

    /// The paper's label for the scenario.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::DramOnly => "DRAM-only",
            Scenario::DramPcieFlash => "DRAM+PCIeFlash",
            Scenario::DramSsd => "DRAM+SSD",
        }
    }

    /// The simulated device profile backing the scenario's NVM, if any.
    pub fn device_profile(&self) -> Option<DeviceProfile> {
        match self {
            Scenario::DramOnly => None,
            Scenario::DramPcieFlash => Some(DeviceProfile::iodrive2()),
            Scenario::DramSsd => Some(DeviceProfile::intel_ssd_320()),
        }
    }

    /// The best α/β the paper found for this scenario (§VI-B).
    pub fn best_policy(&self) -> AlphaBetaPolicy {
        match self {
            Scenario::DramOnly => AlphaBetaPolicy::dram_only_best(),
            Scenario::DramPcieFlash => AlphaBetaPolicy::pcie_flash_best(),
            Scenario::DramSsd => AlphaBetaPolicy::ssd_best(),
        }
    }
}

/// Build-time options for a scenario's data layout.
#[derive(Debug, Clone)]
pub struct ScenarioOptions {
    /// NUMA topology model (`ℓ` domains).
    pub topology: Topology,
    /// Whether simulated devices really delay callers
    /// ([`DelayMode::Throttled`], benches) or only record
    /// ([`DelayMode::Accounting`], tests).
    pub delay_mode: DelayMode,
    /// Slow-down/speed-up factor applied to the device profiles (1.0 =
    /// paper-era hardware as calibrated in `DeviceProfile`).
    pub device_scale: f64,
    /// Pin the forward graph's index arrays in DRAM (ablation; the paper
    /// reads them from NVM).
    pub dram_index: bool,
    /// `Some(k)`: offload the backward graph's per-vertex tail beyond `k`
    /// edges to the device (§VI-E). `None`: backward graph fully in DRAM.
    pub backward_offload_k: Option<u64>,
    /// Replace the scenario's device profile (for studies across device
    /// generations; ignored in the DRAM-only scenario).
    pub device_profile_override: Option<DeviceProfile>,
    /// How every offloaded file (forward graph and §VI-E backward tail,
    /// cached or not) is read: the paper's explicit `read(2)` path or
    /// `mmap(2)` (ablation). The device model meters both alike, so the
    /// choice never changes device counters.
    pub access_path: AccessPath,
    /// Model the OS page cache with this many bytes of spare DRAM: file
    /// pages of the offloaded forward graph are cached with CLOCK
    /// replacement, and only misses reach the device. `None` disables the
    /// model (every read hits the device — a pessimistic bound the paper's
    /// SCALE 27 runs approach, while its SCALE 26 runs sit near the fully
    /// cached end; see Fig. 8 vs Fig. 9).
    pub page_cache_bytes: Option<u64>,
    /// Lock stripes of the modeled page cache (`None` = the cache's
    /// default). Only meaningful with `page_cache_bytes`.
    pub cache_shards: Option<usize>,
    /// Sequential readahead window of the modeled page cache, in 4 KiB
    /// pages (0 disables readahead, the deterministic default).
    pub cache_readahead_pages: usize,
    /// Directory for the "NVM" files; a fresh temp dir when `None`.
    pub data_dir: Option<PathBuf>,
    /// No effect: adjacency is always sorted.
    #[deprecated(note = "adjacency is always sorted")]
    pub sort_neighbors: bool,
    /// Deterministic fault-injection plan for the scenario's simulated
    /// device (`None` = fault-free; ignored in the DRAM-only scenario,
    /// which has no device).
    pub fault_plan: Option<FaultPlan>,
    /// Seal per-page checksums over the offloaded files at build time and
    /// verify every fill against them. This is what turns silent
    /// corruption (torn pages, injected bit-flips) into a typed
    /// `ChecksumMismatch` instead of a wrong-but-valid BFS tree, and what
    /// lets the retry path *heal* `corrupt` faults.
    pub verify_pages: bool,
}

#[allow(deprecated)]
impl Default for ScenarioOptions {
    fn default() -> Self {
        Self {
            topology: Topology::detect(),
            delay_mode: DelayMode::Accounting,
            device_scale: 1.0,
            dram_index: false,
            backward_offload_k: None,
            device_profile_override: None,
            access_path: AccessPath::Pread,
            page_cache_bytes: None,
            cache_shards: None,
            cache_readahead_pages: 0,
            data_dir: None,
            sort_neighbors: false,
            fault_plan: None,
            verify_pages: true,
        }
    }
}

impl ScenarioOptions {
    /// Options for wall-clock measurement (throttled devices).
    pub fn measured() -> Self {
        Self {
            delay_mode: DelayMode::Throttled,
            ..Default::default()
        }
    }
}

/// How offloaded files are accessed (§V-B1: the paper uses POSIX
/// `read(2)`; `mmap` is the obvious alternative the ablation compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPath {
    /// Positional `read(2)`/`pread` syscalls — the paper's path.
    #[default]
    Pread,
    /// Memory-mapped files (page faults instead of syscalls).
    Mmap,
}

/// Open the offloaded file at `path` as the scenario reads it: the
/// backend of `options.access_path`, its page checksums sealed when
/// `options.verify_pages`, metered on `device` ([`NvmStore`]) or fronted by
/// `cache` ([`ShardedCachedStore`], warm: Step 2 just wrote the file
/// through the kernel). The type is erased once, at the store, so each
/// store call dispatches once and the store reaches its backend directly.
fn open_store(
    path: &Path,
    options: &ScenarioOptions,
    device: &Arc<Device>,
    cache: Option<&Arc<ShardedPageCache>>,
) -> Result<Arc<dyn ReadAt>> {
    fn metered<B: ReadAt + 'static>(
        backend: B,
        verify: bool,
        device: &Arc<Device>,
        cache: Option<&Arc<ShardedPageCache>>,
    ) -> Result<Arc<dyn ReadAt>> {
        // The seal scans a file this process just wrote: DRAM traffic, not
        // device traffic, so it reads the bare backend.
        let sums = verify
            .then(|| PageIntegrity::seal_store(&backend))
            .transpose()?
            .map(Arc::new);
        Ok(match cache {
            Some(cache) => {
                let mut store = ShardedCachedStore::new(backend, device.clone(), cache.clone());
                if let Some(sums) = sums {
                    store = store.with_integrity(sums);
                }
                store.warm()?;
                Arc::new(store)
            }
            None => {
                let mut store = NvmStore::new(backend, device.clone());
                if let Some(sums) = sums {
                    store = store.with_integrity(sums);
                }
                Arc::new(store)
            }
        })
    }
    let verify = options.verify_pages;
    match options.access_path {
        AccessPath::Pread => metered(FileBackend::open(path)?, verify, device, cache),
        AccessPath::Mmap => metered(MmapBackend::open(path)?, verify, device, cache),
    }
}

/// Where the forward graph lives.
#[derive(Debug)]
enum ForwardStore {
    /// In DRAM (the DRAM-only scenario).
    Dram(DramForwardGraph),
    /// On the scenario's simulated NVM device, read with `pread` or
    /// `mmap` ([`ScenarioOptions::access_path`]) and fronted by the modeled
    /// OS page cache when one is configured.
    Ext(ExtForwardGraph<Arc<dyn ReadAt>>),
}

/// Where the backward graph lives.
#[derive(Debug)]
enum BackwardStore {
    /// Fully in DRAM (the paper's implemented layout). Its CSR is also the
    /// scenario's full CSR, so the graph is held once.
    Dram(BackwardGraph),
    /// DRAM head + NVM tail (§VI-E).
    Split(SplitBackwardGraph<Arc<dyn ReadAt>>),
}

/// A fully constructed scenario: both graphs in their configured homes,
/// the device model, and the scratch directory keeping the files alive.
#[derive(Debug)]
pub struct ScenarioData {
    scenario: Scenario,
    options: ScenarioOptions,
    forward: ForwardStore,
    backward: BackwardStore,
    /// The full CSR when the backward graph does not hold it (split).
    csr: Option<CsrGraph>,
    partition: RangePartition,
    device: Option<Arc<Device>>,
    page_cache: Option<Arc<ShardedPageCache>>,
    _tempdir: Option<TempDir>,
}

impl ScenarioData {
    /// Execute the paper's graph-construction step for `scenario`.
    pub fn build(
        edges: &dyn EdgeList,
        scenario: Scenario,
        options: ScenarioOptions,
    ) -> Result<Self> {
        let csr = build_csr(edges, BuildOptions::default())?;
        Self::from_csr(csr, scenario, options)
    }

    /// Assemble a scenario from an already-built full CSR.
    pub fn from_csr(csr: CsrGraph, scenario: Scenario, options: ScenarioOptions) -> Result<Self> {
        let n = csr.num_vertices();
        let partition = RangePartition::new(n, options.topology.domains());

        let device = scenario.device_profile().map(|default_profile| {
            let profile = options
                .device_profile_override
                .clone()
                .unwrap_or(default_profile)
                .scaled(options.device_scale);
            match &options.fault_plan {
                Some(plan) if !plan.is_noop() => {
                    Device::with_fault_plan(profile, options.delay_mode, plan.clone())
                }
                _ => Device::new(profile, options.delay_mode),
            }
        });

        // Offloaded files go to `data_dir`, or to a temp dir that lives as
        // long as the scenario.
        if let Some(dir) = &options.data_dir {
            std::fs::create_dir_all(dir)?;
        }
        let tempdir = match (&device, &options.data_dir) {
            (Some(_), None) => Some(TempDir::new("scenario")?),
            _ => None,
        };
        let dir = options
            .data_dir
            .as_deref()
            .or(tempdir.as_ref().map(TempDir::path));

        // Forward graph: in DRAM, or offloaded when the scenario has a
        // device (§V-A Step 2: "construct the forward graph on DRAM … and
        // offload the constructed forward graph to NVM"). The offload
        // streams each domain's files from the full CSR instead of
        // building the whole forward graph in DRAM first: its freed
        // arrays stayed resident in the allocator (`bfs-flash-ext` peak
        // RSS 113.5 → 105.6 MiB without them).
        let page_cache = match (&device, options.page_cache_bytes) {
            (Some(_), Some(bytes)) => {
                let cache = match options.cache_shards {
                    Some(shards) => ShardedPageCache::with_shards(bytes, shards),
                    None => ShardedPageCache::new(bytes),
                };
                cache.set_readahead_pages(options.cache_readahead_pages);
                Some(cache)
            }
            _ => None,
        };
        let forward = match &device {
            None => ForwardStore::Dram(DramForwardGraph::from_csr(&csr, &partition)),
            Some(dev) => {
                let dir = dir.expect("device implies directory");
                let domains = write_forward_files(&csr, &partition, dir)?
                    .iter()
                    .map(|(ip, vp)| {
                        let cache = page_cache.as_ref();
                        ExtCsr::new(
                            open_store(ip, &options, dev, cache)?,
                            open_store(vp, &options, dev, cache)?,
                        )
                    })
                    .collect::<Result<Vec<_>>>()?;
                let ext = ExtForwardGraph::new(domains, partition.clone());
                ForwardStore::Ext(if options.dram_index {
                    ext.with_dram_index()?
                } else {
                    ext
                })
            }
        };

        // Backward graph: DRAM, or split with the tail on the same device.
        let (backward, csr) = match (options.backward_offload_k, &device) {
            (Some(k), Some(dev)) => {
                let dir = dir.expect("device implies directory");
                let (head, tail_index, tail_values) = split_csr(&csr, k);
                let ip = dir.join("bg-tail.index");
                let vp = dir.join("bg-tail.values");
                write_csr_files(&ip, &vp, &tail_index, &tail_values)?;
                // The tail is never cached: every probe of it reaches the
                // device, as §VI-E's estimate assumes.
                let tail = ExtCsr::new(
                    open_store(&ip, &options, dev, None)?,
                    open_store(&vp, &options, dev, None)?,
                )?
                // The tail index is pinned: §VI-E's estimate concerns edge
                // (value) traffic, and an unpinned index would double every
                // probe's request count.
                .with_dram_index()?;
                // The edgeless mask comes from the full CSR's degrees: no
                // tail read at build time, and at k = 0 the head has none.
                let split =
                    SplitBackwardGraph::new(head, tail, partition.clone(), k, csr.edgeless_mask());
                (BackwardStore::Split(split), Some(csr))
            }
            (Some(_), None) => {
                panic!("backward_offload_k requires an NVM scenario (DramPcieFlash or DramSsd)")
            }
            (None, _) => (
                BackwardStore::Dram(BackwardGraph::new(csr, partition.clone())),
                None,
            ),
        };

        Ok(Self {
            scenario,
            options,
            forward,
            backward,
            csr,
            partition,
            device,
            page_cache,
            _tempdir: tempdir,
        })
    }

    /// The scenario this data realizes.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The build options.
    pub fn options(&self) -> &ScenarioOptions {
        &self.options
    }

    /// The full CSR (kept for root selection, validation aids, and the
    /// reference baseline — measurement scaffolding, not BFS state).
    pub fn csr(&self) -> &CsrGraph {
        match &self.backward {
            BackwardStore::Dram(g) => g.csr(),
            BackwardStore::Split(_) => self.csr.as_ref().expect("a split layout keeps the CSR"),
        }
    }

    /// The NUMA vertex partition.
    pub fn partition(&self) -> &RangePartition {
        &self.partition
    }

    /// The simulated NVM device, when the scenario has one.
    pub fn device(&self) -> Option<&Arc<Device>> {
        self.device.as_ref()
    }

    /// The modeled OS page cache, when enabled.
    pub fn page_cache(&self) -> Option<&Arc<ShardedPageCache>> {
        self.page_cache.as_ref()
    }

    /// Align the global tracer's timebase on this scenario's device epoch
    /// so trace timestamps and device-clock nanoseconds (`IoStats`
    /// arrival/completion) are the *same* number. DRAM-only scenarios have
    /// no device; the tracer keeps its own epoch.
    pub fn align_trace_epoch(&self) {
        if let Some(dev) = &self.device {
            sembfs_obs::global().set_epoch(dev.epoch());
        }
    }

    /// Degree of `v` in the full graph.
    pub fn degree(&self, v: VertexId) -> u64 {
        self.csr().degree(v)
    }

    /// Number of vertices in the graph.
    pub fn num_vertices(&self) -> u64 {
        self.csr().num_vertices()
    }

    /// Forward-graph size in bytes (DRAM or NVM, Table II row 1).
    pub fn forward_bytes(&self) -> u64 {
        use sembfs_csr::DomainNeighbors;
        match &self.forward {
            ForwardStore::Dram(g) => g.byte_size(),
            ForwardStore::Ext(g) => g.byte_size(),
        }
    }

    /// Backward-graph DRAM footprint in bytes (Table II row 2).
    pub fn backward_dram_bytes(&self) -> u64 {
        match &self.backward {
            BackwardStore::Dram(g) => g.byte_size(),
            BackwardStore::Split(g) => g.dram_byte_size(),
        }
    }

    /// Bytes offloaded to the device (forward graph + backward tail).
    pub fn nvm_bytes(&self) -> u64 {
        use sembfs_csr::DomainNeighbors;
        let fwd = match &self.forward {
            ForwardStore::Dram(_) => 0,
            ForwardStore::Ext(g) => g.byte_size(),
        };
        let bwd = match &self.backward {
            BackwardStore::Dram(_) => 0,
            BackwardStore::Split(g) => g.nvm_byte_size(),
        };
        fwd + bwd
    }

    /// BFS status-data size in bytes (Table II row 3).
    pub fn status_bytes(&self) -> u64 {
        status_data_bytes(self.csr().num_vertices(), self.partition.num_domains())
    }

    /// Augment a caller config with the scenario's device (merge-aware
    /// chunk reader + I/O monitor) and page cache, where unset.
    fn augment_cfg(&self, cfg: &BfsConfig) -> BfsConfig {
        let mut cfg = cfg.clone();
        if let Some(dev) = &self.device {
            if cfg.reader.is_none() {
                cfg.reader = Some(ChunkedReader::for_device(dev));
            }
            if cfg.io_monitor.is_none() {
                cfg.io_monitor = Some(dev.clone());
            }
        }
        if let Some(cache) = &self.page_cache {
            if cfg.cache_monitor.is_none() {
                cfg.cache_monitor = Some(cache.clone());
            }
        }
        cfg
    }

    /// Run one BFS from `root` under `policy`.
    ///
    /// The config is augmented with the scenario's device: its merge-aware
    /// chunk reader and (if none was set) its I/O monitor.
    pub fn run(
        &self,
        root: VertexId,
        policy: &dyn DirectionPolicy,
        cfg: &BfsConfig,
    ) -> Result<BfsRun> {
        let cfg = self.augment_cfg(cfg);
        with_stores!(self, |f, b| hybrid_bfs(f, b, root, policy, &cfg))
    }

    /// Run one *distances-only* BFS from `root` under `policy` — no
    /// parent tree, no TEPS sweep (see
    /// [`hybrid_bfs_distances`](crate::hybrid::hybrid_bfs_distances)).
    /// The config is augmented exactly like [`run`](Self::run).
    pub fn run_distances(
        &self,
        root: VertexId,
        policy: &dyn DirectionPolicy,
        cfg: &BfsConfig,
    ) -> Result<DistanceRun> {
        let cfg = self.augment_cfg(cfg);
        with_stores!(self, |f, b| hybrid_bfs_distances(f, b, root, policy, &cfg))
    }

    /// Sizes of the BFS rings around `root` out to `depth` hops, by a
    /// hybrid search cut off after level `depth` (see
    /// [`hybrid_bfs_rings`](crate::hybrid::hybrid_bfs_rings)). The config
    /// is augmented exactly like [`run`](Self::run).
    pub fn run_rings(
        &self,
        root: VertexId,
        depth: u32,
        policy: &dyn DirectionPolicy,
        cfg: &BfsConfig,
    ) -> Result<Vec<u64>> {
        let cfg = self.augment_cfg(cfg);
        with_stores!(self, |f, b| hybrid_bfs_rings(
            f, b, root, depth, policy, &cfg
        ))
    }

    /// A shortest path (or, without `want_path`, only its length) between
    /// `src` and `dst` by two searches stepped toward each other: the
    /// source side through the forward store, the destination side
    /// through the backward store (see
    /// [`bidirectional`](crate::hybrid::bidirectional)). The config is
    /// augmented exactly like [`run`](Self::run).
    pub fn run_bidirectional(
        &self,
        src: VertexId,
        dst: VertexId,
        want_path: bool,
        policy: &dyn DirectionPolicy,
        cfg: &BfsConfig,
    ) -> Result<BidirOutcome> {
        let cfg = self.augment_cfg(cfg);
        with_stores!(self, |f, b| bidirectional(
            f, b, src, dst, want_path, policy, &cfg
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level_stats::Direction;
    use crate::policy::FixedPolicy;
    use sembfs_graph500::{select_roots, validate_bfs_tree, KroneckerParams};

    fn small_options() -> ScenarioOptions {
        ScenarioOptions {
            topology: Topology::new(2, 2),
            ..Default::default()
        }
    }

    fn kron(scale: u32) -> sembfs_graph500::MemEdgeList {
        KroneckerParams::graph500(scale, 12).generate()
    }

    #[test]
    fn scenario_labels_and_profiles() {
        assert_eq!(Scenario::DramOnly.label(), "DRAM-only");
        assert!(Scenario::DramOnly.device_profile().is_none());
        assert!(Scenario::DramPcieFlash.device_profile().is_some());
        assert!(Scenario::DramSsd.device_profile().is_some());
    }

    #[test]
    fn all_scenarios_produce_identical_levels() {
        let el = kron(9);
        let mut runs = Vec::new();
        for sc in Scenario::ALL {
            let data = ScenarioData::build(&el, sc, small_options()).unwrap();
            let roots = select_roots(data.csr().num_vertices(), 2, 5, |v| data.degree(v));
            let policy = sc.best_policy();
            for &root in &roots {
                let run = data.run(root, &policy, &BfsConfig::paper()).unwrap();
                let report = validate_bfs_tree(&run.parent, root, &el).unwrap();
                assert_eq!(report.visited, run.visited, "{}", sc.label());
                runs.push((sc, root, report.levels));
            }
        }
        // Same root ⇒ same level assignment in every scenario.
        for w in runs.windows(1) {
            let _ = w;
        }
        let base: Vec<_> = runs
            .iter()
            .filter(|(s, _, _)| *s == Scenario::DramOnly)
            .collect();
        for (s, root, levels) in &runs {
            let b = base.iter().find(|(_, r, _)| r == root).unwrap();
            assert_eq!(levels, &b.2, "{} root {root}", s.label());
        }
    }

    #[test]
    fn nvm_scenario_issues_requests() {
        let el = kron(9);
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, small_options()).unwrap();
        let root = select_roots(data.csr().num_vertices(), 1, 1, |v| data.degree(v))[0];
        // Force pure top-down so every expansion reads NVM.
        let run = data
            .run(root, &FixedPolicy(Direction::TopDown), &BfsConfig::paper())
            .unwrap();
        assert!(run.visited > 1);
        let snap = data.device().unwrap().snapshot();
        assert!(snap.requests > 0, "top-down must touch the device");
        assert!(run.levels.iter().any(|l| l.io.is_some()));
    }

    #[test]
    fn dram_only_issues_no_requests() {
        let el = kron(8);
        let data = ScenarioData::build(&el, Scenario::DramOnly, small_options()).unwrap();
        assert!(data.device().is_none());
        assert_eq!(data.nvm_bytes(), 0);
    }

    #[test]
    fn split_backward_reduces_dram() {
        let el = kron(9);
        let mut opts = small_options();
        opts.backward_offload_k = Some(2);
        let data = ScenarioData::build(&el, Scenario::DramSsd, opts).unwrap();
        let full = data.csr().byte_size();
        assert!(data.backward_dram_bytes() < full);
        assert!(data.nvm_bytes() > data.forward_bytes());

        // And BFS still works + validates.
        let root = select_roots(data.csr().num_vertices(), 1, 3, |v| data.degree(v))[0];
        let run = data
            .run(root, &Scenario::DramSsd.best_policy(), &BfsConfig::paper())
            .unwrap();
        validate_bfs_tree(&run.parent, root, &el).unwrap();
        // Some probes must have spilled to the tail.
        assert!(run.levels.iter().any(|l| l.nvm_edges > 0));
    }

    #[test]
    #[should_panic(expected = "requires an NVM scenario")]
    fn split_without_device_rejected() {
        let el = kron(6);
        let mut opts = small_options();
        opts.backward_offload_k = Some(2);
        let _ = ScenarioData::build(&el, Scenario::DramOnly, opts);
    }

    #[test]
    fn warm_page_cache_absorbs_all_reads() {
        let el = kron(9);
        let mut opts = small_options();
        // Cache big enough for the whole forward graph.
        opts.page_cache_bytes = Some(64 << 20);
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, opts).unwrap();
        assert!(data.page_cache().is_some());
        let root = select_roots(data.csr().num_vertices(), 1, 4, |v| data.degree(v))[0];
        let run = data
            .run(root, &FixedPolicy(Direction::TopDown), &BfsConfig::paper())
            .unwrap();
        assert!(run.visited > 1);
        // Files were written through the kernel → cache starts warm → no
        // device requests at all.
        assert_eq!(data.device().unwrap().snapshot().requests, 0);
        let (hits, _) = data.page_cache().unwrap().stats();
        assert!(hits > 0);
    }

    #[test]
    fn tiny_page_cache_still_correct_but_pays_the_device() {
        let el = kron(9);
        let base = ScenarioData::build(&el, Scenario::DramOnly, small_options()).unwrap();
        let root = select_roots(base.csr().num_vertices(), 1, 4, |v| base.degree(v))[0];
        let expect = sembfs_graph500::validate::compute_levels(
            &base
                .run(root, &FixedPolicy(Direction::TopDown), &BfsConfig::paper())
                .unwrap()
                .parent,
            root,
        )
        .unwrap();

        let mut opts = small_options();
        opts.page_cache_bytes = Some(16 * 4096); // 16 pages: thrashes
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, opts).unwrap();
        let run = data
            .run(root, &FixedPolicy(Direction::TopDown), &BfsConfig::paper())
            .unwrap();
        let got = sembfs_graph500::validate::compute_levels(&run.parent, root).unwrap();
        assert_eq!(got, expect, "cache must never change results");
        assert!(
            data.device().unwrap().snapshot().requests > 0,
            "a thrashing cache must reach the device"
        );
    }

    #[test]
    fn access_path_governs_cached_and_tail_stores_without_changing_traffic() {
        let el = kron(10);
        let run = |access_path| {
            let opts = ScenarioOptions {
                backward_offload_k: Some(2),
                page_cache_bytes: Some(64 * 4096),
                access_path,
                ..small_options()
            };
            let data = ScenarioData::build(&el, Scenario::DramPcieFlash, opts).unwrap();
            let root = select_roots(data.num_vertices(), 1, 9, |v| data.degree(v))[0];
            let cfg = BfsConfig::paper().with_threads(1);
            let td = data.run(root, &FixedPolicy(Direction::TopDown), &cfg);
            let best = data.run(root, &Scenario::DramPcieFlash.best_policy(), &cfg);
            let io = data.device().unwrap().snapshot();
            let cache = data.page_cache().unwrap().stats();
            (
                td.unwrap().parent,
                best.unwrap().parent,
                (io.requests, io.bytes, io.sectors),
                cache,
            )
        };
        let pread = run(AccessPath::Pread);
        let (_, _, (requests, _, _), _) = pread;
        assert!(requests > 0, "the layout must reach the device");
        assert_eq!(run(AccessPath::Mmap), pread);
    }

    #[test]
    fn faulted_scenario_heals_to_the_fault_free_tree() {
        let el = kron(9);
        let base = ScenarioData::build(&el, Scenario::DramPcieFlash, small_options()).unwrap();
        let root = select_roots(base.csr().num_vertices(), 1, 7, |v| base.degree(v))[0];
        let expect = base
            .run(root, &FixedPolicy(Direction::TopDown), &BfsConfig::paper())
            .unwrap();

        let mut opts = small_options();
        // Generous retry budget: the equivalence claim is conditional on
        // retries succeeding (see `faulted_read`); at these rates the odds
        // of an 11-deep fault chain are negligible.
        opts.fault_plan =
            Some(FaultPlan::parse("seed=42,eio=0.1,corrupt=0.05,retries=10").unwrap());
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, opts).unwrap();
        let run = data
            .run(root, &FixedPolicy(Direction::TopDown), &BfsConfig::paper())
            .unwrap();
        assert_eq!(
            run.parent, expect.parent,
            "healed run must be bit-identical"
        );

        let snap = data.device().unwrap().faults().unwrap().snapshot();
        assert!(snap.eio > 0, "plan must actually inject");
        assert!(snap.corrupt > 0);
        assert_eq!(
            snap.checksum_failures, snap.corrupt,
            "every injected corruption must be caught by the page checksums"
        );
    }

    #[test]
    fn fault_counters_are_reproducible_across_builds() {
        let el = kron(9);
        let spec = "seed=7,eio=0.08,corrupt=0.04,retries=10";
        let snap = |_: u32| {
            let mut opts = small_options();
            opts.fault_plan = Some(FaultPlan::parse(spec).unwrap());
            let data = ScenarioData::build(&el, Scenario::DramSsd, opts).unwrap();
            let root = select_roots(data.csr().num_vertices(), 1, 3, |v| data.degree(v))[0];
            data.run(root, &FixedPolicy(Direction::TopDown), &BfsConfig::paper())
                .unwrap();
            let s = data.device().unwrap().faults().unwrap().snapshot();
            (s.eio, s.corrupt, s.stall, s.retries, s.checksum_failures)
        };
        let a = snap(0);
        let b = snap(1);
        assert!(a.0 + a.1 > 0, "plan must inject");
        assert_eq!(a, b, "same seed + same workload ⇒ same fault sequence");
    }

    #[test]
    fn size_accounting_consistent() {
        let el = kron(9);
        let data = ScenarioData::build(&el, Scenario::DramPcieFlash, small_options()).unwrap();
        assert_eq!(data.nvm_bytes(), data.forward_bytes());
        assert!(data.backward_dram_bytes() > 0);
        assert!(data.status_bytes() > 0);
    }
}
