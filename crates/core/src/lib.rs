//! `sembfs-core` — the hybrid BFS with semi-external memory of
//! Iwabuchi et al. (IPPS 2014).
//!
//! The algorithm (§III) combines a **top-down** step (expand the frontier
//! through the forward graph) with a **bottom-up** step (let unvisited
//! vertices search the frontier through the backward graph), switching
//! directions by the frontier-size thresholds α and β (§III-C). The
//! paper's contribution (§V) is the *data layout*: the forward graph —
//! touched only while the frontier is small — is offloaded to NVM, while
//! the backward graph and BFS status data stay in DRAM, NUMA-partitioned.
//!
//! Layer map:
//!
//! * [`bitmap`], [`frontier`], [`tree`] — BFS status data (§IV-A):
//!   visited/frontier bitmaps, queues, the parent tree.
//! * [`topdown`], [`bottomup`] — the two step kernels, generic over where
//!   their graph lives (DRAM or metered NVM). Both run on explicit
//!   work-stealing workers and give every vertex its smallest
//!   previous-level neighbor as parent (a `fetch_min` claim top-down, the
//!   first hit on a sorted adjacency list bottom-up), so the tree is
//!   bit-identical to [`reference_bfs`] at any thread count
//!   (`BfsConfig::threads`).
//! * [`policy`] — direction-switching: the paper's α/β rule, fixed
//!   directions (the Fig. 8 baselines), and a Beamer-style edge rule
//!   (ablation, and every search of the query engine).
//! * [`hybrid`] — the level-synchronous driver with per-level
//!   instrumentation ([`level_stats`]), stepped once for a whole-graph
//!   search and twice, toward each other, for a point-to-point one.
//! * [`mod@reference`] — the serial Graph500-reference-style BFS baseline.
//! * [`scenario`] — Table I's machine scenarios: *DRAM-only*,
//!   *DRAM+PCIeFlash*, *DRAM+SSD*; builds the full data layout and runs
//!   any searcher on it.

pub mod bitmap;
pub mod bottomup;
pub mod energy;
pub mod frontier;
pub mod hybrid;
pub mod level_stats;
pub mod policy;
pub mod reference;
pub mod scenario;
pub mod topdown;
pub mod tree;
mod workers;

pub use bitmap::AtomicBitmap;
pub use bottomup::{par_bottom_up_step, BottomUpSource, SearchOutcome};
pub use energy::PowerModel;
pub use hybrid::{
    bidirectional, hybrid_bfs, hybrid_bfs_distances, hybrid_bfs_rings, BfsConfig, BfsRun,
    BidirOutcome, DistanceRun,
};
pub use level_stats::{Direction, LevelStats};
pub use policy::{
    AlphaBetaPolicy, BeamerPolicy, DirectionPolicy, FixedPolicy, PolicyCtx, PolicyEvent,
};
pub use reference::reference_bfs;
pub use scenario::{AccessPath, Scenario, ScenarioData, ScenarioOptions};
pub use topdown::par_top_down_step;
pub use tree::status_data_bytes;

pub use sembfs_graph500::{VertexId, INVALID_PARENT};
