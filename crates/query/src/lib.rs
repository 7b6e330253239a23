//! `sembfs-query` — a concurrent path-query engine over one shared
//! semi-external graph.
//!
//! The rest of the workspace runs one whole-graph BFS at a time; this
//! crate turns a built [`sembfs_core::ScenarioData`] into a resident
//! *engine* (FlashGraph-style) answering many small point queries
//! concurrently:
//!
//! * [`Query::ShortestPath`] — bidirectional BFS: two searches of the
//!   core level loop stepped toward each other, the source side over the
//!   forward (possibly NVM-resident) store and the destination side over
//!   the DRAM backward graph; one path, the same on every layout ([`bidir`]).
//! * [`Query::Distance`], [`Query::Reachable`] — the same search, no path.
//! * [`Query::Neighborhood`] — ring counts around a vertex: the level loop
//!   cut off at the depth ([`sembfs_core::hybrid_bfs_rings`]).
//!
//! [`QueryEngine`] owns a worker pool over a *bounded* submission queue
//! (admission control: full ⇒ typed [`QueryError::Overloaded`], never
//! unbounded queueing), an LRU result cache keyed on the canonicalized
//! endpoint pair ([`result_cache`]), and per-query/aggregate metrics —
//! log-bucket latency histogram, QPS, global page-cache hit-rate delta,
//! NVM bytes per query — surfaced as a [`QueryStats`] report
//! ([`metrics`]). Workers share the scenario's sharded page cache and
//! simulated device; the engine has no read path of its own, every list
//! is read by the BFS kernels. Every search of the engine runs on one
//! step worker ([`search_config`]): the engine's parallelism is across
//! queries.

pub mod bidir;
pub mod engine;
pub mod metrics;
pub mod result_cache;
pub mod workload;

pub use bidir::{bidirectional_search, neighborhood, search_config};
pub use engine::{EngineConfig, QueryEngine, QueryError, Response};
pub use metrics::{LatencyHistogram, QueryStats};
pub use result_cache::ResultCache;
pub use sembfs_core::BidirOutcome;
pub use workload::{QueryMix, ZipfSampler};

use sembfs_graph500::VertexId;

/// A typed request against the engine's graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Shortest path between two vertices (bidirectional BFS with path
    /// reconstruction).
    ShortestPath {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Hop distance from `src` to `dst` (bidirectional, no path).
    Distance {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Whether `dst` is reachable from `src` (bidirectional, no path).
    Reachable {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Sizes of the BFS rings around `v` up to `depth` hops.
    Neighborhood {
        /// Center vertex.
        v: VertexId,
        /// Maximum hop count (ring index) to expand to.
        depth: u32,
    },
}

impl Query {
    /// The two endpoints, when the query has a pair shape.
    pub fn endpoints(&self) -> Option<(VertexId, VertexId)> {
        match *self {
            Query::ShortestPath { src, dst }
            | Query::Distance { src, dst }
            | Query::Reachable { src, dst } => Some((src, dst)),
            Query::Neighborhood { .. } => None,
        }
    }

    /// Largest vertex id the query mentions (for admission range checks).
    pub fn max_vertex(&self) -> VertexId {
        match *self {
            Query::ShortestPath { src, dst }
            | Query::Distance { src, dst }
            | Query::Reachable { src, dst } => src.max(dst),
            Query::Neighborhood { v, .. } => v,
        }
    }

    /// Short label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::ShortestPath { .. } => "path",
            Query::Distance { .. } => "distance",
            Query::Reachable { .. } => "reachable",
            Query::Neighborhood { .. } => "neighborhood",
        }
    }
}

/// The answer to a [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// A shortest path: `vertices.len() == distance + 1`, starting at the
    /// query's `src` and ending at its `dst`.
    Path {
        /// Hop count.
        distance: u32,
        /// The path's vertex sequence, `src` first.
        vertices: Vec<VertexId>,
    },
    /// No path exists between the endpoints.
    NoPath,
    /// Hop distance (`None` when unreachable).
    Distance(Option<u32>),
    /// Reachability verdict.
    Reachable(bool),
    /// `counts[d]` = vertices exactly `d` hops from the center (ring 0 is
    /// the center itself).
    Neighborhood {
        /// Per-ring vertex counts.
        counts: Vec<u64>,
    },
}

impl QueryResult {
    /// The distance this result implies, when it has one.
    pub fn distance(&self) -> Option<u32> {
        match self {
            QueryResult::Path { distance, .. } => Some(*distance),
            QueryResult::Distance(d) => *d,
            _ => None,
        }
    }
}
