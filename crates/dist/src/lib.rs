//! `sembfs-dist` — the paper's multi-node future work, simulated.
//!
//! §VIII: "Future work includes … applying our technique to multi-node
//! environments", citing Beamer et al.'s distributed direction-optimizing
//! BFS (MTAAP'13). This crate models that extension as a **simulated
//! cluster**: `p` nodes own contiguous vertex ranges (1-D partition), and
//! every node holds the adjacency of its own vertices — in DRAM, or with
//! the forward copy offloaded to NVM exactly like the single-node
//! scenarios.
//!
//! The search is the core engine's, run once on a layout with one NUMA
//! domain per node, so its trees are the canonical ones of every other
//! searcher. The communication a real cluster would need is derived from
//! the finished tree:
//!
//! * **top-down**: each node expands its local slice of the frontier and
//!   sends `(child, parent)` claims to the child's owner;
//! * **bottom-up**: the frontier bitmap is allgathered, then each node
//!   probes only its local unvisited vertices.
//!
//! The network is a model ([`NetworkProfile`]) that accounts bytes and
//! rounds and charges `latency + bytes/bandwidth` per level; node compute
//! is the measured step time split evenly over the nodes. The result is a
//! *simulated* wall time and TEPS plus exact traffic statistics — enough
//! to study how the semi-external technique composes with scale-out,
//! without owning a cluster.

pub mod bfs;
pub mod cluster;
pub mod network;

pub use bfs::{dist_hybrid_bfs, DistBfsRun, DistLevelStats};
pub use cluster::{ClusterSpec, DistGraph};
pub use network::{NetStats, NetworkProfile};

pub use sembfs_graph500::{VertexId, INVALID_PARENT};
