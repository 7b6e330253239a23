//! CSR graph structures for `sembfs` — Graph500 Step 2.
//!
//! NETAL (§IV-A) holds **two** CSR graphs: the *forward graph* used by the
//! top-down phase and the *backward graph* used by the bottom-up phase,
//! both partitioned across NUMA domains (§V-B2, Fig. 6):
//!
//! * the **forward graph** partitions each vertex's *neighbors* by the
//!   domain that owns them — domain `k` holds, for every source vertex, the
//!   sub-list of neighbors living in `k`'s vertex range, so a thread bound
//!   to `k` only ever writes vertices it owns;
//! * the **backward graph** partitions the *source vertices* by range —
//!   domain `k` holds the full adjacency of its own vertices, so the
//!   bottom-up scan is entirely domain-local.
//!
//! Both exist in DRAM forms and (for the forward graph and the backward
//! graph's cold tail) semi-external forms backed by `sembfs-semext`.

pub mod backward;
pub mod builder;
pub mod degree;
pub mod forward;
pub mod graph;
pub mod neighbors;
pub mod relabel;

pub use backward::{BackwardGraph, SplitBackwardGraph};
pub use builder::{build_csr, BuildOptions};
pub use degree::DegreeStats;
pub use forward::{write_forward_files, DramForwardGraph, ExtForwardGraph};
pub use graph::CsrGraph;
pub use neighbors::{DomainNeighbors, NeighborCtx};
pub use relabel::Relabeling;

pub use sembfs_graph500::VertexId;
