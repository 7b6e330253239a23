//! The simulated cluster: one core layout whose `p` NUMA domains are the
//! nodes.

use std::sync::Arc;

use sembfs_core::{Scenario, ScenarioData, ScenarioOptions};
use sembfs_graph500::edge_list::EdgeList;
use sembfs_numa::{RangePartition, Topology};
use sembfs_semext::{DelayMode, Device, DeviceProfile, Result};

use crate::network::NetworkProfile;
use crate::VertexId;

/// Configuration of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of nodes `p` (1-D vertex partition).
    pub nodes: usize,
    /// Interconnect model.
    pub network: NetworkProfile,
    /// When set, the nodes offload their forward adjacency to a device of
    /// this profile — the paper's technique applied per node.
    pub node_nvm: Option<DeviceProfile>,
    /// Whether the device really delays (affects measured compute).
    pub delay_mode: DelayMode,
}

impl ClusterSpec {
    /// An all-DRAM cluster over an ideal network (pure algorithm study).
    pub fn dram(nodes: usize) -> Self {
        Self {
            nodes,
            network: NetworkProfile::ideal(),
            node_nvm: None,
            delay_mode: DelayMode::Accounting,
        }
    }

    /// Every node carries a PCIe-flash model for its adjacency, talking
    /// over InfiniBand — the scaled-out version of DRAM+PCIeFlash.
    pub fn flash_cluster(nodes: usize) -> Self {
        Self {
            nodes,
            network: NetworkProfile::infiniband_qdr(),
            node_nvm: Some(DeviceProfile::iodrive2()),
            delay_mode: DelayMode::Throttled,
        }
    }
}

/// The partitioned graph: one [`ScenarioData`] with one NUMA domain per
/// node, so node `k` owns domain `k`'s vertex range. Without NVM it is
/// the DRAM-only layout; with NVM, the DRAM+PCIeFlash layout on the
/// spec's device profile (forward graph on the device, backward graph in
/// DRAM — §V-A applied at every node).
///
/// ```
/// use sembfs_dist::{dist_hybrid_bfs, ClusterSpec, DistGraph};
/// use sembfs_core::AlphaBetaPolicy;
/// use sembfs_graph500::edge_list::MemEdgeList;
///
/// let edges = MemEdgeList::new(8, (0..7).map(|i| (i, i + 1)).collect());
/// let graph = DistGraph::build(&edges, ClusterSpec::dram(4)).unwrap();
/// let run = dist_hybrid_bfs(&graph, 0, &AlphaBetaPolicy::new(1e3, 1e3)).unwrap();
/// assert_eq!(run.visited, 8);
/// assert!(run.net.bytes > 0); // the frontier crossed node boundaries
/// ```
#[derive(Debug)]
pub struct DistGraph {
    spec: ClusterSpec,
    data: ScenarioData,
}

impl DistGraph {
    /// Build the cluster's layout from `edges` (Graph500 Step 2).
    pub fn build(edges: &dyn EdgeList, spec: ClusterSpec) -> Result<Self> {
        assert!(spec.nodes > 0, "cluster needs at least one node");
        let scenario = match spec.node_nvm {
            Some(_) => Scenario::DramPcieFlash,
            None => Scenario::DramOnly,
        };
        let options = ScenarioOptions {
            topology: Topology::new(spec.nodes, 1),
            delay_mode: spec.delay_mode,
            device_profile_override: spec.node_nvm.clone(),
            ..Default::default()
        };
        let data = ScenarioData::build(edges, scenario, options)?;
        Ok(Self { spec, data })
    }

    /// The cluster configuration.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The layout every search runs on.
    pub fn data(&self) -> &ScenarioData {
        &self.data
    }

    /// The vertex partition (node `k` owns `partition.range(k)`).
    pub fn partition(&self) -> &RangePartition {
        self.data.partition()
    }

    /// Number of nodes `p`.
    pub fn num_nodes(&self) -> usize {
        self.spec.nodes
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        self.data.num_vertices()
    }

    /// Owner node of vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        self.partition().domain_of(v as u64)
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.data.degree(v)
    }

    /// The simulated device, when the nodes offload (one model meters
    /// every node's reads).
    pub fn device(&self) -> Option<&Arc<Device>> {
        self.data.device()
    }

    /// Bytes of node `k`'s adjacency rows as a CSR of its own:
    /// `8·(rows+1)` of index plus `4·edges` of values.
    fn node_adjacency_bytes(&self, k: usize) -> u64 {
        let range = self.partition().range(k);
        let index = self.data.csr().index();
        let edges = index[range.end as usize] - index[range.start as usize];
        8 * (range.end - range.start + 1) + 4 * edges
    }

    /// Adjacency bytes node `k` holds in DRAM: its rows, which serve both
    /// directions, or the backward copy when the forward one is offloaded.
    pub fn node_dram_bytes(&self, k: usize) -> u64 {
        self.node_adjacency_bytes(k)
    }

    /// Adjacency bytes node `k` holds on its device: the forward copy of
    /// its rows, or 0 without NVM.
    pub fn node_nvm_bytes(&self, k: usize) -> u64 {
        match self.spec.node_nvm {
            Some(_) => self.node_adjacency_bytes(k),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_hybrid_bfs;
    use sembfs_core::{Direction, FixedPolicy};
    use sembfs_graph500::edge_list::MemEdgeList;
    use sembfs_graph500::{select_roots, KroneckerParams};

    fn sample() -> MemEdgeList {
        MemEdgeList::new(8, vec![(0, 1), (1, 5), (2, 6), (3, 7), (4, 5), (6, 7)])
    }

    #[test]
    fn partitions_rows_correctly() {
        let g = DistGraph::build(&sample(), ClusterSpec::dram(2)).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.partition().range(0), 0..4);
        // Node 0 holds rows 0..4 with 5 edge entries, node 1 rows 4..8
        // with 7: 8·(4+1) index bytes plus 4 bytes per entry.
        assert_eq!(g.node_dram_bytes(0), 40 + 20);
        assert_eq!(g.node_dram_bytes(1), 40 + 28);
        assert_eq!(g.node_nvm_bytes(0), 0);
    }

    #[test]
    fn degrees_are_global() {
        let g = DistGraph::build(&sample(), ClusterSpec::dram(3)).unwrap();
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(5), 2);
        assert_eq!(g.owner(7), 2);
    }

    #[test]
    fn nvm_nodes_have_devices_and_match_dram() {
        let el = KroneckerParams::graph500(8, 5).generate();
        let dram = DistGraph::build(&el, ClusterSpec::dram(2)).unwrap();
        let mut spec = ClusterSpec::flash_cluster(2);
        spec.delay_mode = DelayMode::Accounting;
        let nvm = DistGraph::build(&el, spec).unwrap();
        assert!(nvm.device().is_some());
        assert!(dram.device().is_none());
        for k in 0..2 {
            // The forward copy is offloaded, the backward copy stays in
            // DRAM (the paper's per-node layout).
            assert!(nvm.node_nvm_bytes(k) > 0);
            assert_eq!(nvm.node_dram_bytes(k), nvm.node_nvm_bytes(k));
            assert_eq!(nvm.node_dram_bytes(k), dram.node_dram_bytes(k));
        }
        // A top-down search reads the device and finds the DRAM tree.
        let root = select_roots(dram.num_vertices(), 1, 2, |v| dram.degree(v))[0];
        let policy = FixedPolicy(Direction::TopDown);
        let a = dist_hybrid_bfs(&dram, root, &policy).unwrap();
        let b = dist_hybrid_bfs(&nvm, root, &policy).unwrap();
        assert_eq!(a.parent, b.parent);
        assert!(nvm.device().unwrap().snapshot().requests > 0);
    }

    #[test]
    fn single_node_cluster_is_whole_graph() {
        let g = DistGraph::build(&sample(), ClusterSpec::dram(1)).unwrap();
        assert_eq!(g.partition().range(0), 0..8);
        assert_eq!(g.owner(7), 0);
    }
}
