//! Cluster shape: how many ranks share a node (and therefore NVLink).

/// Shape of the simulated cluster. Ranks are packed onto nodes in order:
/// ranks `[k·g, (k+1)·g)` share node `k` for `g = gpus_per_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterTopology {
    /// Ranks (GPUs) per node; intra-node traffic rides NVLink.
    pub gpus_per_node: usize,
}

impl ClusterTopology {
    /// A topology with `gpus_per_node` ranks per node.
    pub fn new(gpus_per_node: usize) -> Self {
        assert!(gpus_per_node > 0, "nodes must hold at least one rank");
        ClusterTopology { gpus_per_node }
    }

    /// ALCF Polaris: 4 × A100 per node (§3.1).
    pub fn polaris() -> Self {
        ClusterTopology::new(4)
    }

    /// Node index hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_node
    }

    /// Whether two ranks share a node (traffic stays on NVLink).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

impl Default for ClusterTopology {
    fn default() -> Self {
        ClusterTopology::polaris()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polaris_packs_four_per_node() {
        let t = ClusterTopology::polaris();
        assert!(t.same_node(0, 3));
        assert!(!t.same_node(3, 4));
        assert_eq!(t.node_of(9), 2);
    }
}
