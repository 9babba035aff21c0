//! Analytic compute / transfer / network / I/O cost model.
//!
//! Calibrated to the paper's platform (§3.1): A100 GPUs, PCIe Gen4 host
//! links, NVLink within a node, Slingshot-11 between nodes, and a Lustre
//! parallel filesystem read at its mean bandwidth. Absolute seconds are
//! projections, but the *ratios* between compute, transfer and network
//! terms are what shape Figs 7 and 9, and those come from the relative
//! magnitudes of these constants.

/// Cost-model constants (all rates are "effective", not peak).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// GPU FP32 throughput for GEMM-like kernels, FLOP/s.
    pub gpu_flops: f64,
    /// Host ↔ device transfer bandwidth (PCIe Gen4 x16), bytes/s.
    pub pcie_bw: f64,
    /// Per-transfer launch latency, seconds.
    pub pcie_latency: f64,
    /// Intra-node GPU ↔ GPU bandwidth (NVLink-class), bytes/s.
    pub nvlink_bw: f64,
    /// Inter-node network bandwidth per NIC (Slingshot-class), bytes/s.
    pub network_bw: f64,
    /// Per-message network latency, seconds.
    pub network_latency: f64,
    /// Parallel filesystem read bandwidth, bytes/s (mean).
    pub pfs_read_bw: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::polaris()
    }
}

impl CostModel {
    /// Constants approximating ALCF Polaris.
    pub fn polaris() -> Self {
        CostModel {
            gpu_flops: 14.0e12,
            pcie_bw: 24.0e9,
            pcie_latency: 10e-6,
            nvlink_bw: 250.0e9,
            network_bw: 22.0e9,
            network_latency: 2.5e-6,
            pfs_read_bw: 2.5e9,
        }
    }

    /// Seconds to move `bytes` host → device (or back) over PCIe.
    pub fn h2d(&self, bytes: u64) -> f64 {
        self.pcie_latency + bytes as f64 / self.pcie_bw
    }

    /// Seconds for a ring all-reduce of `bytes` across `world` ranks, where
    /// `ranks_per_node` determines whether the ring crosses the network.
    ///
    /// Ring all-reduce moves `2 (W-1)/W × bytes` per rank; the bottleneck
    /// link is NVLink when the ring stays in one node and the NIC otherwise.
    pub fn allreduce(&self, bytes: u64, world: usize, ranks_per_node: usize) -> f64 {
        if world <= 1 {
            return 0.0;
        }
        let w = world as f64;
        let volume = 2.0 * (w - 1.0) / w * bytes as f64;
        let bw = if world <= ranks_per_node {
            self.nvlink_bw
        } else {
            self.network_bw
        };
        let steps = 2.0 * (w - 1.0);
        steps * self.network_latency + volume / bw
    }

    /// Seconds to gather `bytes` from a remote rank (one request/response).
    pub fn remote_fetch(&self, bytes: u64, same_node: bool) -> f64 {
        let bw = if same_node {
            self.nvlink_bw
        } else {
            self.network_bw
        };
        2.0 * self.network_latency + bytes as f64 / bw
    }

    /// Seconds to read `bytes` from the parallel filesystem at its mean
    /// bandwidth.
    pub fn pfs_read(&self, bytes: u64) -> f64 {
        bytes as f64 / self.pfs_read_bw
    }

    /// Modeled `(fetch, compute)` seconds for one serving micro-batch:
    /// a cross-shard halo read of `halo_bytes` (zero bytes cost zero — an
    /// unsharded deployment never touches the network) followed by a
    /// batched forward of `flops`. The serving scheduler prices admission
    /// decisions and the shard executor prices its deadline streams with
    /// the **same** call, so a request is shed exactly when the model that
    /// will serve it says its SLO cannot be met.
    pub fn micro_batch_secs(&self, halo_bytes: u64, flops: f64) -> (f64, f64) {
        let fetch = if halo_bytes > 0 {
            self.remote_fetch(halo_bytes, false)
        } else {
            0.0
        };
        (fetch, flops / self.gpu_flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h2d_dominated_by_bandwidth_for_large_buffers() {
        let cm = CostModel::polaris();
        let t = cm.h2d(24_000_000_000); // 24 GB at 24 GB/s ≈ 1 s
        assert!((t - 1.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn consolidated_transfer_beats_per_batch() {
        // The GPU-index-batching argument in miniature: one 8 GiB transfer
        // is cheaper than 10k transfers of 0.8 MiB because of latency.
        let cm = CostModel::polaris();
        let chatty = 10_000.0 * cm.h2d((8 << 30) / 10_000);
        assert!(cm.h2d(8 << 30) < chatty);
    }

    #[test]
    fn allreduce_zero_for_single_rank() {
        let cm = CostModel::polaris();
        assert_eq!(cm.allreduce(1 << 20, 1, 4), 0.0);
    }

    #[test]
    fn allreduce_slower_across_nodes() {
        let cm = CostModel::polaris();
        let intra = cm.allreduce(100 << 20, 4, 4);
        let inter = cm.allreduce(100 << 20, 8, 4);
        assert!(inter > intra, "crossing the NIC must cost more");
    }

    #[test]
    fn allreduce_volume_saturates_with_world_size() {
        // 2(W-1)/W approaches 2: cost grows sublinearly in W.
        let cm = CostModel::polaris();
        let w8 = cm.allreduce(1 << 30, 8, 4);
        let w128 = cm.allreduce(1 << 30, 128, 4);
        assert!(w128 < w8 * 1.5, "w8={w8}, w128={w128}");
    }

    #[test]
    fn micro_batch_pricing_matches_its_parts() {
        let cm = CostModel::polaris();
        let (fetch, compute) = cm.micro_batch_secs(1 << 20, 2.0e9);
        assert_eq!(fetch, cm.remote_fetch(1 << 20, false));
        assert_eq!(compute, 2.0e9 / cm.gpu_flops);
        // No halo bytes ⇒ no fetch term at all (not even message latency).
        let (fetch0, _) = cm.micro_batch_secs(0, 1.0e9);
        assert_eq!(fetch0, 0.0);
    }

    #[test]
    fn pfs_read_is_linear_in_bytes() {
        let cm = CostModel::polaris();
        assert_eq!(cm.pfs_read(0), 0.0);
        assert_eq!(cm.pfs_read(5_000_000_000), 2.0, "5 GB at 2.5 GB/s");
        let one = cm.pfs_read(10 << 30);
        assert_eq!(
            cm.pfs_read(20 << 30),
            2.0 * one,
            "twice the bytes, twice the time"
        );
    }
}
