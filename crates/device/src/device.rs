//! Device identities and hardware specifications.
//!
//! The specs mirror a Polaris compute node (§3.1 of the paper): a 32-core
//! AMD EPYC Milan host with 512 GB DDR4 and four NVIDIA A100-40GB GPUs.

/// Which device a buffer or computation lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Host CPU + system memory.
    Host,
    /// A GPU, identified by its index within the compute node.
    Gpu(u32),
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Host => write!(f, "host"),
            DeviceKind::Gpu(i) => write!(f, "gpu{i}"),
        }
    }
}

/// Hardware description used by the cost model and memory pools.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: String,
    /// Memory capacity in bytes.
    pub mem_capacity: u64,
    /// Sustained FP32 throughput in FLOP/s (effective, not peak).
    pub flops: f64,
    /// Sustained memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
}

impl DeviceSpec {
    /// A Polaris host: 512 GB DDR4, EPYC Milan-class compute.
    pub fn polaris_host() -> Self {
        DeviceSpec {
            name: "AMD EPYC Milan 7543P (512 GB)".into(),
            mem_capacity: 512 * GIB,
            flops: 1.5e12,          // ~32 cores × AVX2 FMA, effective
            mem_bandwidth: 150.0e9, // 8-channel DDR4
        }
    }

    /// An NVIDIA A100-40GB (effective FP32 rates, not tensor-core peak).
    pub fn a100_40gb() -> Self {
        DeviceSpec {
            name: "NVIDIA A100-SXM4-40GB".into(),
            mem_capacity: 40 * GIB,
            flops: 14.0e12,        // effective FP32 on GEMM-like kernels
            mem_bandwidth: 1.3e12, // HBM2e, effective
        }
    }

    /// Capacity in GiB (for reports).
    pub fn capacity_gib(&self) -> f64 {
        self.mem_capacity as f64 / GIB as f64
    }
}

/// One binary gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// One binary mebibyte.
pub const MIB: u64 = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polaris_specs_match_paper_hardware() {
        let host = DeviceSpec::polaris_host();
        assert_eq!(host.mem_capacity, 512 * GIB, "paper: 512 GB of DDR4 RAM");
        let gpu = DeviceSpec::a100_40gb();
        assert_eq!(
            gpu.mem_capacity,
            40 * GIB,
            "paper: A100 40 GB (Table 2 shows /40)"
        );
        assert!(gpu.flops > host.flops, "GPU must out-compute the host");
    }

    #[test]
    fn device_kind_display() {
        assert_eq!(DeviceKind::Host.to_string(), "host");
        assert_eq!(DeviceKind::Gpu(2).to_string(), "gpu2");
    }
}
