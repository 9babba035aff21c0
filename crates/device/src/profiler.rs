//! Kernel-time profiling: [`KernelSplit`], a thin view over the
//! per-thread kernel-time counters that `st_tensor`'s compute backends
//! maintain (see [`st_tensor::backend::kernel_secs`]). The trainer
//! snapshots the counters at epoch boundaries to attribute wall time to
//! GEMM, spmm, or elementwise work.

/// Cumulative kernel seconds by class, as reported by the calling thread's
/// `st_tensor` backend counters, and how often its kernels used the
/// intra-op thread pool.
///
/// Snapshots are *cumulative marks*; subtract two of them
/// ([`KernelSplit::since`]) to get the time spent inside each kernel class
/// over an interval — the same mark/delta idiom the engine uses for comm
/// time. Counters are thread-local, so take both marks on the thread that
/// ran the compute (each engine rank runs on its own thread).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelSplit {
    /// Seconds inside dense matmul/bmm kernels.
    pub gemm_secs: f64,
    /// Seconds inside sparse×dense (CSR spmm) kernels.
    pub spmm_secs: f64,
    /// Seconds inside elementwise map/zip and fused gate kernels.
    pub elementwise_secs: f64,
    /// Data-parallel kernel calls this thread split over the intra-op pool
    /// ([`st_tensor::par::dispatch_calls`]): zero means its width was 1 or
    /// no call reached the threshold.
    pub pooled_calls: u64,
    /// Data-parallel kernel calls this thread ran inline.
    pub inline_calls: u64,
}

impl KernelSplit {
    /// Snapshot the calling thread's cumulative kernel-time counters.
    pub fn snapshot() -> Self {
        let [gemm, spmm, elementwise] = st_tensor::backend::kernel_secs();
        let [pooled, inline] = st_tensor::par::dispatch_calls();
        KernelSplit {
            gemm_secs: gemm,
            spmm_secs: spmm,
            elementwise_secs: elementwise,
            pooled_calls: pooled,
            inline_calls: inline,
        }
    }

    /// Per-class delta from an earlier snapshot on the same thread.
    pub fn since(&self, mark: &KernelSplit) -> KernelSplit {
        KernelSplit {
            gemm_secs: self.gemm_secs - mark.gemm_secs,
            spmm_secs: self.spmm_secs - mark.spmm_secs,
            elementwise_secs: self.elementwise_secs - mark.elementwise_secs,
            pooled_calls: self.pooled_calls - mark.pooled_calls,
            inline_calls: self.inline_calls - mark.inline_calls,
        }
    }

    /// Total seconds across all kernel classes.
    pub fn total_secs(&self) -> f64 {
        self.gemm_secs + self.spmm_secs + self.elementwise_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_split_snapshot_and_delta() {
        let before = KernelSplit::snapshot();
        // Drive a real kernel so the gemm counter moves on this thread.
        let a = st_tensor::Tensor::ones([24, 24]);
        let _ = st_tensor::ops::matmul(&a, &a).unwrap();
        let after = KernelSplit::snapshot();
        let delta = after.since(&before);
        assert!(
            delta.pooled_calls + delta.inline_calls >= 1,
            "a matmul makes a dispatch decision"
        );
        assert!(delta.gemm_secs >= 0.0);
        assert!(after.gemm_secs >= before.gemm_secs);
        assert!(
            (delta.total_secs() - (delta.gemm_secs + delta.spmm_secs + delta.elementwise_secs))
                .abs()
                < 1e-12
        );
    }
}
