//! Memory-timeline sampling — the psutil/pynvml substitute.
//!
//! The paper samples system and GPU memory once per second during training
//! (§3.1) and plots the timelines in Figs 2 and 6. Here, the workflow code
//! calls [`MemTimeline::sample`] at the same milestones (after load, after
//! each preprocessing stage, per training step); the x-axis is normalized
//! progress, exactly like the figures.
//!
//! This module also hosts [`KernelSplit`], a thin profiler view over the
//! per-thread kernel-time counters that `st_tensor`'s compute backends
//! maintain (see [`st_tensor::backend::kernel_secs`]). The trainer snapshots
//! the counters at epoch boundaries to attribute wall time to GEMM, spmm,
//! or elementwise work.

use crate::memory::MemPool;

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

/// A labeled sequence of (progress, bytes) samples for one pool.
#[derive(Debug, Clone)]
pub struct MemTimeline {
    label: String,
    samples: Vec<(f64, u64)>,
    oom_at: Option<f64>,
}

impl MemTimeline {
    /// New empty timeline.
    pub fn new(label: impl Into<String>) -> Self {
        MemTimeline {
            label: label.into(),
            samples: Vec::new(),
            oom_at: None,
        }
    }

    /// Record the pool's current usage at `progress` ∈ [0, 1].
    pub fn sample(&mut self, progress: f64, pool: &MemPool) {
        self.samples.push((progress, pool.in_use()));
    }

    /// Record a raw byte value at `progress`.
    pub fn sample_bytes(&mut self, progress: f64, bytes: u64) {
        self.samples.push((progress, bytes));
    }

    /// Mark that the workflow crashed with OOM at `progress`.
    pub fn mark_oom(&mut self, progress: f64) {
        self.oom_at = Some(progress);
    }

    /// Timeline label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[(f64, u64)] {
        &self.samples
    }

    /// Progress at which OOM occurred, if it did.
    pub fn oom_at(&self) -> Option<f64> {
        self.oom_at
    }

    /// Peak bytes over the timeline.
    pub fn peak(&self) -> u64 {
        self.samples.iter().map(|&(_, b)| b).max().unwrap_or(0)
    }

    /// Render as rows of `progress%, GiB` for the report tables.
    pub fn rows_gib(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|&(p, b)| (p * 100.0, b as f64 / (1u64 << 30) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_track_pool_usage() {
        let pool = MemPool::new("host", 1000);
        let mut tl = MemTimeline::new("test");
        tl.sample(0.0, &pool);
        let _a = pool.alloc(600).unwrap();
        tl.sample(0.5, &pool);
        tl.sample(1.0, &pool);
        assert_eq!(tl.samples(), &[(0.0, 0), (0.5, 600), (1.0, 600)]);
        assert_eq!(tl.peak(), 600);
    }

    #[test]
    fn oom_marker() {
        let mut tl = MemTimeline::new("pems");
        tl.sample_bytes(0.1, 100);
        tl.mark_oom(0.15);
        assert_eq!(tl.oom_at(), Some(0.15));
    }

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

    #[test]
    fn gib_rows() {
        let mut tl = MemTimeline::new("x");
        tl.sample_bytes(0.5, 2 << 30);
        let rows = tl.rows_gib();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].0 - 50.0).abs() < 1e-9);
        assert!((rows[0].1 - 2.0).abs() < 1e-9);
    }
}
