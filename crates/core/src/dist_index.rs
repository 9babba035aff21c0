//! Distributed-index-batching (§4.2).
//!
//! Every worker holds a **full local copy** of the (index-batched) dataset —
//! affordable only because of eq. (2) — so global shuffling needs no
//! communication: each epoch, all workers derive the same shared-seed
//! permutation and take their stripe. The only inter-worker traffic is the
//! DDP gradient all-reduce (plus tiny metric reductions), which is exactly
//! the property that separates the right panel of Fig. 7 from the left.

use crate::engine::{self, DistDataPlane, EngineOptions, EngineReport, Fetch};
use crate::index_batching::IndexDataset;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_data::storage::StorageSpec;
use st_device::CostModel;
use st_dist::shuffle::{self, ShuffleStrategy};
use st_dist::topology::ClusterTopology;
use st_models::Seq2Seq;
use std::borrow::Cow;

/// Configuration of a distributed training run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of workers (simulated GPUs).
    pub world: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size **per worker** (global batch = world × this), following
    /// the paper's weak-batch-scaling protocol (§5).
    pub batch_per_worker: usize,
    /// Base learning rate (at `lr_base_batch` global batch).
    pub lr: f32,
    /// Shared seed (shuffling + model init).
    pub seed: u64,
    /// Shuffling strategy (the paper's default is global).
    pub shuffle: ShuffleStrategy,
    /// Cluster shape.
    pub topology: ClusterTopology,
    /// When set, apply the linear LR-scaling rule relative to this base
    /// global batch (§5.3.3 follow-up).
    pub lr_base_batch: Option<usize>,
    /// Optional gradient clipping.
    pub grad_clip: Option<f32>,
    /// Forecast horizon.
    pub horizon: usize,
    /// Optional time-of-day feature period.
    pub time_period: Option<usize>,
    /// Double-buffer data-plane fetches so they overlap with compute
    /// (§7 future work). Applies to **every** remote data plane the
    /// engine drives: the baseline's per-batch data-service fetches and
    /// the generalized mode's one-time halo read alike. A no-op for
    /// local planes (dist-index has no data plane to hide).
    pub prefetch: bool,
    /// Byte cap for the pipelined step engine's gradient buckets.
    /// `Some(cap)`: gradients all-reduce in deterministic byte-capped
    /// buckets ordered by gradient completion, each a quoted async
    /// collective hidden behind the remaining backward compute.
    /// `None`: one whole-model bucket — it can only fire when the backward
    /// ends, so its wire time is fully exposed (the flat synchronous
    /// all-reduce). Numerics are **bit-identical** either way (an
    /// element-wise rank-order mean does not care how the buffer is
    /// split); only modeled time moves.
    pub grad_bucket_bytes: Option<usize>,
    /// Staleness bound `s` for gradient application (MSPipe direction).
    /// `0` (the default) is the synchronous path — every collective
    /// settles in the step that issued it. `s ≥ 1` lets a rank apply an
    /// averaged gradient up to `s` steps after it was issued: bucket
    /// collectives become deadline streams on the overlap ledger, applied
    /// when their modeled arrival instant passes the rank's clock, with a
    /// hard sync fence the moment the bound would be exceeded. See
    /// DESIGN.md §4.
    pub staleness: usize,
    /// Deterministic straggler-injection knob: scales each rank's modeled
    /// compute seconds by [`st_device::CostModel::straggler_scale`] (rank 0
    /// stays at 1.0, the last rank runs `1 + skew` slower, linear ramp
    /// between). Numerics never see it — only modeled time moves. `0.0`
    /// (the default) models a uniform healthy allocation.
    pub straggler_skew: f64,
    /// Compute backend every rank selects before its first step
    /// ([`st_tensor::backend::set_backend`]). Both backends are bitwise
    /// identical, so switching never moves the numerics — only wall time.
    /// Defaults to the process-wide choice
    /// ([`st_tensor::backend::active_backend`]: `ST_BACKEND`, or an earlier
    /// `set_backend`), so a run that does not set this field leaves the
    /// process's backend alone.
    pub backend: st_tensor::backend::BackendKind,
    /// Storage backend for every plane's standardized signal copy.
    /// `InMemory` (the default) is one dense tensor. `Chunked` streams
    /// windows straight from a spill file — the store keeps no row
    /// resident and the modeled file-IO seconds ride the same
    /// prefetch/overlap machinery as network time.
    /// Every stored bit comes back unchanged, so every loss curve is
    /// **bit-identical** to the in-memory run.
    pub storage: StorageSpec,
}

impl DistConfig {
    /// A reasonable default for measured runs.
    pub fn new(world: usize, epochs: usize, horizon: usize) -> Self {
        DistConfig {
            world,
            epochs,
            batch_per_worker: 8,
            lr: 1e-2,
            seed: 42,
            shuffle: ShuffleStrategy::Global,
            topology: ClusterTopology::polaris(),
            lr_base_batch: None,
            grad_clip: Some(5.0),
            horizon,
            time_period: None,
            prefetch: false,
            grad_bucket_bytes: Some(st_dist::ddp::DEFAULT_GRAD_BUCKET_BYTES),
            staleness: 0,
            straggler_skew: 0.0,
            backend: st_tensor::backend::active_backend(),
            storage: StorageSpec::InMemory,
        }
    }

    /// The global batch size.
    pub fn global_batch(&self) -> usize {
        self.world * self.batch_per_worker
    }

    /// The learning rate after optional large-batch scaling.
    pub fn effective_lr(&self) -> f32 {
        match self.lr_base_batch {
            Some(base) => {
                st_autograd::optim::lr_for_global_batch(self.lr, base, self.global_batch())
            }
            None => self.lr,
        }
    }
}

/// A run's `storage` knob applied to its input signal: an in-memory signal
/// moves under a chunked spec; anything else trains as it came (a signal
/// that is already chunked keeps its own chunk geometry).
pub(crate) fn stored_as(
    signal: &StaticGraphTemporalSignal,
    spec: StorageSpec,
) -> Cow<'_, StaticGraphTemporalSignal> {
    if spec.is_chunked() && !signal.is_chunked() {
        Cow::Owned(signal.rechunk(spec))
    } else {
        Cow::Borrowed(signal)
    }
}

/// Per-epoch statistics of an engine run (rank-0 view; all ranks agree on
/// the metrics, while the comm split below is rank 0's own accounting).
/// The single-worker front ends ([`crate::trainer::Trainer`],
/// [`crate::dynamic_index::train_dynamic`]) report the same struct, with
/// `val_mae` taken from rank 0's own f64 sums.
#[derive(Debug, Clone, Copy)]
pub struct DistEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training MAE (standardized) across all contributing workers.
    pub train_loss: f32,
    /// Validation MAE in original units, computed over all workers (NaN
    /// when the epoch did not validate).
    pub val_mae: f32,
    /// Modeled communication seconds this epoch that the overlap
    /// scheduler hid behind compute (rank 0's ledger: setup reads,
    /// prefetched fetches, in-flight gradient buckets).
    pub hidden_comm_secs: f64,
    /// Modeled communication seconds this epoch actually charged to the
    /// clock (exposed: collective rendezvous, unhidden remainders, metric
    /// reductions).
    pub exposed_comm_secs: f64,
    /// Gradients rank 0 applied at age ≥ 1 step this epoch (always zero on
    /// the synchronous `staleness = 0` path).
    pub stale_steps_applied: u64,
    /// Hard sync fences rank 0 took this epoch because a not-yet-arrived
    /// collective hit the staleness bound.
    pub fence_stalls: u64,
    /// Rank 0's wall seconds inside compute kernels this epoch, split by
    /// class ([`st_device::KernelSplit`]: gemm / spmm / elementwise). Real
    /// measured time on the host, not modeled seconds — the knob for
    /// judging where the tiled backend's wins land. Its `pooled_calls` /
    /// `inline_calls` say whether the rank's kernels used intra-op threads
    /// this epoch and how often (every rank runs at the same width, so
    /// rank 0 speaks for all): all inline means the ranks covered the
    /// cores or no kernel reached `par_threshold`.
    pub kernel_split: st_device::KernelSplit,
}

/// The §4.2 data plane: every worker holds a **full local copy** of the
/// index-batched dataset, so epoch plans come from communication-free
/// shared-seed shuffles and fetches are free local views.
pub struct LocalCopyPlane {
    ds: IndexDataset,
    world: usize,
    rank: usize,
    batch: usize,
    seed: u64,
    shuffle: ShuffleStrategy,
    cost: CostModel,
}

impl LocalCopyPlane {
    /// Build rank `rank`'s plane: its own full local copy (§4.2 — cheap
    /// only because of eq. (2)). Under [`StorageSpec::Chunked`] the "local
    /// copy" lives in a spill file instead of RAM: batches
    /// are read straight from the file and `cm` prices the IO
    /// ([`CostModel::pfs_read`]) so the engine can prefetch it away.
    pub fn new(
        signal: &StaticGraphTemporalSignal,
        cfg: &DistConfig,
        rank: usize,
        cm: &CostModel,
    ) -> Self {
        let ds = IndexDataset::from_signal(
            &stored_as(signal, cfg.storage),
            cfg.horizon,
            SplitRatios::default(),
            cfg.time_period,
        );
        LocalCopyPlane {
            ds,
            world: cfg.world,
            rank,
            batch: cfg.batch_per_worker,
            seed: cfg.seed,
            shuffle: cfg.shuffle,
            cost: cm.clone(),
        }
    }

    /// The worker's local dataset copy (model factories derive dims from
    /// it).
    pub fn dataset(&self) -> &IndexDataset {
        &self.ds
    }
}

impl DistDataPlane for LocalCopyPlane {
    fn rounds_per_epoch(&self) -> usize {
        // Ragged stripes/partitions give ranks batch counts that differ
        // by one; every strategy stripes `contiguous_partition` lengths
        // over the (possibly permuted) train split.
        engine::striped_rounds(self.ds.splits().train.len(), self.world, self.batch)
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let train = self.ds.splits().train.clone();
        // Communication-free shuffling: shared-seed stripe or local
        // permutations, identical on every rank's derivation.
        let my_ids: Vec<usize> = match self.shuffle {
            ShuffleStrategy::Global => {
                return engine::striped_plan(
                    train, self.world, self.rank, self.seed, epoch, self.batch,
                );
            }
            ShuffleStrategy::Local => {
                let part = shuffle::contiguous_partition(train.len(), self.world, self.rank);
                let ids: Vec<usize> = part.map(|i| train.start + i).collect();
                shuffle::local_shuffle(&ids, self.seed, self.rank, epoch)
            }
            ShuffleStrategy::LocalBatch => {
                let part = shuffle::contiguous_partition(train.len(), self.world, self.rank);
                let ids: Vec<usize> = part.map(|i| train.start + i).collect();
                let nb = ids.len().div_ceil(self.batch);
                let order = shuffle::batch_order_shuffle(nb, self.seed, self.rank, epoch);
                order
                    .into_iter()
                    .flat_map(|b| {
                        ids[b * self.batch..((b + 1) * self.batch).min(ids.len())].to_vec()
                    })
                    .collect()
            }
        };
        engine::chunk_ids(my_ids, self.batch)
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::striped_val_plan(
            self.ds.splits().val.clone(),
            self.world,
            self.rank,
            self.batch,
        )
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let (x, y, io_bytes) = self.ds.batch_quoted(ids);
        Fetch::from_store(x, y, io_bytes, &self.cost)
    }

    fn remote(&self) -> bool {
        // A chunked local copy pays modeled disk time per batch; reporting
        // it as remote turns on the engine's double-buffered prefetcher so
        // chunk IO hides behind compute exactly like network fetches.
        self.ds.is_chunked()
    }

    fn scaler_std(&self) -> f32 {
        self.ds.scaler().std
    }
}

/// Run distributed-index-batching training.
///
/// `model_factory` builds one replica per worker; replicas start identical
/// because the factory must derive all randomness from `cfg.seed` (a
/// parameter broadcast enforces it regardless).
pub fn run_distributed_index<F>(
    signal: &StaticGraphTemporalSignal,
    cfg: &DistConfig,
    model_factory: F,
) -> EngineReport
where
    F: Fn(&IndexDataset) -> Box<dyn Seq2Seq> + Sync,
{
    engine::run(
        cfg,
        &EngineOptions::default(),
        |rank, cm| LocalCopyPlane::new(signal, cfg, rank, cm),
        |plane: &LocalCopyPlane| model_factory(plane.dataset()),
    )
    .expect("engine run without resume cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::synthetic;
    use st_graph::diffusion_supports;
    use st_models::{ModelConfig, PgtDcrnn, Support};

    fn run(world: usize, shuffle: ShuffleStrategy, epochs: usize) -> EngineReport {
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
        let sig = synthetic::generate(&spec, 21);
        let mut cfg = DistConfig::new(world, epochs, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.shuffle = shuffle;
        run_distributed_index(&sig, &cfg, |ds| {
            let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
            let mc = ModelConfig {
                input_dim: ds.num_features(),
                output_dim: 1,
                hidden: 8,
                num_nodes: ds.num_nodes(),
                horizon: ds.horizon(),
                diffusion_steps: 2,
                layers: 1,
            };
            Box::new(PgtDcrnn::new(mc, &supports, 42))
        })
    }

    #[test]
    fn distributed_training_learns() {
        let r = run(2, ShuffleStrategy::Global, 4);
        assert_eq!(r.epochs.len(), 4);
        let first = r.epochs.first().unwrap().train_loss;
        let last = r.epochs.last().unwrap().train_loss;
        assert!(
            last < first,
            "distributed loss must fall: {first} -> {last}"
        );
        assert!(r.best_val_mae().is_finite());
        // Rank 0 did real kernel work every epoch, and the profiler's
        // per-class split captured it (gemm dominates a DCRNN step).
        for e in &r.epochs {
            let ks = e.kernel_split;
            assert!(ks.gemm_secs > 0.0, "epoch {} saw no gemm time", e.epoch);
            assert!(ks.total_secs() >= ks.gemm_secs);
            assert!(ks.spmm_secs >= 0.0 && ks.elementwise_secs >= 0.0);
            assert!(
                ks.pooled_calls + ks.inline_calls > 0,
                "epoch {} counted no kernel dispatch",
                e.epoch
            );
        }
    }

    #[test]
    fn only_gradient_traffic_under_global_shuffle() {
        // Dist-index moves gradients and tiny metric scalars — no sample
        // data. Bytes per epoch ≈ batches × grad_bytes × 2(world-1)(+ε).
        let r = run(2, ShuffleStrategy::Global, 1);
        assert!(r.bytes_moved > 0);
        // Generous upper bound: far less than one dataset copy (≈ 0.35MB
        // of samples would be ~350KB; gradients here are ~5KB total).
        assert!(
            r.bytes_moved < 2_000_000,
            "unexpected data-plane traffic: {} bytes",
            r.bytes_moved
        );
        assert!(r.sim_comm_secs > 0.0);
        assert!(r.sim_compute_secs > 0.0);
    }

    #[test]
    fn replicas_agree_on_metrics_regardless_of_world_size() {
        // Same seed, same data: 1-worker and 2-worker runs should start
        // from similar losses (not identical — global batch differs).
        let r1 = run(1, ShuffleStrategy::Global, 1);
        let r2 = run(2, ShuffleStrategy::Global, 1);
        let a = r1.epochs[0].train_loss;
        let b = r2.epochs[0].train_loss;
        assert!(
            (a - b).abs() < 0.5 * a.max(b),
            "first-epoch losses far apart: {a} vs {b}"
        );
    }

    #[test]
    fn shuffle_strategies_all_run() {
        for s in [
            ShuffleStrategy::Global,
            ShuffleStrategy::Local,
            ShuffleStrategy::LocalBatch,
        ] {
            let r = run(2, s, 1);
            assert!(r.epochs[0].train_loss.is_finite(), "{s:?}");
        }
    }

    #[test]
    fn effective_lr_scales_with_global_batch() {
        let mut cfg = DistConfig::new(8, 1, 12);
        cfg.batch_per_worker = 64;
        cfg.lr = 0.01;
        cfg.lr_base_batch = Some(64);
        assert!((cfg.effective_lr() - 0.08).abs() < 1e-6);
        cfg.lr_base_batch = None;
        assert_eq!(cfg.effective_lr(), 0.01);
    }
}
