//! The unified distributed training engine.
//!
//! The paper's central observation is architectural: index-batching
//! variants differ only in their **data plane** — full local copies
//! (§4.2), Dask-style on-demand fetches (§5), halo'd entry partitions
//! (§5.4), per-partition node subsets and dynamic-graph windows (§7) —
//! while the training loop itself (forward/backward, DDP averaging,
//! epoch shuffling, metric reductions) stays fixed. This module is that
//! fixed loop, factored once:
//!
//! - [`DistDataPlane`] — what a variant must provide: an epoch *plan*
//!   (per-rank batch rounds derived from the shared-seed shuffles),
//!   quoted batch *fetches* (tensors plus modeled data-plane seconds,
//!   with bytes on the plane's ledger), and a traffic ledger.
//! - [`StepLoop`] — the shared step and validation primitives
//!   (forward/backward/clip/step, original-unit MAE sums via the fused
//!   [`st_tensor::ops::sum_abs`]).
//! - [`run`] / [`run_single`] — the **only** epoch loop: one rank per
//!   worker ([`run`]) or a world of one on the calling thread against the
//!   caller's model ([`run_single`] — the single-worker
//!   [`Trainer`](crate::trainer::Trainer)'s entry, and so the dynamic-graph
//!   runner's), bit-deterministic rank-order metric reductions,
//!   simulated-clock charging, optional checkpoint capture/resume, and a
//!   **pipelined step path**: every concurrent comm stream — the one-time
//!   setup read, the double-buffered next-batch fetch
//!   ([`DistConfig::prefetch`]), and the backward-overlapped gradient
//!   buckets ([`DistConfig::grad_bucket_bytes`]) — is quoted as a stream
//!   on the rank's [`st_device::SimClock`] and hidden behind modeled
//!   compute uniformly, with the per-epoch hidden/exposed split reported in
//!   [`DistEpochStats`]. Gradient sync has one mechanism,
//!   [`st_dist::GradBuckets`]: `grad_bucket_bytes = None` is one
//!   whole-model bucket (nothing to overlap — the flat synchronous
//!   reduce's timing), and [`DistConfig::staleness`] is a schedule over
//!   the same buckets.
//! - [`EngineReport`] — what every runner returns.
//!
//! Three planes share a model across ranks (local copies, the data
//! service, halo'd entry partitions); every run that trains independent
//! models — the [`Trainer`](crate::trainer::Trainer), each partition of
//! `run_partitioned`, `train_dynamic` — runs the Trainer's one plane over a
//! [`BatchSource`](crate::trainer::BatchSource).
//!
//! Determinism invariant (DESIGN.md §2): the engine charges *time* for
//! fetches and collectives but never lets it influence numerics — plans
//! are derived from `(seed, epoch[, rank])` alone, all cross-rank
//! combination happens in rank order, an element-wise rank-order mean
//! cannot observe how the gradient buffer is cut into buckets (pinned by
//! `tests/engine_goldens.rs`), and [`DistConfig::staleness`] lands each
//! gradient exactly `s` steps after it is issued, so every replica stays
//! bit-equal at any `s`.

use crate::dist_index::{DistConfig, DistEpochStats};
use st_autograd::checkpoint::CheckpointError;
use st_autograd::loss;
use st_autograd::module::Param;
use st_autograd::optim::{clip_grad_norm, Adam, Optimizer};
use st_autograd::{Checkpoint, Tape, Var};
use st_device::{CostModel, StreamId};
use st_dist::ddp::{self, GradBuckets};
use st_dist::launch::{self, run_workers, ReduceOp, Timing, WorkerCtx};
use st_dist::shuffle;
use st_dist::staleness::StalenessWindow;
use st_models::Seq2Seq;
use st_tensor::Tensor;

/// One quoted data-plane fetch: the batch tensors plus the modeled seconds
/// of transfer time **not yet charged** to any clock. The plane records
/// ledger bytes at quote time (traffic is real whether or not its time is
/// hidden); the engine decides whether the seconds are paid synchronously
/// or overlapped with compute.
pub struct Fetch {
    /// Input window batch `[B, h, N, F]`.
    pub x: Tensor,
    /// Label window batch `[B, h, N, F]`.
    pub y: Tensor,
    /// Modeled data-plane seconds for this fetch (0 for local planes).
    pub secs: f64,
}

impl Fetch {
    /// A batch assembled from the rank's own store: the `io_bytes` the
    /// store pulled from disk are priced as a parallel-filesystem read
    /// (an in-memory store quotes zero).
    pub(crate) fn from_store(x: Tensor, y: Tensor, io_bytes: u64, cost: &CostModel) -> Fetch {
        let secs = if io_bytes > 0 {
            cost.pfs_read(io_bytes)
        } else {
            0.0
        };
        Fetch { x, y, secs }
    }
}

/// A data plane: everything that distinguishes one distributed
/// index-batching variant from another.
///
/// Implementations are built **per rank** (each holds its rank's view of
/// the data) but must agree across ranks on anything that drives
/// collectives — [`DistDataPlane::rounds_per_epoch`] in particular, which
/// every rank derives analytically via
/// [`st_dist::shuffle::common_rounds`] so ragged partitions never leave a
/// rank blocked on a missing peer.
pub trait DistDataPlane {
    /// The per-step collective count all ranks agree on for one epoch
    /// (≥ the length of any rank's plan). Only consulted when
    /// [`DistDataPlane::sync_gradients`] is true.
    fn rounds_per_epoch(&self) -> usize;

    /// This rank's training batches for `epoch`, in visit order: the
    /// variant's shuffle (global stripe, local permutation, batch-order)
    /// applied to its portion of the train split.
    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>>;

    /// This rank's validation batches.
    fn plan_val(&self) -> Vec<Vec<usize>>;

    /// Assemble a batch by snapshot id, quoting (not charging) its
    /// data-plane time and recording its bytes on the ledger.
    fn fetch_batch(&self, ids: &[usize]) -> Fetch;

    /// Quoted one-time setup transfer (the generalized mode's halo read).
    /// Charged up front when prefetching is off; overlapped with the first
    /// epochs' compute when it is on.
    fn setup_secs(&self) -> f64 {
        0.0
    }

    /// Whether fetches cross ranks — enables the prefetcher under
    /// [`DistConfig::prefetch`]. Local planes return false so the knob is
    /// a no-op for them.
    fn remote(&self) -> bool {
        false
    }

    /// Whether replicas train one shared model (DDP broadcast + per-step
    /// gradient averaging). Per-partition and single-worker planes return
    /// false: each rank trains its own independent model.
    fn sync_gradients(&self) -> bool {
        true
    }

    /// Whether to validate after `epoch` (0-based, of `epochs` total).
    /// Must be a pure function of the arguments so every rank skips the
    /// same epochs' metric collectives. Planes whose consumers only read
    /// the final numbers (partitioned training) validate the last epoch
    /// only; skipped epochs report `NaN` and a `(0.0, 0)` rank-val entry.
    fn validate_epoch(&self, epoch: u64, epochs: u64) -> bool {
        let _ = (epoch, epochs);
        true
    }

    /// σ of the fitted scaler — converts standardized MAE sums to
    /// original units.
    fn scaler_std(&self) -> f32;

    /// Total sample-data bytes moved between ranks so far (the shared
    /// data-plane ledger; zero for local-copy planes).
    fn ledger_bytes(&self) -> u64 {
        0
    }

    /// Run the model forward for a batch. The default is the static
    /// [`Seq2Seq::forward`]; the single-model plane hands it to its
    /// source's [`BatchSource::forward`](crate::trainer::BatchSource::forward)
    /// (per-step diffusion supports on dynamic graphs).
    fn forward(&self, model: &dyn Seq2Seq, tape: &Tape, ids: &[usize], x: &Tensor) -> Var {
        let _ = ids;
        model.forward(tape, x)
    }

    /// Restrict `(pred, target)` before the validation reduction (a
    /// partition's plane narrows to owned nodes so halo duplicates are
    /// not double-counted). Default: identity.
    fn val_views(&self, pred: Tensor, target: Tensor) -> (Tensor, Tensor) {
        (pred, target)
    }
}

/// Chunk explicit snapshot ids into batch-sized lists — the standard
/// validation plan for planes that own an id list outright.
pub fn chunk_ids(ids: Vec<usize>, batch: usize) -> Vec<Vec<usize>> {
    ids.chunks(batch.max(1)).map(|c| c.to_vec()).collect()
}

/// Rank `rank`'s contiguous slice of a split `range`, chunked into
/// batches — the standard validation plan for replica planes that split
/// the val set evenly.
pub fn striped_val_plan(
    range: std::ops::Range<usize>,
    world: usize,
    rank: usize,
    batch: usize,
) -> Vec<Vec<usize>> {
    chunk_ids(
        shuffle::contiguous_partition(range.len(), world, rank)
            .map(|i| range.start + i)
            .collect(),
        batch,
    )
}

/// Rank `rank`'s globally-striped train plan for `epoch`: the shared-seed
/// permutation's ragged stripe over the split `range`, chunked into
/// batches. The plan both the local-copy (§4.2) and data-service (§5)
/// planes derive — only the fetch cost differs.
pub fn striped_plan(
    range: std::ops::Range<usize>,
    world: usize,
    rank: usize,
    seed: u64,
    epoch: u64,
    batch: usize,
) -> Vec<Vec<usize>> {
    chunk_ids(
        shuffle::global_stripe(range.len(), world, rank, seed, epoch)
            .into_iter()
            .map(|i| range.start + i)
            .collect(),
        batch,
    )
}

/// Batch-level shuffling (the generalized mode, Table 5's local-batch arm):
/// `ids` cut once into fixed batches, visited in rank `rank`'s shuffled
/// order for `epoch`. Batch contents never change between epochs.
pub(crate) fn batch_order_plan(
    ids: Vec<usize>,
    rank: usize,
    seed: u64,
    epoch: u64,
    batch: usize,
) -> Vec<Vec<usize>> {
    let mut batches = chunk_ids(ids, batch);
    shuffle::batch_order_shuffle(batches.len(), seed, rank, epoch)
        .into_iter()
        .map(|b| std::mem::take(&mut batches[b]))
        .collect()
}

/// The collective round count for planes whose train split stripes into
/// (possibly ragged) contiguous partitions: every rank derives the same
/// maximum analytically, so per-step all-reduces never mismatch.
pub fn striped_rounds(train_len: usize, world: usize, batch: usize) -> usize {
    shuffle::common_rounds(
        (0..world).map(|r| shuffle::contiguous_partition(train_len, world, r).len()),
        batch,
    )
}

/// The shared training-step primitives: target extraction, one
/// forward/backward, clip + optimizer step, and the validation reduction.
/// The epoch loop ([`run`] / [`run_single`]) and
/// [`Trainer::evaluate`](crate::trainer::Trainer::evaluate) are thin
/// drivers around these.
pub struct StepLoop {
    /// Optional global-norm gradient clip applied before each step.
    pub grad_clip: Option<f32>,
}

impl StepLoop {
    /// The forecast target: feature 0 of the label window, contiguous.
    pub fn target_of(y: &Tensor) -> Tensor {
        y.narrow(3, 0, 1).expect("output feature").contiguous()
    }

    /// One forward/backward: run `fwd` on a fresh tape, take the MAE
    /// against `y`'s target, backprop, and accumulate parameter
    /// gradients. Returns the (standardized) loss value.
    pub fn forward_backward(&self, fwd: impl FnOnce(&Tape) -> Var, y: &Tensor) -> f32 {
        self.forward_backward_traced(fwd, y, false).0
    }

    /// [`StepLoop::forward_backward`] plus, when `trace` is set, the
    /// tape's gradient-completion sequence
    /// ([`Tape::param_completion_order`]) — the timing trace the pipelined
    /// engine samples once per rank to model when each gradient bucket
    /// may fire (the sequence is a pure function of the model structure,
    /// so re-collecting it every step would be waste).
    pub fn forward_backward_traced(
        &self,
        fwd: impl FnOnce(&Tape) -> Var,
        y: &Tensor,
        trace: bool,
    ) -> (f32, Vec<Param>) {
        let target = Self::target_of(y);
        let tape = Tape::new();
        let pred = fwd(&tape);
        let tgt = tape.constant(target);
        let l = loss::mae(&pred, &tgt);
        let value = l.value().item();
        let grads = tape.backward(&l);
        tape.accumulate_param_grads(&grads);
        let completion = if trace {
            tape.param_completion_order()
        } else {
            Vec::new()
        };
        (value, completion)
    }

    /// Clip (when configured) and apply one optimizer step.
    pub fn clip_and_step(&self, params: &[Param], opt: &mut dyn Optimizer) {
        if let Some(clip) = self.grad_clip {
            clip_grad_norm(params, clip);
        }
        opt.step();
    }

    /// One validation batch: forward, restrict views, and return the
    /// `(Σ|pred − target|, element count)` pair in standardized units.
    pub fn val_batch(
        &self,
        fwd: impl FnOnce(&Tape) -> Var,
        y: &Tensor,
        restrict: impl FnOnce(Tensor, Tensor) -> (Tensor, Tensor),
    ) -> (f64, usize) {
        let target = Self::target_of(y);
        // Nobody differentiates a validation forward: record no graph.
        let tape = Tape::inference();
        let pred = fwd(&tape);
        let (pred, target) = restrict(pred.value().clone(), target);
        let diff = st_tensor::ops::sub(&pred, &target).expect("same shape");
        (st_tensor::ops::sum_abs(&diff), target.numel())
    }
}

/// Engine knobs beyond [`DistConfig`]: checkpoint capture and resume.
#[derive(Clone, Default)]
pub struct EngineOptions {
    /// Serialized [`Checkpoint`] to restore before training. Every rank
    /// restores the same bytes (preserving replica equality) and the run
    /// continues from the checkpoint's epoch, replaying the exact
    /// epoch-keyed shuffle sequence an uninterrupted run would have used.
    pub resume: Option<Vec<u8>>,
    /// Capture a rank-0 checkpoint (model + Adam + next epoch) at the end
    /// of the run, returned in [`EngineReport::checkpoint`].
    pub capture_checkpoint: bool,
}

impl std::fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineOptions")
            .field("resume", &self.resume.as_ref().map(|b| b.len()))
            .field("capture_checkpoint", &self.capture_checkpoint)
            .finish()
    }
}

/// Errors an engine run can surface instead of panicking mid-rank.
#[derive(Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The [`EngineOptions::resume`] bytes failed to decode or did not
    /// match the model being restored into.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Checkpoint(e) => write!(f, "resume checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// What one engine run reports — the one result type of every training
/// entry point. `run_distributed_index`, `run_baseline_ddp`,
/// `run_generalized`, [`Trainer::train`](crate::trainer::Trainer::train)
/// and `train_dynamic` return it (the last two with `epochs[].val_mae`
/// from rank 0's own f64 sums); `run_partitioned` derives its
/// per-partition summary from it.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-epoch stats (rank-0 view; all ranks agree).
    pub epochs: Vec<DistEpochStats>,
    /// Simulated compute seconds (rank 0).
    pub sim_compute_secs: f64,
    /// Simulated communication seconds (rank 0).
    pub sim_comm_secs: f64,
    /// Total simulated seconds (rank 0).
    pub sim_total_secs: f64,
    /// Collective payload bytes plus data-plane bytes.
    pub bytes_moved: u64,
    /// Sample-data bytes moved between ranks (the plane's ledger). Zero
    /// for distributed-index-batching (every worker holds a full local
    /// copy); the dominant term for baseline DDP — the crux of Fig. 7.
    pub data_plane_bytes: u64,
    /// Wall-clock seconds of the whole run.
    pub wall_secs: f64,
    /// Per-rank, per-epoch local validation `(Σ|err|, count)` sums in
    /// standardized units — the raw material for combinations the
    /// rank-uniform `epochs` view cannot express (per-partition MAE
    /// under per-partition scalers).
    pub rank_val: Vec<Vec<(f64, usize)>>,
    /// Final checkpoint bytes when requested via
    /// [`EngineOptions::capture_checkpoint`].
    pub checkpoint: Option<Vec<u8>>,
}

impl EngineReport {
    /// Best (minimum) rank-uniform validation MAE over the epochs that
    /// validated; `NaN` for a run that never validated (validation off,
    /// or zero epochs), like its `epochs[].val_mae`.
    pub fn best_val_mae(&self) -> f32 {
        // `f32::min` returns its other argument when one is NaN.
        self.epochs
            .iter()
            .map(|e| e.val_mae)
            .fold(f32::NAN, f32::min)
    }

    /// Rank `rank`'s **own** validation MAE per epoch, in original units
    /// under that rank's scaler σ: `(Σ|err| / n) as f32 · σ` from the f64
    /// sums in [`EngineReport::rank_val`]. An epoch that validated nothing
    /// (validation skipped, or an empty split) is `NaN`, never a perfect
    /// `0.0`. This is the single-worker formula — independent-model
    /// planes (one model per partition, a world of one) read this rather
    /// than the rank-uniform `epochs[].val_mae`, whose cross-rank f32
    /// gather rounds differently.
    pub fn rank_val_mae(&self, rank: usize, scaler_std: f32) -> Vec<f32> {
        self.rank_val[rank]
            .iter()
            .map(|&(abs_sum, n)| {
                if n == 0 {
                    f32::NAN
                } else {
                    (abs_sum / n as f64) as f32 * scaler_std
                }
            })
            .collect()
    }
}

/// One rank's outcome, combined by [`run`] into an [`EngineReport`].
struct RankOutcome {
    epochs: Vec<DistEpochStats>,
    val_series: Vec<(f64, usize)>,
    compute_secs: f64,
    comm_secs: f64,
    total_secs: f64,
    hub_bytes: u64,
    ledger_bytes: u64,
    checkpoint: Option<Vec<u8>>,
}

/// Run the unified distributed epoch loop: one worker per rank, each with
/// its own plane (from `plane_factory`) and model replica (from
/// `model_factory`). Fails only when [`EngineOptions::resume`] bytes are
/// rejected — a run without resume cannot error.
pub fn run<P, PF, MF>(
    cfg: &DistConfig,
    opts: &EngineOptions,
    plane_factory: PF,
    model_factory: MF,
) -> Result<EngineReport, EngineError>
where
    P: DistDataPlane,
    PF: Fn(usize, &CostModel) -> P + Sync,
    MF: Fn(&P) -> Box<dyn Seq2Seq> + Sync,
{
    let start = std::time::Instant::now();
    let outcomes = run_workers(cfg.world, cfg.topology, |mut ctx| {
        let cm = ctx.comm.hub().cost_model().clone();
        let plane = plane_factory(ctx.rank(), &cm);
        let model = model_factory(&plane);
        run_rank(cfg, opts, &plane, model.as_ref(), &mut ctx, &cm)
    });
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(assemble(outcomes, start))
}

/// Run the engine inline as a one-rank world **on the calling thread**,
/// training the caller's `model` in place (models are not `Send`, so the
/// threaded [`run`] must build its replicas inside the workers and cannot
/// hand them back). Collectives are free no-ops. This is the entry the
/// single-worker [`Trainer`](crate::trainer::Trainer) uses.
///
/// ```
/// use pgt_index::dist_index::{DistConfig, LocalCopyPlane};
/// use pgt_index::engine::{run_single, EngineOptions};
/// use pgt_index::workflow::pgt_dcrnn_factory;
/// use st_data::datasets::{DatasetKind, DatasetSpec};
/// use st_data::synthetic;
/// use st_device::CostModel;
///
/// // A small Chickenpox-shaped signal, index-batched as a full local
/// // copy, trained for two epochs as a world of one.
/// let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
/// let sig = synthetic::generate(&spec, 5);
/// let cfg = DistConfig::new(1, 2, spec.horizon);
/// let plane = LocalCopyPlane::new(&sig, &cfg, 0, &CostModel::polaris());
/// let model = pgt_dcrnn_factory(&sig, spec.horizon, 4, 42)(plane.dataset());
/// let report = run_single(&cfg, &EngineOptions::default(), &plane, model.as_ref())
///     .expect("no resume bytes to reject");
/// assert_eq!(report.epochs.len(), 2);
/// assert!(report.epochs[1].train_loss.is_finite());
/// ```
pub fn run_single<P: DistDataPlane>(
    cfg: &DistConfig,
    opts: &EngineOptions,
    plane: &P,
    model: &dyn Seq2Seq,
) -> Result<EngineReport, EngineError> {
    assert_eq!(cfg.world, 1, "run_single is the world-of-one entry point");
    let start = std::time::Instant::now();
    let outcome = launch::run_single(cfg.topology, |mut ctx| {
        let cm = ctx.comm.hub().cost_model().clone();
        run_rank(cfg, opts, plane, model, &mut ctx, &cm)
    })?;
    Ok(assemble(vec![outcome], start))
}

/// The per-rank epoch loop — the six former hand-copied loops, once.
fn run_rank<P: DistDataPlane>(
    cfg: &DistConfig,
    opts: &EngineOptions,
    plane: &P,
    model: &dyn Seq2Seq,
    ctx: &mut WorkerCtx,
    cm: &CostModel,
) -> Result<RankOutcome, EngineError> {
    let step = StepLoop {
        grad_clip: cfg.grad_clip,
    };
    // Select the configured compute backend on this rank's thread before
    // any kernel runs. Both backends are bitwise identical, so this knob
    // only moves wall time, never the training numerics.
    st_tensor::backend::set_backend(cfg.backend);
    let sync = plane.sync_gradients();
    if sync {
        ddp::broadcast_parameters(&model.params(), &mut ctx.comm);
    }
    // The one sync path: deterministic byte-capped buckets in reversed
    // module order (every rank derives the identical partition before any
    // backward has run — PyTorch DDP's approximation of completion
    // order), refined per step by the tape's actual completion sequence
    // for the fire points. `grad_bucket_bytes: None` is one whole-model
    // bucket: it fires when the backward ends, so nothing hides it — the
    // flat synchronous reduce.
    let mut buckets = sync.then(|| {
        let mut params = model.params();
        params.reverse();
        GradBuckets::new(params, cfg.grad_bucket_bytes.unwrap_or(usize::MAX))
    });
    let mut window = (sync && cfg.staleness > 0).then(|| StalenessWindow::new(cfg.staleness));
    let mut fire: Option<Vec<f64>> = None;
    let mut opt = Adam::new(model.params(), cfg.effective_lr());
    let mut start_epoch = 0u64;
    if let Some(bytes) = &opts.resume {
        let ck = Checkpoint::from_bytes(bytes)?;
        start_epoch = ck.restore(&model.params(), &mut opt)?;
    }
    let gpu_flops = cm.gpu_flops;

    // Every concurrent comm stream — the one-time setup transfer (halo
    // reads), the §7 double-buffered next-batch fetch, and the in-flight
    // gradient buckets — runs FIFO on the rank's clock. Bytes land on
    // their ledgers at quote time regardless; only the modeled seconds
    // move between hidden and exposed.
    let prefetch_on = cfg.prefetch && plane.remote();
    let setup_secs = plane.setup_secs();
    if setup_secs > 0.0 {
        if prefetch_on {
            let _ = ctx.comm.clock_mut().begin(setup_secs);
        } else {
            ctx.comm.clock_mut().advance_comm(setup_secs);
        }
    }

    let mut epoch_stats = Vec::with_capacity(cfg.epochs);
    let mut val_series = Vec::with_capacity(cfg.epochs);
    for epoch in start_epoch..cfg.epochs as u64 {
        let comm_mark = ctx.comm.clock().comm_secs();
        let hidden_mark = ctx.comm.clock().hidden_secs();
        let kernel_mark = st_device::KernelSplit::snapshot();
        let fence_mark = window.as_ref().map_or(0, |w| w.fence_stalls());
        let plan = plane.plan_epoch(epoch);
        // With synchronized gradients every rank must enter the same
        // number of per-step collectives; exhausted ranks contribute
        // zeros. Independent models just walk their own plan.
        let rounds = if sync {
            plane.rounds_per_epoch()
        } else {
            plan.len()
        };
        debug_assert!(rounds >= plan.len(), "plan exceeds agreed rounds");
        let mut pending: Option<((Tensor, Tensor), StreamId)> = None;
        if prefetch_on {
            if let Some(first) = plan.first() {
                let f = plane.fetch_batch(first);
                pending = Some(((f.x, f.y), ctx.comm.clock_mut().begin(f.secs)));
            }
        }
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for round in 0..rounds {
            opt.zero_grad();
            // Modeled step compute, split at the fwd/bwd boundary so
            // gradient buckets only overlap the backward tail that runs
            // after they fire. Zero on rounds where this rank's plan is
            // exhausted: it still meets every collective, fully exposed.
            let mut fwd_secs = 0.0;
            let mut bwd_secs = 0.0;
            if let Some(ids) = plan.get(round) {
                let (x, y) = match pending.take() {
                    Some((pair, stream)) => {
                        ctx.comm.clock_mut().wait(stream);
                        if let Some(next) = plan.get(round + 1) {
                            let f = plane.fetch_batch(next);
                            pending = Some(((f.x, f.y), ctx.comm.clock_mut().begin(f.secs)));
                        }
                        pair
                    }
                    None => {
                        let f = plane.fetch_batch(ids);
                        if f.secs > 0.0 {
                            ctx.comm.clock_mut().advance_comm(f.secs);
                        }
                        (f.x, f.y)
                    }
                };
                // The completion trace is a pure function of the model
                // structure: sample it on this rank's first step only.
                // Staleness never interleaves collectives with the
                // backward, so it has no use for fire points.
                let trace = buckets.is_some() && window.is_none() && fire.is_none();
                let (l, completion) = step.forward_backward_traced(
                    |tape| plane.forward(model, tape, ids, &x),
                    &y,
                    trace,
                );
                loss_sum += l as f64;
                batches += 1;
                // Charge modeled step compute (fwd + bwd ≈ 3× fwd).
                let compute_secs = 3.0 * model.flops_per_forward(ids.len()) / gpu_flops;
                ctx.comm.clock_mut().advance_compute(compute_secs);
                fwd_secs = compute_secs / 3.0;
                bwd_secs = compute_secs - fwd_secs;
                if let (true, Some(b)) = (trace, &buckets) {
                    fire = Some(b.fire_fractions(&completion));
                }
            }
            // Forward compute hides whatever was already in flight
            // (setup remainder, the double-buffered fetch).
            ctx.comm.clock_mut().credit(fwd_secs);
            match (buckets.as_mut(), window.as_mut()) {
                (Some(b), Some(w)) => {
                    // Bounded staleness: every bucket becomes a deadline
                    // stream completing at the collective's cross-rank
                    // `ready_at` — no rendezvous, the rank's own clock
                    // keeps running. The averaged payload is captured now
                    // (contents are never cross-rank stale; *application*
                    // is what the bound delays) and applied exactly `s`
                    // steps later on every rank, paying on the clock
                    // whatever wire time those steps did not hide.
                    ctx.comm.clock_mut().credit(bwd_secs);
                    for i in 0..b.num_buckets() {
                        let ready_at = b.reduce_bucket_async(i, &mut ctx.comm);
                        let stream = ctx.comm.clock_mut().begin_at(ready_at);
                        let mut buf = w.payload_buf();
                        buf.extend_from_slice(b.bucket_payload(i));
                        w.launch(i, round as u64, buf, stream);
                    }
                    // Local grads were folded into the payloads above;
                    // drop them so settled payloads accumulate cleanly.
                    opt.zero_grad();
                    let applied = w.settle(round as u64, ctx.comm.clock_mut(), |i, p| {
                        b.apply_stale(i, p)
                    });
                    // Adam's bias-correction step count must only tick
                    // when a gradient actually lands.
                    if applied > 0 {
                        step.clip_and_step(&model.params(), &mut opt);
                    }
                }
                (Some(b), None) => {
                    // Pipelined sync: walk the buckets in firing order,
                    // crediting the backward segment up to each fire
                    // point before its quoted collective begins, so
                    // bucket i overlaps the backward tail behind it.
                    let fractions = fire.as_deref();
                    let mut done = 0.0;
                    let mut in_flight = Vec::with_capacity(b.num_buckets());
                    for i in 0..b.num_buckets() {
                        let at = fractions.map_or(1.0, |f| f[i]).max(done);
                        ctx.comm.clock_mut().credit((at - done) * bwd_secs);
                        done = at;
                        let secs = b.reduce_bucket_quoted(i, &mut ctx.comm);
                        in_flight.push(ctx.comm.clock_mut().begin(secs));
                    }
                    let clock = ctx.comm.clock_mut();
                    clock.credit((1.0 - done) * bwd_secs);
                    // The optimizer needs every averaged gradient: settle
                    // all buckets, paying only what compute never hid.
                    for stream in in_flight {
                        clock.wait(stream);
                    }
                    step.clip_and_step(&model.params(), &mut opt);
                }
                (None, _) => {
                    // Independent models: nothing to synchronize.
                    ctx.comm.clock_mut().credit(bwd_secs);
                    step.clip_and_step(&model.params(), &mut opt);
                }
            }
        }
        // Epoch boundary: nothing stale may leak into the metric
        // reductions or the next epoch — land every in-flight gradient,
        // whatever its age.
        if let (Some(b), Some(w)) = (buckets.as_mut(), window.as_mut()) {
            opt.zero_grad();
            let applied = w.flush(ctx.comm.clock_mut(), |i, p| b.apply_stale(i, p));
            if applied > 0 {
                step.clip_and_step(&model.params(), &mut opt);
            }
        }

        // Mean training loss across contributing ranks (rank-order
        // combination). Ranks whose ragged plan had zero batches are
        // excluded — averaging their 0.0 in would bias the mean low.
        let mut sums = [
            (loss_sum / batches.max(1) as f64) as f32,
            (batches > 0) as u8 as f32,
        ];
        ctx.comm
            .all_reduce(&mut sums, ReduceOp::Sum, Timing::Charge);
        let train_loss = sums[0] / sums[1].max(1.0);

        // Validation: each rank evaluates its own slice synchronously.
        // Skippable per epoch (every rank derives the same decision, so
        // the metric collectives stay aligned).
        let val_mae = if plane.validate_epoch(epoch, cfg.epochs as u64) {
            let mut abs_sum = 0.0f64;
            let mut count = 0usize;
            for ids in plane.plan_val() {
                if ids.is_empty() {
                    continue;
                }
                let f = plane.fetch_batch(&ids);
                if f.secs > 0.0 {
                    ctx.comm.clock_mut().advance_comm(f.secs);
                }
                let (a, c) = step.val_batch(
                    |tape| plane.forward(model, tape, &ids, &f.x),
                    &f.y,
                    |pred, target| plane.val_views(pred, target),
                );
                ctx.comm
                    .clock_mut()
                    .advance_compute(model.flops_per_forward(ids.len()) / gpu_flops);
                abs_sum += a;
                count += c;
            }
            let totals = ctx.comm.all_gather_scalar(abs_sum as f32);
            let counts = ctx.comm.all_gather_scalar(count as f32);
            val_series.push((abs_sum, count));
            totals.iter().sum::<f32>() / counts.iter().sum::<f32>().max(1.0) * plane.scaler_std()
        } else {
            val_series.push((0.0, 0));
            f32::NAN
        };
        epoch_stats.push(DistEpochStats {
            epoch: epoch as usize,
            train_loss,
            val_mae,
            hidden_comm_secs: ctx.comm.clock().hidden_secs() - hidden_mark,
            exposed_comm_secs: ctx.comm.clock().comm_secs() - comm_mark,
            fence_stalls: window.as_ref().map_or(0, |w| w.fence_stalls()) - fence_mark,
            kernel_split: st_device::KernelSplit::snapshot().since(&kernel_mark),
        });
    }
    // Resuming at or past the configured horizon trains nothing; report
    // one explicit zero-epoch marker (NaN metrics, zero time and counters)
    // instead of silently empty series.
    if start_epoch >= cfg.epochs as u64 && opts.resume.is_some() {
        epoch_stats.push(DistEpochStats {
            epoch: start_epoch as usize,
            train_loss: f32::NAN,
            val_mae: f32::NAN,
            hidden_comm_secs: 0.0,
            exposed_comm_secs: 0.0,
            fence_stalls: 0,
            kernel_split: st_device::KernelSplit::default(),
        });
        val_series.push((0.0, 0));
    }
    // Any quoted time never hidden by compute (the setup remainder) is
    // still owed.
    ctx.comm.clock_mut().wait_all();

    let checkpoint = (opts.capture_checkpoint && ctx.rank() == 0).then(|| {
        // A zero-epoch resume re-captures at the checkpoint's own epoch —
        // round-tripping must not rewind it.
        Checkpoint::capture(&model.params(), &opt, (cfg.epochs as u64).max(start_epoch)).to_bytes()
    });
    // Let every rank finish fetching before the shared ledger is read.
    ctx.comm.barrier();
    let clock = ctx.comm.clock();
    Ok(RankOutcome {
        epochs: epoch_stats,
        val_series,
        compute_secs: clock.compute_secs(),
        comm_secs: clock.comm_secs(),
        total_secs: clock.now(),
        hub_bytes: ctx.comm.hub().bytes_moved(),
        ledger_bytes: plane.ledger_bytes(),
        checkpoint,
    })
}

fn assemble(mut outcomes: Vec<RankOutcome>, start: std::time::Instant) -> EngineReport {
    let rank_val = outcomes.iter().map(|o| o.val_series.clone()).collect();
    let checkpoint = outcomes[0].checkpoint.take();
    let o0 = &outcomes[0];
    EngineReport {
        epochs: o0.epochs.clone(),
        sim_compute_secs: o0.compute_secs,
        sim_comm_secs: o0.comm_secs,
        sim_total_secs: o0.total_secs,
        bytes_moved: o0.hub_bytes + o0.ledger_bytes,
        data_plane_bytes: o0.ledger_bytes,
        wall_secs: start.elapsed().as_secs_f64(),
        rank_val,
        checkpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_autograd::ops;
    use st_autograd::Module;

    /// `pred = x[..,0:1] * w + b` — two params so the bucketed path has a
    /// real firing sequence.
    struct ToyModel {
        w: Param,
        b: Param,
    }

    impl ToyModel {
        fn new() -> Self {
            ToyModel {
                w: Param::new("w", Tensor::zeros([1])),
                b: Param::new("b", Tensor::zeros([1])),
            }
        }
    }

    impl Module for ToyModel {
        fn params(&self) -> Vec<Param> {
            vec![self.w.clone(), self.b.clone()]
        }
    }

    impl Seq2Seq for ToyModel {
        fn forward(&self, tape: &Tape, x: &Tensor) -> Var {
            let xv = tape.constant(x.narrow(3, 0, 1).expect("feature 0").contiguous());
            let wx = ops::mul(&xv, &tape.param(&self.w));
            ops::add(&wx, &tape.param(&self.b))
        }

        fn name(&self) -> &'static str {
            "toy"
        }

        fn flops_per_forward(&self, batch: usize) -> f64 {
            batch as f64 * 1.0e9
        }
    }

    /// How much of the epoch rank 1's plan covers (rank 0 always runs all
    /// [`TOY_ROUNDS`] rounds).
    #[derive(Clone, Copy)]
    enum Rank1 {
        Full,
        /// Runs out halfway through the epoch.
        Half,
        /// No batches: it meets every collective with zero gradients and
        /// must not drag the train loss.
        Empty,
    }

    const TOY_ROUNDS: usize = 4;

    /// Two-rank toy plane: batch `i` has target `i + 1`, and both ranks
    /// validate on one shared batch, so equal replicas give equal sums.
    struct ToyPlane {
        rank: usize,
        rank1: Rank1,
    }

    impl DistDataPlane for ToyPlane {
        fn rounds_per_epoch(&self) -> usize {
            TOY_ROUNDS
        }

        fn plan_epoch(&self, _epoch: u64) -> Vec<Vec<usize>> {
            let len = match (self.rank, self.rank1) {
                (0, _) | (_, Rank1::Full) => TOY_ROUNDS,
                (_, Rank1::Half) => TOY_ROUNDS / 2,
                (_, Rank1::Empty) => 0,
            };
            (0..len).map(|i| vec![i]).collect()
        }

        fn plan_val(&self) -> Vec<Vec<usize>> {
            vec![vec![TOY_ROUNDS]]
        }

        fn fetch_batch(&self, ids: &[usize]) -> Fetch {
            Fetch {
                x: Tensor::full([1, 1, 2, 1], 1.0),
                y: Tensor::full([1, 1, 2, 1], (ids[0] + 1) as f32),
                secs: 0.0,
            }
        }

        fn scaler_std(&self) -> f32 {
            1.0
        }
    }

    fn toy(bucket: Option<usize>, staleness: usize, rank1: Rank1) -> EngineReport {
        let mut cfg = DistConfig::new(2, 2, 1);
        cfg.batch_per_worker = 1;
        cfg.grad_bucket_bytes = bucket;
        cfg.staleness = staleness;
        run(
            &cfg,
            &EngineOptions::default(),
            move |rank, _cm| ToyPlane { rank, rank1 },
            |_| Box::new(ToyModel::new()),
        )
        .expect("no resume")
    }

    /// Every epoch's `(train loss, val MAE)` bits.
    fn curve(r: &EngineReport) -> Vec<(u32, u32)> {
        r.epochs
            .iter()
            .map(|e| (e.train_loss.to_bits(), e.val_mae.to_bits()))
            .collect()
    }

    #[test]
    fn zero_batch_ranks_do_not_dilute_the_train_loss() {
        // Rank 0's batches have targets 1..=4 against a zero-init model:
        // its first epoch's local mean loss is ≥ 1. The old cross-rank
        // reduction averaged rank 1's phantom 0.0 in (reporting ~half);
        // contributing ranks only must keep the mean ≥ 1.
        let loss = toy(None, 0, Rank1::Empty).epochs[0].train_loss;
        assert!(loss > 1.0, "train loss {loss} diluted by a zero-batch rank");
    }

    #[test]
    fn bucketed_overlap_matches_flat_and_hides_collective_time() {
        let flat = toy(None, 0, Rank1::Full);
        // A 4-byte cap puts w and b in separate buckets; the b-bucket
        // fires halfway through the modeled backward and hides fully
        // behind its tail, so only the final bucket's wire time stays
        // exposed — strictly less than the flat reduce's.
        let bucketed = toy(Some(4), 0, Rank1::Full);
        assert_eq!(
            curve(&flat),
            curve(&bucketed),
            "bucketing must not change numerics"
        );
        assert_eq!(
            flat.epochs[0].hidden_comm_secs, 0.0,
            "flat path hides nothing"
        );
        let e = &bucketed.epochs[0];
        assert!(
            e.hidden_comm_secs > 0.0,
            "early-firing bucket must hide behind the backward tail"
        );
        assert!(e.exposed_comm_secs > 0.0, "rendezvous time stays exposed");
        assert!(
            bucketed.sim_comm_secs < flat.sim_comm_secs,
            "overlap must reduce exposed comm: {} vs {}",
            bucketed.sim_comm_secs,
            flat.sim_comm_secs
        );

        // Ragged worlds stay numerically identical too: the idle rank
        // meets every bucket collective with zeros. So do stale landings.
        assert_eq!(
            curve(&toy(None, 0, Rank1::Empty)),
            curve(&toy(Some(4), 0, Rank1::Empty)),
            "ragged bucketing must not change numerics"
        );
        assert_eq!(
            curve(&toy(None, 2, Rank1::Full)),
            curve(&toy(Some(4), 2, Rank1::Full)),
            "bucketing must not change numerics under staleness"
        );
    }

    #[test]
    fn stale_replicas_stay_equal_when_a_rank_runs_out_of_batches() {
        // Rank 1 idles through the second half of every epoch, so its
        // clock falls behind rank 0's. Landing by step count, both ranks
        // still apply the same gradients at the same steps.
        let r = toy(None, 2, Rank1::Half);
        let bits = |rank: usize| -> Vec<(u64, usize)> {
            r.rank_val[rank]
                .iter()
                .map(|&(sum, n)| (sum.to_bits(), n))
                .collect()
        };
        assert_eq!(bits(0), bits(1), "the replicas diverged");
        assert!(r.rank_val[0].iter().all(|&(_, n)| n == 2));
    }

    #[test]
    fn the_bound_sets_when_a_gradient_lands() {
        // Every collective arrives within one step of compute, so only
        // the bound can tell these runs apart: s steps of delay each.
        let curves: Vec<_> = (1..=3).map(|s| curve(&toy(None, s, Rank1::Full))).collect();
        assert_ne!(curves[0], curves[1], "s = 1 vs s = 2");
        assert_ne!(curves[1], curves[2], "s = 2 vs s = 3");
        assert_ne!(curves[0], curves[2], "s = 1 vs s = 3");
    }
}
