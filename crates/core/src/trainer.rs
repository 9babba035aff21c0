//! The single-worker training front end (PGT workflow, §5.1).
//!
//! [`Trainer`] is batching-agnostic: it consumes any [`BatchSource`], so the
//! same run works with standard (materialized) batching and index-batching —
//! the apples-to-apples setup behind Table 3 and Fig. 5. Validation MAE is
//! reported in original (un-standardized) units, like the paper.
//!
//! There is no epoch loop here: [`Trainer::train`] wraps the source in the
//! crate's one independent-model [`DistDataPlane`] (`Batcher`-order epoch
//! plans, batch-chunked validation, priced chunk reads, no gradient sync)
//! and hands it to [`engine::run_single`] against the caller's model —
//! bit-identical to the stand-alone loop it replaced
//! (`tests/trainer_goldens.rs`). The §7 runners are that plane too:
//! `run_partitioned` builds it for each partition rank, and
//! `train_dynamic` is a `Trainer` run at batch 1 over a dynamic source.

use crate::dist_index::DistConfig;
use crate::engine::{self, DistDataPlane, EngineOptions, EngineReport, Fetch, StepLoop};
use crate::index_batching::IndexDataset;
use st_autograd::{Tape, Var};
use st_data::loader::Batcher;
use st_data::preprocess::PreprocessOutput;
use st_data::scaler::StandardScaler;
use st_data::splits::SplitIndices;
use st_device::CostModel;
use st_models::Seq2Seq;
use st_tensor::Tensor;

/// Anything that can produce `(x, y)` minibatches from snapshot ids: one
/// model's data, whatever batching or storage is behind it.
pub trait BatchSource {
    /// Total snapshots.
    fn num_snapshots(&self) -> usize;
    /// Train/val/test snapshot ranges.
    fn splits(&self) -> &SplitIndices;
    /// Assemble `[B, h, N, F]` x and y batches.
    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor);
    /// [`BatchSource::get_batch`] plus the bytes the batch read from disk,
    /// which training prices as a parallel-filesystem read. The default
    /// reads nothing from disk.
    fn get_batch_quoted(&self, indices: &[usize]) -> (Tensor, Tensor, u64) {
        let (x, y) = self.get_batch(indices);
        (x, y, 0)
    }
    /// Whether batches stream from out-of-core chunks; training then lets
    /// [`DistConfig::prefetch`] hide their reads behind compute.
    fn is_chunked(&self) -> bool {
        false
    }
    /// The fitted scaler (for original-unit metrics).
    fn scaler(&self) -> &StandardScaler;
    /// Run `model` forward on the batch of snapshots `ids` whose inputs are
    /// `x`. The default is the static [`Seq2Seq::forward`]; a source whose
    /// samples carry extra context (per-step supports on a dynamic graph)
    /// overrides it.
    fn forward(&self, model: &dyn Seq2Seq, tape: &Tape, ids: &[usize], x: &Tensor) -> Var {
        let _ = ids;
        model.forward(tape, x)
    }
}

impl BatchSource for IndexDataset {
    fn num_snapshots(&self) -> usize {
        IndexDataset::num_snapshots(self)
    }

    fn splits(&self) -> &SplitIndices {
        IndexDataset::splits(self)
    }

    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        self.batch(indices)
    }

    fn get_batch_quoted(&self, indices: &[usize]) -> (Tensor, Tensor, u64) {
        self.batch_quoted(indices)
    }

    fn is_chunked(&self) -> bool {
        IndexDataset::is_chunked(self)
    }

    fn scaler(&self) -> &StandardScaler {
        IndexDataset::scaler(self)
    }
}

/// Standard-batching source over Algorithm-1 materialized arrays.
pub struct MaterializedDataset {
    out: PreprocessOutput,
}

impl MaterializedDataset {
    /// Wrap a preprocessing result.
    pub fn new(out: PreprocessOutput) -> Self {
        MaterializedDataset { out }
    }
}

impl BatchSource for MaterializedDataset {
    fn num_snapshots(&self) -> usize {
        self.out.x.dim(0)
    }

    fn splits(&self) -> &SplitIndices {
        &self.out.splits
    }

    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        (
            self.out.x.index_select0(indices).expect("ids in range"),
            self.out.y.index_select0(indices).expect("ids in range"),
        )
    }

    fn scaler(&self) -> &StandardScaler {
        &self.out.scaler
    }
}

/// The epochs a [`SourcePlane`] validates after.
pub(crate) enum Validation {
    /// Every epoch.
    Every,
    /// The last epoch only (a run whose consumer reads the final numbers).
    Last,
    /// None: every epoch reports `NaN`.
    Never,
}

/// The one independent-model engine plane: a [`BatchSource`] trained by
/// its own model on engine rank `rank`. The epoch plan is
/// `Batcher::shuffled` over the train split, validation is the val split in
/// batch-sized chunks, each batch's disk bytes are priced through
/// [`Fetch::from_store`], and there is no peer to synchronize with.
pub(crate) struct SourcePlane<'a> {
    source: &'a dyn BatchSource,
    batch: usize,
    seed: u64,
    cost: CostModel,
    validation: Validation,
    owned: Option<usize>,
    /// The engine rank this plane feeds (0 in a world of one).
    pub(crate) rank: usize,
}

impl<'a> SourcePlane<'a> {
    /// `source` on rank `rank` under `cfg`'s batch and seed; `cost` prices
    /// its disk reads. With `owned = Some(n)` validation sees the first `n`
    /// nodes only: a partition's nodes come owned-first, so halo duplicates
    /// are never double-counted.
    pub(crate) fn new(
        source: &'a dyn BatchSource,
        cfg: &DistConfig,
        rank: usize,
        cost: &CostModel,
        validation: Validation,
        owned: Option<usize>,
    ) -> Self {
        SourcePlane {
            source,
            batch: cfg.batch_per_worker,
            seed: cfg.seed,
            cost: cost.clone(),
            validation,
            owned,
            rank,
        }
    }
}

impl DistDataPlane for SourcePlane<'_> {
    fn rounds_per_epoch(&self) -> usize {
        self.source.splits().train.len().div_ceil(self.batch.max(1))
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let train_ids: Vec<usize> = self.source.splits().train.clone().collect();
        Batcher::shuffled(train_ids, self.batch, self.seed, epoch)
            .batches()
            .map(<[usize]>::to_vec)
            .collect()
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::chunk_ids(self.source.splits().val.clone().collect(), self.batch)
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let (x, y, io_bytes) = self.source.get_batch_quoted(ids);
        Fetch::from_store(x, y, io_bytes, &self.cost)
    }

    fn remote(&self) -> bool {
        // Chunked reads carry modeled disk time: let the prefetcher hide it.
        self.source.is_chunked()
    }

    fn sync_gradients(&self) -> bool {
        false
    }

    fn validate_epoch(&self, epoch: u64, epochs: u64) -> bool {
        match self.validation {
            Validation::Every => true,
            Validation::Last => epoch + 1 == epochs,
            Validation::Never => false,
        }
    }

    fn scaler_std(&self) -> f32 {
        self.source.scaler().std
    }

    fn forward(&self, model: &dyn Seq2Seq, tape: &Tape, ids: &[usize], x: &Tensor) -> Var {
        self.source.forward(model, tape, ids, x)
    }

    fn val_views(&self, pred: Tensor, target: Tensor) -> (Tensor, Tensor) {
        let Some(owned) = self.owned else {
            return (pred, target);
        };
        let prefix = |t: Tensor| t.narrow(2, 0, owned).expect("owned prefix").contiguous();
        (prefix(pred), prefix(target))
    }
}

/// The single-worker trainer: a facade over [`engine::run_single`]. It
/// always runs a world of one, whatever `cfg.world` says, and reads
/// `epochs`, `batch_per_worker`, [`DistConfig::effective_lr`], `seed`,
/// `grad_clip`, `prefetch`, `topology` and `backend`. A chunked source's
/// reads are priced as parallel-filesystem reads, and `prefetch` hides
/// them behind compute. Skip validation with
/// `Trainer { validate: false, ..Trainer::new(cfg) }`.
pub struct Trainer {
    /// The run configuration.
    pub cfg: DistConfig,
    /// Compute validation MAE each epoch (`true` from [`Trainer::new`]);
    /// off, every epoch reports `NaN`.
    pub validate: bool,
}

impl Trainer {
    /// New trainer from a run config, validating every epoch.
    pub fn new(cfg: DistConfig) -> Self {
        Trainer {
            cfg,
            validate: true,
        }
    }

    /// Train `model` in place on `source` as a world of one, with Adam at
    /// a constant [`DistConfig::effective_lr`]. `epochs[].val_mae` is rank
    /// 0's original-unit validation MAE from its f64 sums
    /// ([`EngineReport::rank_val_mae`]): NaN when validation is off or the
    /// split is empty.
    pub fn train(&self, model: &dyn Seq2Seq, source: &dyn BatchSource) -> EngineReport {
        let cfg = DistConfig {
            world: 1,
            ..self.cfg.clone()
        };
        let validation = if self.validate {
            Validation::Every
        } else {
            Validation::Never
        };
        // The world-of-one hub prices its streams with the default model.
        let cost = CostModel::default();
        let plane = SourcePlane::new(source, &cfg, 0, &cost, validation, None);
        let mut report = engine::run_single(&cfg, &EngineOptions::default(), &plane, model)
            .expect("engine run without resume cannot fail");
        let val_mae = report.rank_val_mae(0, source.scaler().std);
        for (e, v) in report.epochs.iter_mut().zip(val_mae) {
            e.val_mae = v;
        }
        report
    }

    /// MAE over a snapshot range, in original units, through the source's
    /// own forward.
    pub fn evaluate(
        &self,
        model: &dyn Seq2Seq,
        source: &dyn BatchSource,
        range: std::ops::Range<usize>,
    ) -> f32 {
        let step = StepLoop {
            grad_clip: self.cfg.grad_clip,
        };
        if range.is_empty() {
            return f32::NAN;
        }
        let mut abs_sum = 0.0f64;
        let mut count = 0usize;
        for chunk in engine::chunk_ids(range.collect(), self.cfg.batch_per_worker) {
            let (x, y) = source.get_batch(&chunk);
            let (a, c) = step.val_batch(
                |tape| source.forward(model, tape, &chunk, &x),
                &y,
                |p, t| (p, t),
            );
            abs_sum += a;
            count += c;
        }
        // Standardized MAE × σ = MAE in original units.
        (abs_sum / count.max(1) as f64) as f32 * source.scaler().std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::splits::SplitRatios;
    use st_data::storage::{ChunkedSpec, StorageSpec};
    use st_data::synthetic;
    use st_graph::diffusion_supports;
    use st_models::{ModelConfig, PgtDcrnn, Support};

    fn setup() -> (PgtDcrnn, IndexDataset) {
        setup_stored(StorageSpec::InMemory)
    }

    fn setup_stored(storage: StorageSpec) -> (PgtDcrnn, IndexDataset) {
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
        let sig = synthetic::generate(&spec, 11).rechunk(storage);
        let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
        let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
        let cfg = ModelConfig {
            input_dim: ds.num_features(),
            output_dim: 1,
            hidden: 8,
            num_nodes: ds.num_nodes(),
            horizon: spec.horizon,
            diffusion_steps: 2,
            layers: 1,
        };
        (PgtDcrnn::new(cfg, &supports, 3), ds)
    }

    #[test]
    fn training_loss_decreases() {
        let (model, ds) = setup();
        let h = Trainer::new(DistConfig::new(1, 6, ds.horizon())).train(&model, &ds);
        assert_eq!(h.epochs.len(), 6);
        let first = h.epochs.first().unwrap().train_loss;
        let last = h.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss must decrease: {first} -> {last}");
        assert!(h.best_val_mae().is_finite());
    }

    #[test]
    fn a_run_that_never_validated_has_no_best_val_mae() {
        let (model, ds) = setup();
        let cfg = DistConfig::new(1, 1, ds.horizon());
        let skipped = Trainer {
            validate: false,
            ..Trainer::new(cfg.clone())
        };
        let h = skipped.train(&model, &ds);
        assert!(h.epochs[0].val_mae.is_nan());
        assert!(h.best_val_mae().is_nan(), "got {}", h.best_val_mae());
        let none = Trainer::new(DistConfig { epochs: 0, ..cfg }).train(&model, &ds);
        assert!(none.epochs.is_empty());
        assert!(none.best_val_mae().is_nan(), "got {}", none.best_val_mae());
    }

    #[test]
    fn a_chunked_source_trains_the_same_bits_and_pays_for_its_reads() {
        let run = |storage: StorageSpec, prefetch: bool| {
            let (model, ds) = setup_stored(storage);
            assert_eq!(BatchSource::is_chunked(&ds), storage.is_chunked());
            let mut cfg = DistConfig::new(1, 2, ds.horizon());
            cfg.prefetch = prefetch;
            Trainer::new(cfg).train(&model, &ds)
        };
        let chunked = StorageSpec::Chunked(ChunkedSpec::new(7));
        let mem = run(StorageSpec::InMemory, false);
        let disk = run(chunked, false);
        assert_eq!(mem.epochs.len(), disk.epochs.len());
        for (a, b) in mem.epochs.iter().zip(&disk.epochs) {
            assert!(a.val_mae.is_finite());
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "train loss");
            assert_eq!(a.val_mae.to_bits(), b.val_mae.to_bits(), "val MAE");
        }
        // Every chunked batch is a priced disk read, and prefetching hides
        // part of that time behind compute.
        assert!(disk.sim_comm_secs > 0.0, "chunked reads cost nothing");
        let hidden = run(chunked, true);
        assert!(
            hidden.sim_comm_secs < disk.sim_comm_secs,
            "prefetch {} s vs synchronous {} s",
            hidden.sim_comm_secs,
            disk.sim_comm_secs
        );
    }

    #[test]
    fn index_and_materialized_sources_agree_per_batch() {
        // Same snapshots, same model ⇒ identical losses from either source
        // modulo standardization fit (verified separately); here we check
        // the materialized wrapper produces the right shapes and range.
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
        let sig = synthetic::generate(&spec, 11);
        let out = st_data::preprocess::materialized_xy(&sig, spec.horizon, SplitRatios::default());
        let mat = MaterializedDataset::new(out);
        let (x, y) = mat.get_batch(&[0, 1, 2]);
        assert_eq!(x.dims()[0], 3);
        assert_eq!(y.dims(), x.dims());
        assert_eq!(
            mat.num_snapshots(),
            st_data::preprocess::num_snapshots(spec.entries, spec.horizon)
        );
    }

    #[test]
    fn evaluate_returns_original_units() {
        let (model, ds) = setup();
        let trainer = Trainer::new(DistConfig::new(1, 1, ds.horizon()));
        let mae = trainer.evaluate(&model, &ds, ds.splits().val.clone());
        assert!(mae.is_finite() && mae >= 0.0);
        // Untrained model on case-count data: MAE should be on the order of
        // the data's std, not the standardized ~1.
        assert!(mae > 0.01);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (model, ds) = setup();
            let trainer = Trainer::new(DistConfig::new(1, 2, ds.horizon()));
            trainer.train(&model, &ds).epochs.last().unwrap().train_loss
        };
        assert_eq!(run(), run());
    }
}
