//! The single-worker training front end (PGT workflow, §5.1).
//!
//! [`Trainer`] is batching-agnostic: it consumes any [`BatchSource`], so the
//! same run works with standard (materialized) batching and index-batching —
//! the apples-to-apples setup behind Table 3 and Fig. 5. Validation MAE is
//! reported in original (un-standardized) units, like the paper.
//!
//! There is no epoch loop here: [`Trainer::train`] wraps the source in a
//! private world-of-one [`DistDataPlane`] (`Batcher`-order epoch plans,
//! batch-chunked validation, no gradient sync) and hands it to
//! [`engine::run_single`] against the caller's model — bit-identical to
//! the stand-alone loop it replaced (`tests/trainer_goldens.rs`).

use crate::dist_index::{DistConfig, DistEpochStats};
use crate::engine::{self, DistDataPlane, EngineOptions, EngineReport, Fetch, StepLoop};
use crate::index_batching::IndexDataset;
use st_autograd::schedule::LrSchedule;
use st_data::loader::Batcher;
use st_data::preprocess::PreprocessOutput;
use st_data::scaler::StandardScaler;
use st_data::splits::SplitIndices;
use st_models::Seq2Seq;
use st_tensor::Tensor;
use std::sync::Arc;

/// Anything that can produce `(x, y)` minibatches from snapshot ids.
pub trait BatchSource {
    /// Total snapshots.
    fn num_snapshots(&self) -> usize;
    /// Train/val/test snapshot ranges.
    fn splits(&self) -> &SplitIndices;
    /// Assemble `[B, h, N, F]` x and y batches.
    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor);
    /// The fitted scaler (for original-unit metrics).
    fn scaler(&self) -> &StandardScaler;
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

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Compute validation MAE each epoch.
    pub validate: bool,
    /// Optional global-norm gradient clip.
    pub grad_clip: Option<f32>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 10,
            batch_size: 32,
            lr: 1e-2,
            seed: 42,
            validate: true,
            grad_clip: Some(5.0),
        }
    }
}

/// The single-worker per-epoch view of an engine run: the engine's own
/// per-epoch records with `val_mae` replaced by rank 0's original-unit
/// validation MAE from its f64 sums ([`EngineReport::rank_val_mae`]) under
/// scaler σ `scaler_std` — NaN when validation is off or the split is empty.
pub(crate) fn epoch_stats(report: &EngineReport, scaler_std: f32) -> Vec<DistEpochStats> {
    report
        .epochs
        .iter()
        .zip(report.rank_val_mae(0, scaler_std))
        .map(|(e, val_mae)| DistEpochStats { val_mae, ..*e })
        .collect()
}

/// Full training record.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// Per-epoch stats.
    pub epochs: Vec<DistEpochStats>,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
}

impl TrainingHistory {
    /// Best (minimum) validation MAE across epochs.
    pub fn best_val_mae(&self) -> f32 {
        self.epochs
            .iter()
            .map(|e| e.val_mae)
            .fold(f32::INFINITY, f32::min)
    }

    /// Final-epoch training loss.
    pub fn final_train_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.train_loss).unwrap_or(f32::NAN)
    }
}

/// A [`BatchSource`] as a world-of-one engine plane: the epoch plan is
/// `Batcher::shuffled` over the train split, validation is the val split
/// in `batch_size` chunks, and there is no peer to synchronize with.
struct SourcePlane<'a> {
    source: &'a dyn BatchSource,
    cfg: &'a TrainerConfig,
}

impl DistDataPlane for SourcePlane<'_> {
    fn rounds_per_epoch(&self) -> usize {
        self.source
            .splits()
            .train
            .len()
            .div_ceil(self.cfg.batch_size.max(1))
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let train_ids: Vec<usize> = self.source.splits().train.clone().collect();
        Batcher::shuffled(train_ids, self.cfg.batch_size, self.cfg.seed, epoch)
            .batches()
            .map(<[usize]>::to_vec)
            .collect()
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::chunk_ids(
            self.source.splits().val.clone().collect(),
            self.cfg.batch_size,
        )
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let (x, y) = self.source.get_batch(ids);
        Fetch { x, y, secs: 0.0 }
    }

    fn sync_gradients(&self) -> bool {
        false
    }

    fn validate_epoch(&self, _epoch: u64, _epochs: u64) -> bool {
        self.cfg.validate
    }

    fn scaler_std(&self) -> f32 {
        self.source.scaler().std
    }
}

/// The single-worker trainer: a facade over [`engine::run_single`].
pub struct Trainer {
    cfg: TrainerConfig,
}

impl Trainer {
    /// New trainer from a config.
    pub fn new(cfg: TrainerConfig) -> Self {
        Trainer { cfg }
    }

    /// The config.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Train `model` in place on `source` with Adam at a constant
    /// `cfg.lr`, returning the history.
    pub fn train(&self, model: &dyn Seq2Seq, source: &dyn BatchSource) -> TrainingHistory {
        self.run(model, source, EngineOptions::default())
    }

    /// Train under a learning-rate schedule (DCRNN's multi-step decay, the
    /// §5.3.3 warmup recipe, …): the schedule sets Adam's rate at each
    /// epoch boundary, then the epoch proceeds as usual.
    pub fn train_with_schedule(
        &self,
        model: &dyn Seq2Seq,
        source: &dyn BatchSource,
        schedule: Arc<dyn LrSchedule + Send + Sync>,
    ) -> TrainingHistory {
        let opts = EngineOptions {
            schedule: Some(schedule),
            ..Default::default()
        };
        self.run(model, source, opts)
    }

    fn run(
        &self,
        model: &dyn Seq2Seq,
        source: &dyn BatchSource,
        opts: EngineOptions,
    ) -> TrainingHistory {
        // The engine reads only its own knobs from `DistConfig`; horizon,
        // seed and batch size are plane-construction inputs, and this
        // plane takes them from the source and the trainer config.
        let mut cfg = DistConfig::new(1, self.cfg.epochs, 0);
        cfg.lr = self.cfg.lr;
        cfg.grad_clip = self.cfg.grad_clip;
        let plane = SourcePlane {
            source,
            cfg: &self.cfg,
        };
        let report = engine::run_single(&cfg, &opts, &plane, model)
            .expect("engine run without resume cannot fail");
        TrainingHistory {
            epochs: epoch_stats(&report, source.scaler().std),
            wall_secs: report.wall_secs,
        }
    }

    /// MAE over a snapshot range, in original units.
    pub fn evaluate(
        &self,
        model: &dyn Seq2Seq,
        source: &dyn BatchSource,
        range: std::ops::Range<usize>,
    ) -> f32 {
        let step = StepLoop {
            grad_clip: self.cfg.grad_clip,
        };
        let ids: Vec<usize> = range.collect();
        if ids.is_empty() {
            return f32::NAN;
        }
        let mut abs_sum = 0.0f64;
        let mut count = 0usize;
        for chunk in ids.chunks(self.cfg.batch_size) {
            let (x, y) = source.get_batch(chunk);
            let (a, c) = step.val_batch(|tape| model.forward(tape, &x), &y, |p, t| (p, t));
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
    use st_data::synthetic;
    use st_graph::diffusion_supports;
    use st_models::{ModelConfig, PgtDcrnn, Support};

    fn setup() -> (PgtDcrnn, IndexDataset) {
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
        let sig = synthetic::generate(&spec, 11);
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
        let trainer = Trainer::new(TrainerConfig {
            epochs: 6,
            batch_size: 8,
            lr: 0.01,
            validate: true,
            ..Default::default()
        });
        let h = trainer.train(&model, &ds);
        assert_eq!(h.epochs.len(), 6);
        let first = h.epochs.first().unwrap().train_loss;
        let last = h.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss must decrease: {first} -> {last}");
        assert!(h.best_val_mae().is_finite());
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
        let trainer = Trainer::new(TrainerConfig::default());
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
            let trainer = Trainer::new(TrainerConfig {
                epochs: 2,
                batch_size: 8,
                ..Default::default()
            });
            trainer.train(&model, &ds).final_train_loss()
        };
        assert_eq!(run(), run());
    }
}
