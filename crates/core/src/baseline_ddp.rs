//! Baseline DDP (§5): the Dask-style comparison system.
//!
//! The paper's baseline materializes the standard (Algorithm-1) arrays,
//! distributes them across workers with Dask, and fetches every batch **on
//! demand** — with the request-batching optimization the authors added
//! (one communication per batch rather than per sample). Global shuffling
//! means most of a worker's samples live on other ranks, so the data plane
//! dominates at scale: that traffic is the lighter bar segment of Fig. 7.
//!
//! The epoch loop lives in [`crate::engine`]; this module contributes only
//! the data plane — [`DataSvcPlane`], a worker view over the Dask-style
//! [`DistributedArray`] pair whose every fetch is quoted against the
//! remote-traffic ledger.

use crate::engine::{self, DistDataPlane, EngineOptions, EngineReport, Fetch};
use crate::trainer::BatchSource;
use st_data::preprocess::materialized_xy;
use st_data::scaler::StandardScaler;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::{SplitIndices, SplitRatios};
use st_data::storage::SignalStorage;
use st_dist::datasvc::DistributedArray;
use st_models::Seq2Seq;
use st_tensor::Tensor;

use crate::dist_index::DistConfig;
use std::sync::Arc;

/// The §5 data plane: a worker-side view of the Dask-distributed `(x, y)`
/// arrays, fetching every batch on demand across ranks.
pub struct DataSvcPlane {
    x: Arc<DistributedArray>,
    y: Arc<DistributedArray>,
    scaler: StandardScaler,
    splits: SplitIndices,
    world: usize,
    rank: usize,
    batch: usize,
    seed: u64,
    cost: st_device::CostModel,
}

impl DataSvcPlane {
    /// Rank `rank`'s view over the shared arrays.
    pub fn new(
        x: Arc<DistributedArray>,
        y: Arc<DistributedArray>,
        scaler: StandardScaler,
        splits: SplitIndices,
        cfg: &DistConfig,
        rank: usize,
        cost: st_device::CostModel,
    ) -> Self {
        DataSvcPlane {
            x,
            y,
            scaler,
            splits,
            world: cfg.world,
            rank,
            batch: cfg.batch_per_worker,
            seed: cfg.seed,
            cost,
        }
    }

    /// Fetch an x/y batch, quoting communication for remote rows (bytes
    /// land on the shared ledger immediately).
    pub fn fetch(&self, indices: &[usize]) -> (Tensor, Tensor, f64) {
        let (x, sx) = self.x.fetch_rows_quoted(self.rank, indices, &self.cost);
        let (y, sy) = self.y.fetch_rows_quoted(self.rank, indices, &self.cost);
        (x, y, sx + sy)
    }
}

/// [`BatchSource`] lets model factories inspect dims/splits and drive
/// ad-hoc evaluation. **Timing caveat:** `get_batch` records remote bytes
/// on the shared ledger but discards the quoted transfer seconds — the
/// plane no longer holds a clock; inside the engine, fetch time is
/// charged (or prefetch-hidden) by the epoch loop. Callers that need
/// simulated fetch *time* outside the engine must use
/// [`DataSvcPlane::fetch`] and charge the returned seconds themselves.
impl BatchSource for DataSvcPlane {
    fn num_snapshots(&self) -> usize {
        self.x.rows()
    }

    fn splits(&self) -> &SplitIndices {
        &self.splits
    }

    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        let (x, y, _) = self.fetch(indices);
        (x, y)
    }

    fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }
}

impl DistDataPlane for DataSvcPlane {
    fn rounds_per_epoch(&self) -> usize {
        engine::striped_rounds(self.splits.train.len(), self.world, self.batch)
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        // Baseline DDP also shuffles globally (§5) — but unlike
        // dist-index, its samples live on other ranks, so every fetch of
        // this plan pays communication.
        engine::striped_plan(
            self.splits.train.clone(),
            self.world,
            self.rank,
            self.seed,
            epoch,
            self.batch,
        )
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::striped_val_plan(self.splits.val.clone(), self.world, self.rank, self.batch)
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let (x, y, secs) = self.fetch(ids);
        Fetch { x, y, secs }
    }

    fn remote(&self) -> bool {
        true
    }

    fn scaler_std(&self) -> f32 {
        self.scaler.std
    }

    fn ledger_bytes(&self) -> u64 {
        self.x.remote_bytes() + self.y.remote_bytes()
    }
}

/// Run the baseline-DDP workflow (materialized arrays + on-demand fetch).
///
/// Returns the same result type as distributed-index-batching so harnesses
/// can print them side by side; additionally reports the data-plane bytes
/// through [`EngineReport::bytes_moved`] (gradient + sample traffic).
pub fn run_baseline_ddp<F>(
    signal: &StaticGraphTemporalSignal,
    cfg: &DistConfig,
    model_factory: F,
) -> EngineReport
where
    F: Fn(&DataSvcPlane) -> Box<dyn Seq2Seq> + Sync,
{
    // Materialize once (the paper's baseline preprocesses distributedly;
    // here the shared-process equivalent is a single materialization whose
    // partitions are owned per rank by the data service).
    let augmented;
    let sig = match cfg.time_period {
        Some(p) => {
            augmented = signal.with_time_feature(p);
            &augmented
        }
        None => signal,
    };
    let out = materialized_xy(sig, cfg.horizon, SplitRatios::default());
    let scaler = out.scaler;
    let splits = out.splits.clone();
    let elem = 4; // f32 payloads
    let policy = st_dist::datasvc::PartitionPolicy::Contiguous;
    let x = DistributedArray::with_storage(
        SignalStorage::from_tensor_spec(out.x, cfg.storage),
        cfg.world,
        cfg.topology,
        elem,
        policy,
    );
    let y = DistributedArray::with_storage(
        SignalStorage::from_tensor_spec(out.y, cfg.storage),
        cfg.world,
        cfg.topology,
        elem,
        policy,
    );

    engine::run(
        cfg,
        &EngineOptions::default(),
        |rank, cm| {
            DataSvcPlane::new(
                x.clone(),
                y.clone(),
                scaler.clone(),
                splits.clone(),
                cfg,
                rank,
                cm.clone(),
            )
        },
        |plane: &DataSvcPlane| model_factory(plane),
    )
    .expect("engine run without resume cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_index::run_distributed_index;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::synthetic;
    use st_dist::shuffle::ShuffleStrategy;
    use st_graph::diffusion_supports;
    use st_models::{ModelConfig, PgtDcrnn, Support};

    fn spec_and_signal() -> (DatasetSpec, StaticGraphTemporalSignal) {
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
        let sig = synthetic::generate(&spec, 21);
        (spec, sig)
    }

    fn make_model(
        sig: &StaticGraphTemporalSignal,
        features: usize,
        horizon: usize,
    ) -> Box<dyn Seq2Seq> {
        let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
        let mc = ModelConfig {
            input_dim: features,
            output_dim: 1,
            hidden: 8,
            num_nodes: sig.num_nodes(),
            horizon,
            diffusion_steps: 2,
            layers: 1,
        };
        Box::new(PgtDcrnn::new(mc, &supports, 42))
    }

    #[test]
    fn baseline_ddp_trains() {
        let (spec, sig) = spec_and_signal();
        let mut cfg = DistConfig::new(2, 3, spec.horizon);
        cfg.batch_per_worker = 4;
        let r = run_baseline_ddp(&sig, &cfg, |_| make_model(&sig, 1, spec.horizon));
        assert_eq!(r.epochs.len(), 3);
        let first = r.epochs.first().unwrap().train_loss;
        let last = r.epochs.last().unwrap().train_loss;
        assert!(last < first, "baseline loss must fall: {first} -> {last}");
    }

    #[test]
    fn baseline_moves_far_more_bytes_than_dist_index() {
        // The crux of Fig. 7: baseline DDP's data plane vs dist-index's
        // gradient-only traffic, same model and settings.
        let (spec, sig) = spec_and_signal();
        let mut cfg = DistConfig::new(2, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.shuffle = ShuffleStrategy::Global;
        let base = run_baseline_ddp(&sig, &cfg, |_| make_model(&sig, 1, spec.horizon));
        let index = run_distributed_index(&sig, &cfg, |_| make_model(&sig, 1, spec.horizon));
        // Dist-index moves *no* sample data between workers; the baseline's
        // globally-shuffled on-demand fetches move plenty. (Gradient
        // traffic is identical on both sides, so compare data planes.)
        assert_eq!(
            index.data_plane_bytes, 0,
            "dist-index data plane must be empty"
        );
        assert!(
            base.data_plane_bytes > 0,
            "baseline must fetch samples remotely"
        );
        assert!(
            base.bytes_moved > index.bytes_moved,
            "baseline total {} bytes vs index {} bytes",
            base.bytes_moved,
            index.bytes_moved
        );
        assert!(
            base.sim_comm_secs > index.sim_comm_secs,
            "baseline comm {} s vs index {} s",
            base.sim_comm_secs,
            index.sim_comm_secs
        );
    }

    #[test]
    fn prefetch_hides_data_plane_time_without_changing_results() {
        // §7 prefetching ablation: same bytes, same learning trajectory,
        // strictly less exposed communication time.
        let (spec, sig) = spec_and_signal();
        let mut cfg = DistConfig::new(2, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        let sync = run_baseline_ddp(&sig, &cfg, |_| make_model(&sig, 1, spec.horizon));
        cfg.prefetch = true;
        let pf = run_baseline_ddp(&sig, &cfg, |_| make_model(&sig, 1, spec.horizon));
        assert!(
            pf.sim_comm_secs < sync.sim_comm_secs,
            "prefetch comm {} s must beat sync {} s",
            pf.sim_comm_secs,
            sync.sim_comm_secs
        );
        assert_eq!(
            pf.data_plane_bytes, sync.data_plane_bytes,
            "prefetch moves the same bytes, it just hides them"
        );
        // Same seed + same samples ⇒ identical training losses.
        for (a, b) in pf.epochs.iter().zip(sync.epochs.iter()) {
            assert!(
                (a.train_loss - b.train_loss).abs() < 1e-6,
                "epoch {}: {} vs {}",
                a.epoch,
                a.train_loss,
                b.train_loss
            );
        }
    }

    #[test]
    fn both_reach_similar_accuracy() {
        // Same samples, same shuffle, same model ⇒ near-identical learning;
        // only the data plane differs.
        let (spec, sig) = spec_and_signal();
        let mut cfg = DistConfig::new(2, 3, spec.horizon);
        cfg.batch_per_worker = 4;
        let base = run_baseline_ddp(&sig, &cfg, |_| make_model(&sig, 1, spec.horizon));
        let index = run_distributed_index(&sig, &cfg, |_| make_model(&sig, 1, spec.horizon));
        let b = base.best_val_mae();
        let i = index.best_val_mae();
        assert!(
            (b - i).abs() < 0.35 * b.max(i),
            "val MAE diverged: baseline {b} vs index {i}"
        );
    }
}
