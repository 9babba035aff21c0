//! Index-batching over **dynamic graphs with temporal signal** (§7).
//!
//! The paper's conclusion names this the first planned extension: PGT's
//! `DynamicGraphTemporalSignal`, where edge weights evolve alongside node
//! features. Index-batching generalizes cleanly because *both* halves of a
//! snapshot are index-addressed:
//!
//! - features: zero-copy views `data[s .. s+h]` / `data[s+h .. s+2h]`,
//!   exactly as in the static [`IndexDataset`](crate::IndexDataset);
//! - topology: the per-entry diffusion supports are computed **once per
//!   time entry** and shared by every overlapping window — a materializing
//!   pipeline would replicate each entry's supports into `horizon`
//!   windows, the same eq.-(1) blow-up the paper eliminates for features.
//!
//! Training uses [`PgtDcrnn::forward_dynamic`], which swaps the diffusion
//! operators per step while sharing gate weights across time.

use crate::dist_index::DistConfig;
use crate::engine::EngineReport;
use st_data::dynamic::DynamicGraphTemporalSignal;
use st_data::preprocess::num_snapshots;
use st_data::scaler::StandardScaler;
use st_data::splits::{SplitIndices, SplitRatios};
use st_data::storage::{RowStore, SignalStorage, StorageSpec};
use st_graph::diffusion_supports;
use st_models::{ModelConfig, PgtDcrnn, Support};
use st_tensor::Tensor;

/// Index-batched dataset over a dynamic-topology signal.
pub struct DynamicIndexDataset {
    /// Single standardized feature copy `[E, N, F]` — dense in RAM or
    /// out-of-core chunks, per the construction-time [`StorageSpec`].
    store: SignalStorage,
    /// Diffusion supports per time entry (one set per entry, shared by all
    /// windows that touch the entry).
    supports: Vec<Vec<Support>>,
    horizon: usize,
    scaler: StandardScaler,
    splits: SplitIndices,
}

impl DynamicIndexDataset {
    /// Build from a dynamic signal: fit the scaler on the training prefix,
    /// standardize the single feature copy, and compute per-entry supports.
    pub fn from_signal(
        signal: &DynamicGraphTemporalSignal,
        horizon: usize,
        ratios: SplitRatios,
        diffusion_steps: usize,
    ) -> Self {
        Self::from_signal_spec(
            signal,
            horizon,
            ratios,
            diffusion_steps,
            StorageSpec::InMemory,
        )
    }

    /// [`DynamicIndexDataset::from_signal`] with an explicit storage
    /// backend for the standardized feature copy. The dynamic signal's
    /// source tensor stays in memory; `spec` bounds what the *dataset*
    /// keeps resident.
    pub fn from_signal_spec(
        signal: &DynamicGraphTemporalSignal,
        horizon: usize,
        ratios: SplitRatios,
        diffusion_steps: usize,
        spec: StorageSpec,
    ) -> Self {
        let s = num_snapshots(signal.entries(), horizon);
        assert!(s > 0, "signal too short for horizon {horizon}");
        let splits = ratios.split(s);
        let train_entries = (splits.train.end + 2 * horizon - 1).min(signal.entries());
        let train_view = signal
            .data
            .narrow(0, 0, train_entries)
            .expect("prefix in range");
        let scaler = StandardScaler::fit(&train_view);
        let data = scaler.transform(&signal.data);
        let supports = signal
            .adjacencies
            .iter()
            .map(|adj| Support::wrap_all(diffusion_supports(adj, diffusion_steps)))
            .collect();
        DynamicIndexDataset {
            store: SignalStorage::from_tensor_spec(data, spec),
            supports,
            horizon,
            scaler,
            splits,
        }
    }

    /// The dense standardized tensor (in-memory storage only; panics for
    /// chunked datasets — use [`DynamicIndexDataset::snapshot`]).
    pub fn data(&self) -> &Tensor {
        self.store.dense()
    }

    /// True when the feature copy streams from out-of-core chunks.
    pub fn is_chunked(&self) -> bool {
        self.store.is_chunked()
    }

    /// Number of `(x, y)` snapshot pairs.
    pub fn num_snapshots(&self) -> usize {
        num_snapshots(self.store.rows(), self.horizon)
    }

    /// Split ranges.
    pub fn splits(&self) -> &SplitIndices {
        &self.splits
    }

    /// The fitted scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Window length.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.store.dims()[1]
    }

    /// Node features.
    pub fn num_features(&self) -> usize {
        self.store.dims()[2]
    }

    /// Snapshot `i`: `(x, y)` feature windows (zero-copy views in memory,
    /// streamed reads out-of-core) plus the borrowed per-step support sets
    /// for the x window.
    pub fn snapshot(&self, i: usize) -> (Tensor, Tensor, Vec<&[Support]>) {
        let (x, y, _) = self.snapshot_quoted(i);
        (x, y, self.supports_for(i))
    }

    /// [`DynamicIndexDataset::snapshot`] minus the supports, plus the file
    /// bytes this window's read pulled (0 in memory).
    pub fn snapshot_quoted(&self, i: usize) -> (Tensor, Tensor, u64) {
        let h = self.horizon;
        // One contiguous read covers both windows (they abut).
        let (rows, io) = self.store.read_rows_quoted(i..i + 2 * h);
        let half = |start: usize| {
            rows.narrow(0, start, h)
                .expect("window in range")
                .unsqueeze(0)
                .expect("add batch dim")
        };
        (half(0), half(h), io)
    }

    /// The borrowed per-step support sets of window `i` alone (no feature
    /// views) — one slice per step, each shared by every window touching
    /// the entry.
    pub fn supports_for(&self, i: usize) -> Vec<&[Support]> {
        self.supports[i..i + self.horizon]
            .iter()
            .map(|s| s.as_slice())
            .collect()
    }

    /// Resident bytes of the index layout (features f32 + support CSRs +
    /// window bookkeeping) — the dynamic analogue of eq. (2).
    pub fn resident_bytes(&self) -> u64 {
        let features = self.store.resident_bytes();
        let supports: u64 = self
            .supports
            .iter()
            .flat_map(|per_entry| per_entry.iter())
            .map(|s| s.mat.approx_bytes() as u64)
            .sum();
        features + supports + self.num_snapshots() as u64 * 8
    }

    /// What a materializing pipeline would hold instead: every window's
    /// features duplicated twice (eq. 1) *and* every window's per-step
    /// support list replicated.
    pub fn materialized_bytes(&self) -> u64 {
        let s = self.num_snapshots() as u64;
        let h = self.horizon as u64;
        let row = (self.store.row_width() * 4) as u64;
        let features = 2 * s * h * row;
        let per_entry_supports: u64 = self
            .supports
            .iter()
            .flat_map(|p| p.iter())
            .map(|sp| sp.mat.approx_bytes() as u64)
            .sum::<u64>()
            / self.supports.len().max(1) as u64;
        let supports = s * h * per_entry_supports;
        features + supports
    }
}

/// Diffusion steps K of the dynamic model: every entry's supports reach K
/// hops.
const K: usize = 2;

/// The §7 dynamic-graph data plane: zero-copy feature windows plus
/// per-entry diffusion supports, visited one window at a time (each window
/// carries its own support sequence, so samples with different topology
/// cannot share a fused batch — the same constraint PGT's dynamic-signal
/// iterators have). Single-worker and model-independent
/// (`sync_gradients = false`), with the forward routed through
/// [`st_models::Seq2Seq::forward_dynamic`] so per-step operators come from
/// the dataset at runtime.
pub struct DynamicPlane {
    ds: DynamicIndexDataset,
    seed: u64,
    cost: st_device::CostModel,
}

impl DynamicPlane {
    /// Wrap a dynamic dataset; `seed` drives the epoch shuffle and `cm`
    /// prices chunk IO when the dataset streams from out-of-core storage.
    pub fn new(ds: DynamicIndexDataset, seed: u64, cm: &st_device::CostModel) -> Self {
        DynamicPlane {
            ds,
            seed,
            cost: cm.clone(),
        }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &DynamicIndexDataset {
        &self.ds
    }
}

impl crate::engine::DistDataPlane for DynamicPlane {
    fn rounds_per_epoch(&self) -> usize {
        self.ds.splits().train.len()
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let train = self.ds.splits().train.clone();
        st_tensor::random::permutation(train.len(), self.seed, epoch)
            .into_iter()
            .map(|idx| vec![train.start + idx])
            .collect()
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        self.ds.splits().val.clone().map(|i| vec![i]).collect()
    }

    fn fetch_batch(&self, ids: &[usize]) -> crate::engine::Fetch {
        assert_eq!(ids.len(), 1, "dynamic windows cannot share a fused batch");
        let (x, y, io_bytes) = self.ds.snapshot_quoted(ids[0]);
        crate::engine::Fetch::from_store(x, y, io_bytes, &self.cost)
    }

    fn remote(&self) -> bool {
        // Out-of-core windows carry modeled disk time; let the engine's
        // prefetcher hide it behind compute.
        self.ds.is_chunked()
    }

    fn sync_gradients(&self) -> bool {
        false
    }

    fn scaler_std(&self) -> f32 {
        self.ds.scaler().std
    }

    fn forward(
        &self,
        model: &dyn st_models::Seq2Seq,
        tape: &st_autograd::Tape,
        ids: &[usize],
        x: &st_tensor::Tensor,
    ) -> st_autograd::Var {
        model.forward_dynamic(tape, x, &self.ds.supports_for(ids[0]))
    }
}

/// Train a PGT-DCRNN of width `hidden` over a dynamic signal with
/// index-batching, via the unified engine as a world of one. Every batch
/// is one window (dynamic windows cannot share a fused batch), so
/// `cfg.world` and `cfg.batch_per_worker` are not read. The report's
/// `epochs[].val_mae` comes from rank 0's own f64 validation sums.
pub fn train_dynamic(
    signal: &DynamicGraphTemporalSignal,
    hidden: usize,
    cfg: &DistConfig,
) -> (PgtDcrnn, EngineReport) {
    let ds = DynamicIndexDataset::from_signal_spec(
        signal,
        cfg.horizon,
        SplitRatios::default(),
        K,
        cfg.storage,
    );
    let std = ds.scaler().std;
    let cfg = DistConfig {
        world: 1,
        batch_per_worker: 1,
        ..cfg.clone()
    };
    let model = PgtDcrnn::new(
        ModelConfig {
            input_dim: ds.num_features(),
            output_dim: 1,
            hidden,
            num_nodes: ds.num_nodes(),
            horizon: cfg.horizon,
            diffusion_steps: K,
            layers: 1,
        },
        // Initial supports only fix the weight layout (support count); the
        // per-step operators come from the dataset at runtime through the
        // plane's forward hook.
        &ds.supports[0],
        cfg.seed,
    );
    let plane = DynamicPlane::new(ds, cfg.seed, &st_device::CostModel::default());
    let report = crate::engine::run_single(
        &cfg,
        &crate::engine::EngineOptions::default(),
        &plane,
        &model,
    )
    .expect("engine run without resume cannot fail");
    (model, crate::trainer::single_worker_view(report, std))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::dynamic::synthetic_dynamic_traffic;

    fn ds() -> DynamicIndexDataset {
        let sig = synthetic_dynamic_traffic(6, 60, 5);
        DynamicIndexDataset::from_signal(&sig, 4, SplitRatios::default(), 2)
    }

    #[test]
    fn snapshot_shapes_and_support_borrowing() {
        let d = ds();
        let (x, y, sup) = d.snapshot(3);
        assert_eq!(x.dims(), &[1, 4, 6, 1]);
        assert_eq!(y.dims(), &[1, 4, 6, 1]);
        assert_eq!(sup.len(), 4);
        // Supports are borrowed from the per-entry store, not cloned:
        // entry 4 appears in windows 1..=4 and is the same allocation.
        let (_, _, sup_b) = d.snapshot(4);
        assert!(
            std::ptr::eq(sup[1], sup_b[0]),
            "entry 4 shared by windows 3 and 4"
        );
    }

    #[test]
    fn feature_views_are_zero_copy() {
        let d = ds();
        let (x, _, _) = d.snapshot(0);
        assert!(x.shares_storage(d.data()), "x must be a view");
    }

    #[test]
    fn chunked_snapshots_match_in_memory_bitwise() {
        use st_data::storage::ChunkedSpec;
        let sig = synthetic_dynamic_traffic(6, 60, 5);
        let dense = ds();
        for chunk in [1usize, 3, 7, 16, 64] {
            let spec = StorageSpec::Chunked(ChunkedSpec::new(chunk));
            let d = DynamicIndexDataset::from_signal_spec(&sig, 4, SplitRatios::default(), 2, spec);
            assert!(d.is_chunked());
            for i in [0usize, 5, 17, d.num_snapshots() - 1] {
                let (dx, dy, _) = dense.snapshot(i);
                let (cx, cy, _) = d.snapshot(i);
                for (a, b) in [(dx, cx), (dy, cy)] {
                    assert_eq!(a.dims(), b.dims());
                    for (x, y) in a.to_vec().iter().zip(b.to_vec()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "chunk={chunk} window={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn standardization_uses_train_prefix() {
        let d = ds();
        // Standardized training data has ≈0 mean.
        let train_view = d.data().narrow(0, 0, d.splits().train.end).unwrap();
        let vals = train_view.to_vec();
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn index_layout_beats_materialization() {
        let d = ds();
        assert!(
            d.resident_bytes() * 2 < d.materialized_bytes(),
            "index {} vs materialized {}",
            d.resident_bytes(),
            d.materialized_bytes()
        );
    }

    #[test]
    fn dynamic_training_learns() {
        let sig = synthetic_dynamic_traffic(6, 80, 7);
        let (_, report) = train_dynamic(&sig, 8, &DistConfig::new(1, 3, 4));
        let stats = &report.epochs;
        assert_eq!(stats.len(), 3);
        let first = stats.first().unwrap().train_loss;
        let last = stats.last().unwrap().train_loss;
        assert!(
            last < first,
            "dynamic-graph loss must fall: {first} -> {last}"
        );
        assert!(stats.last().unwrap().val_mae.is_finite());
    }
}
