//! Index-batching over **dynamic graphs with temporal signal** (§7).
//!
//! The paper's conclusion names this the first planned extension: PGT's
//! `DynamicGraphTemporalSignal`, where edge weights evolve alongside node
//! features. Index-batching generalizes cleanly because *both* halves of a
//! snapshot are index-addressed:
//!
//! - features: zero-copy views `data[s .. s+h]` / `data[s+h .. s+2h]` of
//!   a static [`IndexDataset`] over the feature tensor;
//! - topology: the per-entry diffusion supports are computed **once per
//!   time entry** and shared by every overlapping window — a materializing
//!   pipeline would replicate each entry's supports into `horizon`
//!   windows, the same eq.-(1) blow-up the paper eliminates for features.
//!
//! A [`DynamicIndexDataset`] is a [`BatchSource`] whose forward is
//! [`PgtDcrnn::forward_dynamic`], which swaps the diffusion operators per
//! step while sharing gate weights across time; [`train_dynamic`] is a
//! [`Trainer`] run over it at batch 1.

use crate::dist_index::DistConfig;
use crate::engine::EngineReport;
use crate::index_batching::IndexDataset;
use crate::trainer::{BatchSource, Trainer};
use st_autograd::{Tape, Var};
use st_data::dynamic::DynamicGraphTemporalSignal;
use st_data::scaler::StandardScaler;
use st_data::splits::{SplitIndices, SplitRatios};
use st_data::storage::{RowStore, SignalStorage, StorageSpec};
use st_graph::diffusion_supports;
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_tensor::Tensor;

/// Index-batched dataset over a dynamic-topology signal: an
/// [`IndexDataset`] over the features plus each entry's supports.
pub struct DynamicIndexDataset {
    /// The single standardized feature copy and its windows.
    index: IndexDataset,
    /// Diffusion supports per time entry (one set per entry, shared by all
    /// windows that touch the entry).
    supports: Vec<Vec<Support>>,
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
        let features = SignalStorage::InMemory(signal.data.contiguous());
        let supports = signal
            .adjacencies
            .iter()
            .map(|adj| Support::wrap_all(diffusion_supports(adj, diffusion_steps)))
            .collect();
        DynamicIndexDataset {
            index: IndexDataset::from_storage(features, horizon, ratios, spec),
            supports,
        }
    }

    /// The feature windows: snapshot count, splits, scaler, dims, storage.
    pub fn index(&self) -> &IndexDataset {
        &self.index
    }

    /// Snapshot `i`: `[1, h, N, F]` `(x, y)` feature windows (zero-copy
    /// views in memory, one streamed read out-of-core) plus the borrowed
    /// per-step support sets for the x window.
    pub fn snapshot(&self, i: usize) -> (Tensor, Tensor, Vec<&[Support]>) {
        let (x, y) = self.index.snapshot(i);
        let batch_of_one = |t: Tensor| t.unsqueeze(0).expect("add batch dim");
        (batch_of_one(x), batch_of_one(y), self.supports_for(i))
    }

    /// The borrowed per-step support sets of window `i` alone (no feature
    /// views) — one slice per step, each shared by every window touching
    /// the entry.
    pub fn supports_for(&self, i: usize) -> Vec<&[Support]> {
        self.supports[i..i + self.index.horizon()]
            .iter()
            .map(|s| s.as_slice())
            .collect()
    }

    /// Resident bytes of the index layout (features f32 + support CSRs +
    /// window bookkeeping) — the dynamic analogue of eq. (2).
    pub fn resident_bytes(&self) -> u64 {
        let features = self.index.storage().resident_bytes();
        let supports: u64 = self
            .supports
            .iter()
            .flat_map(|per_entry| per_entry.iter())
            .map(|s| s.mat.approx_bytes() as u64)
            .sum();
        features + supports + self.index.num_snapshots() as u64 * 8
    }

    /// What a materializing pipeline would hold instead: every window's
    /// features duplicated twice (eq. 1) *and* every window's per-step
    /// support list replicated.
    pub fn materialized_bytes(&self) -> u64 {
        let s = self.index.num_snapshots() as u64;
        let h = self.index.horizon() as u64;
        let row = (self.index.storage().row_width() * 4) as u64;
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

/// Dynamic windows: each carries its own support sequence, so samples with
/// different topology cannot share a fused batch (the same constraint
/// PGT's dynamic-signal iterators have) — every batch is one window.
impl BatchSource for DynamicIndexDataset {
    fn num_snapshots(&self) -> usize {
        self.index.num_snapshots()
    }

    fn splits(&self) -> &SplitIndices {
        self.index.splits()
    }

    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        self.index.batch(indices)
    }

    fn get_batch_quoted(&self, indices: &[usize]) -> (Tensor, Tensor, u64) {
        self.index.batch_quoted(indices)
    }

    fn is_chunked(&self) -> bool {
        self.index.is_chunked()
    }

    fn scaler(&self) -> &StandardScaler {
        self.index.scaler()
    }

    fn forward(&self, model: &dyn Seq2Seq, tape: &Tape, ids: &[usize], x: &Tensor) -> Var {
        assert_eq!(ids.len(), 1, "dynamic windows cannot share a fused batch");
        model.forward_dynamic(tape, x, &self.supports_for(ids[0]))
    }
}

/// Diffusion steps K of the dynamic model: every entry's supports reach K
/// hops.
const K: usize = 2;

/// Train a PGT-DCRNN of width `hidden` over a dynamic signal with
/// index-batching: a [`Trainer`] run over its [`DynamicIndexDataset`] at
/// batch 1 (dynamic windows cannot share a fused batch), so
/// `cfg.batch_per_worker` is not read, and neither is `cfg.world`. The
/// dataset's feature copy lives under `cfg.storage`.
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
    let model = PgtDcrnn::new(
        ModelConfig {
            input_dim: ds.index.num_features(),
            output_dim: 1,
            hidden,
            num_nodes: ds.index.num_nodes(),
            horizon: cfg.horizon,
            diffusion_steps: K,
            layers: 1,
        },
        // Initial supports only fix the weight layout (support count); the
        // per-step operators come from the dataset at runtime through its
        // forward.
        &ds.supports[0],
        cfg.seed,
    );
    let trainer = Trainer::new(DistConfig {
        batch_per_worker: 1,
        ..cfg.clone()
    });
    let report = trainer.train(&model, &ds);
    (model, report)
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
        assert!(x.shares_storage(d.index().data()), "x must be a view");
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
        let train_view = d.index().data().narrow(0, 0, d.splits().train.end).unwrap();
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

    #[test]
    fn evaluate_reproduces_the_last_epoch_val_mae() {
        // `Trainer::evaluate` runs the source's forward too: over the val
        // range at batch 1 it is the last epoch's validation, bit for bit.
        let sig = synthetic_dynamic_traffic(6, 80, 7);
        let cfg = DistConfig::new(1, 2, 4);
        let (model, report) = train_dynamic(&sig, 8, &cfg);
        let d = DynamicIndexDataset::from_signal(&sig, 4, SplitRatios::default(), K);
        let trainer = Trainer::new(DistConfig {
            batch_per_worker: 1,
            ..cfg
        });
        let mae = trainer.evaluate(&model, &d, d.splits().val.clone());
        let last = report.epochs.last().unwrap().val_mae;
        assert!(mae.is_finite());
        assert_eq!(mae.to_bits(), last.to_bits(), "evaluate {mae} vs {last}");
    }
}
