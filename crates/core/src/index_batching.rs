//! Index-batching (§4.1): the paper's core memory optimization.
//!
//! Instead of materializing every sliding-window snapshot (Algorithm 1),
//! an [`IndexDataset`] stores **one** standardized copy of the signal plus
//! the window-start indices, and reconstructs any snapshot at runtime as a
//! pair of zero-copy views:
//!
//! ```text
//! x_i = data[start_i .. start_i + horizon]
//! y_i = data[start_i + horizon .. start_i + 2*horizon]      (Fig. 4)
//! ```
//!
//! Space drops from eq. (1) (`2·S·h·N·F`) to eq. (2) (`E·N·F + S`), and the
//! samples fed to the model are **identical** to standard batching — which
//! is why accuracy is unchanged (Fig. 5); a test below asserts exactly that.
//!
//! The single copy sits behind [`SignalStorage`], and a window is one
//! `start .. start + 2·horizon` row read split at `horizon` (x and y abut).
//! In memory that read is a zero-copy view and a batch a straight memcpy
//! per sample; on the chunked backend it is a positional read of exactly
//! those rows, decoded straight into the batch, dropping resident bytes
//! from `E·N·F` to the batch itself — the axis eq. (2) cannot shrink.

use st_data::preprocess::num_snapshots;
use st_data::scaler::StandardScaler;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::{SplitIndices, SplitRatios};
use st_data::storage::{RowStore, SignalStorage, StorageSpec};
use st_tensor::Tensor;

/// The index-batching dataset: one data copy + window indices.
#[derive(Debug, Clone)]
pub struct IndexDataset {
    /// The single standardized copy of the signal, `[E, N, F]`, behind a
    /// storage backend.
    store: SignalStorage,
    horizon: usize,
    scaler: StandardScaler,
    splits: SplitIndices,
}

impl IndexDataset {
    /// Build from a signal: optionally append the time-of-day feature
    /// (traffic datasets), fit the scaler on the training prefix, and
    /// standardize the single copy in place of the materializing pipeline.
    ///
    /// The dataset inherits the signal's storage backend: a chunked signal
    /// is standardized chunk-by-chunk (the scaler is elementwise, so the
    /// result is bit-identical to the dense path) and stays chunked; the
    /// scaler *fit* streams the training prefix too.
    pub fn from_signal(
        signal: &StaticGraphTemporalSignal,
        horizon: usize,
        ratios: SplitRatios,
        time_feature_period: Option<usize>,
    ) -> Self {
        let storage = match time_feature_period {
            Some(p) => signal.with_time_feature(p).storage,
            None => signal.storage.clone(),
        };
        let spec = storage.spec();
        Self::from_storage(storage, horizon, ratios, spec)
    }

    /// Index `[E, N, F]` rows `storage` by windows of `horizon`: fit the
    /// scaler on the training prefix with [`StandardScaler::fit_rows`]
    /// (the bits of [`StandardScaler::fit`] over the materialized prefix)
    /// and standardize a copy under `spec`, block by block. An in-memory
    /// `storage` kept in memory is standardized in place when nothing else
    /// holds its buffer: the same bits without a second copy of the signal.
    pub(crate) fn from_storage(
        storage: SignalStorage,
        horizon: usize,
        ratios: SplitRatios,
        spec: StorageSpec,
    ) -> Self {
        let entries = storage.rows();
        let s = num_snapshots(entries, horizon);
        assert!(s > 0, "signal too short for horizon {horizon}");
        let splits = ratios.split(s);
        // Fit on the entries the training snapshots can touch:
        // windows [0, train_end) cover entries [0, train_end + 2h - 1).
        let train_entries = (splits.train.end + 2 * horizon - 1).min(entries);
        let scaler = StandardScaler::fit_rows(&storage, 0..train_entries);
        let store = match storage {
            SignalStorage::InMemory(data) if !spec.is_chunked() => {
                SignalStorage::InMemory(scaler.transform_owned(data))
            }
            storage => storage.rewrite_rows(spec, |_, rows| scaler.transform(rows)),
        };
        IndexDataset {
            store,
            horizon,
            scaler,
            splits,
        }
    }

    /// Wrap already-standardized data directly (used by the distributed
    /// runtimes, where each worker holds its own full copy).
    pub fn from_standardized(
        data: Tensor,
        horizon: usize,
        scaler: StandardScaler,
        splits: SplitIndices,
    ) -> Self {
        IndexDataset {
            store: SignalStorage::InMemory(data),
            horizon,
            scaler,
            splits,
        }
    }

    /// Number of `(x, y)` snapshot pairs.
    pub fn num_snapshots(&self) -> usize {
        num_snapshots(self.store.rows(), self.horizon)
    }

    /// The split ranges over snapshot ids.
    pub fn splits(&self) -> &SplitIndices {
        &self.splits
    }

    /// The fitted scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Forecast horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.store.dims()[1]
    }

    /// Feature count (after any augmentation).
    pub fn num_features(&self) -> usize {
        self.store.dims()[2]
    }

    /// The single standardized data copy (share-aliased, never cloned).
    /// Panics for a chunked dataset — streaming consumers use
    /// [`IndexDataset::storage`].
    pub fn data(&self) -> &Tensor {
        self.store.dense()
    }

    /// The storage backend behind the single copy.
    pub fn storage(&self) -> &SignalStorage {
        &self.store
    }

    /// True when windows stream from on-disk chunks.
    pub fn is_chunked(&self) -> bool {
        self.store.is_chunked()
    }

    /// Reconstruct snapshot `i` as `(x, y)` of shape `[horizon, N, F]` each
    /// — the runtime request of Fig. 4. **Zero-copy views** on the
    /// in-memory backend; the two halves of one read on the chunked one.
    pub fn snapshot(&self, i: usize) -> (Tensor, Tensor) {
        let h = self.horizon;
        let (win, _) = self.store.read_rows_quoted(i..i + 2 * h);
        (
            win.narrow(0, 0, h).expect("x half"),
            win.narrow(0, h, h).expect("y half"),
        )
    }

    /// Assemble a minibatch `[B, h, N, F]` for x and y from snapshot ids.
    /// Windows are contiguous row-ranges of the single copy, so assembly is
    /// a straight memcpy per sample — no per-window preprocessing.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        let (x, y, _) = self.batch_quoted(indices);
        (x, y)
    }

    /// Like [`IndexDataset::batch`], additionally quoting the **bytes read
    /// from disk** to assemble the batch (0 on the in-memory backend) so
    /// callers can price the IO and overlap it with compute.
    ///
    /// Each window's halves are read straight into the batch. Windows whose
    /// `i..i+2h` row ranges overlap or abut are merged into one read of
    /// their union that they are then copied out of, so an ordered pass
    /// reads each row once per batch instead of once per window. The quote
    /// is the bytes of those runs: never more than the windows' own.
    pub fn batch_quoted(&self, indices: &[usize]) -> (Tensor, Tensor, u64) {
        let h = self.horizon;
        let n = self.num_nodes();
        let f = self.num_features();
        let half = h * n * f;
        for &i in indices {
            assert!(
                i < self.num_snapshots(),
                "snapshot id {i} out of range ({} snapshots)",
                self.num_snapshots()
            );
        }
        let mut x = vec![0.0; indices.len() * half];
        let mut y = vec![0.0; indices.len() * half];
        let mut io = 0u64;
        let slot = |b: usize| b * half..(b + 1) * half;
        // Batch slots in ascending order of window start.
        let mut by_start: Vec<usize> = (0..indices.len()).collect();
        by_start.sort_unstable_by_key(|&b| indices[b]);
        let mut union = Vec::new();
        for run in by_start.chunk_by(|&a, &b| indices[b] <= indices[a] + 2 * h) {
            let first = indices[run[0]];
            if let [b] = *run {
                io += self.store.read_rows_into(first..first + h, &mut x[slot(b)]);
                io += self
                    .store
                    .read_rows_into(first + h..first + 2 * h, &mut y[slot(b)]);
                continue;
            }
            let end = indices[run[run.len() - 1]] + 2 * h;
            union.resize((end - first) * n * f, 0.0);
            io += self.store.read_rows_into(first..end, &mut union);
            for &b in run {
                let at = (indices[b] - first) * n * f;
                x[slot(b)].copy_from_slice(&union[at..at + half]);
                y[slot(b)].copy_from_slice(&union[at + half..at + 2 * half]);
            }
        }
        let dims = [indices.len(), h, n, f];
        (
            Tensor::from_vec(x, dims).expect("batch numel"),
            Tensor::from_vec(y, dims).expect("batch numel"),
            io,
        )
    }

    /// Resident bytes of this dataset per the paper's eq. (2):
    /// one data copy plus one index per snapshot.
    pub fn resident_bytes(&self, elem_bytes: usize) -> u64 {
        crate::memory_model::index_batching_bytes(
            self.store.rows(),
            self.horizon,
            self.num_nodes(),
            self.num_features(),
            elem_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::preprocess::materialized_xy;
    use st_data::storage::ChunkedSpec;
    use st_data::synthetic;
    use st_graph::Adjacency;

    fn toy_signal(entries: usize, nodes: usize) -> StaticGraphTemporalSignal {
        let adj = Adjacency::from_dense(nodes, vec![1.0; nodes * nodes]);
        let data = Tensor::arange(entries * nodes)
            .reshape([entries, nodes, 1])
            .unwrap();
        StaticGraphTemporalSignal::new(data, adj)
    }

    #[test]
    fn snapshots_are_zero_copy_views() {
        let sig = toy_signal(20, 3);
        let ds = IndexDataset::from_signal(&sig, 4, SplitRatios::default(), None);
        let (x, y) = ds.snapshot(2);
        assert_eq!(x.dims(), &[4, 3, 1]);
        assert!(x.shares_storage(ds.data()), "x must alias the single copy");
        assert!(y.shares_storage(ds.data()), "y must alias the single copy");
        // And all snapshots share ONE storage (ref-count grows, bytes don't).
        let (x2, _) = ds.snapshot(7);
        assert!(x2.shares_storage(&x));
    }

    #[test]
    fn index_batching_equals_standard_batching_exactly() {
        // The paper's central correctness claim (§5.1): "index-batching
        // feeds the same spatiotemporal snapshots to the model as standard
        // ST-GNN batching". Compare every sample against Algorithm 1.
        let spec = DatasetSpec::get(DatasetKind::MetrLa).scaled(0.01);
        let sig = synthetic::generate(&spec, 33);
        let sig_aug = sig.with_time_feature(spec.period);
        let std_out = materialized_xy(&sig_aug, spec.horizon, SplitRatios::default());
        let ds = IndexDataset::from_signal(
            &sig,
            spec.horizon,
            SplitRatios::default(),
            Some(spec.period),
        );
        assert_eq!(ds.num_snapshots(), std_out.x.dim(0));
        // Standardization differs slightly (Algorithm 1 fits on x_train
        // windows; index-batching on the entry prefix), so compare in
        // un-standardized units.
        for i in [0usize, 1, ds.num_snapshots() / 2, ds.num_snapshots() - 1] {
            let (x, y) = ds.snapshot(i);
            let x_std = std_out.scaler.inverse(&std_out.x.select(0, i).unwrap());
            let y_std = std_out.scaler.inverse(&std_out.y.select(0, i).unwrap());
            assert!(
                ds.scaler().inverse(&x).allclose(&x_std, 1e-4),
                "x snapshot {i} differs"
            );
            assert!(
                ds.scaler().inverse(&y).allclose(&y_std, 1e-4),
                "y snapshot {i} differs"
            );
        }
    }

    #[test]
    fn batch_matches_individual_snapshots() {
        let sig = toy_signal(30, 2);
        let ds = IndexDataset::from_signal(&sig, 3, SplitRatios::default(), None);
        let (bx, by) = ds.batch(&[5, 0, 9]);
        assert_eq!(bx.dims(), &[3, 3, 2, 1]);
        for (row, &i) in [5usize, 0, 9].iter().enumerate() {
            let (x, y) = ds.snapshot(i);
            assert_eq!(bx.select(0, row).unwrap().to_vec(), x.to_vec());
            assert_eq!(by.select(0, row).unwrap().to_vec(), y.to_vec());
        }
    }

    #[test]
    fn chunked_dataset_is_bit_identical_to_in_memory() {
        // The tentpole invariant at the dataset layer: same signal, chunked
        // backend, arbitrary chunk size ⇒ identical bits out of `batch`.
        let sig = toy_signal(40, 3);
        let dense = IndexDataset::from_signal(&sig, 4, SplitRatios::default(), None);
        for chunk in [1usize, 3, 7, 16, 64] {
            let csig = sig.rechunk(StorageSpec::Chunked(ChunkedSpec::new(chunk)));
            let cds = IndexDataset::from_signal(&csig, 4, SplitRatios::default(), None);
            assert!(cds.is_chunked());
            let ids = [0usize, 5, 17, cds.num_snapshots() - 1];
            let (dx, dy) = dense.batch(&ids);
            let (cx, cy, _) = cds.batch_quoted(&ids);
            assert_same_bits(&[dx, dy], &[cx, cy], chunk);
            // And out of `snapshot`, the same one read per window.
            for i in ids {
                let (dx, dy) = dense.snapshot(i);
                let (cx, cy) = cds.snapshot(i);
                assert_same_bits(&[dx, dy], &[cx, cy], chunk);
            }
        }
    }

    fn assert_same_bits(want: &[Tensor], got: &[Tensor], chunk: usize) {
        for (a, b) in want.iter().zip(got) {
            assert_eq!(a.dims(), b.dims());
            for (x, y) in a.to_vec().iter().zip(b.to_vec()) {
                assert_eq!(x.to_bits(), y.to_bits(), "chunk={chunk}");
            }
        }
    }

    #[test]
    fn a_cold_snapshot_inside_one_chunk_is_one_read() {
        // x and y abut, so `snapshot` issues one `i..i+2h` read.
        let sig = toy_signal(40, 3);
        let csig = sig.rechunk(StorageSpec::Chunked(ChunkedSpec::new(16)));
        let ds = IndexDataset::from_signal(&csig, 4, SplitRatios::default(), None);
        let store = ds.storage().chunked().expect("stays chunked");
        assert_eq!((store.io_chunks(), store.io_bytes()), (0, 0), "cold");
        let _ = ds.snapshot(17); // rows 17..25
        assert_eq!((store.io_chunks(), store.io_bytes()), (1, 8 * 3 * 4));
    }

    #[test]
    fn chunked_batches_quote_the_bytes_of_their_merged_runs() {
        let sig = toy_signal(64, 2);
        let csig = sig.rechunk(StorageSpec::Chunked(ChunkedSpec::new(8)));
        let ds = IndexDataset::from_signal(&csig, 2, SplitRatios::default(), None);
        let dense = IndexDataset::from_signal(&sig, 2, SplitRatios::default(), None);
        let row = 2 * 4; // bytes a row
        let window = 4 * row; // 2h rows
        for (ids, rows_read, what) in [
            (
                vec![0usize, 1, 2],
                6,
                "three overlapping windows: rows 0..6 once",
            ),
            (vec![0, 1, 2], 6, "again: nothing is cached, same quote"),
            (
                vec![40, 7, 23],
                12,
                "scattered windows: each its own 2h rows",
            ),
            (vec![9, 5], 8, "5..9 and 9..13 abut: one run"),
            (vec![10, 5], 8, "5..9 and 10..14 leave a gap: two runs"),
            (
                vec![30, 4, 30, 6],
                10,
                "a duplicate and an overlap: 4..10 and 30..34",
            ),
            (vec![60], 4, "the last window touches the last row"),
            (vec![], 0, "an empty batch reads nothing"),
        ] {
            let store = ds.storage().chunked().expect("stays chunked");
            let before = store.io_bytes();
            let (cx, cy, io) = ds.batch_quoted(&ids);
            assert_eq!(io, rows_read * row, "{what}");
            assert_eq!(store.io_bytes() - before, io, "{what}");
            assert!(io <= ids.len() as u64 * window, "{what}");
            let (dx, dy, dio) = dense.batch_quoted(&ids);
            assert_eq!(dio, 0, "in memory quotes nothing");
            assert_same_bits(&[dx, dy], &[cx, cy], 8);
        }
    }

    #[test]
    fn eq2_resident_bytes() {
        let sig = toy_signal(100, 4);
        let ds = IndexDataset::from_signal(&sig, 5, SplitRatios::default(), None);
        // 100*4*1 data elements ×8 + (100-9) indices ×8.
        assert_eq!(ds.resident_bytes(8), 100 * 4 * 8 + 91 * 8);
    }

    #[test]
    fn memory_ratio_matches_paper_for_pems() {
        // eq1 / eq2 at PeMS scale ⇒ the ~89% reduction headline.
        let spec = DatasetSpec::get(DatasetKind::Pems);
        let eq1 = st_data::preprocess::materialized_bytes(
            spec.entries,
            spec.horizon,
            spec.nodes,
            spec.aug_features,
            8,
        );
        let eq2 = crate::memory_model::index_batching_bytes(
            spec.entries,
            spec.horizon,
            spec.nodes,
            spec.aug_features,
            8,
        );
        let reduction = 1.0 - eq2 as f64 / eq1 as f64;
        assert!(
            reduction > 0.89,
            "index-batching must remove ≥89% of bytes, got {reduction:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_bounds_checked() {
        let sig = toy_signal(12, 2);
        let ds = IndexDataset::from_signal(&sig, 3, SplitRatios::default(), None);
        let _ = ds.batch(&[ds.num_snapshots()]);
    }

    #[test]
    fn time_feature_augmentation_applies() {
        let sig = toy_signal(20, 2);
        let ds = IndexDataset::from_signal(&sig, 3, SplitRatios::default(), Some(4));
        assert_eq!(ds.num_features(), 2);
    }
}
