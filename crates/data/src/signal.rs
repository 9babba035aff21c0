//! The spatiotemporal signal container.
//!
//! Follows PGT's *static graph with temporal signal* representation (§2.2):
//! a fixed weighted graph plus a `[entries, nodes, features]` array of node
//! features over time. This is the object both preprocessing pipelines
//! (standard SWA and index-batching) consume.
//!
//! The feature array sits behind [`SignalStorage`] and every rewrite here
//! goes through its `rewrite_rows`: one whole-tensor pass in memory (the
//! default), a chunk-at-a-time stream on the chunked backend, so resident
//! bytes stay one chunk instead of `O(entries)`. Index-batching never calls
//! [`StaticGraphTemporalSignal::with_time_feature`]: its build computes the
//! column from [`time_of_day`] as it standardizes, so only Algorithm 1
//! materializes a time-featured signal.

use crate::storage::{RowStore, SignalStorage, StorageSpec};
use st_graph::Adjacency;
use st_tensor::Tensor;

/// Entry `entry`'s time-of-day value, the feature
/// [`StaticGraphTemporalSignal::with_time_feature`] appends: its phase in a
/// cycle of `period` entries, in `[0, 1)`.
pub fn time_of_day(entry: usize, period: usize) -> f32 {
    (entry % period) as f32 / period as f32
}

/// A static graph whose node features evolve over time.
#[derive(Debug, Clone)]
pub struct StaticGraphTemporalSignal {
    /// Node features behind a storage backend, logical shape
    /// `[entries, nodes, features]`.
    pub storage: SignalStorage,
    /// The (static) weighted adjacency.
    pub adjacency: Adjacency,
}

impl StaticGraphTemporalSignal {
    /// Construct from a dense tensor (in-memory backend), validating shapes.
    pub fn new(data: Tensor, adjacency: Adjacency) -> Self {
        Self::with_storage(SignalStorage::InMemory(data.contiguous()), adjacency)
    }

    /// Construct over an explicit storage backend, validating shapes.
    pub fn with_storage(storage: SignalStorage, adjacency: Adjacency) -> Self {
        assert_eq!(
            storage.dims().len(),
            3,
            "signal must be [entries, nodes, features]"
        );
        assert_eq!(
            storage.dims()[1],
            adjacency.num_nodes(),
            "node count must match adjacency"
        );
        StaticGraphTemporalSignal { storage, adjacency }
    }

    /// The dense feature tensor of the in-memory backend. Panics for a
    /// chunked signal — streaming consumers go through
    /// [`StaticGraphTemporalSignal::storage`] instead.
    pub fn data(&self) -> &Tensor {
        self.storage.dense()
    }

    /// True when the signal streams from on-disk chunks.
    pub fn is_chunked(&self) -> bool {
        self.storage.is_chunked()
    }

    /// Re-house the signal under another storage backend (e.g. convert an
    /// in-memory signal into a spill file before training).
    pub fn rechunk(&self, spec: StorageSpec) -> StaticGraphTemporalSignal {
        StaticGraphTemporalSignal {
            storage: self.storage.rechunk(spec),
            adjacency: self.adjacency.clone(),
        }
    }

    /// Number of time entries.
    pub fn entries(&self) -> usize {
        self.storage.dims()[0]
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.storage.dims()[1]
    }

    /// Number of node features.
    pub fn num_features(&self) -> usize {
        self.storage.dims()[2]
    }

    /// Append a time-of-day feature column (stage 1 of the paper's Fig. 3:
    /// "added data from including time-of-day information as a transposed
    /// matrix"). `period` is the number of entries in one day/week cycle.
    ///
    /// The signal stays on its backend: a chunked one is rewritten chunk by
    /// chunk, so peak memory is one chunk instead of the whole signal.
    pub fn with_time_feature(&self, period: usize) -> StaticGraphTemporalSignal {
        let n = self.num_nodes();
        let f = self.num_features();
        let storage = self
            .storage
            .rewrite_rows(self.storage.spec(), |first_entry, rows| {
                let entries = rows.dim(0);
                let src = rows.as_slice().expect("a row range is contiguous");
                let mut out = Vec::with_capacity(entries * n * (f + 1));
                for (dt, entry) in src.chunks_exact(n * f).enumerate() {
                    let tod = time_of_day(first_entry + dt, period);
                    for node_row in entry.chunks_exact(f) {
                        out.extend_from_slice(node_row);
                        out.push(tod);
                    }
                }
                Tensor::from_vec(out, [entries, n, f + 1]).expect("numel")
            });
        StaticGraphTemporalSignal {
            storage,
            adjacency: self.adjacency.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ChunkedSpec;

    fn tiny_signal() -> StaticGraphTemporalSignal {
        let adj = Adjacency::from_dense(2, vec![1.0, 0.5, 0.5, 1.0]);
        let data = Tensor::arange(2 * 2).reshape([2, 2, 1]).unwrap();
        StaticGraphTemporalSignal::new(data, adj)
    }

    #[test]
    fn dimensions() {
        let s = tiny_signal();
        assert_eq!(s.entries(), 2);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.num_features(), 1);
    }

    #[test]
    fn time_feature_appends_normalized_phase() {
        let s = tiny_signal();
        let aug = s.with_time_feature(2);
        assert_eq!(aug.num_features(), 2);
        // t=0 -> phase 0.0; t=1 -> phase 0.5.
        assert_eq!(aug.data().at(&[0, 0, 1]), 0.0);
        assert_eq!(aug.data().at(&[1, 0, 1]), 0.5);
        // Original feature preserved.
        assert_eq!(aug.data().at(&[1, 1, 0]), 3.0);
    }

    #[test]
    fn time_feature_in_memory_is_unchanged_bitwise() {
        // Pin the streamed rewrite against the whole-tensor definition:
        // identical output bits, entry by entry.
        let adj = Adjacency::from_dense(4, vec![0.5; 16]);
        let data = Tensor::arange(11 * 4 * 3).reshape([11, 4, 3]).unwrap();
        let s = StaticGraphTemporalSignal::new(data.clone(), adj);
        let aug = s.with_time_feature(5);

        let (e, n, f) = (11usize, 4usize, 3usize);
        let src = data.to_vec();
        let mut want = Vec::with_capacity(e * n * (f + 1));
        for t in 0..e {
            let tod = (t % 5) as f32 / 5.0;
            for node in 0..n {
                let base = (t * n + node) * f;
                want.extend_from_slice(&src[base..base + f]);
                want.push(tod);
            }
        }
        let got = aug.data().to_vec();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn time_feature_chunked_matches_in_memory_bitwise() {
        let adj = Adjacency::from_dense(3, vec![0.25; 9]);
        let data = Tensor::arange(13 * 3 * 2).reshape([13, 3, 2]).unwrap();
        let dense = StaticGraphTemporalSignal::new(data, adj);
        let chunked = dense.rechunk(StorageSpec::Chunked(ChunkedSpec::new(4)));
        let a = dense.with_time_feature(6);
        let b = chunked.with_time_feature(6);
        assert!(b.is_chunked(), "stays on the chunked backend");
        let av = a.data().to_vec();
        let bv = b.storage.to_tensor().to_vec();
        assert_eq!(av.len(), bv.len());
        for (x, y) in av.iter().zip(&bv) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn mismatched_adjacency_panics() {
        let adj = Adjacency::from_dense(3, vec![0.0; 9]);
        let data = Tensor::zeros([2, 2, 1]);
        StaticGraphTemporalSignal::new(data, adj);
    }
}
