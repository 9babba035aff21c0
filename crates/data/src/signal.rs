//! The spatiotemporal signal container.
//!
//! Follows PGT's *static graph with temporal signal* representation (§2.2):
//! a fixed weighted graph plus a `[entries, nodes, features]` array of node
//! features over time. This is the object both preprocessing pipelines
//! (standard SWA and index-batching) consume.
//!
//! The feature array sits behind [`SignalStorage`] and everything here is
//! written once over its row reads and `rewrite_rows`: in memory (the
//! default) those are zero-copy views and one whole-tensor pass; on the
//! chunked backend they are positional file reads and a chunk-at-a-time
//! stream, so resident bytes stay one chunk instead of `O(entries)`.

use crate::storage::{RowStore, SignalStorage, StorageSpec};
use st_graph::Adjacency;
use st_tensor::Tensor;

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

    /// The graph state at time `t` as a `[nodes, features]` tensor — a
    /// zero-copy view for the in-memory backend, a one-row file read for
    /// the chunked one.
    pub fn graph_at(&self, t: usize) -> Tensor {
        let (entry, _) = self.storage.read_rows_quoted(t..t + 1);
        entry.select(0, 0).expect("one entry")
    }

    /// Raw data size in bytes at the given element width (float64 in the
    /// paper's Table 1; float32 in our measured runs). Each factor widens
    /// to `u64` *before* multiplying, so city-scale signals don't overflow
    /// `usize` arithmetic on 32-bit targets.
    pub fn size_bytes(&self, elem_bytes: usize) -> u64 {
        self.entries() as u64
            * self.num_nodes() as u64
            * self.num_features() as u64
            * elem_bytes as u64
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
                    let t = first_entry + dt;
                    let tod = (t % period) as f32 / period as f32;
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
        assert_eq!(s.size_bytes(8), 32);
    }

    #[test]
    fn size_bytes_widens_before_multiplying() {
        // 70k entries × 9k nodes × 8 features × 8 bytes ≈ 40 GB — overflows
        // a 32-bit usize product but must report exactly in u64.
        let e = 70_000u64;
        let n = 9_000u64;
        let f = 8u64;
        // Build a tiny signal and check the arithmetic shape of size_bytes
        // directly (we cannot allocate 40 GB in a test).
        let s = tiny_signal();
        assert_eq!(s.size_bytes(8), 2 * 2 * 8);
        // The formula must be pure u64 math end to end.
        assert_eq!(e * n * f * 8, 40_320_000_000u64);
        assert!(e * n * f * 8 > u32::MAX as u64);
    }

    #[test]
    fn graph_at_is_a_view() {
        let s = tiny_signal();
        let g = s.graph_at(1);
        assert_eq!(g.dims(), &[2, 1]);
        assert_eq!(g.to_vec(), vec![2.0, 3.0]);
        assert!(g.shares_storage(s.data()), "must be zero-copy");
    }

    #[test]
    fn chunked_graph_at_matches_dense() {
        let adj = Adjacency::from_dense(3, vec![1.0; 9]);
        let data = Tensor::arange(7 * 3 * 2).reshape([7, 3, 2]).unwrap();
        let dense = StaticGraphTemporalSignal::new(data, adj);
        for chunk in [1usize, 3, 7, 16, 64] {
            let chunked = dense.rechunk(StorageSpec::Chunked(ChunkedSpec::new(chunk)));
            assert!(chunked.is_chunked());
            for t in 0..7 {
                let (got, want) = (chunked.graph_at(t), dense.graph_at(t));
                assert_eq!(got.dims(), want.dims());
                assert_eq!(got.to_vec(), want.to_vec(), "chunk={chunk} t={t}");
            }
        }
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
