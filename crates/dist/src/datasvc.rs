//! The Dask-style distributed data service backing baseline DDP (§5) and
//! the generalized mode's shared entry array (§5.4).
//!
//! A [`DistributedArray`] is a row-partitioned array: rank `r` owns a
//! subset of dim-0 rows (by [`PartitionPolicy`]). Fetches are
//! **request-batched** — one modeled message per remote *owner* per call,
//! the optimization the paper's authors added to their Dask baseline — and
//! every remote row lands on the shared ledger (`remote_bytes`,
//! `remote_requests`), which is exactly the data-plane bar of Fig. 7.
//!
//! The backing store is a [`SignalStorage`]: in memory it is one shared
//! tensor (O(1) clones, zero-copy range views); chunked, exactly the rows
//! asked for are read from the store's spill file — the store quotes the
//! file bytes it read and fetches convert them to modeled PFS seconds, so
//! the engine's prefetch overlap can hide file IO the same way it hides
//! network time. Fetches return the store's rows as read.

use crate::shuffle::contiguous_partition;
use crate::topology::ClusterTopology;
use st_data::storage::{RowStore, SignalStorage};
use st_device::CostModel;
use st_tensor::Tensor;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How rows map to owning ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Rank `r` owns a balanced contiguous block (halo-friendly: a
    /// contiguous window read touches at most two owners).
    Contiguous,
    /// Round-robin rows (`row % world`): balanced for any access pattern,
    /// but a contiguous read touches every rank.
    Strided,
}

impl PartitionPolicy {
    /// The rank owning `row` of `rows` total across `world` ranks.
    pub fn owner_of(&self, row: usize, rows: usize, world: usize) -> usize {
        assert!(world > 0, "world must be positive");
        match self {
            PartitionPolicy::Contiguous => {
                if rows == 0 {
                    return 0;
                }
                let base = rows / world;
                let rem = rows % world;
                // First `rem` ranks own `base + 1` rows.
                let boundary = rem * (base + 1);
                if row < boundary {
                    row / (base + 1)
                } else {
                    match (row - boundary).checked_div(base) {
                        Some(q) => rem + q,
                        // More ranks than rows: tail rows pile on the last.
                        None => world - 1,
                    }
                }
            }
            PartitionPolicy::Strided => row % world,
        }
    }
}

/// A row-partitioned array with a remote-traffic ledger. Constructors
/// return `Arc<Self>` so worker threads share one ledger.
pub struct DistributedArray {
    store: SignalStorage,
    world: usize,
    topology: ClusterTopology,
    elem_bytes: usize,
    policy: PartitionPolicy,
    remote_bytes: AtomicU64,
    remote_requests: AtomicU64,
}

impl DistributedArray {
    /// Partition `data`'s rows contiguously across `world` ranks.
    /// `elem_bytes` sets the modeled payload width per scalar (the paper's
    /// Dask baseline ships float64, i.e. 8, even though compute is f32).
    pub fn new(
        data: Tensor,
        world: usize,
        topology: ClusterTopology,
        elem_bytes: usize,
    ) -> Arc<Self> {
        Self::with_policy(
            data,
            world,
            topology,
            elem_bytes,
            PartitionPolicy::Contiguous,
        )
    }

    /// Like [`DistributedArray::new`] with an explicit ownership policy.
    pub fn with_policy(
        data: Tensor,
        world: usize,
        topology: ClusterTopology,
        elem_bytes: usize,
        policy: PartitionPolicy,
    ) -> Arc<Self> {
        Self::with_storage(
            SignalStorage::InMemory(data.contiguous()),
            world,
            topology,
            elem_bytes,
            policy,
        )
    }

    /// Fully general constructor: any storage backend and ownership policy.
    pub fn with_storage(
        store: SignalStorage,
        world: usize,
        topology: ClusterTopology,
        elem_bytes: usize,
        policy: PartitionPolicy,
    ) -> Arc<Self> {
        assert!(world > 0, "world must be positive");
        assert!(
            !store.dims().is_empty(),
            "need at least one dimension to partition"
        );
        Arc::new(DistributedArray {
            store,
            world,
            topology,
            elem_bytes,
            policy,
            remote_bytes: AtomicU64::new(0),
            remote_requests: AtomicU64::new(0),
        })
    }

    /// Number of rows (dim 0).
    pub fn rows(&self) -> usize {
        self.store.rows()
    }

    /// Modeled bytes of one row.
    pub fn row_bytes(&self) -> u64 {
        (self.store.row_width() * self.elem_bytes) as u64
    }

    /// The backing storage (chunk-IO counters live on it).
    pub fn storage(&self) -> &SignalStorage {
        &self.store
    }

    /// The contiguous row range rank `rank` owns (meaningful for the
    /// contiguous policy; strided owners interleave).
    pub fn partition(&self, rank: usize) -> Range<usize> {
        contiguous_partition(self.rows(), self.world, rank)
    }

    /// Total remote payload bytes fetched so far, across all ranks.
    pub fn remote_bytes(&self) -> u64 {
        self.remote_bytes.load(Ordering::Relaxed)
    }

    /// Total remote fetch requests (one per remote owner per call).
    pub fn remote_requests(&self) -> u64 {
        self.remote_requests.load(Ordering::Relaxed)
    }

    /// Request-batch `row_iter`'s remote rows — one modeled message per
    /// remote owner — onto the ledger, returning the modeled seconds.
    fn charge_owners(
        &self,
        rank: usize,
        row_iter: impl Iterator<Item = usize>,
        cm: &CostModel,
    ) -> f64 {
        let rows = self.rows();
        let mut per_owner_rows = vec![0u64; self.world];
        for idx in row_iter {
            assert!(idx < rows, "row {idx} out of bounds ({rows})");
            let owner = self.policy.owner_of(idx, rows, self.world);
            if owner != rank {
                per_owner_rows[owner] += 1;
            }
        }
        let row_bytes = self.row_bytes();
        let mut secs = 0.0;
        for (owner, &count) in per_owner_rows.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let bytes = count * row_bytes;
            secs += cm.remote_fetch(bytes, self.topology.same_node(rank, owner));
            self.remote_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.remote_requests.fetch_add(1, Ordering::Relaxed);
        }
        secs
    }

    /// Gather `indices` rows for `rank`, recording remote traffic on the
    /// ledger and returning `(batch, modeled seconds)` without charging any
    /// clock — the quote lets callers overlap the time (prefetching) or
    /// charge it synchronously. The quote covers network messages plus any
    /// file IO the backing store performed
    /// ([`st_device::CostModel::pfs_read`]).
    pub fn fetch_rows_quoted(
        &self,
        rank: usize,
        indices: &[usize],
        cm: &CostModel,
    ) -> (Tensor, f64) {
        let mut secs = self.charge_owners(rank, indices.iter().copied(), cm);
        let (batch, io_bytes) = self.store.gather_rows_quoted(indices);
        if io_bytes > 0 {
            secs += cm.pfs_read(io_bytes);
        }
        (batch, secs)
    }

    /// Read a contiguous row range (a partition plus its halo in the
    /// generalized mode): one modeled message per remote owner touched,
    /// returning the rows plus the modeled seconds **without** charging any
    /// clock — bytes land on the ledger immediately, but the caller decides
    /// whether the time is paid synchronously or overlapped with compute
    /// (the engine's setup prefetch). Under the in-memory backend the
    /// returned tensor is a zero-copy view.
    pub fn fetch_range_quoted(
        &self,
        rank: usize,
        range: Range<usize>,
        cm: &CostModel,
    ) -> (Tensor, f64) {
        let mut secs = self.charge_owners(rank, range.clone(), cm);
        let (view, io_bytes) = self.store.read_rows_quoted(range);
        if io_bytes > 0 {
            secs += cm.pfs_read(io_bytes);
        }
        (view, secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::storage::{ChunkedSpec, StorageSpec};

    fn arr(rows: usize, world: usize, policy: PartitionPolicy) -> Arc<DistributedArray> {
        let t = Tensor::from_vec((0..rows * 3).map(|v| v as f32).collect(), [rows, 3]).unwrap();
        DistributedArray::with_policy(t, world, ClusterTopology::polaris(), 4, policy)
    }

    fn chunked_arr(rows: usize, world: usize, chunk: usize) -> Arc<DistributedArray> {
        let t = Tensor::from_vec((0..rows * 3).map(|v| v as f32).collect(), [rows, 3]).unwrap();
        let store =
            SignalStorage::InMemory(t).rechunk(StorageSpec::Chunked(ChunkedSpec::new(chunk)));
        DistributedArray::with_storage(
            store,
            world,
            ClusterTopology::polaris(),
            4,
            PartitionPolicy::Contiguous,
        )
    }

    #[test]
    fn local_rows_are_free() {
        let a = arr(16, 4, PartitionPolicy::Contiguous);
        let cm = CostModel::polaris();
        let own: Vec<usize> = a.partition(0).collect();
        let (batch, secs) = a.fetch_rows_quoted(0, &own, &cm);
        assert_eq!(batch.dims(), &[4, 3]);
        assert_eq!(a.remote_bytes(), 0);
        assert_eq!(a.remote_requests(), 0);
        assert_eq!(secs, 0.0);
    }

    #[test]
    fn remote_rows_charge_time_and_ledger() {
        let a = arr(16, 4, PartitionPolicy::Contiguous);
        let cm = CostModel::polaris();
        // Rows 12..16 belong to rank 3; fetch them as rank 0.
        let (batch, secs) = a.fetch_rows_quoted(0, &[12, 13, 14, 15], &cm);
        let want: Vec<f32> = (12 * 3..16 * 3).map(|v| v as f32).collect();
        let got = batch.to_vec();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "remote rows arrive as stored");
        }
        assert_eq!(a.remote_bytes(), 4 * 3 * 4);
        assert_eq!(
            a.remote_requests(),
            1,
            "request batching: one owner, one message"
        );
        assert!(secs > 0.0);
    }

    #[test]
    fn strided_policy_spreads_ownership() {
        let a = arr(16, 4, PartitionPolicy::Strided);
        let cm = CostModel::polaris();
        // A contiguous 8-row read touches 3 remote owners under striding.
        let ids: Vec<usize> = (0..8).collect();
        let (_, secs) = a.fetch_rows_quoted(0, &ids, &cm);
        assert!(secs > 0.0);
        assert_eq!(a.remote_requests(), 3);
        assert_eq!(a.remote_bytes(), 6 * 3 * 4, "6 of 8 rows are remote");
    }

    #[test]
    fn fetch_range_returns_a_view() {
        let a = arr(10, 2, PartitionPolicy::Contiguous);
        let cm = CostModel::polaris();
        let (window, secs) = a.fetch_range_quoted(0, 3..8, &cm);
        assert_eq!(window.dims(), &[5, 3]);
        assert_eq!(window.to_vec()[0], 9.0);
        assert!(window.shares_storage(a.storage().dense()));
        // Rows 5..8 were remote (rank 1 owns 5..10).
        assert_eq!(a.remote_bytes(), 3 * 3 * 4);
        assert!(secs > 0.0);
    }

    #[test]
    fn owner_of_matches_contiguous_partition() {
        for rows in [1usize, 7, 16, 33] {
            for world in [1usize, 2, 5, 8] {
                for rank in 0..world {
                    for idx in contiguous_partition(rows, world, rank) {
                        assert_eq!(
                            PartitionPolicy::Contiguous.owner_of(idx, rows, world),
                            rank,
                            "rows={rows} world={world} idx={idx}"
                        );
                    }
                }
            }
        }
    }

    // --- chunk-boundary coverage for contiguous row-range reads ---

    #[test]
    fn range_straddling_two_chunks() {
        let a = chunked_arr(20, 2, 8); // chunks: 0..8, 8..16, 16..20
        let cm = CostModel::polaris();
        let (t, secs) = a.fetch_range_quoted(0, 5..11, &cm);
        assert_eq!(t.dims(), &[6, 3]);
        let want: Vec<f32> = (5 * 3..11 * 3).map(|v| v as f32).collect();
        assert_eq!(t.to_vec(), want);
        // Six rows read, not the two chunks they sit in, and priced into
        // the quote.
        assert_eq!(a.storage().io_bytes(), 6 * 3 * 4);
        assert!(secs > 0.0, "file IO must show up in the quote");
    }

    #[test]
    fn range_equal_to_one_chunk() {
        let a = chunked_arr(20, 1, 8);
        let cm = CostModel::polaris();
        let (t, _) = a.fetch_range_quoted(0, 8..16, &cm);
        assert_eq!(t.dims(), &[8, 3]);
        let want: Vec<f32> = (8 * 3..16 * 3).map(|v| v as f32).collect();
        assert_eq!(t.to_vec(), want);
        assert_eq!(a.storage().io_bytes(), 8 * 3 * 4, "exactly one chunk");
    }

    #[test]
    fn empty_range_reads_nothing() {
        let a = chunked_arr(20, 2, 8);
        let cm = CostModel::polaris();
        let (t, secs) = a.fetch_range_quoted(0, 4..4, &cm);
        assert_eq!(t.dims(), &[0, 3]);
        assert_eq!(secs, 0.0);
        assert_eq!(a.storage().io_bytes(), 0);
        assert_eq!(a.remote_bytes(), 0);
    }

    #[test]
    fn final_ragged_chunk() {
        let a = chunked_arr(20, 1, 8); // last chunk holds rows 16..20
        let cm = CostModel::polaris();
        let (t, _) = a.fetch_range_quoted(0, 17..20, &cm);
        assert_eq!(t.dims(), &[3, 3]);
        let want: Vec<f32> = (17 * 3..20 * 3).map(|v| v as f32).collect();
        assert_eq!(t.to_vec(), want);
        // Three rows read, up to the file's last byte.
        assert_eq!(a.storage().io_bytes(), 3 * 3 * 4);
        assert_eq!(a.storage().chunked().unwrap().file_bytes(), 20 * 3 * 4);
    }

    #[test]
    fn chunked_lossless_matches_in_memory_bitwise() {
        let rows = 26;
        let dense = arr(rows, 3, PartitionPolicy::Contiguous);
        let chunked = chunked_arr(rows, 3, 7);
        let cm = CostModel::polaris();
        for range in [0..rows, 3..19, 25..26] {
            let (a, _) = dense.fetch_range_quoted(1, range.clone(), &cm);
            let (b, _) = chunked.fetch_range_quoted(1, range, &cm);
            let (av, bv) = (a.to_vec(), b.to_vec());
            assert_eq!(av.len(), bv.len());
            for (x, y) in av.iter().zip(&bv) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Network-ledger bytes are storage-invariant.
        assert_eq!(dense.remote_bytes(), chunked.remote_bytes());
    }
}
