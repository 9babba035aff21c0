//! Where a signal's single copy lives: in RAM, or spilled to disk behind a
//! bounded cache.
//!
//! The paper exists to dodge the memory wall of materialized sliding-window
//! datasets, yet a plain [`Tensor`]-backed signal still pins the full
//! `[entries, nodes, features]` array in RAM on every rank. [`SignalStorage`]
//! makes the backing store a choice between two backends —
//!
//! - [`SignalStorage::InMemory`]: one dense contiguous tensor. Row-range
//!   reads are zero-copy `narrow` views of it.
//! - [`SignalStorage::Chunked`]: a [`ChunkedStore`] — a process-private
//!   spill file of raw little-endian `f32` rows (row `r` sits at byte
//!   `r · 4 · row_width`; no header, no table, deleted with the store) read
//!   through a bounded LRU cache of decoded *chunks*. A chunk is
//!   [`ChunkedSpec::chunk_entries`] consecutive rows: the unit of IO and of
//!   caching, its file range pure arithmetic. Resident bytes are
//!   `O(chunks_cached)`, not `O(entries)`, and every stored bit comes back
//!   unchanged, so a chunked run reproduces an in-memory run bit for bit
//!   (the engine goldens and `proptests_data` pin this).
//!
//! — and **this file is the only one that matches on which backend it is**.
//! Everything else is written once over three data primitives:
//! [`RowStore::read_rows_quoted`] (a contiguous row range),
//! [`RowStore::gather_rows_quoted`] (arbitrary rows) and
//! [`SignalStorage::rewrite_rows`] (stream the store block by block into a
//! new one). The two reads also return the bytes they pulled from disk so
//! callers can price the IO with [`st_device::CostModel::pfs_read`] and let
//! the engine's prefetch overlap hide it behind compute.

use st_tensor::Tensor;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Decoded-chunk cache ceiling of [`ChunkedSpec::new`] (64 MiB).
const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Chunked-backend configuration: the cache granule and the cache ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedSpec {
    /// Rows (dim-0 entries) per chunk.
    pub chunk_entries: usize,
    /// Decoded-chunk LRU cache ceiling in bytes. A single chunk larger
    /// than the ceiling still loads (the cache holds exactly that chunk).
    pub cache_bytes: u64,
}

impl ChunkedSpec {
    /// Chunked storage with the given chunk size and a 64 MiB cache.
    pub fn new(chunk_entries: usize) -> Self {
        ChunkedSpec {
            chunk_entries,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }

    /// Replace the cache ceiling.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }
}

/// Which backend a config-built dataset should use.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum StorageSpec {
    /// One dense in-memory tensor.
    #[default]
    InMemory,
    /// Out-of-core: a spill file behind a bounded chunk cache.
    Chunked(ChunkedSpec),
}

impl StorageSpec {
    /// True for the chunked backend.
    pub fn is_chunked(&self) -> bool {
        matches!(self, StorageSpec::Chunked(_))
    }
}

/// Row-oriented access every storage backend provides: dim-0 "rows" (time
/// entries for a signal, snapshots for a materialized array) with arbitrary
/// trailing dimensions.
pub trait RowStore {
    /// Number of dim-0 rows.
    fn rows(&self) -> usize;
    /// Full dims, `[rows, trailing...]`.
    fn dims(&self) -> &[usize];
    /// Scalars per row (product of trailing dims).
    fn row_width(&self) -> usize;
    /// Read a contiguous row range as a contiguous `[len, trailing...]`
    /// tensor, returning it plus the **bytes pulled from disk** to serve it
    /// (0 on cache hits and for the in-memory backend, whose reads are
    /// views).
    fn read_rows_quoted(&self, range: Range<usize>) -> (Tensor, u64);
    /// Gather arbitrary rows as `[ids.len(), trailing...]`, quoting disk
    /// bytes as in [`RowStore::read_rows_quoted`].
    fn gather_rows_quoted(&self, ids: &[usize]) -> (Tensor, u64);
    /// Bytes currently resident in RAM for this store (full tensor for the
    /// in-memory backend; decoded cached chunks for the chunked one).
    fn resident_bytes(&self) -> u64;
}

fn width_of(dims: &[usize]) -> usize {
    dims[1..].iter().product::<usize>().max(1)
}

// ---------------------------------------------------------------------------
// The spill file
// ---------------------------------------------------------------------------

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The spill file's name. Whoever holds it — the writer until
/// [`SpillWriter::finish`], the store afterwards — deletes the file when
/// dropped, so neither a finished store nor a writer abandoned by a panic
/// leaves anything in the temp dir.
struct SpillPath(PathBuf);

impl SpillPath {
    fn fresh() -> Self {
        let n = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
        SpillPath(std::env::temp_dir().join(format!("st-chunks-{}-{n}.f32", std::process::id())))
    }
}

impl Drop for SpillPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Appends rows to a fresh spill file. Rows are encoded one chunk's worth at
/// a time, so peak writer memory is one chunk whatever is pushed.
struct SpillWriter {
    file: File,
    path: SpillPath,
    /// `[rows pushed so far, trailing...]`.
    dims: Vec<usize>,
    spec: ChunkedSpec,
    encoded: Vec<u8>,
}

impl SpillWriter {
    /// Start a file of `[_, trailing...]` rows under `spec`.
    fn create(trailing: &[usize], spec: ChunkedSpec) -> Self {
        assert!(spec.chunk_entries > 0, "chunk_entries must be positive");
        assert!(spec.cache_bytes > 0, "cache_bytes must be positive");
        let path = SpillPath::fresh();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path.0)
            .expect("create spill file");
        SpillWriter {
            file,
            path,
            dims: [&[0], trailing].concat(),
            spec,
            encoded: Vec::new(),
        }
    }

    /// Append a contiguous `[len, trailing...]` block of rows.
    fn push(&mut self, block: &Tensor) {
        assert_eq!(
            block.dims()[1..],
            self.dims[1..],
            "every block must have the same trailing shape"
        );
        self.dims[0] += block.dim(0);
        let data = block.as_slice().expect("contiguous block");
        let piece_len = self.spec.chunk_entries * self.dims[1..].iter().product::<usize>();
        for piece in data.chunks(piece_len.max(1)) {
            self.encoded.resize(piece.len() * 4, 0);
            for (bytes, v) in self.encoded.chunks_exact_mut(4).zip(piece) {
                bytes.copy_from_slice(&v.to_le_bytes());
            }
            self.file
                .write_all(&self.encoded)
                .expect("write spill file");
        }
    }

    /// Hand the file over to a store with an empty cache.
    fn finish(self) -> ChunkedStore {
        ChunkedStore {
            file: Mutex::new(self.file),
            path: self.path,
            dims: self.dims,
            spec: self.spec,
            cache: Mutex::new(ChunkCache {
                entries: HashMap::new(),
                resident: 0,
                tick: 0,
            }),
            io_bytes: AtomicU64::new(0),
            io_chunks: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }
}

struct ChunkCache {
    /// chunk id -> (decoded scalars, last-touch tick).
    entries: HashMap<usize, (Arc<Vec<f32>>, u64)>,
    resident: u64,
    tick: u64,
}

/// A spilled `[rows, trailing...]` array: a flat `f32` row file read through
/// a bounded LRU cache of decoded chunks. Owns its backing file (deleted on
/// drop). Thread-safe: planes on different engine ranks may share one store
/// through an `Arc`.
pub struct ChunkedStore {
    file: Mutex<File>,
    path: SpillPath,
    dims: Vec<usize>,
    spec: ChunkedSpec,
    cache: Mutex<ChunkCache>,
    io_bytes: AtomicU64,
    io_chunks: AtomicU64,
    cache_hits: AtomicU64,
    peak_resident: AtomicU64,
}

impl std::fmt::Debug for ChunkedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedStore")
            .field("dims", &self.dims)
            .field("spec", &self.spec)
            .field("path", &self.path.0)
            .finish()
    }
}

impl ChunkedStore {
    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.dims[0].div_ceil(self.spec.chunk_entries)
    }

    /// Bytes of the spill file: every row, four bytes a scalar.
    pub fn file_bytes(&self) -> u64 {
        (self.dims[0] * width_of(&self.dims) * 4) as u64
    }

    /// Bytes read from disk so far (cache misses only).
    pub fn io_bytes(&self) -> u64 {
        self.io_bytes.load(Ordering::Relaxed)
    }

    /// Chunks decoded from disk so far.
    pub fn io_chunks(&self) -> u64 {
        self.io_chunks.load(Ordering::Relaxed)
    }

    /// Chunk reads served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// High-water mark of decoded bytes resident in the cache.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }

    fn rows_in_chunk(&self, c: usize) -> usize {
        let start = c * self.spec.chunk_entries;
        self.spec.chunk_entries.min(self.dims[0] - start)
    }

    /// Decoded chunk `c`, through the LRU cache. Returns the chunk plus the
    /// bytes pulled from disk (0 on a hit).
    fn chunk(&self, c: usize) -> (Arc<Vec<f32>>, u64) {
        let mut cache = self.cache.lock().expect("chunk cache poisoned");
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((data, touched)) = cache.entries.get_mut(&c) {
            *touched = tick;
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return (data.clone(), 0);
        }
        // Miss: the chunk's rows sit back to back from its first row's offset.
        let row_bytes = width_of(&self.dims) * 4;
        let mut raw = vec![0u8; self.rows_in_chunk(c) * row_bytes];
        {
            let mut file = self.file.lock().expect("spill file poisoned");
            let offset = (c * self.spec.chunk_entries * row_bytes) as u64;
            file.seek(SeekFrom::Start(offset)).expect("seek chunk");
            file.read_exact(&mut raw).expect("read chunk");
        }
        let mut decoded = Vec::with_capacity(raw.len() / 4);
        for b in raw.chunks_exact(4) {
            decoded.push(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        let decoded = Arc::new(decoded);
        let bytes = raw.len() as u64;
        self.io_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.io_chunks.fetch_add(1, Ordering::Relaxed);
        // Evict LRU entries until the new chunk fits (a chunk bigger than
        // the whole ceiling still loads — the cache then holds just it).
        while cache.resident + bytes > self.spec.cache_bytes && !cache.entries.is_empty() {
            let (&lru, _) = cache
                .entries
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .expect("non-empty");
            let (gone, _) = cache.entries.remove(&lru).expect("present");
            cache.resident -= (gone.len() * 4) as u64;
        }
        cache.resident += bytes;
        cache.entries.insert(c, (decoded.clone(), tick));
        self.peak_resident
            .fetch_max(cache.resident, Ordering::Relaxed);
        (decoded, bytes)
    }
}

impl RowStore for ChunkedStore {
    fn rows(&self) -> usize {
        self.dims[0]
    }

    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn row_width(&self) -> usize {
        width_of(&self.dims)
    }

    fn read_rows_quoted(&self, range: Range<usize>) -> (Tensor, u64) {
        assert!(range.end <= self.dims[0], "row range out of bounds");
        let width = self.row_width();
        let mut out = Vec::with_capacity(range.len() * width);
        let mut io = 0u64;
        if !range.is_empty() {
            let cr = self.spec.chunk_entries;
            let first = range.start / cr;
            let last = (range.end - 1) / cr;
            for c in first..=last {
                let c_start = c * cr;
                let (chunk, bytes) = self.chunk(c);
                io += bytes;
                let lo = range.start.max(c_start) - c_start;
                let hi = range.end.min(c_start + self.rows_in_chunk(c)) - c_start;
                out.extend_from_slice(&chunk[lo * width..hi * width]);
            }
        }
        let mut dims = self.dims.clone();
        dims[0] = range.len();
        (Tensor::from_vec(out, dims).expect("range numel"), io)
    }

    fn gather_rows_quoted(&self, ids: &[usize]) -> (Tensor, u64) {
        let width = self.row_width();
        let mut out = Vec::with_capacity(ids.len() * width);
        let mut io = 0u64;
        for &r in ids {
            assert!(r < self.dims[0], "row {r} out of bounds");
            let c = r / self.spec.chunk_entries;
            let (chunk, bytes) = self.chunk(c);
            io += bytes;
            let lo = (r - c * self.spec.chunk_entries) * width;
            out.extend_from_slice(&chunk[lo..lo + width]);
        }
        let mut dims = self.dims.clone();
        dims[0] = ids.len();
        (Tensor::from_vec(out, dims).expect("gather numel"), io)
    }

    fn resident_bytes(&self) -> u64 {
        self.cache.lock().expect("chunk cache poisoned").resident
    }
}

// ---------------------------------------------------------------------------
// The backend enum
// ---------------------------------------------------------------------------

/// A signal's backing store: dense in-memory tensor or out-of-core chunks.
/// Clones are O(1) (shared tensor storage / shared `Arc`).
#[derive(Debug, Clone)]
pub enum SignalStorage {
    /// One dense contiguous tensor; reads are zero-copy views.
    InMemory(Tensor),
    /// A spill file behind a bounded LRU chunk cache.
    Chunked(Arc<ChunkedStore>),
}

impl SignalStorage {
    /// Wrap a tensor under the requested backend. `InMemory` shares the
    /// tensor's storage; `Chunked` spills it to a fresh file.
    pub fn from_tensor_spec(t: Tensor, spec: StorageSpec) -> SignalStorage {
        SignalStorage::InMemory(t.contiguous()).rechunk(spec)
    }

    /// True for the chunked backend.
    pub fn is_chunked(&self) -> bool {
        matches!(self, SignalStorage::Chunked(_))
    }

    /// The spec that would rebuild this backend.
    pub fn spec(&self) -> StorageSpec {
        match self {
            SignalStorage::InMemory(_) => StorageSpec::InMemory,
            SignalStorage::Chunked(s) => StorageSpec::Chunked(s.spec),
        }
    }

    /// The dense tensor of the in-memory backend. Panics for `Chunked` —
    /// callers that can stream must use [`RowStore::read_rows_quoted`];
    /// this accessor exists for the many in-memory-only code paths
    /// (Algorithm-1 preprocessing, tests, serialization of small signals).
    pub fn dense(&self) -> &Tensor {
        match self {
            SignalStorage::InMemory(t) => t,
            SignalStorage::Chunked(_) => {
                panic!("dense() on chunked storage — use read_rows_quoted/to_tensor")
            }
        }
    }

    /// Materialize the full array as one tensor (a view of the in-memory
    /// backend; a full streamed read for chunks).
    pub fn to_tensor(&self) -> Tensor {
        self.read_rows_quoted(0..self.rows()).0
    }

    /// The chunked store, when this is the chunked backend.
    pub fn chunked(&self) -> Option<&Arc<ChunkedStore>> {
        match self {
            SignalStorage::InMemory(_) => None,
            SignalStorage::Chunked(s) => Some(s),
        }
    }

    /// Copy this store under another backend spec (spill an in-memory
    /// dataset, re-chunk with new settings, or load chunks back into RAM).
    pub fn rechunk(&self, spec: StorageSpec) -> SignalStorage {
        self.rewrite_rows(spec, |_, block| block.clone())
    }

    /// Stream the store through `f` into a new store under `spec`, one
    /// block at a time: `f(first_row, block)` gets a `[len, trailing...]`
    /// block starting at row `first_row` and returns its `len` rewritten
    /// rows, whose trailing shape may differ (every block must agree on
    /// it). A block is the whole tensor for the in-memory backend and one
    /// chunk for the chunked one, so a chunked source never holds more than
    /// a chunk in RAM; any rewrite that treats rows independently — a scaler
    /// transform, an appended feature column, a node subset — produces the
    /// same bits whichever way the rows are blocked.
    pub fn rewrite_rows(
        &self,
        spec: StorageSpec,
        mut f: impl FnMut(usize, &Tensor) -> Tensor,
    ) -> SignalStorage {
        let rows = self.rows();
        let step = match self {
            SignalStorage::InMemory(_) => rows.max(1),
            SignalStorage::Chunked(s) => s.spec.chunk_entries,
        };
        // An empty store still yields one (empty) block, so the output's
        // trailing shape is always known.
        let mut blocks = (0..rows.max(1)).step_by(step).map(|start| {
            let end = (start + step).min(rows);
            let out = f(start, &self.read_rows_quoted(start..end).0).contiguous();
            assert_eq!(out.dim(0), end - start, "a rewrite keeps each row");
            out
        });
        let first = blocks.next().expect("at least one block");
        match spec {
            // The only block is the result: no copy.
            StorageSpec::InMemory if step >= rows => SignalStorage::InMemory(first),
            StorageSpec::InMemory => {
                let mut dims = first.dims().to_vec();
                dims[0] = rows;
                let mut all = Vec::with_capacity(dims.iter().product());
                for block in std::iter::once(first).chain(blocks) {
                    all.extend_from_slice(block.as_slice().expect("contiguous block"));
                }
                SignalStorage::InMemory(Tensor::from_vec(all, dims).expect("rewritten numel"))
            }
            StorageSpec::Chunked(cs) => {
                let mut w = SpillWriter::create(&first.dims()[1..], cs);
                for block in std::iter::once(first).chain(blocks) {
                    w.push(&block);
                }
                SignalStorage::Chunked(Arc::new(w.finish()))
            }
        }
    }

    /// Bytes read from disk so far (0 for the in-memory backend).
    pub fn io_bytes(&self) -> u64 {
        self.chunked().map_or(0, |s| s.io_bytes())
    }
}

impl RowStore for SignalStorage {
    fn rows(&self) -> usize {
        self.dims()[0]
    }

    fn dims(&self) -> &[usize] {
        match self {
            SignalStorage::InMemory(t) => t.dims(),
            SignalStorage::Chunked(s) => s.dims(),
        }
    }

    fn row_width(&self) -> usize {
        width_of(self.dims())
    }

    fn read_rows_quoted(&self, range: Range<usize>) -> (Tensor, u64) {
        match self {
            SignalStorage::InMemory(t) => {
                (t.narrow(0, range.start, range.len()).expect("row range"), 0)
            }
            SignalStorage::Chunked(s) => s.read_rows_quoted(range),
        }
    }

    fn gather_rows_quoted(&self, ids: &[usize]) -> (Tensor, u64) {
        match self {
            SignalStorage::InMemory(t) => (t.index_select0(ids).expect("row ids"), 0),
            SignalStorage::Chunked(s) => s.gather_rows_quoted(ids),
        }
    }

    fn resident_bytes(&self) -> u64 {
        match self {
            SignalStorage::InMemory(t) => (t.numel() * 4) as u64,
            SignalStorage::Chunked(s) => s.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arange(rows: usize, width: usize) -> Tensor {
        Tensor::arange(rows * width).reshape([rows, width]).unwrap()
    }

    fn spilled(t: &Tensor, spec: ChunkedSpec) -> Arc<ChunkedStore> {
        let s = SignalStorage::from_tensor_spec(t.clone(), StorageSpec::Chunked(spec));
        s.chunked().expect("chunked spec").clone()
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor) {
        assert_eq!(got.dims(), want.dims());
        for (g, w) in got.to_vec().iter().zip(want.to_vec()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn lossless_chunked_reads_are_bit_identical() {
        let t = arange(37, 5); // ragged final chunk with chunk_entries = 8
        let spec = ChunkedSpec::new(8);
        let cs = SignalStorage::from_tensor_spec(t.clone(), StorageSpec::Chunked(spec));
        for range in [0..37usize, 0..8, 5..11, 32..37, 36..37, 4..4] {
            let (got, _) = cs.read_rows_quoted(range.clone());
            let want = t.narrow(0, range.start, range.len()).unwrap();
            assert_eq!(got.to_vec(), want.to_vec(), "{range:?}");
        }
        let ids = [36usize, 0, 17, 8, 7];
        let (got, _) = cs.gather_rows_quoted(&ids);
        assert_eq!(got.to_vec(), t.index_select0(&ids).unwrap().to_vec());
    }

    #[test]
    fn cache_ceiling_bounds_resident_bytes() {
        let t = arange(64, 16); // 16 chunks of 4 rows × 16 cols = 256 B each
        let store = spilled(&t, ChunkedSpec::new(4).with_cache_bytes(600)); // fits 2 chunks
        for r in 0..64 {
            let _ = store.gather_rows_quoted(&[r]);
        }
        assert!(store.peak_resident_bytes() <= 600);
        assert!(store.resident_bytes() <= 600);
        // A full second sweep re-reads from disk (the cache can't hold all).
        let io_before = store.io_bytes();
        for r in 0..64 {
            let _ = store.gather_rows_quoted(&[r]);
        }
        assert!(store.io_bytes() > io_before, "evictions force re-reads");
    }

    #[test]
    fn sequential_reads_hit_the_cache() {
        let t = arange(32, 4);
        let store = spilled(&t, ChunkedSpec::new(8));
        for r in 0..32 {
            let _ = store.gather_rows_quoted(&[r]);
        }
        assert_eq!(store.io_chunks(), 4, "each chunk read once");
        assert_eq!(store.cache_hits(), 28);
        // All 4 chunks fit under the default ceiling.
        assert_eq!(store.resident_bytes(), 32 * 4 * 4);
    }

    #[test]
    fn io_bytes_are_quoted_per_read() {
        let t = arange(16, 4);
        let store = spilled(&t, ChunkedSpec::new(8));
        let (_, io1) = store.read_rows_quoted(0..8);
        assert_eq!(io1, 8 * 4 * 4, "one chunk = its rows' bytes");
        let (_, io2) = store.read_rows_quoted(0..8);
        assert_eq!(io2, 0, "cache hit quotes no disk bytes");
        let (_, io3) = store.read_rows_quoted(4..12);
        assert_eq!(io3, 8 * 4 * 4, "straddle pulls only the missing chunk");
    }

    #[test]
    fn the_file_holds_the_rows_and_nothing_else() {
        let t = arange(11, 3); // ragged against chunk_entries = 4
        let store = spilled(&t, ChunkedSpec::new(4));
        assert_eq!(store.num_chunks(), 3);
        assert_eq!(store.file_bytes(), 11 * 3 * 4);
        let on_disk = std::fs::read(&store.path.0).unwrap();
        let want: Vec<u8> = t.to_vec().iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(on_disk, want, "row r at byte r * 4 * width, no header");
    }

    #[test]
    fn map_rows_matches_dense_map_bitwise() {
        let t = arange(29, 3);
        // An elementwise map (what `map_rows` was) ...
        let scale =
            |x: &Tensor| st_tensor::ops::mul_scalar(&st_tensor::ops::add_scalar(x, -2.5), 0.3);
        // ... and a rewrite that changes the trailing shape and uses the
        // block's first row: [len, 3] -> [len, 2, 2] = (x0, row), (x2, row).
        let reshape = |first: usize, x: &Tensor| {
            let mut out = Vec::new();
            for (dt, row) in x.to_vec().chunks_exact(3).enumerate() {
                let r = (first + dt) as f32;
                out.extend_from_slice(&[row[0], r, row[2], r]);
            }
            Tensor::from_vec(out, [x.dim(0), 2, 2]).unwrap()
        };
        let want_scaled = scale(&t);
        let want_reshaped = reshape(0, &t);
        let chunked = StorageSpec::Chunked(ChunkedSpec::new(7));
        for source in [StorageSpec::InMemory, chunked] {
            let src = SignalStorage::from_tensor_spec(t.clone(), source);
            for target in [StorageSpec::InMemory, chunked] {
                let scaled = src.rewrite_rows(target, |_, x| scale(x));
                assert_eq!(scaled.spec(), target);
                assert_same_bits(&scaled.to_tensor(), &want_scaled);
                let reshaped = src.rewrite_rows(target, reshape);
                assert_eq!(reshaped.dims(), &[29, 2, 2]);
                assert_same_bits(&reshaped.to_tensor(), &want_reshaped);
            }
        }
    }

    #[test]
    fn rewriting_an_empty_store_keeps_the_trailing_shape() {
        let empty = Tensor::zeros([0, 3]);
        let chunked = StorageSpec::Chunked(ChunkedSpec::new(4));
        for source in [StorageSpec::InMemory, chunked] {
            let src = SignalStorage::from_tensor_spec(empty.clone(), source);
            for target in [StorageSpec::InMemory, chunked] {
                let out = src.rewrite_rows(target, |_, x| Tensor::zeros([x.dim(0), 2, 5]));
                assert_eq!(out.dims(), &[0, 2, 5]);
                assert_eq!(out.to_tensor().numel(), 0);
            }
        }
    }

    #[test]
    fn rechunk_round_trips() {
        let t = arange(23, 2);
        let s =
            SignalStorage::from_tensor_spec(t.clone(), StorageSpec::Chunked(ChunkedSpec::new(5)));
        let back = s.rechunk(StorageSpec::Chunked(ChunkedSpec::new(9)));
        assert_eq!(back.to_tensor().to_vec(), t.to_vec());
        let dense = back.rechunk(StorageSpec::InMemory);
        assert!(!dense.is_chunked());
        assert_eq!(dense.dense().to_vec(), t.to_vec());
    }

    #[test]
    fn chunk_file_is_deleted_on_drop() {
        let t = arange(8, 2);
        let store = spilled(&t, ChunkedSpec::new(4));
        let path = store.path.0.clone();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    #[test]
    fn in_memory_reads_stay_zero_copy() {
        let t = arange(10, 3);
        let s = SignalStorage::InMemory(t.clone());
        let (view, io) = s.read_rows_quoted(2..7);
        assert_eq!(io, 0);
        assert!(view.shares_storage(&t), "in-memory range reads are views");
        assert!(view.as_slice().is_ok(), "and contiguous ones");
        assert!(s.rechunk(StorageSpec::InMemory).dense().shares_storage(&t));
    }
}
