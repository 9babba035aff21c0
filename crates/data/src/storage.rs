//! Where a signal's single copy lives: in RAM, or spilled to disk and read
//! back a row range at a time.
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
//!   `r · 4 · row_width`; no header, no table, deleted with the store). A
//!   read is a **positional read of exactly the rows asked for**, decoded
//!   straight into the caller's buffer: no shared cursor, no lock, and no
//!   user-space cache — the OS page cache is the cache, so the store keeps
//!   nothing resident and a read costs the bytes it returns. A *chunk* is
//!   [`ChunkedSpec::chunk_entries`] consecutive rows: the block size of
//!   [`SignalStorage::rewrite_rows`] and of the writer, nothing more. Every
//!   stored bit comes back unchanged, so a chunked run reproduces an
//!   in-memory run bit for bit (the engine goldens and `proptests_data` pin
//!   this).
//!
//! — and **this file is the only one that matches on which backend it is**.
//! Everything else is written once over three data primitives:
//! [`RowStore::read_rows_quoted`] / [`RowStore::read_rows_into`] (a
//! contiguous row range, as a tensor or copied into a buffer),
//! [`RowStore::gather_rows_quoted`] (arbitrary rows) and
//! [`SignalStorage::rewrite_rows`] (stream the store block by block into a
//! new one). The reads also return the bytes they pulled from the file so
//! callers can price the IO with `st_device`'s `CostModel::pfs_read` and let
//! the engine's prefetch overlap hide it behind compute.

use st_tensor::Tensor;
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Chunked-backend configuration: the rewrite block size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedSpec {
    /// Rows (dim-0 entries) per chunk: how many rows
    /// [`SignalStorage::rewrite_rows`] holds in RAM at once. Reads do not
    /// depend on it.
    pub chunk_entries: usize,
}

impl ChunkedSpec {
    /// Chunked storage rewritten `chunk_entries` rows at a time.
    pub fn new(chunk_entries: usize) -> Self {
        ChunkedSpec { chunk_entries }
    }

    /// Inert: there is no user-space cache to size. Kept so `bench/`
    /// compiles untouched; the next `[benchmark]` PR drops the call.
    #[doc(hidden)]
    pub fn with_cache_bytes(self, _bytes: u64) -> Self {
        self
    }
}

/// Which backend a config-built dataset should use.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum StorageSpec {
    /// One dense in-memory tensor.
    #[default]
    InMemory,
    /// Out-of-core: a spill file read a row range at a time.
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
    /// tensor, returning it plus the **bytes read from the spill file** to
    /// serve it: `len · 4 · row_width` on the chunked backend, 0 for the
    /// in-memory one, whose reads are views.
    fn read_rows_quoted(&self, range: Range<usize>) -> (Tensor, u64);
    /// The copying form of [`RowStore::read_rows_quoted`]: write the range's
    /// `len · row_width` scalars into `dst` (a positional read decoded in
    /// place on the chunked backend, a `copy_from_slice` in memory) and
    /// return the same quote.
    fn read_rows_into(&self, range: Range<usize>, dst: &mut [f32]) -> u64;
    /// Gather arbitrary rows as `[ids.len(), trailing...]`, quoting file
    /// bytes as in [`RowStore::read_rows_quoted`].
    fn gather_rows_quoted(&self, ids: &[usize]) -> (Tensor, u64);
    /// Bytes this store keeps resident in RAM: the full tensor for the
    /// in-memory backend, nothing for the chunked one.
    fn resident_bytes(&self) -> u64;
}

fn width_of(dims: &[usize]) -> usize {
    dims[1..].iter().product::<usize>().max(1)
}

// ---------------------------------------------------------------------------
// The spill file
// ---------------------------------------------------------------------------

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The spill file's name. The store that holds it deletes the file when
/// dropped, so neither a finished store nor one abandoned half-written by
/// a panicking rewrite leaves anything in the temp dir.
#[derive(Debug)]
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

/// Fill `buf` from `file` at byte `offset`, without moving a shared cursor.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    while !buf.is_empty() {
        let n = std::os::windows::fs::FileExt::seek_read(file, buf, offset)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        (buf, offset) = (&mut buf[n..], offset + n as u64);
    }
    Ok(())
}

/// Ceiling of the per-thread byte buffer rows are encoded and decoded
/// through. A longer read or write is issued in pieces, so the buffer never
/// grows with it (a read-sized one was measured at +22 MB peak RSS on
/// `data_stream`).
const SCRATCH_BYTES: usize = 64 << 10;

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's byte buffer, at least `min(bytes, SCRATCH_BYTES)`
/// long.
fn with_scratch<R>(bytes: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    SCRATCH.with_borrow_mut(|scratch| {
        if scratch.len() < bytes.min(SCRATCH_BYTES) {
            scratch.resize(bytes.min(SCRATCH_BYTES), 0);
        }
        f(scratch)
    })
}

/// A spilled `[rows, trailing...]` array: a flat `f32` row file served by
/// positional reads of exactly the rows asked for. Owns its backing file
/// (deleted on drop) and keeps no row in RAM. Thread-safe without a lock —
/// a positional read has no shared cursor — so planes on different engine
/// ranks may share one store through an `Arc`.
#[derive(Debug)]
pub struct ChunkedStore {
    file: File,
    path: SpillPath,
    /// `[rows written, trailing...]`.
    dims: Vec<usize>,
    spec: ChunkedSpec,
    io_bytes: AtomicU64,
    io_reads: AtomicU64,
}

impl ChunkedStore {
    /// An empty store of `[0, trailing...]` rows over a fresh spill file.
    fn create(trailing: &[usize], spec: ChunkedSpec) -> Self {
        assert!(spec.chunk_entries > 0, "chunk_entries must be positive");
        let path = SpillPath::fresh();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path.0)
            .unwrap_or_else(|e| panic!("spill file {}: create failed: {e}", path.0.display()));
        ChunkedStore {
            file,
            path,
            dims: [&[0], trailing].concat(),
            spec,
            io_bytes: AtomicU64::new(0),
            io_reads: AtomicU64::new(0),
        }
    }

    /// Append a contiguous `[len, trailing...]` block of rows — while the
    /// store is being built, before anyone can share it.
    fn push(&mut self, block: &Tensor) {
        assert_eq!(
            block.dims()[1..],
            self.dims[1..],
            "every block must have the same trailing shape"
        );
        let data = block.as_slice().expect("contiguous block");
        let mut offset = self.file_bytes();
        with_scratch(data.len() * 4, |scratch| {
            for piece in data.chunks(SCRATCH_BYTES / 4) {
                let raw = &mut scratch[..piece.len() * 4];
                for (b, v) in raw.as_chunks_mut::<4>().0.iter_mut().zip(piece) {
                    *b = v.to_le_bytes();
                }
                if let Err(e) = self.file.write_all(raw) {
                    self.io_failed("writing", raw.len(), offset, e);
                }
                offset += raw.len() as u64;
            }
        });
        self.dims[0] += block.dim(0);
    }

    /// The one way a failed read or write of the spill file surfaces: a
    /// panic naming the file, the byte range and the OS error. (A full
    /// disk, or a file truncated under the store, is input; the typed-error
    /// form waits on `batch_quoted`'s signature.)
    fn io_failed(&self, what: &str, len: usize, offset: u64, e: io::Error) -> ! {
        let path = self.path.0.display();
        panic!("spill file {path}: {what} {len} bytes at offset {offset} failed: {e}")
    }

    /// Number of chunks: the blocks a rewrite of this store streams.
    pub fn num_chunks(&self) -> usize {
        self.dims[0].div_ceil(self.spec.chunk_entries)
    }

    /// Bytes of the spill file: every row, four bytes a scalar.
    pub fn file_bytes(&self) -> u64 {
        (self.dims[0] * width_of(&self.dims) * 4) as u64
    }

    /// Bytes read from the spill file so far.
    pub fn io_bytes(&self) -> u64 {
        self.io_bytes.load(Ordering::Relaxed)
    }

    /// Positional reads issued so far (the name predates them: a read used
    /// to be one whole chunk).
    pub fn io_chunks(&self) -> u64 {
        self.io_reads.load(Ordering::Relaxed)
    }

    /// Inert (always 0): there is no user-space cache to hit. Kept so
    /// `bench/` compiles untouched; the next `[benchmark]` PR drops it.
    #[doc(hidden)]
    pub fn cache_hits(&self) -> u64 {
        0
    }

    /// Inert (always 0): the store keeps no row resident. Kept so `bench/`
    /// compiles untouched; the next `[benchmark]` PR drops it.
    #[doc(hidden)]
    pub fn peak_resident_bytes(&self) -> u64 {
        0
    }

    /// A zeroed `[rows, trailing...]` result buffer and its dims.
    fn zeroed(&self, rows: usize) -> (Vec<f32>, Vec<usize>) {
        let mut dims = self.dims.clone();
        dims[0] = rows;
        (vec![0.0; rows * self.row_width()], dims)
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
        let (mut out, dims) = self.zeroed(range.len());
        let io = self.read_rows_into(range, &mut out);
        (Tensor::from_vec(out, dims).expect("range numel"), io)
    }

    /// The one place the spill file is read: the bytes pass through the
    /// bounded per-thread buffer and are decoded straight into `dst`.
    fn read_rows_into(&self, rows: Range<usize>, dst: &mut [f32]) -> u64 {
        assert!(
            rows.start <= rows.end && rows.end <= self.dims[0],
            "row range {rows:?} out of bounds ({} rows)",
            self.dims[0]
        );
        let width = self.row_width();
        assert_eq!(dst.len(), rows.len() * width, "dst holds the row range");
        let mut offset = (rows.start * width * 4) as u64;
        with_scratch(dst.len() * 4, |scratch| {
            for piece in dst.chunks_mut(SCRATCH_BYTES / 4) {
                let raw = &mut scratch[..piece.len() * 4];
                if let Err(e) = read_at(&self.file, raw, offset) {
                    self.io_failed("reading", raw.len(), offset, e);
                }
                for (v, b) in piece.iter_mut().zip(raw.as_chunks::<4>().0) {
                    *v = f32::from_le_bytes(*b);
                }
                offset += raw.len() as u64;
                self.io_reads.fetch_add(1, Ordering::Relaxed);
            }
        });
        let bytes = (dst.len() * 4) as u64;
        self.io_bytes.fetch_add(bytes, Ordering::Relaxed);
        bytes
    }

    fn gather_rows_quoted(&self, ids: &[usize]) -> (Tensor, u64) {
        let (mut out, dims) = self.zeroed(ids.len());
        let mut io = 0u64;
        let mut rest = out.as_mut_slice();
        // Adjacent ids are adjacent in the file: one read per ascending run.
        for run in ids.chunk_by(|a, b| *b == a + 1) {
            let (dst, tail) = rest.split_at_mut(run.len() * self.row_width());
            io += self.read_rows_into(run[0]..run[0] + run.len(), dst);
            rest = tail;
        }
        (Tensor::from_vec(out, dims).expect("gather numel"), io)
    }

    fn resident_bytes(&self) -> u64 {
        0
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
    /// A spill file read a row range at a time.
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
    /// it). A block is the whole tensor when source and target are both in
    /// memory, else one chunk of the chunked side (the source's when both
    /// are), so a chunked source or target never has more than a chunk of
    /// it in RAM; any rewrite that treats rows independently — a scaler
    /// transform with an appended feature column, a node subset — produces
    /// the same bits whichever way the rows are blocked.
    pub fn rewrite_rows(
        &self,
        spec: StorageSpec,
        mut f: impl FnMut(usize, &Tensor) -> Tensor,
    ) -> SignalStorage {
        let rows = self.rows();
        let step = match (self, spec) {
            (SignalStorage::Chunked(s), _) => s.spec.chunk_entries,
            (SignalStorage::InMemory(_), StorageSpec::Chunked(cs)) => cs.chunk_entries.max(1),
            (SignalStorage::InMemory(_), StorageSpec::InMemory) => rows.max(1),
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
                let mut out = ChunkedStore::create(&first.dims()[1..], cs);
                for block in std::iter::once(first).chain(blocks) {
                    out.push(&block);
                }
                SignalStorage::Chunked(Arc::new(out))
            }
        }
    }

    /// Bytes read from the spill file so far (0 for the in-memory backend).
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

    fn read_rows_into(&self, range: Range<usize>, dst: &mut [f32]) -> u64 {
        match self {
            SignalStorage::InMemory(t) => {
                let width = width_of(t.dims());
                let src = t.as_slice().expect("in-memory storage is contiguous");
                dst.copy_from_slice(&src[range.start * width..range.end * width]);
                0
            }
            SignalStorage::Chunked(s) => s.read_rows_into(range, dst),
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
    fn nothing_stays_resident_and_a_second_sweep_reads_the_same_bytes() {
        let t = arange(64, 16);
        let store = spilled(&t, ChunkedSpec::new(4));
        for sweep in 1..=2u64 {
            for r in 0..64 {
                let _ = store.gather_rows_quoted(&[r]);
            }
            assert_eq!(store.io_bytes(), sweep * 64 * 16 * 4, "sweep {sweep}");
            assert_eq!(store.io_chunks(), sweep * 64, "one read a row");
            assert_eq!(store.resident_bytes(), 0);
        }
    }

    #[test]
    fn adjacent_gather_ids_coalesce_into_one_read() {
        let t = arange(32, 4);
        let store = spilled(&t, ChunkedSpec::new(8));
        let ids: Vec<usize> = (0..32).collect();
        let (all, io) = store.gather_rows_quoted(&ids);
        assert_same_bits(&all, &t);
        assert_eq!(io, 32 * 4 * 4, "every row's bytes, once");
        assert_eq!(store.io_chunks(), 1, "one ascending run, one read");
        // Runs break where ids stop ascending by one: [5 6 7] [7] [3 4 5].
        let ids = [5usize, 6, 7, 7, 3, 4, 5];
        let (got, io) = store.gather_rows_quoted(&ids);
        assert_same_bits(&got, &t.index_select0(&ids).unwrap());
        assert_eq!(io, 7 * 4 * 4);
        assert_eq!(store.io_chunks(), 1 + 3);
    }

    #[test]
    fn io_bytes_are_quoted_per_read() {
        let t = arange(16, 4);
        let store = spilled(&t, ChunkedSpec::new(8));
        for (range, what) in [
            (0..8usize, "a whole chunk"),
            (0..8, "again: no cache, same quote"),
            (4..12, "a straddle costs its rows, not two chunks"),
            (15..16, "the last row"),
            (9..9, "nothing"),
        ] {
            let before = store.io_bytes();
            let (_, io) = store.read_rows_quoted(range.clone());
            assert_eq!(io, (range.len() * 4 * 4) as u64, "{what}");
            assert_eq!(store.io_bytes() - before, io, "{what}");
            let mut dst = vec![0.0; range.len() * 4];
            assert_eq!(store.read_rows_into(range.clone(), &mut dst), io, "{what}");
            assert_eq!(dst, t.narrow(0, range.start, range.len()).unwrap().to_vec());
        }
    }

    #[test]
    fn a_read_longer_than_the_scratch_buffer_is_issued_in_pieces() {
        let width = SCRATCH_BYTES / 4 / 2 + 3; // a piece ends mid-row
        let t = arange(5, width);
        let store = spilled(&t, ChunkedSpec::new(2));
        let (got, io) = store.read_rows_quoted(0..5);
        assert_same_bits(&got, &t);
        assert_eq!(io, (5 * width * 4) as u64);
        assert_eq!(store.io_chunks(), 3, "5 rows are just over 2.5 pieces");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_read_past_the_last_row_is_refused() {
        let store = spilled(&arange(8, 2), ChunkedSpec::new(4));
        let _ = store.read_rows_quoted(6..9);
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
