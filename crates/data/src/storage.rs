//! Out-of-core chunked columnar signal storage.
//!
//! The paper exists to dodge the memory wall of materialized sliding-window
//! datasets, yet a plain [`Tensor`]-backed signal still pins the full
//! `[entries, nodes, features]` array in RAM on every rank. This module
//! makes the backing store a choice: [`SignalStorage`] is an enum of
//! backends behind one row-oriented access trait ([`RowStore`]) —
//!
//! - [`SignalStorage::InMemory`]: the existing dense tensor. Reads are
//!   zero-copy `narrow` views, bit-identical to the historical path.
//! - [`SignalStorage::Chunked`]: the entry axis split into fixed-size
//!   row-group chunks backed by an on-disk columnar file (header +
//!   per-chunk offset table + optional per-chunk quantization scales),
//!   loaded through a bounded LRU chunk cache so resident bytes are
//!   `O(chunks_cached)`, not `O(entries)`.
//!
//! The on-disk codec defaults to [`ChunkCodec::F32`] — **bitwise lossless**,
//! so a chunked run reproduces an in-memory run bit for bit (the engine
//! goldens pin this). `F16`/`I8` shrink the file 2×/4× at half-precision /
//! per-chunk-scaled 8-bit fidelity for footprint-bound deployments.
//!
//! Chunk reads return the *stored* bytes pulled from disk so callers can
//! price the IO with [`st_device::CostModel::pfs_read`] and let the engine's
//! prefetch overlap hide it behind compute.

use st_tensor::half::{f16_bits_to_f32, f16_round_trip, f32_to_f16_bits};
use st_tensor::Tensor;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic number of the chunked columnar file ("STCC").
const MAGIC: u32 = 0x5354_4343;
/// Format version.
const VERSION: u32 = 1;

/// Default rows (entries) per chunk.
pub const DEFAULT_CHUNK_ENTRIES: usize = 256;
/// Default decoded-chunk cache ceiling (64 MiB).
pub const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Per-chunk on-disk encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkCodec {
    /// Raw little-endian f32 — bitwise lossless (the default).
    F32,
    /// IEEE binary16 (2 bytes/scalar, ~2^-11 relative error).
    F16,
    /// Per-chunk max-abs-scaled signed 8-bit (1 byte/scalar + one f32
    /// scale per chunk).
    I8,
}

impl ChunkCodec {
    /// Stored bytes per scalar.
    pub fn bytes_per_scalar(&self) -> usize {
        match self {
            ChunkCodec::F32 => 4,
            ChunkCodec::F16 => 2,
            ChunkCodec::I8 => 1,
        }
    }

    /// True when decode(encode(x)) == x bitwise for every finite x.
    pub fn is_lossless(&self) -> bool {
        matches!(self, ChunkCodec::F32)
    }

    fn tag(&self) -> u32 {
        match self {
            ChunkCodec::F32 => 0,
            ChunkCodec::F16 => 1,
            ChunkCodec::I8 => 2,
        }
    }

    /// The value a scalar decodes to after one store/load round trip.
    pub fn round_trip(&self, v: f32) -> f32 {
        match self {
            ChunkCodec::F32 => v,
            ChunkCodec::F16 => f16_round_trip(v),
            ChunkCodec::I8 => v, // depends on the chunk scale; per-chunk only
        }
    }
}

/// Chunked-backend configuration: chunk shape, cache ceiling, codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedSpec {
    /// Rows (dim-0 entries) per chunk.
    pub chunk_entries: usize,
    /// Decoded-chunk LRU cache ceiling in bytes. A single chunk larger
    /// than the ceiling still loads (the cache holds exactly that chunk).
    pub cache_bytes: u64,
    /// On-disk payload codec.
    pub codec: ChunkCodec,
}

impl ChunkedSpec {
    /// Lossless chunked storage with the given chunk size and the default
    /// cache ceiling.
    pub fn new(chunk_entries: usize) -> Self {
        ChunkedSpec {
            chunk_entries,
            cache_bytes: DEFAULT_CACHE_BYTES,
            codec: ChunkCodec::F32,
        }
    }

    /// Replace the cache ceiling.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Replace the codec.
    pub fn with_codec(mut self, codec: ChunkCodec) -> Self {
        self.codec = codec;
        self
    }
}

impl Default for ChunkedSpec {
    fn default() -> Self {
        ChunkedSpec::new(DEFAULT_CHUNK_ENTRIES)
    }
}

/// Which backend a config-built dataset should use.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum StorageSpec {
    /// One dense in-memory tensor (the historical layout).
    #[default]
    InMemory,
    /// Out-of-core chunked columnar storage.
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
    /// Read a contiguous row range as `[len, trailing...]`, returning the
    /// tensor plus the **stored bytes pulled from disk** to serve it (0 on
    /// cache hits and for the in-memory backend, whose reads are views).
    fn read_rows_quoted(&self, range: Range<usize>) -> (Tensor, u64);
    /// Gather arbitrary rows as `[ids.len(), trailing...]`, quoting disk
    /// bytes as in [`RowStore::read_rows_quoted`].
    fn gather_rows_quoted(&self, ids: &[usize]) -> (Tensor, u64);
    /// Bytes currently resident in RAM for this store (full tensor for the
    /// in-memory backend; decoded cached chunks for the chunked one).
    fn resident_bytes(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Chunk codecs
// ---------------------------------------------------------------------------

fn encode_chunk(codec: ChunkCodec, values: &[f32]) -> (Vec<u8>, f32) {
    match codec {
        ChunkCodec::F32 => {
            let mut out = Vec::with_capacity(values.len() * 4);
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            (out, 1.0)
        }
        ChunkCodec::F16 => {
            let mut out = Vec::with_capacity(values.len() * 2);
            for &v in values {
                out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
            }
            (out, 1.0)
        }
        ChunkCodec::I8 => {
            let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            let out = values
                .iter()
                .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8 as u8)
                .collect();
            (out, scale)
        }
    }
}

fn decode_chunk(codec: ChunkCodec, bytes: &[u8], scale: f32, out: &mut Vec<f32>) {
    match codec {
        ChunkCodec::F32 => {
            for b in bytes.chunks_exact(4) {
                out.push(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
        }
        ChunkCodec::F16 => {
            for b in bytes.chunks_exact(2) {
                out.push(f16_bits_to_f32(u16::from_le_bytes([b[0], b[1]])));
            }
        }
        ChunkCodec::I8 => {
            for &b in bytes {
                out.push((b as i8) as f32 * scale);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The on-disk store
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    offset: u64,
    bytes: u64,
    scale: f32,
}

struct ChunkCache {
    /// chunk id -> (decoded scalars, last-touch tick).
    entries: HashMap<usize, (Arc<Vec<f32>>, u64)>,
    resident: u64,
    tick: u64,
}

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_chunk_path() -> std::path::PathBuf {
    let n = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("st-chunks-{}-{n}.stcc", std::process::id()))
}

/// Streaming writer for the chunked columnar file. Rows are pushed in
/// order; each full chunk is encoded and appended immediately, so peak
/// writer memory is one chunk.
pub struct ChunkedWriter {
    file: File,
    path: std::path::PathBuf,
    dims: Vec<usize>,
    spec: ChunkedSpec,
    table: Vec<ChunkMeta>,
    buf: Vec<f32>,
    rows_written: usize,
    payload_at: u64,
}

impl ChunkedWriter {
    /// Start a file for a `[dims[0], dims[1..]]` array under `spec`. The
    /// total row count must be known up front (it sizes the header).
    pub fn create(dims: &[usize], spec: ChunkedSpec) -> Self {
        assert!(!dims.is_empty(), "need at least the row dimension");
        assert!(spec.chunk_entries > 0, "chunk_entries must be positive");
        assert!(spec.cache_bytes > 0, "cache_bytes must be positive");
        let path = fresh_chunk_path();
        let mut file = File::create(&path).expect("create chunk file");
        let nchunks = dims[0].div_ceil(spec.chunk_entries);
        // Header: magic, version, codec, ndims, chunk_rows, dims…, nchunks,
        // then the chunk table (offset u64 + bytes u64 + scale f32 each),
        // then payload. The table is backfilled on finish().
        let header_bytes = 16 + 8 + dims.len() * 8 + 8 + nchunks * 20;
        let mut head = Vec::with_capacity(header_bytes);
        head.extend_from_slice(&MAGIC.to_le_bytes());
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&spec.codec.tag().to_le_bytes());
        head.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        head.extend_from_slice(&(spec.chunk_entries as u64).to_le_bytes());
        for &d in dims {
            head.extend_from_slice(&(d as u64).to_le_bytes());
        }
        head.extend_from_slice(&(nchunks as u64).to_le_bytes());
        head.resize(header_bytes, 0);
        file.write_all(&head).expect("write chunk header");
        ChunkedWriter {
            file,
            path,
            dims: dims.to_vec(),
            spec,
            table: Vec::with_capacity(nchunks),
            buf: Vec::new(),
            rows_written: 0,
            payload_at: header_bytes as u64,
        }
    }

    fn width(&self) -> usize {
        self.dims[1..].iter().product::<usize>().max(1)
    }

    /// Append whole rows (`rows.len()` must be a multiple of the row width).
    pub fn push_rows(&mut self, rows: &[f32]) {
        let width = self.width();
        assert_eq!(rows.len() % width, 0, "push_rows needs whole rows");
        self.rows_written += rows.len() / width;
        assert!(
            self.rows_written <= self.dims[0],
            "more rows pushed than declared ({} > {})",
            self.rows_written,
            self.dims[0]
        );
        self.buf.extend_from_slice(rows);
        let chunk_scalars = self.spec.chunk_entries * width;
        while self.buf.len() >= chunk_scalars {
            let rest = self.buf.split_off(chunk_scalars);
            let full = std::mem::replace(&mut self.buf, rest);
            self.flush_chunk(&full);
        }
    }

    fn flush_chunk(&mut self, values: &[f32]) {
        let (encoded, scale) = encode_chunk(self.spec.codec, values);
        self.table.push(ChunkMeta {
            offset: self.payload_at,
            bytes: encoded.len() as u64,
            scale,
        });
        self.file.write_all(&encoded).expect("write chunk");
        self.payload_at += encoded.len() as u64;
    }

    /// Flush the ragged tail, backfill the chunk table, and open the store.
    pub fn finish(mut self) -> ChunkedStore {
        assert_eq!(
            self.rows_written, self.dims[0],
            "writer closed early: {} of {} rows",
            self.rows_written, self.dims[0]
        );
        if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            self.flush_chunk(&tail);
        }
        // Backfill the table.
        let table_at = (16 + 8 + self.dims.len() * 8 + 8) as u64;
        self.file
            .seek(SeekFrom::Start(table_at))
            .expect("seek to table");
        let mut raw = Vec::with_capacity(self.table.len() * 20);
        for m in &self.table {
            raw.extend_from_slice(&m.offset.to_le_bytes());
            raw.extend_from_slice(&m.bytes.to_le_bytes());
            raw.extend_from_slice(&m.scale.to_le_bytes());
        }
        self.file.write_all(&raw).expect("write chunk table");
        self.file.flush().expect("flush chunk file");
        let file = File::open(&self.path).expect("reopen chunk file");
        ChunkedStore {
            file: Mutex::new(file),
            path: self.path,
            dims: self.dims,
            spec: self.spec,
            table: self.table,
            file_bytes: self.payload_at,
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

/// An on-disk chunked columnar array with a bounded LRU decoded-chunk
/// cache. Owns its backing file (deleted on drop). Thread-safe: planes on
/// different engine ranks may share one store through an `Arc`.
pub struct ChunkedStore {
    file: Mutex<File>,
    path: std::path::PathBuf,
    dims: Vec<usize>,
    spec: ChunkedSpec,
    table: Vec<ChunkMeta>,
    file_bytes: u64,
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
            .field("chunks", &self.table.len())
            .field("file_bytes", &self.file_bytes)
            .finish()
    }
}

impl Drop for ChunkedStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl ChunkedStore {
    /// Encode a tensor into a fresh chunk file.
    pub fn from_tensor(t: &Tensor, spec: ChunkedSpec) -> Arc<ChunkedStore> {
        let mut w = ChunkedWriter::create(t.dims(), spec);
        let src = t.contiguous();
        w.push_rows(src.as_slice().expect("contiguous"));
        Arc::new(w.finish())
    }

    /// The chunk configuration.
    pub fn spec(&self) -> ChunkedSpec {
        self.spec
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.spec.chunk_entries
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.table.len()
    }

    /// Total stored payload + header bytes on disk.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Stored bytes read from disk so far (cache misses only).
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

    fn width(&self) -> usize {
        self.dims[1..].iter().product::<usize>().max(1)
    }

    /// Decoded chunk `c`, through the LRU cache. Returns the chunk plus the
    /// stored bytes pulled from disk (0 on a hit).
    fn chunk(&self, c: usize) -> (Arc<Vec<f32>>, u64) {
        let mut cache = self.cache.lock().expect("chunk cache poisoned");
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((data, touched)) = cache.entries.get_mut(&c) {
            *touched = tick;
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return (data.clone(), 0);
        }
        // Miss: read + decode from disk.
        let meta = self.table[c];
        let mut raw = vec![0u8; meta.bytes as usize];
        {
            let mut file = self.file.lock().expect("chunk file poisoned");
            file.seek(SeekFrom::Start(meta.offset)).expect("seek chunk");
            file.read_exact(&mut raw).expect("read chunk");
        }
        let mut decoded = Vec::with_capacity(self.rows_in_chunk(c) * self.width());
        decode_chunk(self.spec.codec, &raw, meta.scale, &mut decoded);
        let decoded = Arc::new(decoded);
        let decoded_bytes = (decoded.len() * 4) as u64;
        self.io_bytes.fetch_add(meta.bytes, Ordering::Relaxed);
        self.io_chunks.fetch_add(1, Ordering::Relaxed);
        // Evict LRU entries until the new chunk fits (a chunk bigger than
        // the whole ceiling still loads — the cache then holds just it).
        while cache.resident + decoded_bytes > self.spec.cache_bytes && !cache.entries.is_empty() {
            let (&lru, _) = cache
                .entries
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .expect("non-empty");
            let (gone, _) = cache.entries.remove(&lru).expect("present");
            cache.resident -= (gone.len() * 4) as u64;
        }
        cache.resident += decoded_bytes;
        cache.entries.insert(c, (decoded.clone(), tick));
        self.peak_resident
            .fetch_max(cache.resident, Ordering::Relaxed);
        (decoded, meta.bytes)
    }

    /// Iterate the store chunk-aligned: `f(first_row, rows_tensor)` per
    /// chunk, in order. Used by per-chunk rewriters (`with_time_feature`,
    /// scaler transforms) so nothing ever materializes the full array.
    pub fn for_each_chunk(&self, mut f: impl FnMut(usize, &Tensor)) {
        for c in 0..self.table.len() {
            let start = c * self.spec.chunk_entries;
            let rows = self.rows_in_chunk(c);
            let (t, _) = self.read_rows_quoted(start..start + rows);
            f(start, &t);
        }
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
        self.width()
    }

    fn read_rows_quoted(&self, range: Range<usize>) -> (Tensor, u64) {
        assert!(range.end <= self.dims[0], "row range out of bounds");
        let width = self.width();
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
        let width = self.width();
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
    /// One dense tensor; reads are zero-copy views.
    InMemory(Tensor),
    /// On-disk chunks behind a bounded LRU cache.
    Chunked(Arc<ChunkedStore>),
}

impl SignalStorage {
    /// Wrap a tensor under the requested backend. `InMemory` shares the
    /// tensor's storage; `Chunked` encodes it into a fresh chunk file.
    pub fn from_tensor_spec(t: Tensor, spec: StorageSpec) -> SignalStorage {
        match spec {
            StorageSpec::InMemory => SignalStorage::InMemory(t.contiguous()),
            StorageSpec::Chunked(cs) => SignalStorage::Chunked(ChunkedStore::from_tensor(&t, cs)),
        }
    }

    /// True for the chunked backend.
    pub fn is_chunked(&self) -> bool {
        matches!(self, SignalStorage::Chunked(_))
    }

    /// The spec that would rebuild this backend.
    pub fn spec(&self) -> StorageSpec {
        match self {
            SignalStorage::InMemory(_) => StorageSpec::InMemory,
            SignalStorage::Chunked(s) => StorageSpec::Chunked(s.spec()),
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

    /// Materialize the full array as one tensor (O(1) clone for the
    /// in-memory backend; a full streamed read for chunks).
    pub fn to_tensor(&self) -> Tensor {
        match self {
            SignalStorage::InMemory(t) => t.clone(),
            SignalStorage::Chunked(s) => s.read_rows_quoted(0..s.rows()).0,
        }
    }

    /// The chunked store, when this is the chunked backend.
    pub fn chunked(&self) -> Option<&Arc<ChunkedStore>> {
        match self {
            SignalStorage::InMemory(_) => None,
            SignalStorage::Chunked(s) => Some(s),
        }
    }

    /// Rewrite this store under a new backend spec (used to convert an
    /// in-memory dataset to chunked form, or re-chunk with new settings).
    /// Chunked sources stream chunk-by-chunk; nothing materializes fully.
    pub fn rechunk(&self, spec: StorageSpec) -> SignalStorage {
        match (self, spec) {
            (SignalStorage::InMemory(t), s) => SignalStorage::from_tensor_spec(t.clone(), s),
            (SignalStorage::Chunked(src), StorageSpec::Chunked(cs)) => {
                let mut w = ChunkedWriter::create(src.dims(), cs);
                src.for_each_chunk(|_, rows| {
                    w.push_rows(rows.as_slice().expect("chunk rows contiguous"));
                });
                SignalStorage::Chunked(Arc::new(w.finish()))
            }
            (SignalStorage::Chunked(_), StorageSpec::InMemory) => {
                SignalStorage::InMemory(self.to_tensor())
            }
        }
    }

    /// Apply an elementwise per-row map, staying on the same backend.
    /// Chunked stores stream per chunk (peak memory = one chunk); the
    /// in-memory path applies `f` to the whole tensor in one call, so any
    /// elementwise `f` (e.g. a scaler transform) produces bit-identical
    /// values on both backends.
    pub fn map_rows(&self, f: impl Fn(&Tensor) -> Tensor) -> SignalStorage {
        match self {
            SignalStorage::InMemory(t) => {
                let out = f(t);
                assert_eq!(out.dims(), t.dims(), "map_rows must preserve shape");
                SignalStorage::InMemory(out.contiguous())
            }
            SignalStorage::Chunked(src) => {
                let mut w = ChunkedWriter::create(src.dims(), src.spec());
                src.for_each_chunk(|_, rows| {
                    let out = f(rows);
                    assert_eq!(out.dims(), rows.dims(), "map_rows must preserve shape");
                    w.push_rows(out.contiguous().as_slice().expect("contiguous"));
                });
                SignalStorage::Chunked(Arc::new(w.finish()))
            }
        }
    }

    /// Stored bytes read from disk so far (0 for the in-memory backend).
    pub fn io_bytes(&self) -> u64 {
        match self {
            SignalStorage::InMemory(_) => 0,
            SignalStorage::Chunked(s) => s.io_bytes(),
        }
    }

    /// High-water mark of cache-resident decoded bytes (the full tensor for
    /// the in-memory backend).
    pub fn peak_resident_bytes(&self) -> u64 {
        match self {
            SignalStorage::InMemory(t) => (t.numel() * 4) as u64,
            SignalStorage::Chunked(s) => s.peak_resident_bytes(),
        }
    }
}

impl RowStore for SignalStorage {
    fn rows(&self) -> usize {
        match self {
            SignalStorage::InMemory(t) => t.dim(0),
            SignalStorage::Chunked(s) => s.rows(),
        }
    }

    fn dims(&self) -> &[usize] {
        match self {
            SignalStorage::InMemory(t) => t.dims(),
            SignalStorage::Chunked(s) => s.dims(),
        }
    }

    fn row_width(&self) -> usize {
        match self {
            SignalStorage::InMemory(t) => t.dims()[1..].iter().product::<usize>().max(1),
            SignalStorage::Chunked(s) => s.row_width(),
        }
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
        let spec = ChunkedSpec::new(4).with_cache_bytes(600); // fits 2 chunks
        let store = ChunkedStore::from_tensor(&t, spec);
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
        let store = ChunkedStore::from_tensor(&t, ChunkedSpec::new(8));
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
        let store = ChunkedStore::from_tensor(&t, ChunkedSpec::new(8));
        let (_, io1) = store.read_rows_quoted(0..8);
        assert_eq!(io1, 8 * 4 * 4, "one lossless chunk = stored bytes");
        let (_, io2) = store.read_rows_quoted(0..8);
        assert_eq!(io2, 0, "cache hit quotes no disk bytes");
        let (_, io3) = store.read_rows_quoted(4..12);
        assert_eq!(io3, 8 * 4 * 4, "straddle pulls only the missing chunk");
    }

    #[test]
    fn f16_codec_halves_the_file_within_half_precision() {
        let vals: Vec<f32> = (0..200).map(|i| (i as f32 * 0.37).sin() * 80.0).collect();
        let t = Tensor::from_vec(vals.clone(), [50, 4]).unwrap();
        let lossless = ChunkedStore::from_tensor(&t, ChunkedSpec::new(16));
        let half = ChunkedStore::from_tensor(&t, ChunkedSpec::new(16).with_codec(ChunkCodec::F16));
        let payload = |s: &ChunkedStore| -> u64 { s.table.iter().map(|m| m.bytes).sum() };
        assert_eq!(payload(&half) * 2, payload(&lossless));
        let (got, _) = half.read_rows_quoted(0..50);
        for (g, v) in got.to_vec().iter().zip(&vals) {
            assert!((g - v).abs() <= v.abs() / 2048.0 + 1e-6, "{v} -> {g}");
        }
    }

    #[test]
    fn i8_codec_quarters_the_file_within_scale_error() {
        let vals: Vec<f32> = (0..200).map(|i| (i as f32 * 0.11).cos() * 3.0).collect();
        let t = Tensor::from_vec(vals.clone(), [50, 4]).unwrap();
        let q = ChunkedStore::from_tensor(&t, ChunkedSpec::new(16).with_codec(ChunkCodec::I8));
        let payload: u64 = q.table.iter().map(|m| m.bytes).sum();
        assert_eq!(payload, 200);
        let (got, _) = q.read_rows_quoted(0..50);
        // Error bound: half a quantization step at per-chunk max-abs scale.
        for (g, v) in got.to_vec().iter().zip(&vals) {
            assert!((g - v).abs() <= 3.0 / 127.0, "{v} -> {g}");
        }
    }

    #[test]
    fn map_rows_matches_dense_map_bitwise() {
        let t = arange(29, 3);
        let f = |x: &Tensor| st_tensor::ops::mul_scalar(&st_tensor::ops::add_scalar(x, -2.5), 0.3);
        let dense = f(&t);
        let chunked = SignalStorage::from_tensor_spec(t, StorageSpec::Chunked(ChunkedSpec::new(7)));
        let mapped = chunked.map_rows(f);
        let (got, _) = mapped.read_rows_quoted(0..29);
        let a = got.to_vec();
        let b = dense.to_vec();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
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
        let store = ChunkedStore::from_tensor(&t, ChunkedSpec::new(4));
        let path = store.path.clone();
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
    }
}
