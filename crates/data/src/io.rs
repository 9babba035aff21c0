//! Binary (de)serialization of signals — the "raw file on the parallel
//! filesystem" the paper's workflows read, so distributed workers can model
//! shared-FS loading (every worker reads the same file, as §4.2 describes).
//!
//! The `STD2` layout, little-endian throughout, decoded through
//! [`st_tensor::le`]:
//!
//! | bytes | field |
//! |---|---|
//! | 4 | magic `"STD2"` as a `u32` (`0x5354_4432`) |
//! | 4 + 4 + 4 | `entries`, `nodes`, `features` (`u32` each, all non-zero) |
//! | 8 | `num_edges` (`u64`) |
//! | `entries · nodes · features · 4` | the `[entries, nodes, features]` array, row-major `f32` |
//! | `num_edges · 12` | `(row: u32, col: u32, weight: f32)` in CSR row order |
//!
//! The graph is stored as it is held — its non-zeros — so a file grows with
//! `E`, not `N²`. `STDG`, the earlier layout with a dense `N²` adjacency
//! block, is rejected by its magic.

use crate::signal::StaticGraphTemporalSignal;
use crate::storage::RowStore;
use st_graph::Adjacency;
use st_tensor::le::{self, Reader, Truncated};
use st_tensor::Tensor;

const MAGIC: u32 = 0x5354_4432; // "STD2"

/// Bytes before the data block.
const HEADER_BYTES: usize = 24;

/// Why a byte buffer is not an `STD2` signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// The buffer starts with this word instead of the `STD2` magic.
    BadMagic(u32),
    /// The buffer ended before the header and the sizes it declares.
    Truncated,
    /// The header declares zero entries, nodes or features: no row backs
    /// the node count, which would size the graph store unchecked.
    Empty,
    /// An edge names a node the header does not declare.
    BadEdge {
        /// Source node of the offending edge.
        row: u32,
        /// Target node of the offending edge.
        col: u32,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic(m) => write!(f, "not an STD2 signal (magic {m:#010x})"),
            FormatError::Truncated => write!(f, "signal truncated"),
            FormatError::Empty => write!(f, "signal header declares a zero extent"),
            FormatError::BadEdge { row, col } => {
                write!(f, "edge ({row}, {col}) names a node outside the graph")
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<Truncated> for FormatError {
    fn from(_: Truncated) -> Self {
        FormatError::Truncated
    }
}

/// Serialize a signal (data + graph) to bytes.
pub fn to_bytes(signal: &StaticGraphTemporalSignal) -> Vec<u8> {
    let e = signal.entries();
    let n = signal.num_nodes();
    let f = signal.num_features();
    let edges = signal.adjacency.num_edges();
    let mut buf = Vec::with_capacity(HEADER_BYTES + e * n * f * 4 + edges * 12);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    for extent in [e, n, f] {
        let extent = u32::try_from(extent).expect("signal extent fits the u32 header field");
        buf.extend_from_slice(&extent.to_le_bytes());
    }
    buf.extend_from_slice(&(edges as u64).to_le_bytes());
    // Stream entry blocks through the storage trait so a chunked signal
    // serializes without ever materializing the full array.
    let block = 1024usize;
    let mut t0 = 0;
    while t0 < e {
        let t1 = (t0 + block).min(e);
        let (rows, _) = signal.storage.read_rows_quoted(t0..t1);
        let rows = rows.contiguous();
        for v in rows.as_slice().expect("contiguous rows") {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        t0 = t1;
    }
    for i in 0..n {
        for (j, w) in signal.adjacency.row(i) {
            // Both below `n`, which fits a `u32` above.
            buf.extend_from_slice(&(i as u32).to_le_bytes());
            buf.extend_from_slice(&(j as u32).to_le_bytes());
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    buf
}

/// Deserialize a signal previously produced by [`to_bytes`].
pub fn from_bytes(buf: &[u8]) -> Result<StaticGraphTemporalSignal, FormatError> {
    let mut r = Reader::new(buf);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(FormatError::BadMagic(magic));
    }
    let dims = [r.u32()? as usize, r.u32()? as usize, r.u32()? as usize];
    let [_, n, _] = dims;
    let num_edges = r.size()?;
    if dims.contains(&0) {
        return Err(FormatError::Empty);
    }
    // With no zero extent, the data block proves `n · 4 ≤ buf.len()` before
    // `n` sizes the graph store.
    let data = r.f32s(le::numel(&dims)?)?;
    let edges = r
        .take(le::numel(&[num_edges, 12])?)?
        .chunks_exact(12)
        .map(|edge| {
            let mut edge = Reader::new(edge);
            let (row, col, w) = (edge.u32()?, edge.u32()?, edge.f32()?);
            if row as usize >= n || col as usize >= n {
                return Err(FormatError::BadEdge { row, col });
            }
            Ok((row as usize, col as usize, w))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let data = Tensor::from_vec(data, dims).map_err(|_| FormatError::Truncated)?;
    Ok(StaticGraphTemporalSignal::new(
        data,
        Adjacency::from_edges(n, &edges),
    ))
}

/// Write a signal to a file.
pub fn save(signal: &StaticGraphTemporalSignal, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(signal))
}

/// Read a signal from a file.
pub fn load(path: &std::path::Path) -> std::io::Result<StaticGraphTemporalSignal> {
    let raw = std::fs::read(path)?;
    from_bytes(&raw).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StaticGraphTemporalSignal {
        let adj = Adjacency::from_dense(2, vec![1.0, 0.25, 0.25, 1.0]);
        let data = Tensor::arange(2 * 2 * 3).reshape([2, 2, 3]).unwrap();
        StaticGraphTemporalSignal::new(data, adj)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let sig = sample();
        let back = from_bytes(&to_bytes(&sig)).unwrap();
        assert_eq!(back.entries(), 2);
        assert_eq!(back.num_nodes(), 2);
        assert_eq!(back.num_features(), 3);
        assert_eq!(back.data().to_vec(), sig.data().to_vec());
        assert!(back.adjacency.same_topology(&sig.adjacency));
        assert_eq!(back.adjacency.to_dense(), sig.adjacency.to_dense());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = to_bytes(&sample());
        raw[0] ^= 0xFF;
        assert!(matches!(from_bytes(&raw), Err(FormatError::BadMagic(_))));
        // The dense-adjacency layout this one replaced is not read either.
        raw[..4].copy_from_slice(b"GDTS"); // "STDG" as a little-endian u32
        assert_eq!(
            from_bytes(&raw).unwrap_err(),
            FormatError::BadMagic(0x5354_4447)
        );
    }

    #[test]
    fn truncated_buffer_rejected() {
        let raw = to_bytes(&sample());
        let cut = &raw[..raw.len() - 4];
        assert_eq!(from_bytes(cut).unwrap_err(), FormatError::Truncated);
        // A complete header and nothing else, `e = n = 2³¹, f = 4`: sizes
        // whose unchecked byte count wraps to zero.
        let header = |edges: &[u8]| {
            let mut b = Vec::new();
            for word in [MAGIC, 1 << 31, 1 << 31, 4] {
                b.extend_from_slice(&word.to_le_bytes());
            }
            b.extend_from_slice(edges);
            b
        };
        assert_eq!(
            from_bytes(&header(&[])).unwrap_err(),
            FormatError::Truncated
        );
        assert_eq!(
            from_bytes(&header(&0u64.to_le_bytes())).unwrap_err(),
            FormatError::Truncated
        );
    }

    #[test]
    fn a_node_count_nothing_backs_and_a_stray_edge_are_rejected() {
        let mut raw = to_bytes(&sample());
        // entries = 0: the data block is empty whatever `nodes` says.
        let mut empty = raw.clone();
        empty[4..8].copy_from_slice(&0u32.to_le_bytes());
        empty[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(from_bytes(&empty).unwrap_err(), FormatError::Empty);
        // First edge's target moved outside the two-node graph.
        let first_edge = HEADER_BYTES + 2 * 2 * 3 * 4;
        raw[first_edge + 4..first_edge + 8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            from_bytes(&raw).unwrap_err(),
            FormatError::BadEdge { row: 0, col: 2 }
        );
    }

    #[test]
    fn file_size_grows_with_edges_not_nodes_squared() {
        // 10,000 nodes: the dense block alone was 10⁸ floats (400 MB).
        let grid = st_graph::generators::city_grid_sparse(100, 100, 3);
        let adjacency = grid.graph.to_adjacency();
        let (e, n, f) = (2, adjacency.num_nodes(), 1);
        let edges = adjacency.num_edges();
        let sig = StaticGraphTemporalSignal::new(
            Tensor::arange(e * n * f).reshape([e, n, f]).unwrap(),
            adjacency,
        );
        let raw = to_bytes(&sig);
        assert_eq!(raw.len(), HEADER_BYTES + e * n * f * 4 + 12 * edges);
        let back = from_bytes(&raw).unwrap();
        assert!(back.adjacency.same_topology(&sig.adjacency));
        assert_eq!(back.data().to_vec(), sig.data().to_vec());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("st_data_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sig.stdg");
        save(&sample(), &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.data().to_vec(), sample().data().to_vec());
        std::fs::remove_file(path).ok();
    }
}
