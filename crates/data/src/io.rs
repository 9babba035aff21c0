//! Binary (de)serialization of signals — the "raw file on the parallel
//! filesystem" the paper's workflows read. A tiny header + little-endian
//! f32 payload via `bytes`, so distributed workers can model shared-FS
//! loading (every worker reads the same file, as §4.2 describes).

use crate::signal::StaticGraphTemporalSignal;
use crate::storage::RowStore;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use st_graph::Adjacency;
use st_tensor::Tensor;

const MAGIC: u32 = 0x5354_4447; // "STDG"

/// Serialize a signal (data + adjacency) to bytes.
pub fn to_bytes(signal: &StaticGraphTemporalSignal) -> Bytes {
    let e = signal.entries();
    let n = signal.num_nodes();
    let f = signal.num_features();
    let mut buf = BytesMut::with_capacity(16 + (e * n * f + n * n) * 4);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(e as u32);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(f as u32);
    // Stream entry blocks through the storage trait so a chunked signal
    // serializes without ever materializing the full array.
    let block = 1024usize;
    let mut t0 = 0;
    while t0 < e {
        let t1 = (t0 + block).min(e);
        let (rows, _) = signal.storage.read_rows_quoted(t0..t1);
        for &v in rows.contiguous().as_slice().expect("contiguous rows") {
            buf.put_f32_le(v);
        }
        t0 = t1;
    }
    for w in signal.adjacency.to_dense() {
        buf.put_f32_le(w);
    }
    buf.freeze()
}

/// Deserialize a signal previously produced by [`to_bytes`].
pub fn from_bytes(mut buf: Bytes) -> Result<StaticGraphTemporalSignal, String> {
    if buf.remaining() < 16 {
        return Err("buffer too short for header".into());
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(format!("bad magic {magic:#x}"));
    }
    let e = buf.get_u32_le() as usize;
    let n = buf.get_u32_le() as usize;
    let f = buf.get_u32_le() as usize;
    let need = (e * n * f + n * n) * 4;
    if buf.remaining() < need {
        return Err(format!(
            "buffer too short: need {need} payload bytes, have {}",
            buf.remaining()
        ));
    }
    let mut data = Vec::with_capacity(e * n * f);
    for _ in 0..e * n * f {
        data.push(buf.get_f32_le());
    }
    let mut adj = Vec::with_capacity(n * n);
    for _ in 0..n * n {
        adj.push(buf.get_f32_le());
    }
    Ok(StaticGraphTemporalSignal::new(
        Tensor::from_vec(data, [e, n, f]).map_err(|e| e.to_string())?,
        Adjacency::from_dense(n, adj),
    ))
}

/// Write a signal to a file.
pub fn save(signal: &StaticGraphTemporalSignal, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(signal))
}

/// Read a signal from a file.
pub fn load(path: &std::path::Path) -> std::io::Result<StaticGraphTemporalSignal> {
    let raw = std::fs::read(path)?;
    from_bytes(Bytes::from(raw))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
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
        let back = from_bytes(to_bytes(&sig)).unwrap();
        assert_eq!(back.entries(), 2);
        assert_eq!(back.num_nodes(), 2);
        assert_eq!(back.num_features(), 3);
        assert_eq!(back.data().to_vec(), sig.data().to_vec());
        assert!(back.adjacency.same_topology(&sig.adjacency));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = to_bytes(&sample()).to_vec();
        raw[0] ^= 0xFF;
        assert!(from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn truncated_buffer_rejected() {
        let raw = to_bytes(&sample());
        let cut = raw.slice(0..raw.len() - 4);
        assert!(from_bytes(cut).is_err());
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
