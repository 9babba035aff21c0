//! The out-of-core memory claim on a real process (ROADMAP item 3's
//! pay-off gate, dataset half).
//!
//! A signal whose standardized copy is 128 MiB is built, standardized and
//! streamed for one full shuffled epoch of `IndexDataset::batch_quoted`
//! without ever being materialized: it starts as a chunked `[E, 1]` column
//! and is widened to `[E, N, 1]` block by block through `rewrite_rows`, so
//! the widest thing in RAM is one chunk. The process's resident-set
//! high-water mark (`VmHWM`) must stay under a quarter of that copy. At a
//! size where both fit, the same construction is compared bit for bit with
//! its in-memory twin. This file is its own test binary so that the
//! high-water mark is about this run only.

use pgt_i::core::IndexDataset;
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::storage::{ChunkedSpec, RowStore, SignalStorage, StorageSpec};
use pgt_i::dist::shuffle::global_stripe;
use pgt_i::graph::Adjacency;
use pgt_i::tensor::Tensor;

const HORIZON: usize = 2;
const BATCH: usize = 8;
const PERIOD: usize = 288;
const CHUNK: StorageSpec = StorageSpec::Chunked(ChunkedSpec { chunk_entries: 32 });

/// Peak resident set of this process in bytes (Linux; `None` elsewhere).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// An `[entries, nodes, 1]` traffic-like signal under `spec`, standardized
/// with a time-of-day column appended: `[entries, nodes, 2]`. Only the
/// `[entries, 1]` seed column is ever a tensor.
fn dataset(entries: usize, nodes: usize, spec: StorageSpec) -> IndexDataset {
    let column = (0..entries).map(|t| 60.0 + 9.0 * (t as f32 * 0.022).sin());
    let column = Tensor::from_vec(column.collect(), [entries, 1]).unwrap();
    let wide = SignalStorage::from_tensor_spec(column, spec).rewrite_rows(spec, |_, block| {
        let rows = block.as_slice().expect("a row range is contiguous");
        let mut out = Vec::with_capacity(rows.len() * nodes);
        for &base in rows {
            out.extend((0..nodes).map(|n| base * (1.0 + (n % 7) as f32 * 0.03) - n as f32 * 0.001));
        }
        Tensor::from_vec(out, [rows.len(), nodes, 1]).unwrap()
    });
    let ring: Vec<_> = (0..nodes).map(|n| (n, (n + 1) % nodes, 1.0)).collect();
    let sig = StaticGraphTemporalSignal::with_storage(wide, Adjacency::from_edges(nodes, &ring));
    IndexDataset::from_signal(&sig, HORIZON, SplitRatios::default(), Some(PERIOD))
}

#[test]
fn a_signal_four_times_the_budget_streams_a_shuffled_epoch_under_it() {
    const ENTRIES: usize = 8192;
    const NODES: usize = 2048;
    let ds = dataset(ENTRIES, NODES, CHUNK);
    let store = ds.storage().chunked().expect("stays chunked").clone();
    let copy_bytes = store.file_bytes();
    assert!(copy_bytes >= 128 << 20, "standardized copy {copy_bytes} B");

    let window_bytes = (2 * HORIZON * store.row_width() * 4) as u64;
    let plan = global_stripe(ds.num_snapshots(), 1, 0, 11, 0);
    let mut quoted = 0u64;
    for ids in plan.chunks(BATCH) {
        let (x, y, io) = ds.batch_quoted(ids);
        assert_eq!(x.dims(), &[ids.len(), HORIZON, NODES, 2]);
        assert_eq!(y.dims(), x.dims());
        assert!(
            io <= ids.len() as u64 * window_bytes,
            "a batch reads no row twice"
        );
        quoted += io;
    }
    assert_eq!(store.io_bytes(), quoted, "the quotes are the bytes read");
    let assembled = plan.len() as u64 * window_bytes;
    assert!(
        quoted <= assembled && quoted * 100 >= assembled * 99,
        "read amplification {:.4}: shuffled windows rarely overlap, and never cost extra",
        quoted as f64 / assembled as f64
    );

    if let Some(peak) = peak_rss_bytes() {
        // Measured 5.3 MB (release) / 5.5 MB (debug) on the reference host;
        // before the scaler fit streamed, building the dataset alone peaked
        // at 327 MB.
        assert!(
            peak * 4 <= copy_bytes,
            "peak RSS {:.1} MB exceeds a quarter of the {:.1} MB standardized copy",
            peak as f64 / 1e6,
            copy_bytes as f64 / 1e6
        );
    }
    drop((ds, store));

    // Where both fit: the same construction, chunked against in memory.
    let chunked = dataset(400, 24, CHUNK);
    let dense = dataset(400, 24, StorageSpec::InMemory);
    assert!(chunked.is_chunked() && !dense.is_chunked());
    assert_eq!(chunked.scaler(), dense.scaler());
    let plan = global_stripe(dense.num_snapshots(), 1, 0, 11, 0);
    for ids in plan.chunks(BATCH).step_by(5) {
        let (cx, cy, _) = chunked.batch_quoted(ids);
        let (dx, dy) = dense.batch(ids);
        let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cx), bits(&dx), "x of batch {ids:?}");
        assert_eq!(bits(&cy), bits(&dy), "y of batch {ids:?}");
    }
}
