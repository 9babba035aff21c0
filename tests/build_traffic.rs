//! The index build's I/O on a real process: the bytes this process reads
//! and writes (`rchar` and `wchar` of `/proc/self/io`) around one chunked
//! `IndexDataset::from_signal` with a time-of-day feature. The build writes
//! the standardized copy and nothing else, and reads the raw signal once
//! plus its training prefix twice (the scaler fit's two passes). This file
//! is its own test binary so that nothing else in the process moves the
//! counters or creates spill files.

use pgt_i::core::IndexDataset;
use pgt_i::data::preprocess::num_snapshots;
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::storage::{ChunkedSpec, StorageSpec};
use pgt_i::graph::Adjacency;
use pgt_i::tensor::Tensor;

const ENTRIES: usize = 6000;
const NODES: usize = 96;
const HORIZON: usize = 12;
const PERIOD: usize = 288;

/// `(rchar, wchar)`: bytes this process has read and written through
/// `read`/`write`-family calls (Linux; `None` elsewhere).
fn io_counters() -> Option<(u64, u64)> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = io.lines().find_map(|l| l.strip_prefix(name))?;
        line.trim().parse().ok()
    };
    Some((field("rchar:")?, field("wchar:")?))
}

fn spill_files() -> usize {
    let prefix = format!("st-chunks-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .count()
}

#[test]
fn a_chunked_build_writes_its_copy_once_and_reads_the_signal_once() {
    if io_counters().is_none() {
        eprintln!("skipped: /proc/self/io is not available on this system");
        return;
    }
    let vals = (0..ENTRIES * NODES).map(|i| 60.0 + ((i * 7919) % 1013) as f32 * 0.01);
    let data = Tensor::from_vec(vals.collect(), [ENTRIES, NODES, 1]).unwrap();
    let ring: Vec<_> = (0..NODES).map(|n| (n, (n + 1) % NODES, 1.0)).collect();
    let sig = StaticGraphTemporalSignal::new(data, Adjacency::from_edges(NODES, &ring))
        .rechunk(StorageSpec::Chunked(ChunkedSpec::new(64)));
    let raw_bytes = (ENTRIES * NODES * 4) as f64;
    let splits = SplitRatios::default().split(num_snapshots(ENTRIES, HORIZON));
    let train_share = (splits.train.end + 2 * HORIZON - 1) as f64 / ENTRIES as f64;
    let files = spill_files();

    let (read0, written0) = io_counters().expect("read above");
    let ds = IndexDataset::from_signal(&sig, HORIZON, SplitRatios::default(), Some(PERIOD));
    let (read1, written1) = io_counters().expect("read above");

    let copy_bytes = ds.storage().chunked().expect("stays chunked").file_bytes();
    assert_eq!(
        copy_bytes as f64,
        2.0 * raw_bytes,
        "the copy gains the time column"
    );
    let (read, written) = ((read1 - read0) as f64, (written1 - written0) as f64);
    eprintln!(
        "build: read {read} B ({:.3}x raw), wrote {written} B ({:.3}x the copy)",
        read / raw_bytes,
        written / copy_bytes as f64
    );
    assert!(
        written <= copy_bytes as f64 * 1.01,
        "the build wrote {written} B for a {copy_bytes} B copy: an intermediate file"
    );
    let read_bound = raw_bytes * (1.0 + 2.0 * train_share) * 1.01;
    assert!(
        read <= read_bound,
        "the build read {read} B, over one raw pass plus two prefix passes ({read_bound} B)"
    );
    assert_eq!(spill_files(), files + 1, "one spill file: the copy's");
}
