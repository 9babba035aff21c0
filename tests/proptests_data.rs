//! Out-of-core storage invariants, property-based and end-to-end:
//!
//! - chunked-lossless row reads are bit-identical to the dense tensor for
//!   arbitrary shapes, chunk sizes and read patterns;
//! - `IndexDataset` batches are storage-invariant bit for bit — arbitrary
//!   id lists included — and quote the bytes of their merged runs;
//! - the one-pass build of the standardized copy has the bits of the
//!   two-step build it replaced (time feature, then fit and transform),
//!   scaler statistics included, over every source backend and target
//!   spec;
//! - threads sharing one `ChunkedStore` read correct bits concurrently;
//! - all five runners over the four engine data planes (local-copy,
//!   data-service, halo-entry, and the `Trainer`'s plane under the
//!   partitioned and dynamic runners) produce bit-identical training
//!   trajectories under `StorageSpec::Chunked` lossless vs
//!   `StorageSpec::InMemory`.

use pgt_i::core::baseline_ddp::run_baseline_ddp;
use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::dynamic_index::train_dynamic;
use pgt_i::core::gen_dist_index::run_generalized;
use pgt_i::core::partitioned::run_partitioned;
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::core::EngineReport;
use pgt_i::core::IndexDataset;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::dynamic::synthetic_dynamic_traffic;
use pgt_i::data::preprocess::num_snapshots;
use pgt_i::data::scaler::StandardScaler;
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::storage::{ChunkedSpec, RowStore, SignalStorage, StorageSpec};
use pgt_i::data::synthetic;
use pgt_i::graph::{diffusion_supports, Adjacency, Partitioning};
use pgt_i::models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use pgt_i::tensor::Tensor;
use proptest::prelude::*;

fn xorshift_vals(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed as u64 | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f32 / 100.0 - 10.0
        })
        .collect()
}

/// The build before it was one pass, kept as the oracle: append the
/// time-of-day column (`with_time_feature`), fit the scaler on the augmented
/// training prefix, then standardize the whole augmented copy.
fn two_step_build(
    sig: &StaticGraphTemporalSignal,
    horizon: usize,
    period: Option<usize>,
) -> (StandardScaler, Tensor) {
    let augmented = match period {
        Some(p) => sig.with_time_feature(p),
        None => sig.clone(),
    };
    let all = augmented.storage.to_tensor();
    let entries = all.dim(0);
    let splits = SplitRatios::default().split(num_snapshots(entries, horizon));
    let train_entries = (splits.train.end + 2 * horizon - 1).min(entries);
    let scaler = StandardScaler::fit(&all.narrow(0, 0, train_entries).unwrap());
    let copy = scaler.transform(&all);
    (scaler, copy)
}

/// Build through `IndexDataset::from_storage` from `sig` held under each
/// source backend into each target spec, and require the oracle's bits.
fn assert_one_pass_build_matches_two_step(
    sig: &StaticGraphTemporalSignal,
    horizon: usize,
    period: Option<usize>,
    chunk: usize,
) {
    let (scaler, copy) = two_step_build(sig, horizon, period);
    let want: Vec<u32> = copy.to_vec().iter().map(|v| v.to_bits()).collect();
    let stat_bits = |s: &StandardScaler| {
        let stats = s.feature_stats().iter();
        let pairs = stats.map(|(m, d)| (m.to_bits(), d.to_bits()));
        (s.mean.to_bits(), s.std.to_bits(), pairs.collect::<Vec<_>>())
    };
    let chunked = StorageSpec::Chunked(ChunkedSpec::new(chunk));
    // A target chunk that differs from the source's.
    let target_chunked = StorageSpec::Chunked(ChunkedSpec::new(chunk + 2));
    for source in [StorageSpec::InMemory, chunked] {
        let src = sig.rechunk(source);
        for target in [StorageSpec::InMemory, target_chunked] {
            let what = format!("source {source:?}, target {target:?}, period {period:?}");
            let ds = IndexDataset::from_storage(
                &src.storage,
                horizon,
                SplitRatios::default(),
                period,
                target,
            );
            assert_eq!(ds.storage().spec(), target, "{what}");
            assert_eq!(stat_bits(ds.scaler()), stat_bits(&scaler), "{what}");
            let got = ds.storage().to_tensor();
            assert_eq!(got.dims(), copy.dims(), "{what}");
            let got: Vec<u32> = got.to_vec().iter().map(|v| v.to_bits()).collect();
            assert!(got == want, "{what}: the copy's bits differ");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-pass build equals the two-step oracle bit for bit: F of 1
    /// to 3, with no period, a period of 1, one shorter than the signal
    /// and one longer; ragged chunks; wide rows whose 64 KiB fit blocks
    /// are a few rows each, so the training prefix ends inside one.
    #[test]
    fn the_one_pass_build_has_the_bits_of_the_two_step_build(
        entries in 12usize..60,
        narrow_nodes in 1usize..5,
        wide_nodes in 400usize..700,
        wide in any::<bool>(),
        features in 1usize..4,
        horizon in 1usize..5,
        chunk in 1usize..17,
        period_pick in 0usize..4,
        seed in any::<u32>(),
    ) {
        let nodes = if wide { wide_nodes } else { narrow_nodes };
        let vals = xorshift_vals(entries * nodes * features, seed);
        let adj = Adjacency::from_dense(nodes, vec![1.0; nodes * nodes]);
        let data = Tensor::from_vec(vals, [entries, nodes, features]).unwrap();
        let sig = StaticGraphTemporalSignal::new(data, adj);
        let period = [None, Some(1), Some(entries / 3 + 1), Some(entries + 7)][period_pick];
        assert_one_pass_build_matches_two_step(&sig, horizon, period, chunk);
    }

    /// Lossless chunked reads reproduce the dense tensor bit for bit:
    /// contiguous ranges (including empty and chunk-straddling ones) and
    /// arbitrary gathers, under arbitrary chunk sizes, and every read
    /// quotes exactly its rows' bytes.
    #[test]
    fn chunked_lossless_reads_are_bit_identical(
        entries in 1usize..70,
        width in 1usize..8,
        chunk in 1usize..24,
        seed in any::<u32>(),
        lo_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let vals = xorshift_vals(entries * width, seed);
        let dense = Tensor::from_vec(vals.clone(), [entries, width]).unwrap();
        let store = SignalStorage::from_tensor_spec(
            dense.clone(),
            StorageSpec::Chunked(ChunkedSpec::new(chunk)),
        );

        let lo = ((entries as f64) * lo_frac) as usize;
        let len = (((entries - lo) as f64) * len_frac) as usize;
        let (got, io) = store.read_rows_quoted(lo..lo + len);
        prop_assert_eq!(io, (len * width * 4) as u64);
        let want: Vec<f32> = vals[lo * width..(lo + len) * width].to_vec();
        let got = got.to_vec();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }

        // A scattered gather, ids derived from the same seed.
        let ids: Vec<usize> = (0..entries.min(9))
            .map(|i| (i * 7 + seed as usize) % entries)
            .collect();
        let (gathered, io) = store.gather_rows_quoted(&ids);
        prop_assert_eq!(io, (ids.len() * width * 4) as u64);
        let gathered = gathered.to_vec();
        for (k, &r) in ids.iter().enumerate() {
            for c in 0..width {
                prop_assert_eq!(
                    gathered[k * width + c].to_bits(),
                    vals[r * width + c].to_bits()
                );
            }
        }
    }

    /// `IndexDataset` batches — scaler fit + transform + window assembly —
    /// are storage-invariant bit for bit, whatever the chunk geometry.
    #[test]
    fn index_dataset_batches_are_storage_invariant(
        entries in 12usize..48,
        nodes in 1usize..5,
        features in 1usize..3,
        horizon in 2usize..5,
        chunk in 1usize..17,
        seed in any::<u32>(),
    ) {
        let vals = xorshift_vals(entries * nodes * features, seed);
        let adj = Adjacency::from_dense(nodes, vec![1.0; nodes * nodes]);
        let data = Tensor::from_vec(vals, [entries, nodes, features]).unwrap();
        let sig = StaticGraphTemporalSignal::new(data, adj);

        let mem = IndexDataset::from_signal(&sig, horizon, SplitRatios::default(), None);
        let chunked = IndexDataset::from_signal(
            &sig.rechunk(StorageSpec::Chunked(ChunkedSpec::new(chunk))),
            horizon,
            SplitRatios::default(),
            None,
        );
        let ids: Vec<usize> = (0..mem.num_snapshots()).step_by(2).collect();
        let (xm, ym) = mem.batch(&ids);
        let (xc, yc) = chunked.batch(&ids);
        for (a, b) in xm.to_vec().iter().zip(xc.to_vec().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in ym.to_vec().iter().zip(yc.to_vec().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Any id list — duplicates, unsorted, overlapping, the window that
    /// touches the last row — gives the in-memory batch's bits, and the
    /// quote is the bytes of the merged runs: every row some window covers,
    /// once.
    #[test]
    fn arbitrary_batches_are_bit_equal_and_quote_their_merged_runs(
        entries in 12usize..60,
        nodes in 1usize..4,
        horizon in 1usize..5,
        chunk in 1usize..17,
        picks in proptest::collection::vec(0.0f64..1.0, 0..12),
        with_last in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let vals = xorshift_vals(entries * nodes * 2, seed);
        let adj = Adjacency::from_dense(nodes, vec![1.0; nodes * nodes]);
        let data = Tensor::from_vec(vals, [entries, nodes, 2]).unwrap();
        let sig = StaticGraphTemporalSignal::new(data, adj);
        let mem = IndexDataset::from_signal(&sig, horizon, SplitRatios::default(), None);
        let chunked = IndexDataset::from_signal(
            &sig.rechunk(StorageSpec::Chunked(ChunkedSpec::new(chunk))),
            horizon,
            SplitRatios::default(),
            None,
        );
        let s = mem.num_snapshots();
        let mut ids: Vec<usize> = picks.iter().map(|p| (p * s as f64) as usize).collect();
        if with_last {
            ids.push(s - 1);
        }

        let mut covered = vec![false; entries];
        for &i in &ids {
            covered[i..i + 2 * horizon].fill(true);
        }
        let run_rows = covered.iter().filter(|c| **c).count();

        let (xm, ym, io_mem) = mem.batch_quoted(&ids);
        let (xc, yc, io) = chunked.batch_quoted(&ids);
        prop_assert_eq!(io_mem, 0);
        prop_assert_eq!(io, (run_rows * nodes * 2 * 4) as u64);
        prop_assert_eq!(xm.dims(), xc.dims());
        for (a, b) in xm.to_vec().iter().zip(xc.to_vec().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in ym.to_vec().iter().zip(yc.to_vec().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// One geometry that pins the two seams the property test reaches only by
/// chance: the training prefix ends inside a rewrite chunk and inside a
/// 64 KiB scaler-fit block, and spans several of each.
#[test]
fn a_training_prefix_ending_inside_a_chunk_and_a_fit_block_keeps_the_bits() {
    let (entries, nodes, features, horizon, chunk) = (50usize, 700usize, 3usize, 2usize, 5usize);
    let splits = SplitRatios::default().split(num_snapshots(entries, horizon));
    let train_entries = splits.train.end + 2 * horizon - 1;
    let fit_block_rows = (1 << 14) / (nodes * features);
    assert!(train_entries > 2 * fit_block_rows && train_entries % fit_block_rows != 0);
    assert!(train_entries > 2 * chunk && train_entries % chunk != 0);
    let vals = xorshift_vals(entries * nodes * features, 99);
    let adj = Adjacency::from_dense(nodes, vec![1.0; nodes * nodes]);
    let data = Tensor::from_vec(vals, [entries, nodes, features]).unwrap();
    let sig = StaticGraphTemporalSignal::new(data, adj);
    for period in [Some(7), None] {
        assert_one_pass_build_matches_two_step(&sig, horizon, period, chunk);
    }
}

/// Positional reads share no cursor: threads hammering one store through an
/// `Arc` — all released together, each on its own interleaved row ranges —
/// read exactly the rows they asked for.
#[test]
fn threads_sharing_one_chunked_store_read_correct_bits() {
    const THREADS: usize = 4;
    let (rows, width) = (257usize, 19usize);
    let vals = xorshift_vals(rows * width, 7);
    let dense = Tensor::from_vec(vals.clone(), [rows, width]).unwrap();
    let store = SignalStorage::from_tensor_spec(dense, StorageSpec::Chunked(ChunkedSpec::new(16)));
    let store = store.chunked().expect("chunked spec").clone();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, vals, start) = (&store, &vals, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..200 {
                    let lo = (t * 61 + round * 13) % rows;
                    let len = (1 + (t + round) % 23).min(rows - lo);
                    let (got, io) = store.read_rows_quoted(lo..lo + len);
                    assert_eq!(io, (len * width * 4) as u64);
                    let want = &vals[lo * width..(lo + len) * width];
                    assert!(
                        got.to_vec()
                            .iter()
                            .zip(want)
                            .all(|(g, w)| g.to_bits() == w.to_bits()),
                        "thread {t} round {round}: rows {lo}..{}",
                        lo + len
                    );
                }
            });
        }
    });
    let total: u64 = (0..THREADS)
        .flat_map(|t| (0..200).map(move |round| (t, round)))
        .map(|(t, round)| {
            let lo = (t * 61 + round * 13) % rows;
            ((1 + (t + round) % 23).min(rows - lo) * width * 4) as u64
        })
        .sum();
    assert_eq!(store.io_bytes(), total, "every thread's bytes are counted");
}

// ───────────────────── engine-plane bit-identity ─────────────────────

fn setup() -> (DatasetSpec, StaticGraphTemporalSignal) {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
    (spec.clone(), synthetic::generate(&spec, 13))
}

fn ddp_model(sig: &StaticGraphTemporalSignal, horizon: usize) -> Box<dyn Seq2Seq> {
    let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
    Box::new(PgtDcrnn::new(
        ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 8,
            num_nodes: sig.num_nodes(),
            horizon,
            diffusion_steps: 2,
            layers: 1,
        },
        &supports,
        42,
    ))
}

fn tiny_chunked() -> StorageSpec {
    // Small chunks: windows and rewrites straddle many of them.
    StorageSpec::Chunked(ChunkedSpec::new(8))
}

fn assert_runs_bit_identical(a: &EngineReport, b: &EngineReport, what: &str) {
    assert_eq!(a.epochs.len(), b.epochs.len(), "{what}: epoch count");
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(
            ea.train_loss.to_bits(),
            eb.train_loss.to_bits(),
            "{what}: train loss epoch {}",
            ea.epoch
        );
        assert_eq!(
            ea.val_mae.to_bits(),
            eb.val_mae.to_bits(),
            "{what}: val mae epoch {}",
            ea.epoch
        );
    }
}

#[test]
fn local_copy_plane_is_bitwise_storage_invariant() {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    cfg.batch_per_worker = 4;
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    let mem = run_distributed_index(&sig, &cfg, &factory);
    cfg.storage = tiny_chunked();
    let chunked = run_distributed_index(&sig, &cfg, &factory);
    assert_runs_bit_identical(&mem, &chunked, "local-copy plane");
}

#[test]
fn datasvc_plane_is_bitwise_storage_invariant() {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    cfg.batch_per_worker = 4;
    let mem = run_baseline_ddp(&sig, &cfg, |_| ddp_model(&sig, spec.horizon));
    cfg.storage = tiny_chunked();
    let chunked = run_baseline_ddp(&sig, &cfg, |_| ddp_model(&sig, spec.horizon));
    assert_runs_bit_identical(&mem, &chunked, "data-service plane");
    // The remote-byte ledger is also storage-invariant under Lossless.
    assert_eq!(mem.data_plane_bytes, chunked.data_plane_bytes);
}

#[test]
fn halo_entry_plane_is_bitwise_storage_invariant() {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    cfg.batch_per_worker = 4;
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    let mem = run_generalized(&sig, &cfg, &factory);
    cfg.storage = tiny_chunked();
    let chunked = run_generalized(&sig, &cfg, &factory);
    assert_runs_bit_identical(&mem, &chunked, "halo-entry plane");
    assert_eq!(mem.data_plane_bytes, chunked.data_plane_bytes);
}

#[test]
fn partitioned_plane_is_bitwise_storage_invariant() {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    let split = Partitioning::multilevel(&sig.adjacency, 2);
    let mem = run_partitioned(&sig, &split, 8, &cfg);
    cfg.storage = tiny_chunked();
    let chunked = run_partitioned(&sig, &split, 8, &cfg);
    assert_eq!(
        mem.combined_val_mae.to_bits(),
        chunked.combined_val_mae.to_bits(),
        "partitioned plane: combined val MAE"
    );
    for (a, b) in mem.parts.iter().zip(&chunked.parts) {
        assert_eq!(a.val_mae.to_bits(), b.val_mae.to_bits(), "part {}", a.part);
    }
}

#[test]
fn dynamic_plane_is_bitwise_storage_invariant() {
    let sig = synthetic_dynamic_traffic(6, 60, 5);
    let mut cfg = DistConfig::new(1, 2, 4);
    let (_, mem) = train_dynamic(&sig, 8, &cfg);
    cfg.storage = tiny_chunked();
    let (_, chunked) = train_dynamic(&sig, 8, &cfg);
    assert_runs_bit_identical(&mem, &chunked, "dynamic plane");
}
