//! `data_stream`: globally shuffled window batches assembled from a chunked
//! on-disk signal eight times larger than its chunk cache. No model runs,
//! so storage decode and window assembly are the whole cost.

use super::{
    peak_rss_mb, repeat_setup, sample_us, timed_ms, ClosedLoop, Done, Groups, Outcome, RunArgs,
};
use crate::stats;
use crate::trace::{self, Recorder};
use pgt_index::index_batching::IndexDataset;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_data::storage::{ChunkedSpec, ChunkedStore, RowStore, StorageSpec};
use st_dist::shuffle;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 325;
const ENTRIES: usize = 20_000;
const HORIZON: usize = 12;
const BATCH: usize = 8;
const CHUNK_ENTRIES: usize = 64;
const PERIOD: usize = 288;
/// Features once the time-of-day channel is appended.
const FEATURES: usize = 2;
/// The cache holds an eighth of the standardized signal's bytes.
const CACHE_BYTES: u64 = (ENTRIES * NODES * FEATURES * 4 / 8) as u64;
/// Every 97th batch is compared bit for bit with the in-memory dataset.
const CHECK_EVERY: usize = 97;

/// Bit pattern of a tensor's values, for exact-equality checks.
fn bits_of(t: &st_tensor::Tensor) -> Vec<u32> {
    t.to_vec().iter().map(|v| v.to_bits()).collect()
}

struct Deployed {
    ds: IndexDataset,
    store: Arc<ChunkedStore>,
    rechunk_ms: f64,
    index_build_ms: f64,
}

/// Generated signal in hand → a chunked dataset ready to assemble batches.
fn setup(sig: &StaticGraphTemporalSignal) -> Deployed {
    let spec = StorageSpec::Chunked(ChunkedSpec::new(CHUNK_ENTRIES).with_cache_bytes(CACHE_BYTES));
    let (chunked, rechunk_ms) = timed_ms(|| sig.rechunk(spec));
    let (ds, index_build_ms) = timed_ms(|| {
        IndexDataset::from_signal(&chunked, HORIZON, SplitRatios::default(), Some(PERIOD))
    });
    let store = ds
        .storage()
        .chunked()
        .expect("a chunked signal gives a chunked dataset")
        .clone();
    Deployed {
        ds,
        store,
        rechunk_ms,
        index_build_ms,
    }
}

/// Store counters after the first full epoch — a fixed amount of work from
/// a cold cache, so the counts repeat exactly.
struct EpochCounts {
    chunk_reads: u64,
    cache_hits: u64,
    io_bytes: u64,
    windows: u64,
}

struct Streamed {
    /// Windows per second and batch latencies, per group.
    groups: Groups,
    wall_s: f64,
    bad_shapes: u64,
    first_epoch: Option<EpochCounts>,
    /// The first epoch's batches, kept for the bit check.
    first_plan: Vec<usize>,
}

/// The closed loop: shuffle an epoch's window ids, assemble them batch by
/// batch, repeat until the budget is spent.
fn stream(d: &Deployed, seed: u64, seconds: f64, mut rec: Option<&mut Recorder>) -> Streamed {
    let n = d.ds.num_snapshots();
    let (h, nodes, feats) = (d.ds.horizon(), d.ds.num_nodes(), d.ds.num_features());
    let mut s = Streamed {
        groups: Groups::default(),
        wall_s: 0.0,
        bad_shapes: 0,
        first_epoch: None,
        first_plan: Vec::new(),
    };
    let clock = ClosedLoop::start(seconds);
    let mut done = Vec::new();
    let mut windows = 0u64;
    let mut op = 0u64;
    'epochs: for epoch in 0u64.. {
        let plan = trace::spanned(&mut rec, "global_stripe", "st_dist", op, || {
            shuffle::global_stripe(n, 1, 0, seed, epoch)
        });
        for ids in plan.chunks(BATCH) {
            if !clock.running() {
                break 'epochs;
            }
            let t = Instant::now();
            let (x, y, _io) = trace::spanned(&mut rec, "batch_quoted", "pgt_index", op, || {
                d.ds.batch_quoted(ids)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let dims = [ids.len(), h, nodes, feats];
            if x.dims() != dims || y.dims() != dims {
                s.bad_shapes += 1;
            }
            black_box((x, y));
            windows += ids.len() as u64;
            done.push(Done {
                at: clock.wall(),
                items: ids.len() as u64,
                ms,
            });
            op += 1;
        }
        if epoch == 0 {
            s.first_epoch = Some(EpochCounts {
                chunk_reads: d.store.io_chunks(),
                cache_hits: d.store.cache_hits(),
                io_bytes: d.store.io_bytes(),
                windows,
            });
            s.first_plan = plan;
        }
    }
    s.wall_s = clock.wall();
    s.groups = Groups::of(&done);
    s
}

pub fn run(args: &RunArgs) -> Outcome {
    let net = st_graph::generators::highway_corridor(NODES, 2, args.seed);
    let sig = st_data::synthetic::traffic::generate(&net, ENTRIES, PERIOD, args.seed);
    let mut out = Outcome::default();

    let budget = args.budget();
    let set_up = |()| setup(&sig);
    let (deployed, setup_s) = repeat_setup(|| (), set_up);
    out.setup_s = setup_s;
    let timed = stream(&deployed, args.seed, budget, None);
    out.peak_rss_mb = peak_rss_mb();
    out.setup_s.extend(repeat_setup(|| (), set_up).1);
    let timed_batches = timed.groups.ops();

    // A traced run streams again from a fresh, cold store, so its counts
    // start from the same state every time.
    let mut recorder = Recorder::new(Instant::now(), 0);
    let traced = args.trace.then(|| {
        let fresh = setup(&sig);
        let run = stream(&fresh, args.seed, budget, Some(&mut recorder));
        (fresh, run)
    });

    // Output checks, off the clock: shapes, sampled bits, residency.
    let reference = IndexDataset::from_signal(&sig, HORIZON, SplitRatios::default(), Some(PERIOD));
    for (d, run) in std::iter::once((&deployed, &timed)).chain(traced.iter().map(|t| (&t.0, &t.1)))
    {
        out.attempted += run.groups.ops() as u64;
        out.failed += run.bad_shapes;
        out.check(run.bad_shapes == 0, || {
            format!("{} batches came back with the wrong shape", run.bad_shapes)
        });
        let mut bit_failures = 0u64;
        for ids in run.first_plan.chunks(BATCH).step_by(CHECK_EVERY) {
            let (cx, cy, _) = d.ds.batch_quoted(ids);
            let (mx, my) = reference.batch(ids);
            if bits_of(&cx) != bits_of(&mx) || bits_of(&cy) != bits_of(&my) {
                bit_failures += 1;
            }
        }
        out.failed += bit_failures;
        out.check(bit_failures == 0, || {
            format!("{bit_failures} sampled batches differ from the in-memory dataset's bits")
        });
        out.check(!run.first_plan.is_empty(), || {
            "the run did not finish one epoch, so no batch was bit-checked".to_string()
        });
        let peak = d.store.peak_resident_bytes();
        out.check(peak <= CACHE_BYTES, || {
            format!("peak resident {peak} B exceeds the cache ceiling {CACHE_BYTES} B")
        });
    }
    out.notes.push(format!(
        "{} batches of {BATCH} windows timed over {:.2} s, {} set-ups; file {} B, cache {CACHE_BYTES} B",
        timed_batches,
        timed.wall_s,
        out.setup_s.len(),
        deployed.store.file_bytes(),
    ));
    out.timed = timed.groups;
    let Some((fresh, run)) = traced else {
        return out;
    };

    // ---- per-layer metrics --------------------------------------------
    out.trace_layers(
        &run.groups,
        trace::attributed_ns(&recorder.spans),
        run.wall_s,
        recorder.spans.len(),
    );
    out.layer("st_data.rechunk_ms", fresh.rechunk_ms);
    out.layer("pgt_index.index_build_ms", fresh.index_build_ms);
    out.layer(
        "st_data.peak_resident_kb",
        fresh.store.peak_resident_bytes() as f64 / 1024.0,
    );
    match &run.first_epoch {
        Some(c) => {
            // Bytes of the windows handed out: x and y, `2h` rows each.
            let assembled = c.windows * (2 * HORIZON * NODES * FEATURES * 4) as u64;
            out.layer("st_data.chunk_reads", c.chunk_reads as f64);
            out.layer("st_data.cache_hits", c.cache_hits as f64);
            out.layer(
                "st_data.cache_hit_ratio",
                c.cache_hits as f64 / (c.cache_hits + c.chunk_reads) as f64,
            );
            out.layer("st_data.io_bytes", c.io_bytes as f64);
            out.layer(
                "st_data.read_amplification",
                c.io_bytes as f64 / assembled as f64,
            );
        }
        None => out
            .notes
            .push("traced half did not finish an epoch: chunk counts left at 0".to_string()),
    }

    // Replays on the store itself: one 2h-row window, cold and cached.
    let store = &fresh.store;
    let rows = 2 * HORIZON;
    let chunks = store.num_chunks();
    // Sweep more chunks than the cache holds so none of the first
    // `probes` chunks is resident, then read one window from each.
    let probes = 40.min(chunks / 2);
    for c in probes..chunks {
        black_box(store.read_rows_quoted(c * CHUNK_ENTRIES..c * CHUNK_ENTRIES + 1));
    }
    let cold: Vec<f64> = (0..probes)
        .map(|c| {
            let t = Instant::now();
            black_box(store.read_rows_quoted(c * CHUNK_ENTRIES..c * CHUNK_ENTRIES + rows));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let cached = sample_us(200, || {
        black_box(store.read_rows_quoted(0..rows));
    });
    out.layer("st_data.read_rows_cold_us_p50", stats::median(&cold));
    out.layer("st_data.read_rows_cached_us_p50", stats::median(&cached));
    let n = fresh.ds.num_snapshots();
    out.layer(
        "st_dist.shuffle_plan_us",
        stats::median(&sample_us(20, || {
            black_box(shuffle::global_stripe(n, 1, 0, args.seed, 1));
        })),
    );
    out.spans = vec![recorder.spans];
    out
}
