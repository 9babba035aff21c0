//! Property-based tests for the serving plane: arbitrary per-node tick
//! interleavings against the `StreamIngest` → `RollingWindow` pipeline
//! (ring invariants, watermark monotonicity, typed-window agreement with
//! a dense reference model, including wrap-around and capacity-1 rings),
//! and arbitrary request streams against the SLO-gated micro-batch queue
//! (no admitted request dropped or duplicated, `max_batch`/`max_delay`
//! respected, every shed request gets a typed rejection and leaves the
//! rest of the schedule untouched), and arbitrary queries against the
//! whole `BatchedServer` path at 1–4 shards (forecast bits, placement and
//! window routing invariant in shard count, cache and SLO).

use std::collections::HashMap;

use pgt_i::autograd::Module;
use pgt_i::data::scaler::StandardScaler;
use pgt_i::device::CostModel;
use pgt_i::graph::{diffusion_supports, generators};
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};
use pgt_i::serve::{
    admit_and_coalesce, BatchCost, BatchedServer, IngestError, MicroBatch, ModelSnapshot,
    PendingRequest, Query, QueueConfig, RollingWindow, ServeConfig, ServeError, ServeReport,
    ShedReason, SloConfig, StreamIngest, Tick,
};
use pgt_i::tensor::Tensor;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Cheap deterministic stream driver (the shim has no shuffle strategy).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The unique reading node `n` reports at stream time `t`, feature `f`.
fn reading(node: usize, t: usize, f: usize) -> f32 {
    (t * 1000 + node * 10 + f) as f32
}

fn tick(node: usize, t: usize, features: usize) -> Tick {
    Tick {
        node,
        t,
        values: (0..features).map(|f| reading(node, t, f)).collect(),
    }
}

/// Drive `rows` full stream rows through ingest in a seed-determined
/// interleaving, admitting released rows to `window` and appending them
/// to the dense reference; asserts watermark monotonicity and
/// rejection-without-mutation along the way.
fn drive_interleaved(
    ingest: &mut StreamIngest,
    window: &mut RollingWindow,
    dense: &mut Vec<Vec<f32>>,
    rows: usize,
    seed: u64,
) {
    let nodes = window.num_nodes();
    let features = window.num_features();
    let target = ingest.frontier() + rows;
    let mut rng = XorShift(seed | 1);
    let mut next_t: Vec<usize> = (0..nodes).map(|n| ingest.watermark(n)).collect();
    while ingest.frontier() < target {
        let n = (rng.next() % nodes as u64) as usize;
        let t = next_t[n];
        if t >= target {
            continue; // this node already delivered its share
        }
        let wm_before: Vec<usize> = (0..nodes).map(|i| ingest.watermark(i)).collect();
        let staged_before = ingest.staged_rows();
        match ingest.push(&tick(n, t, features)) {
            Ok(released) => {
                next_t[n] = t + 1;
                assert_eq!(ingest.watermark(n), t + 1, "watermark advances by one");
                for row in &released {
                    window.admit(row);
                    dense.push(row.to_vec());
                }
            }
            Err(IngestError::SkewBound { .. }) => {
                // A runaway node: state must be untouched.
                for (i, &wm) in wm_before.iter().enumerate() {
                    assert_eq!(ingest.watermark(i), wm);
                }
                assert_eq!(ingest.staged_rows(), staged_before);
            }
            Err(e) => panic!("unexpected ingest rejection: {e}"),
        }
        // The frontier is always the minimum watermark.
        let min_wm = (0..nodes).map(|i| ingest.watermark(i)).min().unwrap();
        assert_eq!(ingest.frontier(), min_wm);
    }
}

/// Every (end, horizon) classification and window read must agree with
/// the dense reference model of the stream.
fn check_against_dense(window: &RollingWindow, dense: &[Vec<f32>], cap: usize) {
    window.assert_ring_invariants();
    assert_eq!(window.len(), dense.len());
    let len = dense.len();
    let oldest = len.saturating_sub(cap);
    for end in 0..=len + 2 {
        for h in 1..=cap + 1 {
            let status = window.window_status(end, h);
            if h > cap {
                assert_eq!(
                    status,
                    Err(ServeError::BadHorizon {
                        horizon: h,
                        capacity: cap
                    })
                );
            } else if end > len {
                assert!(matches!(status, Err(ServeError::NotYetServable { .. })));
            } else if end < h || end - h < oldest {
                assert!(matches!(status, Err(ServeError::WindowEvicted { .. })));
            } else {
                assert_eq!(status, Ok(()));
                let got = window.window(end, h).unwrap().to_vec();
                let want: Vec<f32> = dense[end - h..end].iter().flatten().copied().collect();
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "window [{}, {end})", end - h);
                }
            }
            assert_eq!(window.contains_window(end, h), status.is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary tick interleavings (including skew-bound rejections and
    /// wrap-around past capacity — capacity 1 included) leave the ring
    /// bitwise equal to a dense replay of the released rows, with every
    /// window classification agreeing with the dense model.
    #[test]
    fn tick_interleavings_preserve_ring_invariants(
        nodes in 1usize..5,
        features in 1usize..3,
        cap in 1usize..9,
        max_skew in 1usize..5,
        rows in 1usize..28,
        seed in any::<u64>(),
    ) {
        let mut ingest = StreamIngest::new(nodes, features, max_skew);
        let mut window = RollingWindow::new(cap, nodes, features, StandardScaler::identity());
        let mut dense: Vec<Vec<f32>> = Vec::new();
        drive_interleaved(&mut ingest, &mut window, &mut dense, rows, seed);
        prop_assert_eq!(ingest.frontier(), rows);
        check_against_dense(&window, &dense, cap);
    }

    /// Tick-at-a-time admission of a stream produces a ring bitwise
    /// identical to admitting its released rows whole.
    #[test]
    fn tick_and_whole_row_admission_agree(
        nodes in 2usize..5,
        cap in 1usize..7,
        rows in 1usize..14,
        seed in any::<u64>(),
    ) {
        let features = 2usize;
        let mut ingest = StreamIngest::new(nodes, features, rows.max(1));
        let mut by_tick = RollingWindow::new(cap, nodes, features, StandardScaler::identity());
        let mut dense: Vec<Vec<f32>> = Vec::new();
        drive_interleaved(&mut ingest, &mut by_tick, &mut dense, rows, seed);

        let mut whole = RollingWindow::new(cap, nodes, features, StandardScaler::identity());
        for row in &dense {
            whole.admit_standardized(row);
        }
        prop_assert_eq!(by_tick.len(), whole.len());
        for end in whole.oldest_retained() + 1..=whole.len() {
            let a = by_tick.window(end, 1).unwrap().to_vec();
            let b = whole.window(end, 1).unwrap().to_vec();
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

/// An arrival-ordered request stream from a seed: bursty arrivals over a
/// small window-id universe, so batches coalesce, fill, and time out.
fn request_stream(n: usize, seed: u64) -> Vec<PendingRequest> {
    let mut rng = XorShift(seed | 1);
    let mut at = 0.0f64;
    (0..n)
        .map(|id| {
            // Mostly-dense arrivals with occasional long gaps.
            let gap = match rng.next() % 8 {
                0 => 2e-2,
                1..=3 => 2e-3,
                _ => 1e-4,
            };
            at += gap * ((rng.next() % 100) as f64 / 100.0);
            PendingRequest {
                id,
                arrival_secs: at,
                window_end: 50 + (rng.next() % 6) as usize,
            }
        })
        .collect()
}

/// The plain micro-batch policy as `st_serve::queue` documents it, an
/// oracle that shares no code with the server's state machine. Batches are
/// cut by scanning: a batch opens at its first request and takes each
/// following arrival while it is not later than `open + max_delay`; it
/// dispatches at that deadline, or at the arrival that gives it
/// `max_batch` distinct windows. Same-window requests share a slot.
fn plain_policy(rs: &[PendingRequest], queue: &QueueConfig) -> Vec<MicroBatch> {
    let mut batches: Vec<MicroBatch> = Vec::new();
    let mut start = 0;
    while start < rs.len() {
        let deadline = rs[start].arrival_secs + queue.max_delay_secs;
        let mut windows: Vec<usize> = Vec::new();
        let mut end = start;
        while end < rs.len() && rs[end].arrival_secs <= deadline && windows.len() < queue.max_batch
        {
            if !windows.contains(&rs[end].window_end) {
                windows.push(rs[end].window_end);
            }
            end += 1;
        }
        let members = &rs[start..end];
        let full = windows.len() == queue.max_batch;
        batches.push(MicroBatch {
            dispatch_secs: if full {
                members[members.len() - 1].arrival_secs
            } else {
                deadline
            },
            requests: members.iter().map(|r| r.id).collect(),
            window_of: members
                .iter()
                .map(|r| windows.iter().position(|&w| w == r.window_end).unwrap())
                .collect(),
            windows,
        });
        start = end;
    }
    batches
}

fn arb_cost(scale_pow: u32, halo: bool) -> BatchCost {
    let cost = CostModel::polaris();
    BatchCost {
        halo_bytes_per_window: if halo { 1 << 16 } else { 0 },
        // Per-window service time from ~14 µs to ~14 ms.
        flops_per_window: cost.gpu_flops * 10f64.powi(scale_pow as i32) * 1e-5,
        cost,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary streams, queue configs, and SLOs: every request
    /// lands in exactly one batch or one typed rejection; batches respect
    /// `max_batch` and `max_delay`; shed requests leave the surviving
    /// schedule exactly equal to the schedule of the stream without them.
    #[test]
    fn admission_control_invariants(
        n in 1usize..70,
        max_batch in 1usize..6,
        delay_kind in 0usize..3,
        deadline_kind in 0usize..4,
        depth in 1usize..9,
        depth_bounded in 0usize..2,
        scale_pow in 0u32..4,
        halo in 0usize..2,
        seed in any::<u64>(),
    ) {
        let rs = request_stream(n, seed);
        let queue = QueueConfig {
            max_batch,
            max_delay_secs: [0.0, 1e-3, 1e-2][delay_kind],
        };
        let slo = SloConfig {
            deadline_secs: [5e-4, 5e-3, 5e-2, f64::INFINITY][deadline_kind],
            max_queue_depth: if depth_bounded == 1 { depth } else { usize::MAX },
        };
        let cost = arb_cost(scale_pow, halo == 1);
        let out = admit_and_coalesce(&rs, &queue, &slo, &cost);

        // Partition: every id in exactly one place, with a typed reason.
        let mut placed = vec![0usize; n];
        for b in &out.batches {
            prop_assert!(b.windows.len() <= max_batch, "max_batch respected");
            prop_assert_eq!(b.requests.len(), b.window_of.len());
            let mut first_arrival = f64::INFINITY;
            for (&id, &slot) in b.requests.iter().zip(&b.window_of) {
                placed[id] += 1;
                // The slot answers the request's window.
                prop_assert_eq!(b.windows[slot], rs[id].window_end);
                first_arrival = first_arrival.min(rs[id].arrival_secs);
                // Nobody dispatches before they arrive.
                prop_assert!(b.dispatch_secs >= rs[id].arrival_secs - 1e-12);
            }
            // max_delay respected: dispatch no later than the opener's
            // timer deadline.
            prop_assert!(
                b.dispatch_secs <= first_arrival + queue.max_delay_secs + 1e-12,
                "dispatch {} > {} + {}", b.dispatch_secs, first_arrival, queue.max_delay_secs
            );
        }
        for s in &out.rejections {
            placed[s.id] += 1;
            match s.reason {
                ShedReason::QueueFull { depth: d } => {
                    prop_assert!(d >= slo.max_queue_depth);
                }
                ShedReason::DeadlineUnmeetable { modeled_completion_secs, deadline_secs } => {
                    prop_assert!(modeled_completion_secs > deadline_secs);
                }
                other => prop_assert!(false, "queue-level shed reason: {:?}", other),
            }
        }
        prop_assert!(placed.iter().all(|&c| c == 1), "exactly-once placement");

        // Shedding leaves no trace: the stream without the shed requests
        // yields the identical schedule, shedding nothing.
        let shed: std::collections::HashSet<usize> =
            out.rejections.iter().map(|s| s.id).collect();
        let survivors: Vec<PendingRequest> =
            rs.iter().filter(|r| !shed.contains(&r.id)).copied().collect();
        let replay = admit_and_coalesce(&survivors, &queue, &slo, &cost);
        prop_assert!(replay.rejections.is_empty(), "survivors all admissible");
        prop_assert_eq!(replay.batches.len(), out.batches.len());
        for (a, b) in replay.batches.iter().zip(&out.batches) {
            prop_assert_eq!(a.dispatch_secs, b.dispatch_secs);
            prop_assert_eq!(&a.requests, &b.requests);
            prop_assert_eq!(&a.windows, &b.windows);
            prop_assert_eq!(&a.window_of, &b.window_of);
        }
    }

    /// With the SLO gates inert, `admit_and_coalesce` is bit-for-bit the
    /// plain policy's schedule, as the oracle cuts it.
    #[test]
    fn unbounded_slo_is_plain_coalesce(
        n in 1usize..70,
        max_batch in 1usize..6,
        delay_kind in 0usize..3,
        scale_pow in 0u32..4,
        seed in any::<u64>(),
    ) {
        let rs = request_stream(n, seed);
        let queue = QueueConfig {
            max_batch,
            max_delay_secs: [0.0, 1e-3, 1e-2][delay_kind],
        };
        let cost = arb_cost(scale_pow, true);
        let gated = admit_and_coalesce(&rs, &queue, &SloConfig::unbounded(), &cost);
        let plain = plain_policy(&rs, &queue);
        prop_assert!(gated.rejections.is_empty());
        prop_assert_eq!(gated.batches.len(), plain.len());
        for (a, b) in gated.batches.iter().zip(&plain) {
            prop_assert_eq!(a.dispatch_secs, b.dispatch_secs);
            prop_assert_eq!(&a.requests, &b.requests);
            prop_assert_eq!(&a.windows, &b.windows);
            prop_assert_eq!(&a.window_of, &b.window_of);
        }
    }
}

const NODES: usize = 8;
const HORIZON: usize = 3;
/// History rows seeded into a `RING`-row ring: windows ending in
/// `HISTORY - RING + HORIZON ..= HISTORY` are servable, earlier ones
/// evicted, later ones not yet ingested.
const HISTORY: usize = 20;
const RING: usize = 12;

fn snapshot() -> (ModelSnapshot, pgt_i::graph::Adjacency) {
    let adjacency = generators::highway_corridor(NODES, 1, 5).adjacency;
    let cfg = ModelConfig {
        input_dim: 1,
        output_dim: 1,
        hidden: 4,
        num_nodes: NODES,
        horizon: HORIZON,
        diffusion_steps: 2,
        layers: 1,
    };
    let supports = Support::wrap_all(diffusion_supports(&adjacency, 2));
    let trained = PgtDcrnn::new(cfg.clone(), &supports, 7);
    let snap = ModelSnapshot::capture(cfg, StandardScaler::identity(), None, &trained.params(), 1);
    (snap, adjacency)
}

fn deploy(
    snap: &ModelSnapshot,
    adjacency: &pgt_i::graph::Adjacency,
    shards: usize,
    cache: bool,
    queue: QueueConfig,
    slo: SloConfig,
) -> BatchedServer {
    let history = Tensor::arange(HISTORY * NODES)
        .reshape([HISTORY, NODES, 1])
        .unwrap();
    let mut cfg = ServeConfig::new(shards, RING);
    cfg.queue = queue;
    cfg.forecast_cache = cache;
    cfg.slo = slo;
    BatchedServer::with_history(snap.clone(), adjacency.clone(), &history, cfg)
}

/// Arbitrary queries with ids `0..n` in submission order: nodes including
/// a few the snapshot does not have, windows from evicted through
/// not-yet-ingested, bursty arrivals.
fn query_stream(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = XorShift(seed | 1);
    let mut at = 0.0f64;
    (0..n)
        .map(|id| {
            at += [2e-3, 1e-4, 0.0][(rng.next() % 3) as usize];
            Query {
                id,
                node: (rng.next() % (NODES as u64 + 2)) as usize,
                window_end: 6 + (rng.next() % 18) as usize,
                arrival_secs: at,
            }
        })
        .collect()
}

/// Exactly-once placement in submission order, and each window on one
/// shard: the shard of every answered or admission-shed query is the
/// shard its window was dealt to.
fn check_placement(report: &ServeReport, n: usize) -> Result<(), TestCaseError> {
    let served: Vec<usize> = report.results.iter().map(|r| r.id).collect();
    let refused: Vec<usize> = report.rejections.iter().map(|r| r.id).collect();
    prop_assert!(served.windows(2).all(|p| p[0] < p[1]), "results in order");
    prop_assert!(
        refused.windows(2).all(|p| p[0] < p[1]),
        "rejections in order"
    );
    let mut placed = vec![0usize; n];
    for id in served.iter().chain(&refused) {
        placed[*id] += 1;
    }
    prop_assert!(placed.iter().all(|&c| c == 1), "exactly-once: {:?}", placed);

    let mut shard_of: HashMap<usize, usize> = HashMap::new();
    let routed = report
        .results
        .iter()
        .map(|r| (r.window_end, r.shard))
        .chain(report.rejections.iter().filter_map(|r| match r.reason {
            ShedReason::QueueFull { .. } | ShedReason::DeadlineUnmeetable { .. } => {
                Some((r.window_end, r.shard))
            }
            _ => None,
        }));
    for (window, shard) in routed {
        let first = *shard_of.entry(window).or_insert(shard);
        prop_assert_eq!(first, shard, "window {} on two shards", window);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full serve path is invariant in shard count: at 1–4 shards,
    /// cache on and off, every served forecast is bitwise the 1-shard
    /// serve's, every query is placed exactly once in submission order,
    /// and no window is forwarded by two shards. With an unbounded SLO the
    /// whole report (results and typed rejections) equals the 1-shard
    /// one, and with the cache on each distinct window is forwarded once,
    /// dealt so that shards differ by at most one forward.
    #[test]
    fn serving_is_invariant_in_shard_count(
        n in 1usize..48,
        max_batch in 1usize..5,
        depth in 1usize..6,
        deadline_kind in 0usize..2,
        seed in any::<u64>(),
    ) {
        let (snap, adjacency) = snapshot();
        let queries = query_stream(n, seed);
        let queue = QueueConfig { max_batch, max_delay_secs: 1e-3 };
        let bounded = SloConfig {
            deadline_secs: [5e-4, 2e-3][deadline_kind],
            max_queue_depth: depth,
        };
        let reference = deploy(&snap, &adjacency, 1, false, queue, SloConfig::unbounded())
            .serve(&queries);
        let bits: HashMap<usize, Vec<u32>> = reference
            .results
            .iter()
            .map(|r| (r.id, r.forecast_std.iter().map(|v| v.to_bits()).collect()))
            .collect();
        let servable = bits.len();
        let distinct = reference
            .results
            .iter()
            .map(|r| r.window_end)
            .collect::<std::collections::HashSet<_>>()
            .len();

        for shards in 1..=4 {
            for cache in [false, true] {
                // One deployment per SLO.
                for slo in [SloConfig::unbounded(), bounded] {
                    let report = deploy(&snap, &adjacency, shards, cache, queue, slo).serve(&queries);
                    check_placement(&report, n)?;
                    for r in &report.results {
                        let got: Vec<u32> = r.forecast_std.iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(Some(&got), bits.get(&r.id), "query {} bits", r.id);
                    }
                    if slo != SloConfig::unbounded() {
                        continue;
                    }
                    prop_assert_eq!(report.results.len(), servable);
                    prop_assert_eq!(&report.rejections, &reference.rejections);
                    if cache {
                        let forwarded: Vec<usize> =
                            report.shards.iter().map(|s| s.windows_forwarded).collect();
                        prop_assert_eq!(forwarded.iter().sum::<usize>(), distinct);
                        let (lo, hi) = (forwarded.iter().min(), forwarded.iter().max());
                        prop_assert!(hi.unwrap() - lo.unwrap() <= 1, "dealt {:?}", forwarded);
                    }
                }
            }
        }
    }
}
