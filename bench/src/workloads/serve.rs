//! `serve_unique` and `serve_live`: the same two-shard deployment behind a
//! `SnapshotRegistry`, read two ways. `serve_unique` asks about random
//! nodes and 256 different windows, so nearly every query needs a forward
//! of its own; `serve_live` ingests a row and asks 256 questions about the
//! two newest windows, so routing, admission, the per-call model rebuild
//! and hot-swaps carry the call.

use super::replay;
use super::{
    peak_rss_mb, repeat_setup, sample_us, timed_ms, ClosedLoop, Done, Groups, Outcome, RunArgs,
};
use crate::stats;
use crate::trace::{self, Recorder};
use pgt_index::index_batching::IndexDataset;
use st_autograd::Module;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_dist::launch::CommHub;
use st_graph::{diffusion_supports, Partitioning};
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_serve::{
    admit_and_coalesce, BatchCost, BatchedServer, ModelSnapshot, PendingRequest, Query,
    ServeConfig, ServeReport, ShedReason, SnapshotRegistry, Tick,
};
use st_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 128;
const RING: usize = 400;
const HORIZON: usize = 12;
const HIDDEN: usize = 32;
const DIFFUSION_STEPS: usize = 2;
const SHARDS: usize = 2;
const PERIOD: usize = 288;
const FEATURES: usize = 2;
const TENANT: &str = "bench";
/// Signal rows beyond the ring, fed back in as live readings (reused in a
/// cycle if a run outlasts them).
const LIVE_ROWS: usize = 1_000;
/// `serve_unique`: queries per call, and how many of the newest windows
/// they spread over.
const UNIQUE_QUERIES: usize = 16;
const UNIQUE_WINDOWS: usize = 256;
/// `serve_live`: queries per call (all on the two newest windows) and the
/// hot-swap period in rounds.
const LIVE_QUERIES: usize = 256;
const SWAP_EVERY: u64 = 50;
/// Calls whose `ServeReport` counts are averaged: a fixed prefix, so the
/// counts repeat exactly however many calls the time budget allows.
const COUNT_PREFIX: usize = 40;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Unique,
    Live,
}

struct Deployed {
    registry: SnapshotRegistry,
    snapshot: ModelSnapshot,
    index_build_ms: f64,
    supports_ms: f64,
}

/// Generated signal in hand → a registered two-shard deployment whose ring
/// holds the signal's first `RING` rows.
fn setup(sig: &StaticGraphTemporalSignal, seed: u64) -> Deployed {
    let (ds, index_build_ms) =
        timed_ms(|| IndexDataset::from_signal(sig, HORIZON, SplitRatios::default(), Some(PERIOD)));
    let config = ModelConfig {
        input_dim: ds.num_features(),
        output_dim: 1,
        hidden: HIDDEN,
        num_nodes: NODES,
        horizon: HORIZON,
        diffusion_steps: DIFFUSION_STEPS,
        layers: 1,
    };
    let (supports, supports_ms) =
        timed_ms(|| Support::wrap_all(diffusion_supports(&sig.adjacency, DIFFUSION_STEPS)));
    let model = PgtDcrnn::new(config.clone(), &supports, seed);
    let snapshot = ModelSnapshot::capture(
        config,
        ds.scaler().clone(),
        Some(PERIOD),
        &model.params(),
        0,
    );
    let history = ds
        .data()
        .narrow(0, 0, RING)
        .expect("signal covers the ring");
    let server = BatchedServer::with_history(
        snapshot.clone(),
        sig.adjacency.clone(),
        &history,
        ServeConfig::new(SHARDS, RING),
    );
    let registry = SnapshotRegistry::new();
    registry
        .register(TENANT, server)
        .expect("a fresh registry has no tenant");
    Deployed {
        registry,
        snapshot,
        index_build_ms,
        supports_ms,
    }
}

/// xorshift64* — the deterministic uniform source for generated queries.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Never the all-zero state, which xorshift cannot leave.
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The client: generates each call's queries from the seed.
struct Client {
    mode: Mode,
    rng: XorShift,
    next_id: usize,
}

impl Client {
    /// The queries of one call against a ring whose newest row is `len - 1`.
    fn queries(&mut self, len: usize) -> Vec<Query> {
        let count = match self.mode {
            Mode::Unique => UNIQUE_QUERIES,
            Mode::Live => LIVE_QUERIES,
        };
        (0..count)
            .map(|i| {
                let back = match self.mode {
                    Mode::Unique => self.rng.below(UNIQUE_WINDOWS),
                    Mode::Live => i % 2,
                };
                self.next_id += 1;
                Query {
                    id: self.next_id,
                    node: self.rng.below(NODES),
                    window_end: len - back,
                    arrival_secs: i as f64 * 1e-6,
                }
            })
            .collect()
    }
}

/// Forecast bits of every answered query, in submission order.
fn forecast_bits(report: &ServeReport) -> Vec<Vec<u32>> {
    report
        .results
        .iter()
        .map(|r| r.forecast_std.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// How many of the report's first few forecasts differ from the
/// single-shard reference forward on the same window.
fn reference_mismatches(server: &BatchedServer, report: &ServeReport) -> u64 {
    let model = server.build_model();
    let mut bad = 0;
    for r in report.results.iter().take(4) {
        let pred = server
            .predict_windows_with(&model, &[r.window_end])
            .expect("an answered window is servable");
        let same = r
            .forecast_std
            .iter()
            .enumerate()
            .all(|(t, v)| v.to_bits() == pred.at(&[0, t, r.node, 0]).to_bits());
        bad += u64::from(!same);
    }
    bad
}

/// Windows a call actually forwarded, recovered from the halo ledger: each
/// forwarded window charges its shard `h · (N − owned) · F · 4` bytes.
fn forwarded_windows(report: &ServeReport) -> f64 {
    report
        .shards
        .iter()
        .map(|s| {
            let per_window = (HORIZON * (NODES - s.owned_nodes) * FEATURES * 4) as f64;
            s.halo_bytes as f64 / per_window
        })
        .sum()
}

#[derive(Default)]
struct Served {
    /// Answered queries per second (ingest and swaps included) and call
    /// latencies, per group.
    groups: Groups,
    queries: u64,
    rejected: u64,
    not_yet_servable: u64,
    misplaced: u64,
    mismatches: u64,
    swap_changed_bits: bool,
    wall_s: f64,
    row_admit_us: Vec<f64>,
    swap_ms: Vec<f64>,
    rows_pushed: usize,
    /// Reports of the first `COUNT_PREFIX` calls.
    prefix: Vec<(ServeReport, f64)>,
    last_queries: Vec<Query>,
}

/// The closed loop: one client, each call (and in `Live` each row admit
/// and swap) issued when the previous one returned.
fn serve(
    d: &Deployed,
    mode: Mode,
    live: &[f32],
    seed: u64,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Served {
    let mut s = Served::default();
    let mut client = Client {
        mode,
        rng: XorShift::new(seed),
        next_id: 0,
    };
    let reg = &d.registry;
    let row_len = NODES * FEATURES;
    let mut clock = ClosedLoop::start(seconds);
    let mut done = Vec::new();
    let mut round = 0u64;
    while clock.running() {
        if mode == Mode::Live {
            // A reader holds the pre-tick server while the row lands, so
            // the first tick takes the copy-on-write path.
            let view = trace::spanned(&mut rec, "get", "st_serve", round, || {
                reg.get(TENANT).expect("tenant registered")
            });
            let t_row = RING + s.rows_pushed;
            let src = (s.rows_pushed % LIVE_ROWS) * row_len;
            let ticks: Vec<Tick> = (0..NODES)
                .map(|node| Tick {
                    node,
                    t: t_row,
                    values: live[src + node * FEATURES..src + (node + 1) * FEATURES].to_vec(),
                })
                .collect();
            let t = Instant::now();
            trace::spanned(&mut rec, "admit_row", "st_serve", round, || {
                for tick in &ticks {
                    reg.admit_tick(TENANT, tick).expect("in-order tick");
                }
            });
            s.row_admit_us.push(t.elapsed().as_secs_f64() * 1e6);
            s.rows_pushed += 1;
            drop(view);
        }
        let len = RING + s.rows_pushed;
        let queries = client.queries(len);
        let t = Instant::now();
        let report = trace::spanned(&mut rec, "serve", "st_serve", round, || {
            reg.serve(TENANT, &queries).expect("tenant registered")
        });
        let call_ms = t.elapsed().as_secs_f64() * 1e3;
        s.queries += queries.len() as u64;
        done.push(Done {
            at: clock.wall(),
            items: report.results.len() as u64,
            ms: call_ms,
        });
        s.rejected += report.rejections.len() as u64;
        s.misplaced += u64::from(report.results.len() + report.rejections.len() != queries.len());
        s.not_yet_servable += report
            .rejections
            .iter()
            .filter(|r| matches!(r.reason, ShedReason::NotYetServable { .. }))
            .count() as u64;
        if round.is_multiple_of(25) {
            s.mismatches += clock.paused(|| {
                reference_mismatches(&reg.get(TENANT).expect("tenant registered"), &report)
            });
        }
        if mode == Mode::Live && round % SWAP_EVERY == SWAP_EVERY - 1 {
            // The first swap is bracketed by the same call, off the clock:
            // a same-snapshot swap must not move one forecast bit.
            let before = s
                .swap_ms
                .is_empty()
                .then(|| clock.paused(|| reg.serve(TENANT, &queries).expect("tenant registered")));
            let t = Instant::now();
            trace::spanned(&mut rec, "swap_snapshot", "st_serve", round, || {
                reg.swap_snapshot(TENANT, d.snapshot.clone())
                    .expect("the same snapshot fits its own deployment")
            });
            s.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(before) = before {
                let after =
                    clock.paused(|| reg.serve(TENANT, &queries).expect("tenant registered"));
                s.swap_changed_bits = forecast_bits(&before) != forecast_bits(&after);
            }
        }
        if s.prefix.len() < COUNT_PREFIX {
            s.prefix.push((report, call_ms));
        }
        s.last_queries = queries;
        round += 1;
    }
    s.wall_s = clock.wall();
    s.groups = Groups::of(&done);
    s
}

pub fn run(args: &RunArgs, mode: Mode) -> Outcome {
    let net = st_graph::generators::highway_corridor(NODES, 2, args.seed);
    let sig = st_data::synthetic::traffic::generate(&net, RING + LIVE_ROWS, PERIOD, args.seed);
    // Live readings in original units, time-of-day channel included.
    let live: Vec<f32> = sig
        .with_time_feature(PERIOD)
        .data()
        .narrow(0, RING, LIVE_ROWS)
        .expect("signal extends past the ring")
        .to_vec();
    let mut out = Outcome::default();

    let budget = args.budget();
    let set_up = |()| setup(&sig, args.seed);
    let (deployed, setup_s) = repeat_setup(|| (), set_up);
    out.setup_s = setup_s;
    let timed = serve(&deployed, mode, &live, args.seed, budget, None);
    out.peak_rss_mb = peak_rss_mb();
    out.setup_s.extend(repeat_setup(|| (), set_up).1);

    // A traced run serves again on a fresh deployment, so ring contents and
    // therefore every count start from the same state.
    let mut recorder = Recorder::new(Instant::now(), 0);
    let traced = args.trace.then(|| {
        let fresh = setup(&sig, args.seed);
        let run = serve(&fresh, mode, &live, args.seed, budget, Some(&mut recorder));
        (fresh, run)
    });

    for run in std::iter::once(&timed).chain(traced.iter().map(|t| &t.1)) {
        out.attempted += run.queries;
        out.failed += run.rejected;
        out.check(run.misplaced == 0, || {
            format!("{} calls lost or duplicated a query", run.misplaced)
        });
        out.check(run.rejected == 0, || {
            format!("{} of {} queries were rejected", run.rejected, run.queries)
        });
        out.check(run.not_yet_servable == 0, || {
            format!(
                "{} queries outran ingest (NotYetServable)",
                run.not_yet_servable
            )
        });
        out.check(run.mismatches == 0, || {
            format!(
                "{} sampled forecasts differ from predict_windows",
                run.mismatches
            )
        });
        out.check(!run.swap_changed_bits, || {
            "a same-snapshot swap changed forecast bits".to_string()
        });
        out.check(mode == Mode::Unique || !run.swap_ms.is_empty(), || {
            format!("run ended before round {SWAP_EVERY}: no swap was exercised")
        });
    }
    out.notes.push(format!(
        "{} serve calls timed over {:.2} s ({} rows admitted, {} swaps), {} set-ups",
        timed.groups.ops(),
        timed.wall_s,
        timed.rows_pushed,
        timed.swap_ms.len(),
        out.setup_s.len(),
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
    out.layer("pgt_index.index_build_ms", fresh.index_build_ms);
    out.layer("st_graph.diffusion_supports_ms", fresh.supports_ms);
    out.layer(
        "st_graph.multilevel_dense_ms",
        stats::median(&sample_us(5, || {
            black_box(Partitioning::multilevel(&sig.adjacency, SHARDS));
        })) / 1e3,
    );

    // Exact counts, over the fixed prefix of calls.
    let calls = run.prefix.len() as f64;
    let sum = |f: &dyn Fn(&ServeReport) -> f64| run.prefix.iter().map(|(r, _)| f(r)).sum::<f64>();
    let prefix_queries = sum(&|r| (r.results.len() + r.rejections.len()) as f64);
    out.layer(
        "st_serve.batches_per_call",
        sum(&|r| r.shards.iter().map(|s| s.batches).sum::<usize>() as f64) / calls,
    );
    out.layer(
        "st_serve.windows_per_query",
        sum(&forwarded_windows) / prefix_queries,
    );
    out.layer(
        "st_serve.cache_hits",
        sum(&|r| r.shards.iter().map(|s| s.cache_hits).sum::<usize>() as f64),
    );
    out.layer("st_serve.shed_share", sum(&|r| r.shed_rate) / calls);
    // Modeled (SimClock) figures of the same calls, beside their wall time.
    let modeled_p99: Vec<f64> = run
        .prefix
        .iter()
        .map(|(r, _)| r.p99_latency_secs * 1e6)
        .collect();
    out.layer("st_device.sim_serve_p99_us", stats::median(&modeled_p99));
    out.layer(
        "st_device.modeled_over_wall",
        sum(&|r| r.makespan_secs) / run.prefix.iter().map(|(_, ms)| ms / 1e3).sum::<f64>(),
    );
    if mode == Mode::Live {
        out.layer(
            "st_serve.row_admit_us_p50",
            stats::median(&run.row_admit_us),
        );
        out.layer("st_serve.swap_ms_p50", stats::median(&run.swap_ms));
    }
    let server = fresh.registry.get(TENANT).expect("tenant registered");
    out.layer(
        "st_serve.frontier_lag_rows",
        (RING + run.rows_pushed) as f64 - server.ingest().frontier() as f64,
    );

    // ---- replays of one call's pieces, on its own queries --------------
    let queries = &run.last_queries;
    let route_us = stats::median(&sample_us(50, || {
        for q in queries {
            black_box(server.owner_of(q.node));
            black_box(server.window().window_status(q.window_end, HORIZON).is_ok());
        }
    }));
    out.layer("st_serve.route_us_per_call", route_us);
    let model = server.build_model();
    let rebuild_ms = stats::median(&sample_us(5, || {
        black_box(server.build_model());
    })) / 1e3;
    // `model_build_ms` is what every shard pays on every call: the replica
    // restore inside `serve` (supports included).
    out.layer("st_models.model_build_ms", rebuild_ms);
    let cost_model = CommHub::new(SHARDS, server.config().topology)
        .cost_model()
        .clone();
    let mut shard_ms = Vec::new();
    let (mut admit_us, mut batch_us, mut infer_s, mut windows, mut batch_sizes) =
        (Vec::new(), Vec::new(), 0.0, 0usize, Vec::new());
    for shard in 0..SHARDS {
        let routed: Vec<PendingRequest> = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| server.owner_of(q.node) == shard)
            .map(|(id, q)| PendingRequest {
                id,
                arrival_secs: q.arrival_secs,
                window_end: q.window_end,
            })
            .collect();
        let owned = server.partitioning().part_nodes(shard).len();
        let cost = BatchCost {
            halo_bytes_per_window: (HORIZON * (NODES - owned) * FEATURES * 4) as u64,
            flops_per_window: model.flops_per_forward(1),
            cost: cost_model.clone(),
        };
        let (queue, slo) = (server.config().queue, server.config().slo);
        let admit = stats::median(&sample_us(50, || {
            black_box(admit_and_coalesce(&routed, &queue, &slo, &cost));
        }));
        admit_us.push(admit);
        let schedule = admit_and_coalesce(&routed, &queue, &slo, &cost);
        let mut this_shard_ms = rebuild_ms + admit / 1e3;
        for batch in &schedule.batches {
            let assemble = stats::median(&sample_us(20, || {
                black_box(server.window().batch(&batch.windows, HORIZON).is_ok());
            }));
            batch_us.push(assemble);
            let x: Tensor = server
                .window()
                .batch(&batch.windows, HORIZON)
                .expect("the call's windows are servable");
            let infer = stats::median(&sample_us(5, || {
                black_box(model.forward_inference(&x));
            })) / 1e6;
            infer_s += infer;
            windows += batch.windows.len();
            batch_sizes.push(batch.windows.len() as f64);
            this_shard_ms += assemble / 1e3 + infer * 1e3;
        }
        shard_ms.push(this_shard_ms);
    }
    // Shards run side by side: the slower one is on the call's path.
    out.layer(
        "st_serve.admit_us_per_call",
        admit_us.iter().cloned().fold(0.0, f64::max),
    );
    out.layer("st_serve.window_batch_us_p50", stats::median(&batch_us));
    out.layer(
        "st_models.infer_ms_per_window",
        infer_s * 1e3 / windows.max(1) as f64,
    );
    let spawn_us = replay::worker_spawn_us(SHARDS);
    out.layer("st_dist.worker_spawn_us", spawn_us);
    let path_ms = (route_us + spawn_us) / 1e3 + shard_ms.iter().cloned().fold(0.0, f64::max);
    let call_p50 = stats::median(&run.groups.op_ms.concat());
    out.layer("st_serve.call_overhead_ms", call_p50 - path_ms);
    out.notes.push(format!(
        "call {call_p50:.3} ms = replayed path {path_ms:.3} (route + spawn + slower shard's rebuild, \
         admit, window batches, forwards) + overhead {:.3}",
        call_p50 - path_ms
    ));

    let supports = diffusion_supports(&sig.adjacency, DIFFUSION_STEPS);
    let rates = replay::kernel_rates(
        server.config().backend,
        stats::median(&batch_sizes).max(1.0) as usize,
        NODES,
        FEATURES + HIDDEN,
        HIDDEN,
        supports.len(),
        &supports[1],
    );
    out.layer("st_tensor.matmul_gflops", rates.matmul_gflops);
    out.layer("st_tensor.bmm_gflops", rates.bmm_gflops);
    out.layer("st_tensor.spmm_gflops", rates.spmm_gflops);
    out.layer("st_tensor.bias_act_gbps", rates.bias_act_gbps);
    out.layer("st_tensor.par_dispatch_us", replay::par_dispatch_us());
    out.spans = vec![recorder.spans];
    out
}
