//! `train_*`: distributed index-batching training through `engine::run`
//! with a `LocalCopyPlane` per rank, measured through the data-plane seam.
//!
//! The engine is called repeatedly (each call a fresh two-epoch run on the
//! same inputs) until the time budget is spent; every call yields one
//! throughput sample, one set-up sample and its steps' latencies, and all
//! calls must produce the same loss bits.

use super::replay;
use super::{peak_rss_mb, repeat_setup, sample_us, timed_ms, Groups, Outcome, RunArgs};
use crate::stats;
use crate::trace::{self, Recorder, Span, GROUP};
use pgt_index::dist_index::{DistConfig, LocalCopyPlane};
use pgt_index::engine::{self, DistDataPlane, EngineOptions, EngineReport, Fetch, StepLoop};
use pgt_index::index_batching::IndexDataset;
use st_autograd::optim::{Adam, Optimizer};
use st_autograd::{Module, Tape, Var};
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_dist::ddp::{GradBuckets, DEFAULT_GRAD_BUCKET_BYTES};
use st_dist::launch::{run_workers, CommHub};
use st_dist::shuffle;
use st_graph::diffusion_supports;
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_tensor::Tensor;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

const HORIZON: usize = 12;
const HIDDEN: usize = 32;
const DIFFUSION_STEPS: usize = 2;
const BATCH: usize = 8;
const EPOCHS: usize = 2;
/// Entries per day: the period of the time-of-day feature.
const PERIOD: usize = 288;

/// What distinguishes the three training workloads. The per-step shapes
/// (batch 8, horizon 12, F=2, hidden 32, K=2, one layer) are shared.
/// `entries` sizes one engine call to under two seconds on the 2-core
/// reference host, so a run holds several calls, and makes every rank's
/// train and validation share a whole number of batches, so every step
/// does the same work (snapshots = entries − 23, split 70 / 10 / 20).
pub struct Spec {
    pub nodes: usize,
    pub entries: usize,
    pub world: usize,
}

pub const WIDE_W1: Spec = Spec {
    nodes: 128,
    entries: 103, // 80 snapshots: 56 train (7 steps), 8 val
    world: 1,
};
pub const WIDE_W2: Spec = Spec {
    nodes: 128,
    entries: 183, // 160 snapshots: 112 train (7 steps per rank), 16 val
    world: 2,
};
pub const SMALL_W2: Spec = Spec {
    nodes: 8,
    entries: 823, // 800 snapshots: 560 train (35 steps per rank), 80 val
    world: 2,
};

/// What one rank's probe saw during one engine call.
struct RankLog {
    rank: usize,
    spans: Vec<Span>,
    /// Tape nodes and retained activation bytes of the rank's first
    /// training forward (exact counts, identical every step).
    tape_nodes: u64,
    activation_bytes: u64,
}

/// A `DistDataPlane` decorator: every call is forwarded to the wrapped
/// plane unchanged and stamped. With `traced` off it stamps only what the
/// end-to-end metrics need (plan and fetch boundaries); with it on it also
/// times `forward` and reads the tape's size.
struct Probe<'a> {
    inner: LocalCopyPlane,
    rank: usize,
    traced: bool,
    rec: RefCell<Recorder>,
    tape: Cell<Option<(u64, u64)>>,
    sink: &'a Mutex<Vec<RankLog>>,
}

impl Probe<'_> {
    fn span<R>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.rec.borrow_mut().begin(name, layer, 0, None);
        let out = f();
        self.rec.borrow_mut().end(idx);
        out
    }
}

impl Drop for Probe<'_> {
    fn drop(&mut self) {
        let (tape_nodes, activation_bytes) = self.tape.get().unwrap_or((0, 0));
        let log = RankLog {
            rank: self.rank,
            spans: std::mem::take(&mut self.rec.borrow_mut().spans),
            tape_nodes,
            activation_bytes,
        };
        // A poisoned sink means another rank already panicked; that panic
        // is the one to report.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(log);
        }
    }
}

impl DistDataPlane for Probe<'_> {
    fn rounds_per_epoch(&self) -> usize {
        self.inner.rounds_per_epoch()
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        self.span("plan_epoch", "pgt_index", || self.inner.plan_epoch(epoch))
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        self.span("plan_val", "pgt_index", || self.inner.plan_val())
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        self.span("fetch_batch", "pgt_index", || self.inner.fetch_batch(ids))
    }

    fn setup_secs(&self) -> f64 {
        self.inner.setup_secs()
    }

    fn remote(&self) -> bool {
        self.inner.remote()
    }

    fn sync_gradients(&self) -> bool {
        self.inner.sync_gradients()
    }

    fn validate_epoch(&self, epoch: u64, epochs: u64) -> bool {
        self.inner.validate_epoch(epoch, epochs)
    }

    fn scaler_std(&self) -> f32 {
        self.inner.scaler_std()
    }

    fn ledger_bytes(&self) -> u64 {
        self.inner.ledger_bytes()
    }

    fn forward(&self, model: &dyn Seq2Seq, tape: &Tape, ids: &[usize], x: &Tensor) -> Var {
        if !self.traced {
            return self.inner.forward(model, tape, ids, x);
        }
        let out = self.span("forward", "st_models", || {
            self.inner.forward(model, tape, ids, x)
        });
        if self.tape.get().is_none() && tape.grad_enabled() {
            self.tape
                .set(Some((tape.len() as u64, tape.activation_bytes(4))));
        }
        out
    }

    fn val_views(&self, pred: Tensor, target: Tensor) -> (Tensor, Tensor) {
        self.inner.val_views(pred, target)
    }
}

/// Draw a `train_step` group span around each training round of a rank's
/// raw spans: from one training `fetch_batch` to the next (the last one
/// ends where validation is planned). The round's fetch and forward become
/// its children, so the group's self time is what the engine spent on
/// loss, backward, gradient sync, clipping and the optimizer. Returns the
/// group spans' indices.
fn group_steps(spans: &mut Vec<Span>) -> Vec<usize> {
    let raw = spans.len();
    let mut steps = Vec::new();
    let mut open: Option<usize> = None;
    let mut training = false;
    for i in 0..raw {
        let (name, start, rank) = (spans[i].name, spans[i].start_ns, spans[i].rank);
        match name {
            "plan_epoch" | "plan_val" => {
                if let Some(s) = open.take() {
                    spans[s].end_ns = start;
                }
                training = name == "plan_epoch";
            }
            "fetch_batch" if training => {
                if let Some(s) = open.take() {
                    spans[s].end_ns = start;
                }
                let op = steps.len() as u64;
                spans.push(Span {
                    name: "train_step",
                    layer: GROUP,
                    rank,
                    op,
                    parent: None,
                    start_ns: start,
                    end_ns: start,
                });
                let s = spans.len() - 1;
                spans[i].parent = Some(s);
                spans[i].op = op;
                steps.push(s);
                open = Some(s);
            }
            "forward" if training => {
                if let Some(s) = open {
                    spans[i].parent = Some(s);
                    spans[i].op = spans[s].op;
                }
            }
            _ => {}
        }
    }
    steps
}

/// One `engine::run` call as seen from outside.
struct Call {
    report: EngineReport,
    /// Rank logs in rank order, training rounds grouped.
    ranks: Vec<RankLog>,
    /// Group-span indices of each rank's training steps.
    steps: Vec<Vec<usize>>,
    /// Rank 0's first `plan_epoch` → `engine::run` returns.
    region_s: f64,
}

impl Call {
    fn step_ms(&self, rank: usize) -> Vec<f64> {
        self.steps[rank]
            .iter()
            .map(|&s| self.ranks[rank].spans[s].dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Durations (ns) of `name` spans that belong to a training step.
    fn step_children_ns(&self, rank: usize, name: &str) -> Vec<f64> {
        self.ranks[rank]
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some())
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    fn loss_bits(&self) -> Vec<(u32, u32)> {
        self.report
            .epochs
            .iter()
            .map(|e| (e.train_loss.to_bits(), e.val_mae.to_bits()))
            .collect()
    }
}

struct Bench<'a> {
    spec: &'a Spec,
    sig: StaticGraphTemporalSignal,
    cfg: DistConfig,
    seed: u64,
    origin: Instant,
}

impl Bench<'_> {
    fn model_config(&self, features: usize) -> ModelConfig {
        ModelConfig {
            input_dim: features,
            output_dim: 1,
            hidden: HIDDEN,
            num_nodes: self.spec.nodes,
            horizon: HORIZON,
            diffusion_steps: DIFFUSION_STEPS,
            layers: 1,
        }
    }

    fn build_model(&self, features: usize) -> PgtDcrnn {
        let supports = Support::wrap_all(diffusion_supports(&self.sig.adjacency, DIFFUSION_STEPS));
        PgtDcrnn::new(self.model_config(features), &supports, self.seed)
    }

    fn dataset(&self) -> IndexDataset {
        IndexDataset::from_signal(
            &self.sig,
            HORIZON,
            SplitRatios::default(),
            self.cfg.time_period,
        )
    }

    /// One engine run of `epochs` epochs behind probes.
    fn engine_run(&self, epochs: usize, traced: bool) -> (EngineReport, Vec<RankLog>) {
        let sink = Mutex::new(Vec::new());
        let cfg = DistConfig {
            epochs,
            ..self.cfg.clone()
        };
        let report = engine::run(
            &cfg,
            &EngineOptions::default(),
            |rank, cm| Probe {
                inner: LocalCopyPlane::new(&self.sig, &cfg, rank, cm),
                rank,
                traced,
                rec: RefCell::new(Recorder::new(self.origin, rank as u32)),
                tape: Cell::new(None),
                sink: &sink,
            },
            |plane: &Probe| -> Box<dyn Seq2Seq> {
                Box::new(self.build_model(plane.inner.dataset().num_features()))
            },
        )
        .expect("an engine run without resume bytes cannot fail");
        let mut ranks = sink.into_inner().expect("every rank returned");
        ranks.sort_by_key(|r| r.rank);
        (report, ranks)
    }

    fn call(&self, traced: bool) -> Call {
        let (report, mut ranks) = self.engine_run(EPOCHS, traced);
        let end = self.origin.elapsed().as_nanos() as u64;
        let steps = ranks
            .iter_mut()
            .map(|r| group_steps(&mut r.spans))
            .collect();
        let first_plan = ranks[0]
            .spans
            .iter()
            .find(|s| s.name == "plan_epoch")
            .map_or(end, |s| s.start_ns);
        Call {
            report,
            ranks,
            steps,
            region_s: (end - first_plan) as f64 / 1e9,
        }
    }
}

pub fn run(args: &RunArgs, spec: &Spec) -> Outcome {
    let net = st_graph::generators::highway_corridor(spec.nodes, 2, args.seed);
    let sig = st_data::synthetic::traffic::generate(&net, spec.entries, PERIOD, args.seed);
    let mut cfg = DistConfig::new(spec.world, EPOCHS, HORIZON);
    cfg.batch_per_worker = BATCH;
    cfg.time_period = Some(PERIOD);
    cfg.seed = args.seed;
    let bench = Bench {
        spec,
        sig,
        cfg,
        seed: args.seed,
        origin: Instant::now(),
    };

    let mut out = Outcome::default();
    let (ds, index_build_ms) = timed_ms(|| bench.dataset());
    let items_per_call = (ds.splits().train.len() * EPOCHS) as f64;

    // The timed calls: tracing off. A traced run spends half its time here
    // (the reference its overhead is measured against) and half traced.
    let budget = args.budget();
    // Set-up, several times over, on this thread: what every rank builds
    // before its first step — its plane (index build: time feature, scaler
    // fit, standardized copy), its replica (diffusion supports, init) and
    // its first epoch plan. The engine's own start-up around these (worker
    // threads, parameter broadcast, buckets, optimizer state) is a handful
    // of thread hand-offs whose sub-millisecond wall time swings with host
    // load; it is reported as the layer metric `pgt_index.engine_start_ms`.
    let cost_model = CommHub::new(spec.world, bench.cfg.topology)
        .cost_model()
        .clone();
    let set_up = |()| {
        for rank in 0..spec.world {
            let plane = LocalCopyPlane::new(&bench.sig, &bench.cfg, rank, &cost_model);
            let model = bench.build_model(plane.dataset().num_features());
            black_box((plane.plan_epoch(0), model));
        }
    };
    out.setup_s = repeat_setup(|| (), set_up).1;
    let mut calls = Vec::new();
    let start = Instant::now();
    while calls.is_empty() || start.elapsed().as_secs_f64() < budget {
        calls.push(bench.call(false));
    }
    out.peak_rss_mb = peak_rss_mb();
    out.setup_s.extend(repeat_setup(|| (), set_up).1);
    let mut traced = Vec::new();
    if args.trace {
        let start = Instant::now();
        while traced.is_empty() || start.elapsed().as_secs_f64() < budget {
            traced.push(bench.call(true));
        }
    }

    // Output checks over every call made, timed and traced alike.
    let reference = calls[0].loss_bits();
    for (i, call) in calls.iter().chain(&traced).enumerate() {
        let epochs = &call.report.epochs;
        let steps = call.steps[0].len() as u64;
        out.attempted += steps;
        let finite = epochs
            .iter()
            .all(|e| e.train_loss.is_finite() && e.val_mae.is_finite());
        if !finite {
            out.failed += steps;
        }
        out.check(finite, || format!("call {i}: a loss is not finite"));
        out.check(epochs.len() == EPOCHS, || {
            format!("call {i}: {} epochs reported, {EPOCHS} run", epochs.len())
        });
        out.check(
            epochs.last().map(|e| e.train_loss) < epochs.first().map(|e| e.train_loss),
            || format!("call {i}: training loss did not fall over the epochs"),
        );
        out.check(call.loss_bits() == reference, || {
            format!("call {i}: per-epoch loss bits differ from the first call's")
        });
    }

    // Each engine call is one group of the run.
    for call in &calls {
        out.timed.throughput.push(items_per_call / call.region_s);
        out.timed.op_ms.push(call.step_ms(0));
    }
    out.notes.push(format!(
        "{} engine calls of {EPOCHS} epochs, {} rank-0 steps timed, {} set-ups, world {}",
        calls.len(),
        out.timed.ops(),
        out.setup_s.len(),
        spec.world
    ));
    if !args.trace {
        return out;
    }

    // ---- per-layer metrics from the traced calls ----------------------
    let traced_groups = Groups {
        throughput: traced.iter().map(|c| items_per_call / c.region_s).collect(),
        op_ms: Vec::new(),
    };
    out.trace_layers(
        &traced_groups,
        traced
            .iter()
            .map(|c| trace::attributed_ns(&c.ranks[0].spans))
            .sum(),
        traced.iter().map(|c| c.region_s).sum(),
        traced
            .iter()
            .flat_map(|c| &c.ranks)
            .map(|r| r.spans.len())
            .sum(),
    );

    let pooled =
        |f: &dyn Fn(&Call) -> Vec<f64>| -> Vec<f64> { traced.iter().flat_map(f).collect() };
    let step_ms = pooled(&|c| c.step_ms(0));
    let fetch_ns = pooled(&|c| c.step_children_ns(0, "fetch_batch"));
    let forward_ns = pooled(&|c| c.step_children_ns(0, "forward"));
    let other_ms = pooled(&|c| {
        let selfs = trace::self_times(&c.ranks[0].spans);
        c.steps[0].iter().map(|&s| selfs[s] as f64 / 1e6).collect()
    });
    let plan_ms = pooled(&|c| {
        c.ranks[0]
            .spans
            .iter()
            .filter(|s| s.name == "plan_epoch")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    });
    let step_p50 = stats::median(&step_ms);
    out.layer("pgt_index.step_ms_p50", step_p50);
    out.layer("pgt_index.step_ms_p90", stats::percentile(&step_ms, 90.0));
    out.layer(
        "pgt_index.fetch_batch_us_p50",
        stats::median(&fetch_ns) / 1e3,
    );
    out.layer(
        "pgt_index.fetch_share",
        100.0 * fetch_ns.iter().sum::<f64>() / (step_ms.iter().sum::<f64>() * 1e6),
    );
    out.layer("pgt_index.plan_epoch_ms", stats::median(&plan_ms));
    out.layer("pgt_index.step_other_ms_p50", stats::median(&other_ms));
    out.layer("st_models.forward_ms_p50", stats::median(&forward_ns) / 1e6);
    // A rank that finishes its forwards early waits at the collective for
    // the other: the spread of per-rank forward totals is that wait.
    let skew: Vec<f64> = traced
        .iter()
        .map(|c| {
            let totals: Vec<f64> = (0..spec.world)
                .map(|r| c.step_children_ns(r, "forward").iter().sum())
                .collect();
            let (lo, hi) = totals
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
            100.0 * (hi - lo) / hi
        })
        .collect();
    out.layer("pgt_index.rank_skew_pct", stats::median(&skew));
    out.layer("pgt_index.index_build_ms", index_build_ms);
    // A zero-epoch run: everything `engine::run` does around the epochs.
    out.layer(
        "pgt_index.engine_start_ms",
        stats::median(&sample_us(30, || drop(bench.engine_run(0, false)))) / 1e3,
    );

    let last = traced.last().expect("at least one traced call");
    let final_epoch = last.report.epochs.last().expect("epochs ran");
    out.layer("pgt_index.val_mae", f64::from(final_epoch.val_mae));
    let (gemm, spmm, elementwise) = last.report.epochs.iter().fold((0.0, 0.0, 0.0), |acc, e| {
        let k = e.kernel_split;
        (
            acc.0 + k.gemm_secs,
            acc.1 + k.spmm_secs,
            acc.2 + k.elementwise_secs,
        )
    });
    out.layer("st_tensor.gemm_s", gemm);
    out.layer("st_tensor.spmm_s", spmm);
    out.layer("st_tensor.elementwise_s", elementwise);
    out.layer(
        "st_tensor.kernel_share",
        100.0 * (gemm + spmm + elementwise) / last.region_s,
    );
    out.layer(
        "st_autograd.tape_nodes_per_step",
        last.ranks[0].tape_nodes as f64,
    );
    out.layer(
        "st_autograd.activation_kb_per_step",
        last.ranks[0].activation_bytes as f64 / 1024.0,
    );
    // Modeled (SimClock) seconds, beside the wall they are a projection of.
    out.layer("st_device.sim_total_s", last.report.sim_total_secs);
    out.layer("st_device.sim_comm_s", last.report.sim_comm_secs);
    out.layer(
        "st_device.modeled_over_wall",
        last.report.sim_total_secs / last.report.wall_secs,
    );
    let rounds = (last.steps[0].len()).max(1) as f64;
    out.layer(
        "st_dist.bytes_per_step",
        last.report.bytes_moved as f64 / rounds,
    );

    // ---- replays on the workload's exact shapes -----------------------
    let features = ds.num_features();
    let (supports, supports_ms) =
        timed_ms(|| diffusion_supports(&bench.sig.adjacency, DIFFUSION_STEPS));
    let n_supports = supports.len();
    let (_, build_ms) = timed_ms(|| bench.build_model(features));
    out.layer("st_graph.diffusion_supports_ms", supports_ms);
    // `build_model` includes the supports, as the engine's factory does.
    out.layer("st_models.model_build_ms", build_ms);

    let model = bench.build_model(features);
    let ids: Vec<usize> = (0..BATCH).collect();
    let (x, y) = ds.batch(&ids);
    let step = StepLoop {
        grad_clip: bench.cfg.grad_clip,
    };
    let mut opt = Adam::new(model.params(), bench.cfg.effective_lr());
    let fwd_us = sample_us(9, || {
        let tape = Tape::new();
        black_box(model.forward(&tape, &x));
    });
    let (mut fwd_bwd_us, mut opt_us) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        opt.zero_grad();
        let t = Instant::now();
        black_box(step.forward_backward(|tape| model.forward(tape, &x), &y));
        fwd_bwd_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        step.clip_and_step(&model.params(), &mut opt);
        opt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let forward_ms = stats::median(&fwd_us) / 1e3;
    let optimizer_us = stats::median(&opt_us);
    let backward_ms = stats::median(&fwd_bwd_us) / 1e3 - forward_ms;
    out.layer("st_autograd.backward_ms_p50", backward_ms);
    out.layer("st_autograd.optimizer_us_p50", optimizer_us);

    let mut reversed = model.params();
    reversed.reverse();
    let buckets = GradBuckets::new(reversed, DEFAULT_GRAD_BUCKET_BYTES).num_buckets();
    out.layer("st_dist.grad_buckets", buckets as f64);
    let allreduce_us = if spec.world > 1 {
        out.layer("st_dist.collective_calls_per_step", buckets as f64);
        stats::median(&replay_allreduce(&bench, features))
    } else {
        // One rank: the engine builds no buckets and reduces nothing.
        0.0
    };
    out.layer("st_dist.allreduce_us_p50", allreduce_us);
    let fetch_ms = stats::median(&fetch_ns) / 1e6;
    let replayed_ms = fetch_ms + forward_ms + backward_ms + (optimizer_us + allreduce_us) / 1e3;
    out.layer(
        "pgt_index.unattributed_pct",
        100.0 * (step_p50 - replayed_ms) / step_p50,
    );
    out.notes.push(format!(
        "step {step_p50:.3} ms = replayed fetch {fetch_ms:.3} + forward {forward_ms:.3} + backward \
         {backward_ms:.3} + sync {:.3} + optimizer {:.3} + unattributed {:.3}",
        allreduce_us / 1e3,
        optimizer_us / 1e3,
        step_p50 - replayed_ms
    ));

    let rates = replay::kernel_rates(
        bench.cfg.backend,
        BATCH,
        spec.nodes,
        features + HIDDEN,
        HIDDEN,
        n_supports,
        &supports[1],
    );
    out.layer("st_tensor.matmul_gflops", rates.matmul_gflops);
    out.layer("st_tensor.bmm_gflops", rates.bmm_gflops);
    out.layer("st_tensor.spmm_gflops", rates.spmm_gflops);
    out.layer("st_tensor.bias_act_gbps", rates.bias_act_gbps);
    out.layer("st_tensor.par_dispatch_us", replay::par_dispatch_us());
    out.layer(
        "st_dist.worker_spawn_us",
        replay::worker_spawn_us(spec.world),
    );
    let train_len = ds.splits().train.len();
    out.layer(
        "st_dist.shuffle_plan_us",
        stats::median(&sample_us(50, || {
            black_box(shuffle::global_stripe(
                train_len, spec.world, 0, args.seed, 1,
            ));
        })),
    );

    out.spans = traced
        .into_iter()
        .flat_map(|c| c.ranks)
        .map(|r| r.spans)
        .collect();
    out
}

/// One step's gradient sync replayed on its own: every rank builds the
/// replica and its byte-capped buckets exactly as the engine does, then
/// reduces all buckets, ranks aligned by a barrier first so the sample is
/// the collectives' cost and not a wait for a late rank. Rank 0's samples,
/// microseconds per step.
fn replay_allreduce(bench: &Bench, features: usize) -> Vec<f64> {
    let per_rank = run_workers(bench.spec.world, bench.cfg.topology, |mut ctx| {
        st_tensor::backend::set_backend(bench.cfg.backend);
        let model = bench.build_model(features);
        let mut params = model.params();
        for p in &params {
            p.set_grad(Some(Tensor::zeros(p.value().dims().to_vec())));
        }
        params.reverse();
        let mut buckets = GradBuckets::new(params, DEFAULT_GRAD_BUCKET_BYTES);
        let mut samples = Vec::new();
        for _ in 0..60 {
            ctx.comm.barrier();
            let t = Instant::now();
            for i in 0..buckets.num_buckets() {
                black_box(buckets.reduce_bucket_quoted(i, &mut ctx.comm));
            }
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        samples
    });
    per_rank.into_iter().next().expect("rank 0 reported")
}
