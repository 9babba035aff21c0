//! Million-user load scenario for the production serving plane, in
//! **modeled time** (DESIGN.md §11; `BENCHMARKS.md` pins the full-mode
//! tables this prints; `bench/`'s `serve_*` workloads time the same plane on
//! the wall clock):
//!
//! - **Open-loop arrivals**: a Poisson process whose rate follows a
//!   **diurnal** sinusoid, so the stream has a rush hour that overruns
//!   capacity and a trough that idles it. Arrivals never react to
//!   completions, which is what makes tail latency honest.
//! - **A synthetic user population** (10⁶ in full mode, of whom ≥ 10⁵ must
//!   show up).
//! - **A shard sweep** at fixed arrival rate. Judged: the largest
//!   deployment's modeled p99 is below one shard's.
//! - **An overload A/B** at equal shard count: shed-nothing versus deadline
//!   and depth admission control. Judged: admission control's modeled p99
//!   is **strictly** better.
//! - **A forecast-cache run** at equal shard count. Judged: the hot set hits
//!   the per-serve-call window cache.
//!
//! The arrival rate is self-calibrating: a bursty pilot run on the A/B's
//! deployment measures its modeled steady-state service time per request
//! (window routing and micro-batching included), and the diurnal peak is
//! then set above that deployment's capacity so
//! overload is guaranteed by construction, not by magic constants. The SLO
//! deadline is likewise searched to a non-degenerate operating point
//! (some shedding, not total shedding) before the A/B is scored.

use pgt_index::index_batching::IndexDataset;
use st_data::splits::SplitRatios;
use st_data::synthetic;
use st_graph::diffusion_supports;
use st_models::{ModelConfig, PgtDcrnn, Support};
use st_report::record::{modeled, RecordSet};
use st_report::table::Table;
use st_serve::{
    BatchedServer, ModelSnapshot, Query, QueueConfig, ServeConfig, ServeReport, SloConfig,
    SnapshotRegistry,
};

use crate::{Ctx, SEED};

struct Load {
    nodes: usize,
    entries: usize,
    horizon: usize,
    hidden: usize,
    /// Synthetic user population (user ids are drawn from `0..population`).
    population: usize,
    requests: usize,
    /// Distinct recent windows the stream queries (the "hot set").
    window_universe: usize,
    sweep: &'static [usize],
    /// Shard count for the overload A/B and the cache observation.
    ab_shards: usize,
}

/// xorshift64* — deterministic, dependency-free uniform source.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in (0, 1) — never exactly 0, so `-ln(1-u)` is finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Open-loop Poisson stream with diurnal rate modulation, and how many
/// distinct users issued it (counted in a population-sized bitset).
///
/// `rate(t) = base_hz * (1 + amplitude * sin(2π t / period))`, sampled by
/// inverse-CDF exponential interarrivals against the instantaneous rate.
/// One `period` spans the whole stream, so the day runs a full
/// trough → rush hour → trough.
fn diurnal_poisson_stream(
    load: &Load,
    base_hz: f64,
    amplitude: f64,
    period: f64,
) -> (Vec<Query>, usize) {
    let mut rng = XorShift(SEED | 1);
    let mut t = 0.0f64;
    let mut seen = vec![0u64; load.population.div_ceil(64)];
    let mut distinct = 0usize;
    let queries = (0..load.requests)
        .map(|id| {
            let rate = base_hz * (1.0 + amplitude * (std::f64::consts::TAU * t / period).sin());
            t += -(1.0 - rng.next_unit()).ln() / rate;
            let user = (rng.next_u64() % load.population as u64) as usize;
            let (word, bit) = (user / 64, 1u64 << (user % 64));
            distinct += usize::from(seen[word] & bit == 0);
            seen[word] |= bit;
            Query {
                id,
                node: user % load.nodes,
                window_end: load.entries - (rng.next_u64() as usize % load.window_universe),
                arrival_secs: t,
            }
        })
        .collect();
    (queries, distinct)
}

fn cache_hits(report: &ServeReport) -> usize {
    report.shards.iter().map(|s| s.cache_hits).sum()
}

fn table_row(table: &mut Table, tag: &str, shards: usize, report: &ServeReport) {
    let utils: Vec<f64> = report
        .shards
        .iter()
        .map(|s| s.utilization(report.makespan_secs))
        .collect();
    table.row(&[
        tag.to_string(),
        shards.to_string(),
        format!("{:.3}", report.p50_latency_secs * 1e6),
        format!("{:.3}", report.p99_latency_secs * 1e6),
        format!("{:.3}", report.p999_latency_secs * 1e6),
        format!("{:.2}", report.shed_rate * 1e2),
        format!("{:.2}", utils.iter().sum::<f64>() / utils.len() as f64),
        format!("{:.2}", utils.iter().cloned().fold(0.0f64, f64::max)),
        report
            .shards
            .iter()
            .map(|s| s.batches)
            .sum::<usize>()
            .to_string(),
        cache_hits(report).to_string(),
        report
            .shards
            .iter()
            .map(|s| s.windows_forwarded)
            .sum::<usize>()
            .to_string(),
    ]);
}

/// The serving day: pilot, diurnal stream, shard sweep, overload A/B, cache.
pub fn serve_day(ctx: &Ctx) -> RecordSet {
    let load = if ctx.smoke {
        Load {
            nodes: 12,
            entries: 120,
            horizon: 3,
            hidden: 8,
            population: 20_000,
            requests: 4_000,
            // Must comfortably exceed max_batch: batch slots are
            // *distinct* windows, and a hot set smaller than a batch
            // would mean batches only ever dispatch by timer.
            window_universe: 96,
            sweep: &[1, 2, 4],
            ab_shards: 2,
        }
    } else {
        Load {
            nodes: 48,
            entries: 400,
            horizon: 6,
            hidden: 16,
            population: 1_000_000,
            requests: 150_000,
            window_universe: 256,
            sweep: &[1, 2, 4, 8],
            ab_shards: 4,
        }
    };

    // --- snapshot a seeded model over the synthetic traffic corridor ---
    // (Untrained: modeled load is weight-blind.)
    let net = st_graph::generators::highway_corridor(load.nodes, 2, SEED);
    let sig = synthetic::traffic::generate(&net, load.entries, 288, SEED);
    let ds = IndexDataset::from_signal(&sig, load.horizon, SplitRatios::default(), Some(288));
    let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
    let mc = ModelConfig {
        input_dim: ds.num_features(),
        output_dim: 1,
        hidden: load.hidden,
        num_nodes: ds.num_nodes(),
        horizon: load.horizon,
        diffusion_steps: 2,
        layers: 1,
    };
    let model = PgtDcrnn::new(mc.clone(), &supports, SEED);
    let snapshot = ModelSnapshot::capture(
        mc,
        ds.scaler().clone(),
        Some(288),
        &st_autograd::Module::params(&model),
        0,
    );

    // Sustained-load runs keep the forecast cache OFF: with it on, each
    // distinct window is computed once per serve call and the modeled
    // queue drains for free, which would fake away the overload this
    // harness exists to measure. A dedicated cache run shows the on-mode.
    // `max_delay` must live on the modeled timescale of the calibrated
    // stream (it is passed in after the pilot): modeled compute for a
    // small model is nanoseconds, so a wall-clock-flavored constant like
    // 20 µs would let the coalesce timer dominate every percentile.
    let deploy = |shards: usize, slo: SloConfig, cache: bool, max_delay: f64| -> BatchedServer {
        let mut cfg = ServeConfig::new(shards, load.entries);
        cfg.queue = QueueConfig {
            max_batch: 32,
            max_delay_secs: max_delay,
        };
        cfg.forecast_cache = cache;
        cfg.slo = slo;
        BatchedServer::with_history(snapshot.clone(), sig.adjacency.clone(), ds.data(), cfg)
    };

    // --- pilot: the modeled capacity of the `ab_shards` deployment ---
    // Every request arrives (effectively) at once; the busiest shard's
    // charged busy time is the pure service content, so requests / busy
    // is the sustainable throughput of `ab_shards` shards with window
    // routing and micro-batching amortized in (timer effects excluded by
    // design).
    let pilot_n = load.requests.min(10_000);
    let mut rng = XorShift(SEED | 9);
    let pilot: Vec<Query> = (0..pilot_n)
        .map(|id| Query {
            id,
            node: (rng.next_u64() as usize) % load.nodes,
            window_end: load.entries - (rng.next_u64() as usize % load.window_universe),
            arrival_secs: id as f64 * 1e-12,
        })
        .collect();
    let pilot_report = deploy(load.ab_shards, SloConfig::unbounded(), false, 1e-3).serve(&pilot);
    let pilot_busy = pilot_report
        .shards
        .iter()
        .map(|s| s.busy_secs)
        .fold(0.0, f64::max);
    assert!(pilot_busy > 0.0, "pilot must charge modeled busy time");
    let capacity_hz = pilot_n as f64 / pilot_busy;
    println!(
        "pilot: {} requests, {:.4} modeled µs busiest-shard busy → {}-shard capacity {:.3} Mreq/s",
        pilot_n,
        pilot_busy * 1e6,
        load.ab_shards,
        capacity_hz * 1e-6
    );

    // --- the open-loop day: base rate targets ρ≈0.6 at `ab_shards`,
    // diurnal amplitude 0.8 pushes the rush hour to ρ≈1.08 (overload)
    // and the trough to ρ≈0.12. The coalesce timer is 1.5× a batch's
    // fill time at the base rate: batches dispatch by fullness in the
    // rush hour and by timer in the trough.
    let base_hz = 0.6 * capacity_hz;
    let max_delay = 1.5 * 32.0 / base_hz;
    let period = load.requests as f64 / base_hz;
    let (queries, distinct) = diurnal_poisson_stream(&load, base_hz, 0.8, period);
    println!(
        "stream: {} requests from {} distinct users (population {}), {:.1} modeled ms of day",
        load.requests,
        distinct,
        load.population,
        queries.last().map_or(0.0, |q| q.arrival_secs) * 1e3
    );

    // --- shard sweep: one tenant per deployment in a shared registry ---
    let registry = SnapshotRegistry::new();
    let mut table = Table::new(
        "serve_day: open-loop diurnal load (modeled time)",
        &[
            "run",
            "shards",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "shed %",
            "util mean",
            "util max",
            "batches",
            "cache hits",
            "forwards",
        ],
    );
    let mut sweep = Vec::new();
    for &shards in load.sweep {
        let tenant = format!("sweep-{shards}");
        registry
            .register(
                &tenant,
                deploy(shards, SloConfig::unbounded(), false, max_delay),
            )
            .expect("fresh tenant");
        let report = registry.serve(&tenant, &queries).expect("registered");
        assert_eq!(
            report.results.len() + report.rejections.len(),
            load.requests,
            "no request may vanish"
        );
        table_row(&mut table, "sweep", shards, &report);
        sweep.push((shards, report));
    }

    // --- overload A/B at equal shard count: shed-nothing vs SLO ---
    // The deadline is searched upward from one batch's worth of modeled
    // work until the operating point is non-degenerate (sheds something,
    // keeps something); the depth bound backstops the queue.
    let unbounded = &sweep
        .iter()
        .find(|(shards, _)| *shards == load.ab_shards)
        .expect("ab_shards is in the sweep")
        .1;
    let mut slo = SloConfig {
        // The shed-nothing run's median latency: above the per-batch
        // compute floor (every realized latency includes it), below
        // the rush-hour tail — so the deadline bites exactly where the
        // day overloads.
        deadline_secs: unbounded.p50_latency_secs,
        max_queue_depth: 4_096,
    };
    let mut governed = None;
    for _ in 0..6 {
        let tenant = deploy(load.ab_shards, slo, false, max_delay);
        if registry.swap("slo", tenant).is_err() {
            registry
                .register("slo", deploy(load.ab_shards, slo, false, max_delay))
                .expect("first SLO deployment");
        }
        let report = registry.serve("slo", &queries).expect("registered");
        println!(
            "slo search: deadline {:.4} µs → shed {:.2}%",
            slo.deadline_secs * 1e6,
            report.shed_rate * 1e2
        );
        if report.shed_rate > 0.0 && report.shed_rate < 0.9 {
            governed = Some(report);
            break;
        }
        let widen = report.shed_rate >= 0.9;
        governed = Some(report);
        // The viable band sits between the per-batch compute floor and the
        // rush-hour tail — step gently or the search jumps across it.
        if widen {
            slo.deadline_secs *= 1.2;
        } else {
            slo.deadline_secs /= 1.2;
        }
    }
    let governed = governed.expect("at least one SLO run");
    assert_eq!(
        governed.results.len() + governed.rejections.len(),
        load.requests,
        "every request is answered or shed with a typed reason"
    );
    table_row(&mut table, "slo", load.ab_shards, &governed);

    // --- forecast-cache observation at the same shard count ---
    registry
        .register(
            "cache",
            deploy(load.ab_shards, SloConfig::unbounded(), true, max_delay),
        )
        .expect("fresh tenant");
    let cached = registry.serve("cache", &queries).expect("registered");
    table_row(&mut table, "cache", load.ab_shards, &cached);
    println!("{}", table.to_text());

    println!(
        "overload A/B @ {} shards: unbounded p99 {:.3} µs | SLO p99 {:.3} µs \
         (deadline {:.3} µs, depth {}), shed {:.2}%",
        load.ab_shards,
        unbounded.p99_latency_secs * 1e6,
        governed.p99_latency_secs * 1e6,
        slo.deadline_secs * 1e6,
        slo.max_queue_depth,
        governed.shed_rate * 1e2
    );
    assert!(
        governed.shed_rate > 0.0,
        "the diurnal rush hour is provisioned above capacity; admission control must shed"
    );

    let ((few, first), (many, last)) = (&sweep[0], &sweep[sweep.len() - 1]);
    let p99_win = unbounded.p99_latency_secs / governed.p99_latency_secs;
    let mut records = RecordSet::new("Serving plane");
    records.push(
        "shard sweep p99 under the same stream",
        "adding shards cuts the tail",
        format!(
            "{:.3} µs @{few} → {:.3} µs @{many} shards",
            first.p99_latency_secs * 1e6,
            last.p99_latency_secs * 1e6
        ),
        modeled(last.p99_latency_secs < first.p99_latency_secs),
        "shed-nothing deployments, one tenant each",
    );
    records.push(
        "overload p99: SLO admission vs shed-nothing, equal shards",
        "strictly better under a diurnal rush hour",
        format!(
            "{p99_win:.2}× better, shed {:.2}%",
            governed.shed_rate * 1e2
        ),
        modeled(p99_win > 1.0),
        "open-loop Poisson + diurnal arrivals; deadline + depth admission",
    );
    records.push(
        "forecast cache under a hot set",
        "repeat windows are served from the per-call cache",
        format!(
            "{} hits over {} requests, {}-window hot set",
            cache_hits(&cached),
            load.requests,
            load.window_universe
        ),
        modeled(cache_hits(&cached) > 0),
        "bitwise transparency is pinned by the st_serve unit tests",
    );
    records.push(
        "load scale",
        "≥ 1e5 distinct users against a 1e6-user population (full mode)",
        format!(
            "{distinct} distinct over {} requests{}",
            load.requests,
            if ctx.smoke { " (smoke)" } else { "" }
        ),
        modeled(ctx.smoke || distinct >= 100_000),
        "bitset-tracked user ids, xorshift64* stream",
    );
    records
}
