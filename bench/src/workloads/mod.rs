//! The seven workloads and what they share: the closed-loop clock, the
//! grouping of its samples, set-up repetition, peak-RSS sampling and the
//! result assembly.

pub mod data;
pub mod graph;
pub mod replay;
pub mod serve;
pub mod train;

use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::result::RunResult;
use crate::stats;
use crate::trace::Span;
use std::time::{Duration, Instant};

/// What a workload run is asked to do.
pub struct RunArgs {
    pub workload: &'static Workload,
    /// Seeds every generated input (graph, signal, queries, mutations) and
    /// the program's own shuffle / init seeds.
    pub seed: u64,
    /// How long the timed region lasts.
    pub seconds: f64,
    /// Traced run: half the time untraced (the reference), half with the
    /// decorators and spans on, then the replays.
    pub trace: bool,
}

impl RunArgs {
    /// Seconds each measured region lasts: a traced run splits its time
    /// between the untraced reference and the traced region.
    pub fn budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a workload run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means `correct`.
    pub failures: Vec<String>,
    /// Remarks printed with the result (sample counts, caveats).
    pub notes: Vec<String>,
    /// The timed region's samples, per engine call (training) or per group
    /// of the loop's operations (see [`Groups`]).
    pub timed: Groups,
    /// One sample per set-up performed, seconds.
    pub setup_s: Vec<f64>,
    /// Child-process `VmHWM` when the timed region ended, MB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics this workload measured (the rest report 0).
    pub layers: Vec<(&'static str, f64)>,
    /// Spans of the traced region, one vector per recorder.
    pub spans: Vec<Vec<Span>>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared layer metric {name}"
        );
        self.layers.push((name, value));
    }

    /// The traced run's own metrics: what tracing cost against the
    /// untraced reference of the same run, and how much of the traced
    /// region's wall lies inside calls the benchmark made.
    pub fn trace_layers(
        &mut self,
        traced: &Groups,
        attributed_ns: u64,
        region_s: f64,
        spans: usize,
    ) {
        let timed = self.timed.items_per_s();
        let traced = traced.items_per_s();
        self.layer("trace.overhead_pct", 100.0 * (timed - traced) / timed);
        self.layer(
            "trace.coverage_pct",
            100.0 * attributed_ns as f64 / (region_s * 1e9),
        );
        self.layer("trace.spans", spans as f64);
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }

    /// The record the child prints: end-to-end metrics for a timed run,
    /// every per-layer metric for a traced one.
    pub fn to_result(&self, args: &RunArgs) -> RunResult {
        let metrics: Vec<(String, f64, String)> = if args.trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = self
                        .layers
                        .iter()
                        .find(|l| l.0 == m.name)
                        .map_or(0.0, |l| l.1);
                    (m.name.to_string(), v, m.unit.to_string())
                })
                .collect()
        } else {
            let values = [
                self.timed.items_per_s(),
                stats::calm_percentile(&self.timed.op_ms, 50.0),
                stats::calm_percentile(&self.timed.op_ms, args.workload.tail_pct),
                self.peak_rss_mb,
                stats::calm_low(&self.setup_s),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name.to_string(), v, m.unit.to_string()))
                .collect()
        };
        let finite = metrics.iter().all(|m| m.1.is_finite());
        RunResult {
            correct: self.failures.is_empty() && finite && self.attempted > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Run the named workload.
pub fn run(args: &RunArgs) -> Outcome {
    match args.workload.name {
        "train_wide_w1" => train::run(args, &train::WIDE_W1),
        "train_wide_w2" => train::run(args, &train::WIDE_W2),
        "train_small_w2" => train::run(args, &train::SMALL_W2),
        "data_stream" => data::run(args),
        "serve_unique" => serve::run(args, serve::Mode::Unique),
        "serve_live" => serve::run(args, serve::Mode::Live),
        "graph_repartition" => graph::run(args),
        other => unreachable!("workload table lists {other} but no runner does"),
    }
}

/// The closed-loop clock: one caller, each operation issued when the
/// previous one returned. Time spent in output checks is paused out so
/// checking more never reads as a slower program.
pub struct ClosedLoop {
    start: Instant,
    paused: Duration,
    budget: f64,
}

impl ClosedLoop {
    pub fn start(seconds: f64) -> Self {
        ClosedLoop {
            start: Instant::now(),
            paused: Duration::ZERO,
            budget: seconds,
        }
    }

    /// Wall seconds of the loop so far, pauses excluded.
    pub fn wall(&self) -> f64 {
        (self.start.elapsed() - self.paused).as_secs_f64()
    }

    pub fn running(&self) -> bool {
        self.wall() < self.budget
    }

    /// Run `f` off the clock.
    pub fn paused<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.paused += t.elapsed();
        out
    }
}

/// Groups a closed loop's operations are cut into (the last few operations
/// that do not fill a group are left out).
const GROUPS: usize = 24;

/// One completed operation of a closed loop: when it completed on the
/// loop's clock (seconds), what it produced, how long it took.
pub struct Done {
    pub at: f64,
    pub items: u64,
    pub ms: f64,
}

/// A run's samples cut into groups of equal work: [`GROUPS`] stretches of
/// as many consecutive operations each for a closed loop, one engine call
/// each for training. Every end-to-end timing is computed per group and
/// read at the calm quartile of the groups ([`stats::CALM_PCT`]), so
/// seconds-long interference from a neighbouring tenant costs the groups it
/// hits instead of shifting the whole run.
#[derive(Default)]
pub struct Groups {
    /// Items per second, per group: everything the loop did between the
    /// group's first operation being issued and its last one completing.
    pub throughput: Vec<f64>,
    /// Operation latencies (ms), per group.
    pub op_ms: Vec<Vec<f64>>,
}

impl Groups {
    /// Cut a loop's completed operations, in completion order.
    pub fn of(done: &[Done]) -> Groups {
        let per = (done.len() / GROUPS).max(1);
        let mut groups = Groups::default();
        let mut issued = 0.0;
        for group in done.chunks_exact(per) {
            let completed = group[per - 1].at;
            let items: u64 = group.iter().map(|d| d.items).sum();
            groups.throughput.push(items as f64 / (completed - issued));
            groups.op_ms.push(group.iter().map(|d| d.ms).collect());
            issued = completed;
        }
        groups
    }

    /// `items_per_s`: the calm quartile of the groups' throughputs.
    pub fn items_per_s(&self) -> f64 {
        stats::calm_high(&self.throughput)
    }

    pub fn ops(&self) -> usize {
        self.op_ms.iter().map(Vec::len).sum()
    }
}

/// Time one call, milliseconds.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Call `f` `reps` times (after one untimed warm-up) and return each
/// call's microseconds.
pub fn sample_us(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Set up several times and keep the last. Every workload does this twice,
/// before its timed region and after it, and `setup_s` is the calm quartile
/// ([`stats::CALM_PCT`]) of all the samples, so neither a cold page cache nor
/// a burst of interference at either end of the run decides it. At least
/// three set-ups a time; cheap ones repeat until a quarter second has been
/// spent (at most a thousand). `prepare` runs off the clock (it hands the
/// program its input); the previous state is dropped before the next build
/// so peak memory is one set-up's, as in a deployment.
pub fn repeat_setup<I, T>(
    mut prepare: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
) -> (T, Vec<f64>) {
    let mut samples = Vec::new();
    let mut total = 0.0;
    loop {
        let input = prepare();
        let t = Instant::now();
        let state = build(input);
        let secs = t.elapsed().as_secs_f64();
        samples.push(secs);
        total += secs;
        if samples.len() >= 3 && (total >= 0.25 || samples.len() >= 1000) {
            return (state, samples);
        }
        drop(state);
    }
}

/// This process's resident-set high-water mark (`VmHWM`), MB. Each
/// workload runs in a child process of its own, so this is the workload's
/// peak and no other's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_loop_is_sampled_per_group_of_equal_work() {
        // 96 operations of one item, one per second, except that operations
        // 40..56 (groups 10..=13 of four operations each) take ten seconds.
        let mut at = 0.0;
        let done: Vec<Done> = (0..96)
            .map(|i| {
                let secs = if (40..56).contains(&i) { 10.0 } else { 1.0 };
                at += secs;
                Done {
                    at,
                    items: 1,
                    ms: secs * 1e3,
                }
            })
            .collect();
        let g = Groups::of(&done);
        assert_eq!(g.throughput.len(), GROUPS);
        assert_eq!(g.ops(), 96);
        assert_eq!(g.throughput[0], 1.0);
        assert_eq!(g.throughput[10], 0.1);
        assert_eq!(g.op_ms[10], vec![10_000.0; 4]);
        // The stall costs four groups of 24; the calm quartile does not move.
        assert_eq!(g.items_per_s(), 1.0);
        assert_eq!(crate::stats::calm_percentile(&g.op_ms, 50.0), 1_000.0);
        // Operations that do not fill a group are left out; fewer operations
        // than groups make groups of one.
        assert_eq!(Groups::of(&done[..49]).ops(), 48);
        assert_eq!(Groups::of(&done[..5]).throughput.len(), 5);
        assert!(Groups::of(&[]).items_per_s().is_nan());
    }
}
