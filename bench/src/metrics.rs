//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root restates these tables; a unit test keeps the two in step.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees, reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. The bounds are set from the run-to-run spreads
/// seen on the shared 2-core reference host (see `bench/README.md`): its
/// speed shifts by up to a quarter for minutes at a time, whatever runs.
/// The three timings are read at the calm quartile of a run's groups of
/// equal work (`stats::CALM_PCT`), which takes out interference that lasts
/// seconds; nothing a run can do takes out a shift that outlasts it.
///
/// Every workload is a closed loop of *operations*
/// (train step, batch, serve call, repair) that produce *items* (training
/// windows, assembled windows, answered queries, repairs), so the same five
/// numbers are defined on all seven; `Workload::item` / `Workload::op` say
/// what they count on each.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (restated in `BENCHMARK.json`).
    pub why: &'static str,
    /// What `items_per_s` counts.
    pub item: &'static str,
    /// What `op_ms_p50` / `op_ms_tail` time.
    pub op: &'static str,
    /// The percentile `op_ms_tail` reports: fixed per workload (so the
    /// metric never changes meaning between runs) at the highest level
    /// that keeps ten samples beyond it in a default-length run.
    pub tail_pct: f64,
    /// Whether the pipeline runs it (`BENCHMARK.json` lists it). The
    /// pipeline's time limit buys 158 runs of 10 s or 92 of 26 s, and on
    /// the shared host 10 s runs spread past their bounds, so four of the
    /// seven are gated: one per group of layers, leaving out the two whose
    /// layers another covers and `train_small_w2`, which in the default
    /// configuration times the kernel's thread scheduler more than the
    /// program. All seven run with `bench/run.sh`.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "train_wide_w1",
        why: "single-worker dist-index training, N=128 hidden 32: the compute-bound baseline, kernels about half the step, no collective",
        item: "training windows",
        op: "rank-0 train step",
        tail_pct: 80.0,
        gated: false,
    },
    Workload {
        name: "train_wide_w2",
        why: "dist-index training on two ranks, N=128 hidden 32: kernels about half the step, st_dist collectives, two ranks x intra-op threads on two cores; the step waits for the slower rank",
        item: "training windows",
        op: "rank-0 train step",
        tail_pct: 80.0,
        gated: true,
    },
    Workload {
        name: "train_small_w2",
        why: "same model on N=8, two ranks: overhead-bound, so per-op thread dispatch, tape allocation and per-step collectives dominate and kernels do little",
        item: "training windows",
        op: "rank-0 train step",
        tail_pct: 95.0,
        gated: false,
    },
    Workload {
        name: "data_stream",
        why: "shuffled window batches from a chunked on-disk signal 8x larger than its cache, no model: storage decode and window assembly do all the work",
        item: "assembled windows",
        op: "batch_quoted of 8 windows",
        tail_pct: 95.0,
        gated: true,
    },
    Workload {
        name: "serve_unique",
        why: "serve calls of 16 queries on random nodes and 256 windows over 2 shards: nearly every query needs its own forward, so reads are forward-bound",
        item: "answered queries",
        op: "serve call of 16 queries",
        tail_pct: 90.0,
        gated: false,
    },
    Workload {
        name: "serve_live",
        why: "row ingest beside reads: 256 queries on the two newest windows per call, copy-on-write admits and hot-swaps, so routing, admission and rebuild dominate",
        item: "answered queries",
        op: "serve call of 256 queries",
        tail_pct: 95.0,
        gated: true,
    },
    Workload {
        name: "graph_repartition",
        why: "incremental repartitioning of a 120k-node scale-free graph under edge churn and node arrivals: the only workload where st_graph does the work",
        item: "repairs",
        op: "apply_delta",
        tail_pct: 95.0,
        gated: true,
    },
];

/// The workloads the pipeline runs.
pub fn gated() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().filter(|w| w.gated)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric of a single layer (crate). No bound: these explain movements
/// of the end-to-end metrics, they are not gates. A workload a metric does
/// not apply to reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 68] = [
    // pgt_index: the engine's step as seen through the data-plane seam.
    lo("pgt_index.step_ms_p50", "ms"),
    lo("pgt_index.step_ms_p90", "ms"),
    lo("pgt_index.fetch_batch_us_p50", "us"),
    lo("pgt_index.fetch_share", "%"),
    lo("pgt_index.plan_epoch_ms", "ms"),
    lo("pgt_index.step_other_ms_p50", "ms"),
    lo("pgt_index.rank_skew_pct", "%"),
    lo("pgt_index.unattributed_pct", "%"),
    lo("pgt_index.index_build_ms", "ms"),
    lo("pgt_index.engine_start_ms", "ms"),
    lo("pgt_index.val_mae", "mae"),
    // st_models
    lo("st_models.forward_ms_p50", "ms"),
    lo("st_models.infer_ms_per_window", "ms"),
    lo("st_models.model_build_ms", "ms"),
    // st_autograd
    lo("st_autograd.backward_ms_p50", "ms"),
    lo("st_autograd.optimizer_us_p50", "us"),
    lo("st_autograd.tape_nodes_per_step", "count"),
    lo("st_autograd.activation_kb_per_step", "kB"),
    // st_tensor
    lo("st_tensor.gemm_s", "s"),
    lo("st_tensor.spmm_s", "s"),
    lo("st_tensor.elementwise_s", "s"),
    hi("st_tensor.kernel_share", "%"),
    hi("st_tensor.matmul_gflops", "GFLOP/s"),
    hi("st_tensor.bmm_gflops", "GFLOP/s"),
    hi("st_tensor.spmm_gflops", "GFLOP/s"),
    hi("st_tensor.bias_act_gbps", "GB/s"),
    lo("st_tensor.par_dispatch_us", "us"),
    // st_dist
    lo("st_dist.allreduce_us_p50", "us"),
    lo("st_dist.collective_calls_per_step", "count"),
    lo("st_dist.bytes_per_step", "B"),
    lo("st_dist.grad_buckets", "count"),
    lo("st_dist.worker_spawn_us", "us"),
    lo("st_dist.shuffle_plan_us", "us"),
    // st_data
    lo("st_data.chunk_reads", "count"),
    hi("st_data.cache_hits", "count"),
    hi("st_data.cache_hit_ratio", "ratio"),
    lo("st_data.io_bytes", "B"),
    lo("st_data.read_amplification", "ratio"),
    lo("st_data.read_rows_cold_us_p50", "us"),
    lo("st_data.read_rows_cached_us_p50", "us"),
    lo("st_data.rechunk_ms", "ms"),
    lo("st_data.peak_resident_kb", "kB"),
    // st_serve
    lo("st_serve.route_us_per_call", "us"),
    lo("st_serve.admit_us_per_call", "us"),
    lo("st_serve.window_batch_us_p50", "us"),
    lo("st_serve.call_overhead_ms", "ms"),
    lo("st_serve.batches_per_call", "count"),
    lo("st_serve.windows_per_query", "ratio"),
    hi("st_serve.cache_hits", "count"),
    lo("st_serve.shed_share", "ratio"),
    lo("st_serve.row_admit_us_p50", "us"),
    lo("st_serve.swap_ms_p50", "ms"),
    lo("st_serve.frontier_lag_rows", "rows"),
    // st_graph
    lo("st_graph.diffusion_supports_ms", "ms"),
    lo("st_graph.partition_fresh_ms", "ms"),
    lo("st_graph.multilevel_dense_ms", "ms"),
    lo("st_graph.dirty_nodes_mean", "count"),
    lo("st_graph.moves_mean", "count"),
    lo("st_graph.rebuilds", "count"),
    lo("st_graph.halo_bytes_final", "B"),
    lo("st_graph.halo_ratio", "ratio"),
    // st_device: *modeled* SimClock figures, printed beside the wall ones.
    lo("st_device.sim_total_s", "s"),
    lo("st_device.sim_comm_s", "s"),
    lo("st_device.sim_serve_p99_us", "us"),
    hi("st_device.modeled_over_wall", "ratio"),
    // The traced run itself.
    lo("trace.overhead_pct", "%"),
    hi("trace.coverage_pct", "%"),
    hi("trace.spans", "count"),
];

/// Names of workloads and metrics: start with a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::HashSet;

    #[test]
    fn name_rule_accepts_the_contract_alphabet_only() {
        for ok in ["items_per_s", "st_tensor.gemm_s", "p95-ms", "7up", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/",
            "caf\u{e9}",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("GFLOP/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("micro seconds") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` is what the pipeline reads; these tables are what
    /// the program reports. They must say the same thing.
    #[test]
    fn benchmark_json_restates_these_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let declared: Vec<_> = gated()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, declared);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
