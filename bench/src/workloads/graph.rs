//! `graph_repartition`: an incrementally maintained 8-way partition of a
//! 120 000-node scale-free graph under a stream of edge churn and node
//! arrivals — the only workload where `st_graph` does the work.

use super::{peak_rss_mb, repeat_setup, ClosedLoop, Done, Groups, Outcome, RunArgs};
use crate::trace::{self, Recorder};
use st_graph::generators::{mutation_stream, scale_free_sparse, MutationConfig};
use st_graph::partition::incremental::RepairStats;
use st_graph::{GraphDelta, IncrementalConfig, IncrementalPartitioner, SparseGraph};
use std::time::Instant;

const NODES: usize = 120_000;
const ATTACH: usize = 2;
const PARTS: usize = 8;
const HORIZON: usize = 12;
const FEATURES: usize = 2;
const DRIFT: f64 = 0.10;
/// Mutation batches generated: several times what a run gets through.
const DELTAS: usize = 8_000;
/// Repairs whose stats are averaged and after which the partition's
/// quality is compared with a fresh solve: a fixed prefix, so the counts
/// and `halo_ratio` repeat exactly however many repairs the time allows.
const COUNT_PREFIX: usize = 200;

fn config() -> IncrementalConfig {
    IncrementalConfig {
        drift: DRIFT,
        halo_depth: 1,
        ..IncrementalConfig::for_horizon(HORIZON, FEATURES)
    }
}

/// The maintained state after the prefix: what the quality check needs.
struct PrefixState {
    graph: SparseGraph,
    halo_bytes: u64,
    dirty_nodes: u64,
    moves: u64,
    rebuilds: u64,
    repairs: usize,
}

struct Repaired {
    /// Repairs per second and repair latencies, per group.
    groups: Groups,
    repairs: u64,
    broken: u64,
    wall_s: f64,
    prefix: Option<PrefixState>,
}

/// The closed loop: apply the stream's deltas one after another.
fn repair(
    inc: &mut IncrementalPartitioner,
    deltas: &[GraphDelta],
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Repaired {
    let cfg = *inc.config();
    let mut r = Repaired {
        groups: Groups::default(),
        repairs: 0,
        broken: 0,
        wall_s: 0.0,
        prefix: None,
    };
    let (mut dirty, mut moves, mut rebuilds) = (0u64, 0u64, 0u64);
    let mut clock = ClosedLoop::start(seconds);
    let mut done = Vec::new();
    for (i, delta) in deltas.iter().enumerate() {
        if !clock.running() {
            break;
        }
        let t = Instant::now();
        let stats: RepairStats =
            trace::spanned(&mut rec, "apply_delta", "st_graph", i as u64, || {
                inc.apply_delta(delta)
            });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        r.repairs += 1;
        done.push(Done {
            at: clock.wall(),
            items: 1,
            ms,
        });
        // A repair must leave every part under the balance cap and the
        // halo within the drift bound of the last full solve.
        let n = inc.assignment().len();
        let cap = (cfg.balance * n.div_ceil(PARTS) as f64).ceil() as usize;
        let balanced = inc.part_sizes().iter().all(|&s| s <= cap);
        let within_drift =
            stats.halo_bytes as f64 <= (1.0 + cfg.drift) * inc.baseline_halo_bytes() as f64;
        r.broken += u64::from(!(balanced && within_drift));
        dirty += stats.dirty_nodes as u64;
        moves += stats.moves as u64;
        rebuilds += u64::from(stats.rebuilt);
        if i + 1 == COUNT_PREFIX {
            r.prefix = Some(clock.paused(|| PrefixState {
                graph: inc.graph().clone(),
                halo_bytes: inc.halo_bytes(),
                dirty_nodes: dirty,
                moves,
                rebuilds,
                repairs: COUNT_PREFIX,
            }));
        }
    }
    r.wall_s = clock.wall();
    r.groups = Groups::of(&done);
    r
}

pub fn run(args: &RunArgs) -> Outcome {
    let net = scale_free_sparse(NODES, ATTACH, args.seed);
    let deltas = mutation_stream(
        &net,
        DELTAS + 1,
        MutationConfig {
            edge_churn: 64,
            node_arrivals: 4,
            attach_edges: ATTACH,
        },
        args.seed,
    );
    let mut out = Outcome::default();

    let budget = args.budget();
    // Set-up is the first fresh solve. The graph copy it consumes is made
    // off the clock: handing over the input is not the program's work.
    let input = || net.graph.clone();
    let solve = |graph| IncrementalPartitioner::partition_fresh(graph, PARTS, config());
    let (mut inc, setup_s) = repeat_setup(input, solve);
    out.setup_s = setup_s;
    let timed = repair(&mut inc, &deltas, budget, None);
    out.peak_rss_mb = peak_rss_mb();
    out.setup_s.extend(repeat_setup(input, solve).1);

    // A traced run repairs again from a fresh solve of the same graph.
    let mut recorder = Recorder::new(Instant::now(), 0);
    let traced = args.trace.then(|| {
        let t = Instant::now();
        let mut fresh = IncrementalPartitioner::partition_fresh(net.graph.clone(), PARTS, config());
        let fresh_ms = t.elapsed().as_secs_f64() * 1e3;
        (
            repair(&mut fresh, &deltas, budget, Some(&mut recorder)),
            fresh_ms,
        )
    });

    let mut halo_ratio = 0.0;
    for run in std::iter::once(&timed).chain(traced.iter().map(|t| &t.0)) {
        out.attempted += run.repairs;
        out.failed += run.broken;
        out.check(run.broken == 0, || {
            format!("{} repairs broke balance or the drift bound", run.broken)
        });
        out.check(run.repairs < DELTAS as u64, || {
            "the mutation stream ran out before the time did".to_string()
        });
        match &run.prefix {
            Some(p) => {
                // Off the clock: one fresh solve of the graph as it stood
                // after the prefix, the yardstick for repair quality.
                let fresh =
                    IncrementalPartitioner::partition_fresh(p.graph.clone(), PARTS, config());
                halo_ratio = p.halo_bytes as f64 / fresh.halo_bytes() as f64;
                out.check(halo_ratio <= 1.0 + DRIFT, || {
                    format!(
                        "after {COUNT_PREFIX} repairs the halo is {halo_ratio:.4}x a fresh solve's, \
                         over the {:.2}x drift bound",
                        1.0 + DRIFT
                    )
                });
            }
            None => out.failures.push(format!(
                "only {} repairs ran: the {COUNT_PREFIX}-repair quality check was not reached",
                run.repairs
            )),
        }
    }
    out.notes.push(format!(
        "{} repairs timed over {:.2} s, {} set-ups (fresh solves)",
        timed.repairs,
        timed.wall_s,
        out.setup_s.len()
    ));
    out.timed = timed.groups;
    let Some((run, fresh_ms)) = traced else {
        return out;
    };

    // ---- per-layer metrics --------------------------------------------
    out.trace_layers(
        &run.groups,
        trace::attributed_ns(&recorder.spans),
        run.wall_s,
        recorder.spans.len(),
    );
    out.layer("st_graph.partition_fresh_ms", fresh_ms);
    if let Some(p) = &run.prefix {
        out.layer(
            "st_graph.dirty_nodes_mean",
            p.dirty_nodes as f64 / p.repairs as f64,
        );
        out.layer("st_graph.moves_mean", p.moves as f64 / p.repairs as f64);
        out.layer("st_graph.rebuilds", p.rebuilds as f64);
        out.layer("st_graph.halo_bytes_final", p.halo_bytes as f64);
        out.layer("st_graph.halo_ratio", halo_ratio);
    }
    out.spans = vec![recorder.spans];
    out
}
