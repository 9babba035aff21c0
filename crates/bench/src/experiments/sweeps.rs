//! The §7 future-work sweeps. They have no paper baseline: each prints its
//! table, judges its headline in modeled time or modeled bytes, and panics
//! when something that must never move (learning bits, counters) moves.

use pgt_index::baseline_ddp::run_baseline_ddp;
use pgt_index::dist_index::run_distributed_index;
use pgt_index::gen_dist_index::run_generalized;
use pgt_index::workflow::pgt_dcrnn_factory;
use pgt_index::{DistConfig, EngineReport};
use st_data::datasets::DatasetKind;
use st_dist::datasvc::{DistributedArray, PartitionPolicy};
use st_dist::topology::ClusterTopology;
use st_graph::generators::{city_grid, highway_corridor, scale_free, SensorNetwork};
use st_graph::{HaloCostModel, PartitionerKind, Partitioning};
use st_report::record::{modeled, RecordSet};
use st_report::table::{fmt_bytes, Table};

use crate::ctx::{ddp_model, Scaled};
use crate::{Ctx, SEED};

/// What the sweeps are measured against.
const PROPOSAL: &str = "§7 proposal (no paper number)";

/// The engine's two remote data planes, by the name the tables print.
const REMOTE_PLANES: [&str; 2] = ["baseline_ddp", "generalized"];

/// The sweeps' claim shape: `ours` never loses to `baseline`, and wins
/// strictly where `strict`.
fn wins<T: PartialOrd>(ours: T, baseline: T, strict: bool) -> bool {
    ours < baseline || (!strict && ours == baseline)
}

/// Run `plane` on scaled PeMS-BAY. The generalized plane trains with the
/// time-of-day feature, baseline DDP on the raw signal.
fn run_remote(plane: &str, small: &Scaled, cfg: &DistConfig) -> EngineReport {
    let (sig, horizon) = (&small.sig, small.spec.horizon);
    if plane == "baseline_ddp" {
        return run_baseline_ddp(sig, cfg, |_| ddp_model(sig, cfg.time_period, horizon));
    }
    let mut cfg = cfg.clone();
    cfg.time_period = Some(small.spec.period);
    run_generalized(sig, &cfg, pgt_dcrnn_factory(sig, horizon, 8, SEED))
}

/// The pipelined step engine's overlap scheduler.
///
/// Sweeps gradient-bucket size × world size on both **remote** data planes
/// (baseline DDP's per-batch data service, the generalized mode's
/// halo-partitioned entries) and compares the fully synchronous step path
/// (no prefetch, one flat charged all-reduce) against the pipelined one
/// (double-buffered fetches + backward-overlapped byte-capped gradient
/// buckets, all on the engine's `OverlapLedger`). Learning is bit-identical
/// across every row — the sweep moves modeled *time* only — so the table
/// isolates exactly the Figs. 8–9 lever: how much data-plane and collective
/// time hides behind compute. Smaller buckets fire earlier in the backward
/// pass and hide more, at the cost of extra per-collective latency.
///
/// Judged: the overlapped pipeline's modeled epoch time never loses to the
/// synchronous baseline, and at world ≥ 4 is strictly below it on every
/// remote plane.
pub fn overlap(ctx: &Ctx) -> RecordSet {
    let small = ctx.scaled(DatasetKind::PemsBay, ctx.scale.dist_scale);
    let caps: &[usize] = if ctx.smoke {
        &[4 << 10]
    } else {
        &[1 << 10, 4 << 10, 16 << 10]
    };
    let hidden_secs = |r: &EngineReport| r.epochs.iter().map(|e| e.hidden_comm_secs).sum::<f64>();

    let mut table = Table::new(
        "Ablation: pipelined step engine (bucketed grad overlap + prefetch) vs synchronous",
        &[
            "plane", "world", "mode", "comm s", "hidden s", "total s", "speedup",
        ],
    );
    let mut records = RecordSet::new("§7 overlap");
    for plane in REMOTE_PLANES {
        for world in [2, 4] {
            let mut cfg = DistConfig::new(world, ctx.scale.sweep_epochs, small.spec.horizon);
            cfg.batch_per_worker = 8;
            let mut row = |mode: String, r: &EngineReport, sync_total: f64| {
                table.row(&[
                    plane.to_string(),
                    world.to_string(),
                    mode,
                    format!("{:.6}", r.sim_comm_secs),
                    format!("{:.6}", hidden_secs(r)),
                    format!("{:.6}", r.sim_total_secs),
                    format!("{:.3}×", sync_total / r.sim_total_secs),
                ]);
            };

            // Fully synchronous baseline: no prefetch, flat charged reduce.
            cfg.prefetch = false;
            cfg.grad_bucket_bytes = None;
            let sync = run_remote(plane, &small, &cfg);
            row("sync".into(), &sync, sync.sim_total_secs);

            // The pipelined step path across bucket caps.
            cfg.prefetch = true;
            let mut best = f64::INFINITY;
            for &cap in caps {
                cfg.grad_bucket_bytes = Some(cap);
                let r = run_remote(plane, &small, &cfg);
                for (a, b) in r.epochs.iter().zip(&sync.epochs) {
                    assert_eq!(
                        a.train_loss.to_bits(),
                        b.train_loss.to_bits(),
                        "{plane} w{world}: overlap must not change learning"
                    );
                }
                row(format!("overlap/{}KiB", cap >> 10), &r, sync.sim_total_secs);
                best = best.min(r.sim_total_secs);
            }
            records.push(
                &format!("{plane}, world {world}: best overlapped vs synchronous epoch time"),
                PROPOSAL,
                format!(
                    "{:.3}× ({best:.6} s vs {:.6} s)",
                    sync.sim_total_secs / best,
                    sync.sim_total_secs
                ),
                modeled(wins(best, sync.sim_total_secs, world >= 4)),
                "never loses; strictly wins once world ≥ 4",
            );
        }
    }
    println!("{}", table.to_text());
    records
}

/// Partition quality under the halo cost model (paper §7).
///
/// The generalized and partitioned modes pay `2·horizon − 1` halo reads
/// per **cut neighbor** (a node some part must replicate), so partition
/// quality directly bounds distributed scaling. This sweep runs every
/// partitioner over the three structural archetypes the synthetic
/// generators cover — freeway corridors, urban grids, scale-free
/// hub-and-spoke — at k ∈ {2, 4, 8}, scoring each split by
/// [`HaloCostModel`] (modeled halo bytes), edge-cut fraction, and balance.
/// Multilevel coarsens by heavy-edge matching and refines boundaries by
/// gain, so it hugs natural corridor/grid seams that greedy region growing
/// crosses.
///
/// Judged: the multilevel partitioner's modeled halo bytes never lose to
/// greedy BFS on any swept config, and win strictly at k ≥ 4 on the
/// corridor and grid topologies.
pub fn partition(ctx: &Ctx) -> RecordSet {
    let horizon = 12;
    let features = 2; // speed + time-of-day, the standard training layout
    let cost = HaloCostModel::new(horizon, features);
    let (nodes, rows, cols) = if ctx.smoke { (48, 6, 8) } else { (96, 10, 10) };
    let nets: [(&str, SensorNetwork); 3] = [
        ("corridor", highway_corridor(nodes, 2, SEED)),
        ("grid", city_grid(rows, cols, SEED)),
        ("scale-free", scale_free(nodes, 2, SEED)),
    ];
    let strategies = [
        ("contiguous", PartitionerKind::Contiguous),
        ("coordinate-bisection", PartitionerKind::CoordinateBisection),
        ("greedy-bfs", PartitionerKind::GreedyBfs),
        ("multilevel", PartitionerKind::Multilevel),
    ];
    let ks = [2usize, 4, 8];

    let mut table = Table::new(
        "Ablation §7: partition quality by modeled halo bytes (h=12, f32×2 rows)",
        &[
            "topology",
            "strategy",
            "k",
            "halo bytes",
            "cut %",
            "imbalance",
        ],
    );
    let mut records = RecordSet::new("§7 partition");
    for (topology, net) in &nets {
        let mut halo: Vec<(&str, Vec<u64>)> = Vec::new();
        for (strategy, kind) in strategies {
            let mut per_k = Vec::new();
            for k in ks {
                let p: Partitioning = kind.partition(&net.adjacency, Some(&net.coords), k);
                let bytes = cost.halo_bytes(&net.adjacency, &p);
                per_k.push(bytes);
                table.row(&[
                    topology.to_string(),
                    strategy.to_string(),
                    k.to_string(),
                    fmt_bytes(bytes),
                    format!("{:.1}", p.cut_fraction(&net.adjacency) * 100.0),
                    format!("{:.2}", p.imbalance()),
                ]);
            }
            halo.push((strategy, per_k));
        }
        let of = |name: &str| &halo.iter().find(|(s, _)| *s == name).expect("swept").1;
        let (ml, greedy) = (of("multilevel"), of("greedy-bfs"));
        // Corridors and grids have natural seams for refinement to find.
        let seamed = *topology != "scale-free";
        records.push(
            &format!("{topology}: multilevel vs greedy-bfs halo bytes at k = 2/4/8"),
            PROPOSAL,
            format!("{ml:?} vs {greedy:?}"),
            modeled((0..ks.len()).all(|i| wins(ml[i], greedy[i], seamed && ks[i] >= 4))),
            if seamed {
                "never loses; strictly wins at k ≥ 4"
            } else {
                "never loses"
            },
        );
    }
    println!("{}", table.to_text());
    records
}

/// Bounded-staleness gradient sync under straggler skew.
///
/// Sweeps the staleness bound `s` × world size × injected straggler skew on
/// the distributed-index plane. `s = 0` is the synchronous path — every
/// rank's clock rendezvouses at each collective, so a straggler ramp
/// stretches every step. `s ≥ 1` lets each rank apply a bucket's averaged
/// gradient up to `s` steps after it was issued: the collective is still
/// barrier-matched (contents identical across ranks), but fast ranks ride
/// ahead on the `OverlapLedger`'s deadline streams and only pay a hard
/// fence when a payload's age would exceed the bound. At this miniature
/// scale modeled compute is tiny against Polaris flops, so the skew ramp
/// moves totals in the trailing digits while the bulk of the win comes from
/// un-exposing the per-step collective.
///
/// Judged: every `s ≥ 1` row's modeled total time never loses to the
/// `s = 0` row and at world ≥ 4 is strictly below it. Panics if `s = 0`
/// defers or fences, or if small-`s` convergence (best val MAE) leaves the
/// synchronous run's neighborhood.
pub fn staleness(ctx: &Ctx) -> RecordSet {
    let small = ctx.scaled(DatasetKind::ChickenpoxHungary, 0.3);
    let factory = pgt_dcrnn_factory(&small.sig, small.spec.horizon, 8, SEED);
    let skews: &[f64] = if ctx.smoke { &[0.5] } else { &[0.3, 0.5] };

    let mut table = Table::new(
        "Ablation: bounded-staleness gradient sync vs the synchronous rendezvous",
        &[
            "world",
            "skew",
            "s",
            "total s",
            "speedup",
            "best val MAE",
            "stale applied",
            "fence stalls",
        ],
    );
    let mut records = RecordSet::new("§7 staleness");
    for world in [2, 4] {
        for &skew in skews {
            let mut sync: Option<EngineReport> = None;
            let mut speedups = Vec::new();
            let mut holds = true;
            for s in [0, 1, 2] {
                let mut cfg =
                    DistConfig::new(world, ctx.scale.sweep_epochs + 1, small.spec.horizon);
                cfg.batch_per_worker = 2;
                cfg.staleness = s;
                cfg.straggler_skew = skew;
                let r = run_distributed_index(&small.sig, &cfg, &factory);
                let (stale_applied, fence_stalls) = r.epochs.iter().fold((0, 0), |(sa, fs), e| {
                    (sa + e.stale_steps_applied, fs + e.fence_stalls)
                });
                let base = sync.as_ref().unwrap_or(&r);
                let speedup = base.sim_total_secs / r.sim_total_secs;
                table.row(&[
                    world.to_string(),
                    format!("{skew:.1}"),
                    s.to_string(),
                    format!("{:.9}", r.sim_total_secs),
                    format!("{speedup:.3}×"),
                    format!("{:.4}", r.best_val_mae()),
                    stale_applied.to_string(),
                    fence_stalls.to_string(),
                ]);
                if s == 0 {
                    assert_eq!(
                        (stale_applied, fence_stalls),
                        (0, 0),
                        "w{world} skew {skew}: s = 0 must never defer or fence"
                    );
                    sync = Some(r);
                    continue;
                }
                // Riding out skew inside the window never loses to the
                // per-step rendezvous, and strictly wins once there are
                // enough ranks for the straggler ramp to dominate it.
                holds &= wins(r.sim_total_secs, base.sim_total_secs, world >= 4);
                speedups.push(format!("s{s} {speedup:.3}×"));
                // Small-s convergence stays in the synchronous run's
                // neighborhood.
                assert!(
                    (r.best_val_mae() - base.best_val_mae()).abs() <= 0.5 * base.best_val_mae(),
                    "w{world} skew {skew} s{s}: val MAE drifted: {} vs {}",
                    r.best_val_mae(),
                    base.best_val_mae()
                );
            }
            records.push(
                &format!("world {world}, skew {skew:.1}: s ≥ 1 vs the synchronous rendezvous"),
                PROPOSAL,
                speedups.join(", "),
                modeled(holds),
                "never loses; strictly wins once world ≥ 4",
            );
        }
    }
    println!("{}", table.to_text());
    records
}

/// Prefetching + data-distribution policies (paper §7) on the engine's
/// remote planes:
/// 1. **Prefetching (baseline DDP)** — double-buffered batch fetches
///    overlap the data plane with compute; reported as exposed-
///    communication seconds.
/// 2. **Prefetching (generalized mode)** — the setup halo read is issued
///    asynchronously and hidden behind early compute.
/// 3. **Ownership policy** — contiguous vs strided row ownership changes
///    how many owners a contiguous read touches (requests per fetch).
///
/// Tables only: prefetching hides fetch time behind compute without changing
/// bytes or learning (pinned by `tests/distributed.rs` and the planes' unit
/// tests), and contiguous ownership keeps window reads single-owner.
pub fn prefetch(ctx: &Ctx) -> RecordSet {
    let small = ctx.scaled(DatasetKind::PemsBay, ctx.scale.dist_scale);
    let titles = [
        "Ablation §7a: baseline DDP with and without prefetching (measured, simulated seconds)",
        "Ablation §7a': generalized mode with and without halo-read prefetching",
    ];
    for (plane, title) in REMOTE_PLANES.into_iter().zip(titles) {
        let mut table = Table::new(
            title,
            &[
                "variant",
                "comm s",
                "compute s",
                "total s",
                "data-plane bytes",
            ],
        );
        let mut cfg = DistConfig::new(2, ctx.scale.sweep_epochs, small.spec.horizon);
        cfg.batch_per_worker = 4;
        for (prefetch, variant) in [(false, "synchronous"), (true, "prefetched")] {
            cfg.prefetch = prefetch;
            let r = run_remote(plane, &small, &cfg);
            table.row(&[
                variant.to_string(),
                format!("{:.6}", r.sim_comm_secs),
                format!("{:.6}", r.sim_compute_secs),
                format!("{:.6}", r.sim_total_secs),
                r.data_plane_bytes.to_string(),
            ]);
        }
        println!("{}", table.to_text());
    }

    // --- ownership policies: requests per contiguous window read ---
    let mut table = Table::new(
        "Ablation §7b: ownership policy vs requests for one contiguous 64-row read (4 workers)",
        &["policy", "remote requests", "remote bytes"],
    );
    for (name, policy) in [
        ("contiguous", PartitionPolicy::Contiguous),
        ("strided", PartitionPolicy::Strided),
    ] {
        let t = st_tensor::Tensor::zeros([256, 64]);
        let a = DistributedArray::with_policy(t, 4, ClusterTopology::polaris(), 4, policy);
        let cm = st_device::CostModel::polaris();
        let ids: Vec<usize> = (0..64).collect(); // rank 0's own block, contiguous
        a.fetch_rows_quoted(0, &ids, &cm);
        table.row(&[
            name.to_string(),
            a.remote_requests().to_string(),
            a.remote_bytes().to_string(),
        ]);
    }
    println!("{}", table.to_text());
    RecordSet::new("§7 prefetch")
}
