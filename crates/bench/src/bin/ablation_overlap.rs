//! Ablation: the pipelined step engine's overlap scheduler.
//!
//! Sweeps gradient-bucket size × world size on both **remote** data planes
//! (baseline DDP's per-batch data service, the generalized mode's
//! halo-partitioned entries) and compares the fully synchronous step path
//! (no prefetch, one flat charged all-reduce) against the pipelined one
//! (double-buffered fetches + backward-overlapped byte-capped gradient
//! buckets, all on the engine's `OverlapLedger`). Learning is bit-identical
//! across every row — the sweep moves modeled *time* only — so the table
//! isolates exactly the Figs. 8–9 lever: how much data-plane and collective
//! time hides behind compute.
//!
//! Asserts the headline claim: at world ≥ 4, the overlapped pipeline's
//! modeled epoch time is strictly below the synchronous baseline on every
//! remote plane. Results are also emitted as `target/BENCH_overlap.json`
//! so CI accumulates a perf trajectory.
//!
//! `--smoke` (or `PGT_SMOKE=1`) shrinks the workload for CI.

use pgt_index::baseline_ddp::run_baseline_ddp;
use pgt_index::gen_dist_index::run_generalized;
use pgt_index::{DistConfig, EngineReport};
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::synthetic;
use st_graph::diffusion_supports;
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_report::table::Table;

struct Row {
    plane: &'static str,
    world: usize,
    mode: String,
    bucket_bytes: Option<usize>,
    comm_s: f64,
    hidden_s: f64,
    total_s: f64,
    speedup: f64,
}

fn hidden_secs(r: &EngineReport) -> f64 {
    r.epochs.iter().map(|e| e.hidden_comm_secs).sum()
}

fn main() {
    let smoke = st_bench::smoke() || std::env::args().any(|a| a == "--smoke");
    let epochs = if smoke { 1 } else { 2 };
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(st_bench::DIST_SCALE);
    let sig = synthetic::generate(&spec, st_bench::SEED);
    let factory = |features: usize| {
        let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
        let mc = ModelConfig {
            input_dim: features,
            output_dim: 1,
            hidden: 8,
            num_nodes: sig.num_nodes(),
            horizon: spec.horizon,
            diffusion_steps: 2,
            layers: 1,
        };
        PgtDcrnn::new(mc, &supports, st_bench::SEED)
    };

    let caps: &[usize] = if smoke {
        &[4 << 10]
    } else {
        &[1 << 10, 4 << 10, 16 << 10]
    };
    let worlds: &[usize] = &[2, 4];

    let run = |plane: &'static str, cfg: &DistConfig| -> EngineReport {
        match plane {
            "baseline_ddp" => {
                run_baseline_ddp(&sig, cfg, |_| Box::new(factory(1)) as Box<dyn Seq2Seq>)
            }
            "generalized" => run_generalized(&sig, cfg, |ds| {
                Box::new(factory(ds.num_features())) as Box<dyn Seq2Seq>
            }),
            _ => unreachable!(),
        }
    };

    let mut rows: Vec<Row> = Vec::new();
    for &plane in &["baseline_ddp", "generalized"] {
        for &world in worlds {
            let mut cfg = DistConfig::new(world, epochs, spec.horizon);
            cfg.batch_per_worker = 8;
            if plane == "generalized" {
                cfg.time_period = Some(spec.period);
            }

            // Fully synchronous baseline: no prefetch, flat charged reduce.
            cfg.prefetch = false;
            cfg.grad_bucket_bytes = None;
            let sync = run(plane, &cfg);
            rows.push(Row {
                plane,
                world,
                mode: "sync".into(),
                bucket_bytes: None,
                comm_s: sync.sim_comm_secs,
                hidden_s: hidden_secs(&sync),
                total_s: sync.sim_total_secs,
                speedup: 1.0,
            });

            // The pipelined step path across bucket caps.
            cfg.prefetch = true;
            for &cap in caps {
                cfg.grad_bucket_bytes = Some(cap);
                let r = run(plane, &cfg);
                for (a, b) in r.epochs.iter().zip(&sync.epochs) {
                    assert_eq!(
                        a.train_loss.to_bits(),
                        b.train_loss.to_bits(),
                        "{plane} w{world}: overlap must not change learning"
                    );
                }
                rows.push(Row {
                    plane,
                    world,
                    mode: format!("overlap/{}KiB", cap >> 10),
                    bucket_bytes: Some(cap),
                    comm_s: r.sim_comm_secs,
                    hidden_s: hidden_secs(&r),
                    total_s: r.sim_total_secs,
                    speedup: sync.sim_total_secs / r.sim_total_secs,
                });
            }
        }
    }

    let mut table = Table::new(
        "Ablation: pipelined step engine (bucketed grad overlap + prefetch) vs synchronous",
        &[
            "plane", "world", "mode", "comm s", "hidden s", "total s", "speedup",
        ],
    );
    for r in &rows {
        table.row(&[
            r.plane.to_string(),
            r.world.to_string(),
            r.mode.clone(),
            format!("{:.6}", r.comm_s),
            format!("{:.6}", r.hidden_s),
            format!("{:.6}", r.total_s),
            format!("{:.3}×", r.speedup),
        ]);
    }
    println!("{}", table.to_text());

    // JSON artifact for the perf trajectory.
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"plane\": \"{}\", \"world\": {}, \"mode\": \"{}\", \
                 \"bucket_bytes\": {}, \"comm_s\": {:.9}, \"hidden_s\": {:.9}, \
                 \"total_s\": {:.9}, \"speedup_vs_sync\": {:.4}}}",
                r.plane,
                r.world,
                r.mode,
                r.bucket_bytes.map_or("null".to_string(), |b| b.to_string()),
                r.comm_s,
                r.hidden_s,
                r.total_s,
                r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ablation_overlap\",\n  \"smoke\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        smoke,
        json_rows.join(",\n")
    );
    let _ = std::fs::create_dir_all("target");
    let path = std::path::Path::new("target").join("BENCH_overlap.json");
    std::fs::write(&path, &json).expect("write BENCH_overlap.json");
    println!("wrote {}", path.display());

    // The acceptance claim: strict modeled win at world ≥ 4 on every
    // remote plane (and the overlap rows never lose anywhere).
    for &plane in &["baseline_ddp", "generalized"] {
        for &world in worlds {
            let sync_total = rows
                .iter()
                .find(|r| r.plane == plane && r.world == world && r.mode == "sync")
                .unwrap()
                .total_s;
            let best = rows
                .iter()
                .filter(|r| r.plane == plane && r.world == world && r.mode != "sync")
                .map(|r| r.total_s)
                .fold(f64::INFINITY, f64::min);
            assert!(
                best <= sync_total,
                "{plane} w{world}: overlap ({best}) must never lose to sync ({sync_total})"
            );
            if world >= 4 {
                assert!(
                    best < sync_total,
                    "{plane} w{world}: overlap ({best}) must strictly beat sync ({sync_total})"
                );
            }
        }
    }
    println!(
        "Reading: the overlap scheduler hides data-plane fetches AND per-bucket \
         gradient collectives behind modeled compute; smaller buckets fire \
         earlier in the backward pass and hide more, at the cost of extra \
         per-collective latency. Bytes and learning are identical in every row."
    );
}
