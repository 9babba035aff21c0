//! The serving plane at city scale: the serving twin of `city_scale.rs`.
//!
//! A small PGT-DCRNN (hidden 4, horizon 3) is deployed on two shards over
//! the 25,600-node `city_grid_sparse` grid. A deployment builds its
//! diffusion supports once: every call, every copy-on-write tick and every
//! same-K hot swap reuses the same `Arc`s, and each shard's replica is
//! restored over them. A swap that changes K builds fresh supports and
//! serves bitwise like a fresh deploy, down to K = 1 and up to K = 3, whose
//! second diffusion powers are built sparse. This file is its own test
//! binary so that its peak RSS (asserted under 512 MB) is about this run
//! only. Per-call wall time is printed for the record; no clock is
//! asserted.

use std::sync::Arc;
use std::time::Instant;

use pgt_i::autograd::Module;
use pgt_i::data::scaler::StandardScaler;
use pgt_i::graph::generators::city_grid_sparse;
use pgt_i::graph::{diffusion_supports, Adjacency};
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};
use pgt_i::serve::{
    BatchedServer, ModelSnapshot, Query, ServeConfig, ServeReport, SnapshotRegistry, Tick,
};
use pgt_i::tensor::Tensor;

const SIDE: usize = 160;
const HORIZON: usize = 3;
/// Seeded history rows; the ring holds all of them and one live row.
const HISTORY: usize = 8;
const RING: usize = HISTORY + 1;
const SHARDS: usize = 2;

/// Peak resident set of this process in MB (Linux; `None` elsewhere).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A (toy) trained snapshot at diffusion order `k`.
fn snapshot(adj: &Adjacency, k: usize, seed: u64) -> ModelSnapshot {
    let cfg = ModelConfig {
        input_dim: 1,
        output_dim: 1,
        hidden: 4,
        num_nodes: adj.num_nodes(),
        horizon: HORIZON,
        diffusion_steps: k,
        layers: 1,
    };
    let supports = Support::wrap_all(diffusion_supports(adj, k));
    let trained = PgtDcrnn::new(cfg.clone(), &supports, seed);
    ModelSnapshot::capture(cfg, StandardScaler::identity(), None, &trained.params(), 1)
}

fn history(n: usize) -> Tensor {
    let values = (0..HISTORY * n).map(|i| (i % 97) as f32 * 0.02 - 1.0);
    Tensor::from_vec(values.collect(), [HISTORY, n, 1]).unwrap()
}

/// Row `HISTORY`, one tick per node.
fn live_ticks(n: usize) -> Vec<Tick> {
    (0..n)
        .map(|node| Tick {
            node,
            t: HISTORY,
            values: vec![(node % 31) as f32 * 0.05 - 0.7],
        })
        .collect()
}

/// Queries on one window, spread across the grid.
fn queries(n: usize, window_end: usize) -> Vec<Query> {
    (0..16)
        .map(|i| Query {
            id: i,
            node: (i * 7919 + window_end * 131) % n,
            window_end,
            arrival_secs: i as f64 * 1e-6,
        })
        .collect()
}

/// The deployment's support `Arc`s, by address.
fn support_ptrs(server: &BatchedServer) -> Vec<*const pgt_i::graph::Csr> {
    server
        .supports()
        .iter()
        .flat_map(|s| [Arc::as_ptr(&s.mat), Arc::as_ptr(&s.mat_t)])
        .collect()
}

fn forecast_bits(report: &ServeReport) -> Vec<u32> {
    report
        .results
        .iter()
        .flat_map(|r| r.forecast_std.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn a_city_deployment_builds_its_supports_once_and_serves_every_call_on_them() {
    let adj = city_grid_sparse(SIDE, SIDE, 2).graph.to_adjacency();
    let n = adj.num_nodes();
    assert_eq!(n, SIDE * SIDE);
    let cfg = ServeConfig::new(SHARDS, RING);

    let t = Instant::now();
    let server = BatchedServer::with_history(snapshot(&adj, 2, 7), adj.clone(), &history(n), cfg);
    println!(
        "deploy: {n} nodes, {} supports, {:.1} ms",
        server.supports().len(),
        t.elapsed().as_secs_f64() * 1e3
    );
    let deployed = support_ptrs(&server);

    // A replica restored by `build_model` (the path every shard of a call
    // takes) holds the deployment's supports, not a copy of its own.
    let before = Arc::strong_count(&server.supports()[1].mat);
    let replica = server.build_model();
    assert!(Arc::strong_count(&server.supports()[1].mat) > before);
    drop(replica);
    assert_eq!(Arc::strong_count(&server.supports()[1].mat), before);

    let registry = SnapshotRegistry::new();
    registry.register("city", server).unwrap();

    // One row enters by ticks while a reader holds the pre-tick server, so
    // the first tick takes the copy-on-write path.
    let held = registry.get("city").unwrap();
    let ticks = live_ticks(n);
    let completed: usize = ticks
        .iter()
        .map(|tick| registry.admit_tick("city", tick).unwrap())
        .sum();
    assert_eq!(completed, 1);
    assert_eq!(held.window().len(), HISTORY);
    drop(held);
    let live = registry.get("city").unwrap();
    assert_eq!(live.window().len(), RING);
    assert_eq!(support_ptrs(&live), deployed, "copy-on-write shares them");

    // Three calls, each on its own window (one forward per call keeps the
    // debug-profile run short).
    let ends: Vec<usize> = (RING - 2..=RING).collect();
    let mut reports = Vec::new();
    for (call, &end) in ends.iter().enumerate() {
        let qs = queries(n, end);
        let t = Instant::now();
        let report = registry.serve("city", &qs).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(report.rejections.is_empty());
        assert_eq!(report.results.len(), qs.len());
        let forwarded: usize = report.shards.iter().map(|s| s.windows_forwarded).sum();
        println!("call {call}: {ms:.1} ms, {forwarded} window forwarded");
        let server = registry.get("city").unwrap();
        assert_eq!(support_ptrs(&server), deployed, "call {call}");
        reports.push(report);
    }
    // Every served forecast is bitwise the single-shard reference forward.
    let pred = live
        .predict_windows_with(&live.build_model(), &ends)
        .unwrap();
    for (j, report) in reports.iter().enumerate() {
        for r in &report.results {
            for (t, v) in r.forecast_std.iter().enumerate() {
                assert_eq!(v.to_bits(), pred.at(&[j, t, r.node, 0]).to_bits());
            }
        }
    }

    // A same-K swap keeps the supports; a K change builds fresh ones and
    // serves bitwise like a fresh deploy of that snapshot.
    registry
        .swap_snapshot("city", snapshot(&adj, 2, 19))
        .unwrap();
    let same_k = registry.get("city").unwrap();
    assert_eq!(support_ptrs(&same_k), deployed, "same-K swap");

    let k1 = snapshot(&adj, 1, 23);
    registry.swap_snapshot("city", k1.clone()).unwrap();
    let swapped = registry.get("city").unwrap();
    assert_ne!(support_ptrs(&swapped), deployed, "K changed");
    assert_eq!(swapped.supports().len(), diffusion_supports(&adj, 1).len());
    let mut fresh =
        BatchedServer::with_history(k1, adj.clone(), &history(n), ServeConfig::new(SHARDS, RING));
    for tick in &ticks {
        fresh.admit_tick(tick).unwrap();
    }
    let qs = queries(n, RING);
    let after = registry.serve("city", &qs).unwrap();
    assert_eq!(after.results.len(), qs.len());
    assert_eq!(forecast_bits(&after), forecast_bits(&fresh.serve(&qs)));

    // K = 3 needs the second powers P² and P'², built sparse: a dense N×N
    // intermediate here would be 2.6 GB.
    let k3 = snapshot(&adj, 3, 29);
    let t = Instant::now();
    registry.swap_snapshot("city", k3.clone()).unwrap();
    println!("K = 3 swap: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(registry.get("city").unwrap().supports().len(), 5);
    let mut fresh =
        BatchedServer::with_history(k3, adj, &history(n), ServeConfig::new(SHARDS, RING));
    for tick in &ticks {
        fresh.admit_tick(tick).unwrap();
    }
    let after = registry.serve("city", &qs).unwrap();
    assert_eq!(after.results.len(), qs.len());
    assert_eq!(forecast_bits(&after), forecast_bits(&fresh.serve(&qs)));

    if let Some(mb) = peak_rss_mb() {
        println!("peak RSS {mb:.0} MB");
        assert!(mb < 512.0, "peak RSS {mb:.0} MB");
    }
}
