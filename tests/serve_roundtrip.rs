//! The serving contract, end to end: train → snapshot → load → serve must
//! be **bit-identical** to the trainer's own evaluation forward pass, on
//! one shard and on a two-shard deployment alike.
//!
//! These tests deliberately cross the process-boundary shape of real
//! deployment: the snapshot is written to disk and read back (fresh
//! parameter tensors, fresh model shell), never sharing live state with
//! the trainer that produced it.

use pgt_i::autograd::optim::Adam;
use pgt_i::autograd::{Checkpoint, Module, Tape};
use pgt_i::core::trainer::Trainer;
use pgt_i::core::{DistConfig, IndexDataset};
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::graph::diffusion_supports;
use pgt_i::models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use pgt_i::serve::{
    BatchedServer, ModelSnapshot, Query, QueueConfig, ServeConfig, SnapshotRegistry,
};
use pgt_i::tensor::ops as t;

const HORIZON: usize = 4;

fn setup() -> (PgtDcrnn, IndexDataset, pgt_i::graph::Adjacency, ModelConfig) {
    let net = pgt_i::graph::generators::highway_corridor(12, 1, 23);
    let sig = synthetic::traffic::generate(&net, 160, 288, 23);
    let ds = IndexDataset::from_signal(&sig, HORIZON, SplitRatios::default(), Some(288));
    let cfg = ModelConfig {
        input_dim: ds.num_features(),
        output_dim: 1,
        hidden: 8,
        num_nodes: ds.num_nodes(),
        horizon: HORIZON,
        diffusion_steps: 2,
        layers: 1,
    };
    let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
    (
        PgtDcrnn::new(cfg.clone(), &supports, 31),
        ds,
        net.adjacency,
        cfg,
    )
}

fn train_two_epochs(model: &PgtDcrnn, ds: &IndexDataset) -> Trainer {
    let trainer = Trainer {
        validate: false,
        ..Trainer::new(DistConfig::new(1, 2, HORIZON))
    };
    trainer.train(model, ds);
    trainer
}

/// Snapshot to a temp file and load it back — the "fresh process" half of
/// the round trip.
fn disk_roundtrip(snap: &ModelSnapshot, tag: &str) -> ModelSnapshot {
    let path = std::env::temp_dir().join(format!("pgt_serve_roundtrip_{tag}.snap"));
    snap.save(&path).expect("write snapshot");
    let loaded = ModelSnapshot::load(&path).expect("load snapshot");
    std::fs::remove_file(&path).ok();
    loaded
}

#[test]
fn snapshot_serving_is_bit_identical_to_trainer_evaluate_single_rank() {
    let (model, ds, adjacency, mc) = setup();
    let trainer = train_two_epochs(&model, &ds);

    // The trainer-side reference: evaluate's MAE over the val split.
    let val = ds.splits().val.clone();
    let reference_mae = trainer.evaluate(&model, &ds, val.clone());

    // Deployment: capture → disk → load → serve from the same history.
    let snap = ModelSnapshot::capture(mc, ds.scaler().clone(), Some(288), &model.params(), 2);
    let loaded = disk_roundtrip(&snap, "single");
    let server = BatchedServer::with_history(
        loaded,
        adjacency,
        ds.data(),
        ServeConfig::new(1, ds.data().dim(0)),
    );

    // Replay evaluate's exact chunking through the serving forward and
    // re-accumulate its MAE — bit-identical, not approximately equal.
    let ids: Vec<usize> = val.collect();
    let batch = trainer.cfg.batch_per_worker;
    let replica = server.build_model();
    let mut abs_sum = 0.0f64;
    let mut count = 0usize;
    for chunk in ids.chunks(batch) {
        let (x, y) = ds.batch(chunk);
        let ends: Vec<usize> = chunk.iter().map(|&i| i + HORIZON).collect();
        let served = server
            .predict_windows_with(&replica, &ends)
            .expect("val windows are buffered");

        // The served input windows and forward values are bitwise the
        // trainer's.
        let tape = Tape::new();
        let trained = model.forward(&tape, &x);
        assert_eq!(
            served.to_vec(),
            trained.value().to_vec(),
            "serving forward must be bit-identical to the training forward"
        );

        let target = y.narrow(3, 0, 1).expect("target channel").contiguous();
        let diff = t::sub(&served, &target).expect("same shape");
        abs_sum += t::sum_abs(&diff);
        count += target.numel();
    }
    let served_mae = (abs_sum / count.max(1) as f64) as f32 * ds.scaler().std;
    assert_eq!(
        served_mae.to_bits(),
        reference_mae.to_bits(),
        "served MAE {served_mae} != trainer evaluate {reference_mae}"
    );
}

#[test]
fn snapshot_serving_is_bit_identical_on_two_shards() {
    let (model, ds, adjacency, mc) = setup();
    train_two_epochs(&model, &ds);

    let snap = ModelSnapshot::capture(mc, ds.scaler().clone(), Some(288), &model.params(), 2);
    let loaded = disk_roundtrip(&snap, "sharded");
    let mut cfg = ServeConfig::new(2, ds.data().dim(0));
    cfg.queue = QueueConfig {
        max_batch: 4,
        max_delay_secs: 1e-3,
    };
    // Deployment goes through the production path: a named tenant in the
    // process-wide registry, served via the registry's lookup.
    let registry = SnapshotRegistry::new();
    registry
        .register(
            "corridor",
            BatchedServer::with_history(loaded, adjacency, ds.data(), cfg),
        )
        .expect("fresh tenant name");

    // Every node × a spread of val windows, served through the
    // window-routed micro-batching path.
    let val = ds.splits().val.clone();
    let nodes = ds.num_nodes();
    let queries: Vec<Query> = val
        .clone()
        .step_by(3)
        .enumerate()
        .flat_map(|(k, id)| {
            (0..nodes).map(move |node| Query {
                id: k * nodes + node,
                node,
                window_end: id + HORIZON,
                arrival_secs: (k * nodes + node) as f64 * 1e-6,
            })
        })
        .collect();
    let report = registry
        .serve("corridor", &queries)
        .expect("tenant is registered");
    assert_eq!(report.results.len(), queries.len());
    assert!(report.rejections.is_empty(), "all val windows are buffered");
    // Each shard's windows fit one batch, so each is forwarded once.
    let distinct: std::collections::HashSet<usize> = queries.iter().map(|q| q.window_end).collect();
    let forwarded: usize = report.shards.iter().map(|s| s.windows_forwarded).sum();
    assert_eq!(forwarded, distinct.len(), "one forward per distinct window");

    // Each served forecast is bitwise the trainer-side forward for that
    // window and node.
    for r in &report.results {
        let (x, _) = ds.batch(&[r.window_end - HORIZON]);
        let tape = Tape::new();
        let pred = model.forward(&tape, &x);
        for (step, &v) in r.forecast_std.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                pred.value().at(&[0, step, r.node, 0]).to_bits(),
                "query {} node {} step {step}",
                r.id,
                r.node
            );
        }
    }
}

#[test]
fn engine_checkpoint_feeds_the_snapshot_path() {
    // The deployment path from *distributed* training: the engine's
    // checkpoint bytes (model + Adam + epoch) become a serving snapshot —
    // optimizer state dropped, forward values preserved exactly.
    let (model, ds, adjacency, mc) = setup();
    let trainer = train_two_epochs(&model, &ds);
    let opt = Adam::new(model.params(), 0.01);
    let bytes = Checkpoint::capture(&model.params(), &opt, 2).to_bytes();

    let ck = Checkpoint::from_bytes(&bytes).expect("valid checkpoint");
    let snap = ModelSnapshot::from_checkpoint(&ck, mc, ds.scaler().clone(), Some(288));
    assert_eq!(snap.trained_epochs, 2);
    let loaded = disk_roundtrip(&snap, "engine_ck");
    let server = BatchedServer::with_history(
        loaded,
        adjacency,
        ds.data(),
        ServeConfig::new(1, ds.data().dim(0)),
    );

    let val = ds.splits().val.clone();
    let reference = trainer.evaluate(&model, &ds, val.clone());
    let ids: Vec<usize> = val.collect();
    let replica = server.build_model();
    let mut abs_sum = 0.0f64;
    let mut count = 0usize;
    for chunk in ids.chunks(trainer.cfg.batch_per_worker) {
        let (_, y) = ds.batch(chunk);
        let ends: Vec<usize> = chunk.iter().map(|&i| i + HORIZON).collect();
        let served = server
            .predict_windows_with(&replica, &ends)
            .expect("val windows are buffered");
        let target = y.narrow(3, 0, 1).expect("target channel").contiguous();
        let diff = t::sub(&served, &target).expect("same shape");
        abs_sum += t::sum_abs(&diff);
        count += target.numel();
    }
    let served_mae = (abs_sum / count.max(1) as f64) as f32 * ds.scaler().std;
    assert_eq!(served_mae.to_bits(), reference.to_bits());
}

#[test]
fn corrupted_snapshot_never_serves() {
    let (model, ds, _, mc) = setup();
    let snap = ModelSnapshot::capture(mc, ds.scaler().clone(), Some(288), &model.params(), 2);
    let mut bytes = snap.to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    assert!(
        ModelSnapshot::from_bytes(&bytes).is_err(),
        "a flipped bit must fail the checksum, not serve wrong forecasts"
    );
}
