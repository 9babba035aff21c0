//! Engine-equivalence goldens.
//!
//! Per-epoch losses captured from the **pre-refactor inline epoch loops**
//! (the six hand-copied loops that predated `pgt_index::engine`), at fixed
//! seeds, after the ragged-`global_stripe` fix. The ported `DistDataPlane`
//! implementations must reproduce them **bit-for-bit**: the engine
//! refactor moved code, not numerics.
//!
//! If an intentional numerics change ever lands (new shuffle, new loss),
//! re-capture these by printing `train_loss`/`val_mae` from the runners at
//! the configs below.

use pgt_i::core::baseline_ddp::run_baseline_ddp;
use pgt_i::core::dist_index::{run_distributed_index, DistConfig, LocalCopyPlane};
use pgt_i::core::dynamic_index::{train_dynamic, DynamicTrainConfig};
use pgt_i::core::engine::{self, EngineOptions};
use pgt_i::core::gen_dist_index::run_generalized;
use pgt_i::core::partitioned::{run_partitioned, PartitionedConfig};
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::synthetic;
use pgt_i::device::CostModel;
use pgt_i::graph::{diffusion_supports, PartitionerKind};
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};
use pgt_i::tensor::par;

/// The pipelined-engine sweep every golden must survive unchanged: the
/// legacy flat synchronous reduce, tiny buckets (many per step — maximal
/// pipelining), and tiny buckets with prefetch. Overlap moves modeled
/// time only; one bit of drift in a loss is a determinism bug.
const OVERLAP_VARIANTS: [(Option<usize>, bool); 3] =
    [(None, false), (Some(512), false), (Some(512), true)];

fn assert_epochs(
    name: &str,
    epochs: &[pgt_i::core::dist_index::DistEpochStats],
    golden: &[(f32, f32)],
) {
    assert_eq!(epochs.len(), golden.len(), "{name}: epoch count");
    for (e, &(loss, val)) in epochs.iter().zip(golden) {
        assert_eq!(
            e.train_loss.to_bits(),
            loss.to_bits(),
            "{name} epoch {}: train {} vs golden {loss}",
            e.epoch,
            e.train_loss
        );
        assert_eq!(
            e.val_mae.to_bits(),
            val.to_bits(),
            "{name} epoch {}: val {} vs golden {val}",
            e.epoch,
            e.val_mae
        );
    }
}

#[test]
fn local_copy_plane_reproduces_the_inline_dist_index_loop() {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
    let sig = synthetic::generate(&spec, 13);
    for (cap, prefetch) in OVERLAP_VARIANTS {
        let mut cfg = DistConfig::new(2, 3, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.grad_bucket_bytes = cap;
        cfg.prefetch = prefetch;
        let r = run_distributed_index(&sig, &cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42));
        assert_epochs(
            &format!("dist_index[{cap:?}/{prefetch}]"),
            &r.epochs,
            &[
                (0.6047219, 0.5622681),
                (0.39428508, 0.29349127),
                (0.37147808, 0.18459678),
            ],
        );
        assert_eq!(r.data_plane_bytes, 0, "full local copies move no samples");
    }
}

#[test]
fn data_svc_plane_reproduces_the_inline_baseline_ddp_loop() {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
    let sig = synthetic::generate(&spec, 13);
    for (cap, prefetch) in OVERLAP_VARIANTS {
        let mut cfg = DistConfig::new(2, 3, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.grad_bucket_bytes = cap;
        cfg.prefetch = prefetch;
        let r = run_baseline_ddp(&sig, &cfg, |_| {
            let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
            Box::new(PgtDcrnn::new(
                ModelConfig {
                    input_dim: 1,
                    output_dim: 1,
                    hidden: 8,
                    num_nodes: sig.num_nodes(),
                    horizon: spec.horizon,
                    diffusion_steps: 2,
                    layers: 1,
                },
                &supports,
                42,
            ))
        });
        assert_epochs(
            &format!("baseline_ddp[{cap:?}/{prefetch}]"),
            &r.epochs,
            &[
                (0.602124, 0.5803667),
                (0.38723648, 0.29158267),
                (0.36405236, 0.18627615),
            ],
        );
        // The data-plane ledger is part of the contract too: overlap hides
        // time, never traffic.
        assert_eq!(r.data_plane_bytes, 46368, "on-demand fetch traffic");
    }
}

#[test]
fn halo_entry_plane_reproduces_the_inline_generalized_loop() {
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(0.012);
    let sig = synthetic::generate(&spec, 31);
    for (cap, prefetch) in OVERLAP_VARIANTS {
        let mut cfg = DistConfig::new(2, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.time_period = Some(spec.period);
        cfg.grad_bucket_bytes = cap;
        cfg.prefetch = prefetch;
        let r = run_generalized(&sig, &cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42));
        // Re-captured after the per-feature StandardScaler fix: this config
        // augments with time-of-day, whose [0,1) channel used to contaminate
        // the scalar speed statistics (and therefore every standardized loss).
        assert_epochs(
            &format!("generalized[{cap:?}/{prefetch}]"),
            &r.epochs,
            &[(0.50323284, 5.0863705), (0.38060495, 5.4412193)],
        );
        assert_eq!(r.data_plane_bytes, 736, "setup halo reads only");
    }
}

#[test]
fn dynamic_plane_reproduces_the_inline_dynamic_loop() {
    let sig = pgt_i::data::dynamic::synthetic_dynamic_traffic(6, 80, 7);
    let cfg = DynamicTrainConfig {
        epochs: 3,
        ..Default::default()
    };
    let (_, stats) = train_dynamic(&sig, 4, &cfg);
    let golden = [
        (0.50047874f32, 3.724125f32),
        (0.29698554, 3.4272969),
        (0.28425804, 3.1600816),
    ];
    assert_eq!(stats.len(), golden.len());
    for (e, &(loss, val)) in stats.iter().zip(&golden) {
        assert_eq!(e.train_loss.to_bits(), loss.to_bits(), "epoch {}", e.epoch);
        assert_eq!(e.val_mae.to_bits(), val.to_bits(), "epoch {}", e.epoch);
    }
}

#[test]
fn partitioned_plane_reproduces_the_sequential_trainer_loop() {
    // The pre-engine runner trained partitions sequentially through the
    // single-worker Trainer; the engine trains them concurrently as
    // independent ranks. Same shuffles, same seeds ⇒ identical MAE.
    let net = pgt_i::graph::generators::highway_corridor(24, 1, 11);
    let sig = synthetic::traffic::generate(&net, 220, 288, 11);
    let mut cfg = PartitionedConfig::new(2, 4);
    cfg.epochs = 2;
    cfg.batch_size = 4;
    // Pin the strategy the golden was captured under (the config default
    // moved to the multilevel partitioner afterwards).
    cfg.partitioner = PartitionerKind::GreedyBfs;
    let r = run_partitioned(&sig, None, &cfg);
    assert_eq!(r.combined_val_mae.to_bits(), 2.156524f32.to_bits());
    let vals: Vec<u32> = r.parts.iter().map(|p| p.val_mae.to_bits()).collect();
    assert_eq!(vals, vec![2.8321512f32.to_bits(), 1.4808966f32.to_bits()]);
}

#[test]
fn the_intra_op_width_never_reaches_a_loss_bit() {
    // The same two-epoch world-of-one run, sequential and split three ways
    // (a width that divides none of its shapes): chunk boundaries move,
    // `train_loss` / `val_mae` bits do not.
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
    let sig = synthetic::generate(&spec, 5);
    // Hidden 32 puts the gate GEMMs above `par_threshold`, so width 3
    // really dispatches to the pool.
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 32, 42);
    let cfg = DistConfig::new(1, 2, spec.horizon);
    let run_at = |width| {
        par::with_width(width, || {
            let plane = LocalCopyPlane::new(&sig, &cfg, 0, &CostModel::default());
            let model = factory(plane.dataset());
            engine::run_single(&cfg, &EngineOptions::default(), &plane, model.as_ref())
                .expect("no resume bytes to reject")
        })
    };
    let (sequential, split) = (run_at(1), run_at(3));
    assert_eq!(sequential.epochs.len(), 2);
    for (a, b) in sequential.epochs.iter().zip(&split.epochs) {
        assert!(a.train_loss.is_finite() && a.val_mae.is_finite());
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "train");
        assert_eq!(a.val_mae.to_bits(), b.val_mae.to_bits(), "val");
        // The per-epoch ledger says which path each run took.
        assert_eq!(a.kernel_split.pooled_calls, 0, "width 1 is inline");
        assert!(
            b.kernel_split.pooled_calls > 0 || par::par_threshold() > par::PAR_THRESHOLD,
            "width 3 never reached the pool: {:?}",
            b.kernel_split
        );
    }
}
