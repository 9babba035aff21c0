//! The engine's learning-rate schedule and resume semantics.
//!
//! Historically the engine built `Adam::new(params, effective_lr())` once
//! and never consulted any schedule — the DCRNN multi-step decay only
//! existed on the legacy stand-alone `Trainer` loop. These tests pin the
//! fix three ways: a scheduled engine run (through the `Trainer` facade,
//! whose plane replays the legacy batch order) is bit-identical to the
//! trajectory recorded from that legacy loop, a resumed run re-enters the
//! schedule at the checkpoint's epoch (not the base rate), and degenerate
//! resumes (at/past the horizon, corrupt bytes) surface explicitly instead
//! of panicking or returning silently empty series.

mod common;

use common::param_digest;
use pgt_i::autograd::checkpoint::{Checkpoint, CheckpointError};
use pgt_i::autograd::schedule::{LrSchedule, MultiStepLr};
use pgt_i::core::dist_index::{DistConfig, LocalCopyPlane};
use pgt_i::core::engine::{self, EngineError, EngineOptions};
use pgt_i::core::index_batching::IndexDataset;
use pgt_i::core::trainer::Trainer;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::device::CostModel;
use pgt_i::graph::diffusion_supports;
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};
use pgt_i::tensor::Tensor;
use std::sync::Arc;

const SEED: u64 = 42;
const LR: f32 = 0.01;
const BATCH: usize = 8;

fn signal() -> StaticGraphTemporalSignal {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
    synthetic::generate(&spec, 11)
}

fn dataset() -> IndexDataset {
    IndexDataset::from_signal(&signal(), 4, SplitRatios::default(), None)
}

fn model_for(ds: &IndexDataset) -> PgtDcrnn {
    let sig = signal();
    let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
    let mc = ModelConfig {
        input_dim: ds.num_features(),
        output_dim: 1,
        hidden: 4,
        num_nodes: ds.num_nodes(),
        horizon: ds.horizon(),
        diffusion_steps: 2,
        layers: 1,
    };
    PgtDcrnn::new(mc, &supports, 7)
}

/// DCRNN-style multi-step decay with milestones scaled into a 6-epoch
/// test budget (the reference `MultiStepLr::dcrnn` decays at 20/30/40/50).
fn decay() -> MultiStepLr {
    MultiStepLr {
        base_lr: LR,
        milestones: vec![2, 4],
        gamma: 0.1,
    }
}

fn engine_cfg(epochs: usize) -> DistConfig {
    let mut cfg = DistConfig::new(1, epochs, 4);
    cfg.batch_per_worker = BATCH;
    cfg.lr = LR;
    cfg.seed = SEED;
    cfg.grad_bucket_bytes = None;
    cfg
}

fn scheduled_opts() -> EngineOptions {
    EngineOptions {
        schedule: Some(Arc::new(decay())),
        ..Default::default()
    }
}

/// An engine run as a world of one over the §4.2 local-copy plane.
fn run_engine(epochs: usize, opts: &EngineOptions) -> Result<engine::EngineReport, EngineError> {
    let cfg = engine_cfg(epochs);
    let plane = LocalCopyPlane::new(&signal(), &cfg, 0, &CostModel::default());
    let model = model_for(plane.dataset());
    engine::run_single(&cfg, opts, &plane, &model)
}

fn run_ok(epochs: usize, opts: &EngineOptions) -> engine::EngineReport {
    run_engine(epochs, opts).expect("resume bytes, when present, are valid")
}

fn trainer() -> Trainer {
    Trainer {
        validate: false,
        ..Trainer::new(engine_cfg(6))
    }
}

fn loss_bits(h: &engine::EngineReport) -> Vec<u32> {
    h.epochs.iter().map(|e| e.train_loss.to_bits()).collect()
}

/// Per-epoch train-loss bits and the final-parameter digest recorded from
/// the legacy path at commit `cf7dfb3`: the stand-alone `Trainer` epoch
/// loop driving a caller-owned Adam under `decay()`, 6 epochs.
const LEGACY_LOSSES: [u32; 6] = [
    0x3f4d_067a,
    0x3f2a_015b,
    0x3f1f_ac82,
    0x3f22_a0d9,
    0x3f21_6f80,
    0x3f22_146b,
];
const LEGACY_PARAM_DIGEST: u64 = 0xb672_9f54_c550_8704;

#[test]
fn scheduled_engine_run_matches_the_legacy_trainer_bitwise() {
    // The engine, driving the legacy batches under the same schedule.
    let ds = dataset();
    let model = model_for(&ds);
    let scheduled = trainer().train_with_schedule(&model, &ds, Arc::new(decay()));
    assert_eq!(loss_bits(&scheduled), LEGACY_LOSSES);
    assert_eq!(
        param_digest(&model),
        LEGACY_PARAM_DIGEST,
        "final parameters must be bit-identical"
    );

    // And the schedule demonstrably took effect: dropping it (the old,
    // buggy behavior — constant effective_lr forever) lands on a
    // different trajectory after the first milestone.
    let constant = trainer().train(&model_for(&ds), &ds);
    assert_ne!(
        loss_bits(&constant)[5],
        LEGACY_LOSSES[5],
        "a decayed rate must diverge from the constant-rate run"
    );
    // Before the first milestone the two runs coincide exactly — the
    // default constant schedule reproduces the legacy numerics.
    assert_eq!(loss_bits(&constant)[..2], LEGACY_LOSSES[..2]);
}

#[test]
fn resume_reenters_the_schedule_at_the_checkpoint_epoch() {
    // Interrupt at epoch 3 (past the first milestone, before the second):
    // the resumed run must re-apply lr_at(3) = 0.001, not restart at the
    // 0.01 base rate. Byte-identical final checkpoints prove it.
    let straight = run_ok(
        6,
        &EngineOptions {
            capture_checkpoint: true,
            ..scheduled_opts()
        },
    );
    let head = run_ok(
        3,
        &EngineOptions {
            capture_checkpoint: true,
            ..scheduled_opts()
        },
    );
    let resumed = run_ok(
        6,
        &EngineOptions {
            resume: Some(head.checkpoint.clone().expect("captured")),
            capture_checkpoint: true,
            ..scheduled_opts()
        },
    );
    assert_eq!(
        straight.checkpoint, resumed.checkpoint,
        "resume must continue the schedule, not restart it"
    );
    assert_eq!(resumed.epochs.len(), 3, "only the tail epochs re-run");
    for (r, s) in resumed.epochs.iter().zip(&straight.epochs[3..]) {
        assert_eq!(r.epoch, s.epoch);
        assert_eq!(r.train_loss.to_bits(), s.train_loss.to_bits());
    }
}

#[test]
fn zero_epoch_resume_reports_an_explicit_marker() {
    // Resuming a finished run used to return silently empty series. Now:
    // one explicit NaN marker epoch, and the re-captured checkpoint
    // round-trips byte-identically (nothing trained, nothing rewound).
    let done = run_ok(
        2,
        &EngineOptions {
            capture_checkpoint: true,
            ..Default::default()
        },
    );
    let bytes = done.checkpoint.clone().expect("captured");
    let replay = run_ok(
        2,
        &EngineOptions {
            resume: Some(bytes.clone()),
            capture_checkpoint: true,
            ..Default::default()
        },
    );
    assert_eq!(replay.epochs.len(), 1, "exactly one marker entry");
    let m = &replay.epochs[0];
    assert_eq!(m.epoch, 2, "marker carries the resume epoch");
    assert!(m.train_loss.is_nan() && m.val_mae.is_nan());
    assert_eq!(m.exposed_comm_secs, 0.0);
    assert_eq!((m.stale_steps_applied, m.fence_stalls), (0, 0));
    assert_eq!(replay.rank_val, vec![vec![(0.0, 0)]]);
    assert_eq!(
        replay.checkpoint,
        Some(bytes),
        "zero-epoch resume must not move or rewind the checkpoint"
    );
}

#[test]
fn corrupt_resume_bytes_surface_a_typed_error() {
    // Truncated checkpoint bytes must come back as Err, not a panic
    // inside a worker thread.
    let done = run_ok(
        1,
        &EngineOptions {
            capture_checkpoint: true,
            ..Default::default()
        },
    );
    let mut half = done.checkpoint.expect("captured");
    half.truncate(half.len() / 2);
    // A checkpoint whose model section is one entry "w" with extents that
    // overflow `usize`: [2⁶³+1, 2] over two floats (its unchecked product
    // wraps to the two present) and [2⁶²] over none (`numel · 4` wraps to
    // zero). Decoding must stop there — not hand `restore` a tensor whose
    // shape lies, and not reach an allocation sized by the wrapped count.
    let crafted = |dims: &[u64], floats: usize| {
        let mut dict = b"PGTCKPT1".to_vec();
        dict.extend_from_slice(&1u32.to_le_bytes());
        dict.extend_from_slice(&1u16.to_le_bytes());
        dict.push(b'w');
        dict.push(dims.len() as u8);
        dict.extend(dims.iter().flat_map(|d| d.to_le_bytes()));
        dict.resize(dict.len() + floats * 4, 0);
        let mut ck = b"PGTCKPT1".to_vec();
        ck.extend_from_slice(&1u64.to_le_bytes());
        for section in [&dict[..], &b"PGTCKPT1\0\0\0\0"[..]] {
            ck.extend_from_slice(&(section.len() as u64).to_le_bytes());
            ck.extend_from_slice(section);
        }
        ck
    };
    for bytes in [
        half,
        crafted(&[(1 << 63) + 1, 2], 2),
        crafted(&[1 << 62], 0),
    ] {
        let result = run_engine(
            2,
            &EngineOptions {
                resume: Some(bytes),
                ..Default::default()
            },
        );
        match result {
            Err(EngineError::Checkpoint(CheckpointError::Truncated)) => {}
            Err(other) => panic!("expected a truncation error, got {other}"),
            Ok(_) => panic!("corrupt bytes must not restore"),
        }
    }
}

#[test]
fn a_reshaped_adam_moment_is_rejected_typed_on_resume() {
    // Well-formed bytes whose first Adam moment has a leading unit axis
    // its parameter lacks: restore must refuse it, not hand it to the
    // first optimizer step.
    let done = run_ok(
        1,
        &EngineOptions {
            capture_checkpoint: true,
            ..Default::default()
        },
    );
    let mut ck = Checkpoint::from_bytes(&done.checkpoint.expect("captured")).unwrap();
    let m0 = ck.optimizer.get("adam.m.0").expect("one epoch ran").clone();
    let dims: Vec<usize> = std::iter::once(1)
        .chain(m0.dims().iter().copied())
        .collect();
    ck.optimizer
        .insert("adam.m.0", Tensor::from_vec(m0.to_vec(), dims).unwrap());
    match run_engine(
        2,
        &EngineOptions {
            resume: Some(ck.to_bytes()),
            ..Default::default()
        },
    ) {
        Err(EngineError::Checkpoint(CheckpointError::ShapeMismatch { name, .. })) => {
            assert_eq!(name, "adam.m.0")
        }
        Err(other) => panic!("expected a shape mismatch, got {other}"),
        Ok(_) => panic!("a reshaped moment must not restore"),
    }
}

#[test]
fn schedule_lr_at_is_what_the_engine_applies() {
    // Sanity on the schedule arithmetic the tests above lean on.
    let s = decay();
    assert_eq!(s.lr_at(0), 0.01);
    assert_eq!(s.lr_at(2), 0.001);
    assert!((s.lr_at(4) - 0.0001).abs() < 1e-9);
    // And the reference DCRNN milestones stay where the paper's
    // configuration puts them.
    let d = MultiStepLr::dcrnn(0.01);
    assert_eq!(d.lr_at(19), 0.01);
    assert_eq!(d.lr_at(20), 0.001);
}
