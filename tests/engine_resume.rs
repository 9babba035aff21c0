//! Checkpoint resume through the engine, and the `Trainer`'s constant
//! rate.
//!
//! A run interrupted at an epoch boundary and resumed from its checkpoint
//! must finish byte-identical to the straight run; degenerate resumes
//! (at/past the horizon, corrupt bytes, reshaped moments) surface
//! explicitly instead of panicking or returning silently empty series.
//! `Trainer::train` still reproduces the first epochs recorded from the
//! stand-alone trainer loop it replaced.

use pgt_i::autograd::checkpoint::{Checkpoint, CheckpointError};
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

fn engine_cfg(epochs: usize) -> DistConfig {
    let mut cfg = DistConfig::new(1, epochs, 4);
    cfg.batch_per_worker = BATCH;
    cfg.lr = LR;
    cfg.seed = SEED;
    cfg.grad_bucket_bytes = None;
    cfg
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

fn loss_bits(h: &engine::EngineReport) -> Vec<u32> {
    h.epochs.iter().map(|e| e.train_loss.to_bits()).collect()
}

/// The first two epochs' train-loss bits recorded from the legacy path
/// at commit `cf7dfb3`: the stand-alone `Trainer` epoch loop driving a
/// caller-owned Adam at the 0.01 base rate (its decay began at epoch 2).
const LEGACY_LOSSES: [u32; 2] = [0x3f4d_067a, 0x3f2a_015b];

#[test]
fn trainer_reproduces_the_legacy_constant_rate_losses() {
    let ds = dataset();
    let trainer = Trainer {
        validate: false,
        ..Trainer::new(engine_cfg(LEGACY_LOSSES.len()))
    };
    let report = trainer.train(&model_for(&ds), &ds);
    assert_eq!(loss_bits(&report), LEGACY_LOSSES);
}

#[test]
fn resume_continues_a_constant_rate_run_byte_identically() {
    // Interrupt at epoch 3 of 6 and resume from the captured checkpoint:
    // the model, Adam's `t`/`m`/`v` and the epoch-keyed shuffle carry
    // over, so the final checkpoints are byte-identical.
    let capture = EngineOptions {
        capture_checkpoint: true,
        ..Default::default()
    };
    let straight = run_ok(6, &capture);
    let head = run_ok(3, &capture);
    let resumed = run_ok(
        6,
        &EngineOptions {
            resume: Some(head.checkpoint.clone().expect("captured")),
            capture_checkpoint: true,
        },
    );
    assert_eq!(
        straight.checkpoint, resumed.checkpoint,
        "resume must continue the run, not restart it"
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
        },
    );
    assert_eq!(replay.epochs.len(), 1, "exactly one marker entry");
    let m = &replay.epochs[0];
    assert_eq!(m.epoch, 2, "marker carries the resume epoch");
    assert!(m.train_loss.is_nan() && m.val_mae.is_nan());
    assert_eq!(m.exposed_comm_secs, 0.0);
    assert_eq!(m.fence_stalls, 0);
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
