//! `Trainer` goldens.
//!
//! Per-epoch train-loss / validation-MAE bits and an FNV-1a digest of the
//! final parameter bits, captured from the **stand-alone `Trainer` epoch
//! loop** (the one `Trainer` owned at commit `cf7dfb3`) before `Trainer`
//! became a facade over `pgt_index::engine`. The facade must reproduce
//! them bit-for-bit over both batch sources, and keep the two `NaN`
//! conventions: validation switched off, and an empty validation split.

mod common;

use common::param_digest;
use pgt_i::core::index_batching::IndexDataset;
use pgt_i::core::trainer::{BatchSource, MaterializedDataset, Trainer};
use pgt_i::core::DistConfig;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::preprocess::materialized_xy;
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::graph::diffusion_supports;
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};

const NAN: u32 = 0x7fc0_0000;

/// The `trainer.rs` unit-test fixture under `ratios`: both batch sources
/// over the same signal, and a freshly initialized model.
fn fixture(ratios: SplitRatios) -> (PgtDcrnn, IndexDataset, MaterializedDataset) {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
    let sig = synthetic::generate(&spec, 11);
    let ds = IndexDataset::from_signal(&sig, spec.horizon, ratios, None);
    let mat = MaterializedDataset::new(materialized_xy(&sig, spec.horizon, ratios));
    let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
    let cfg = ModelConfig {
        input_dim: ds.num_features(),
        output_dim: 1,
        hidden: 8,
        num_nodes: ds.num_nodes(),
        horizon: spec.horizon,
        diffusion_steps: 2,
        layers: 1,
    };
    (PgtDcrnn::new(cfg, &supports, 3), ds, mat)
}

fn assert_golden(
    name: &str,
    model: &PgtDcrnn,
    source: &dyn BatchSource,
    validate: bool,
    epochs: [(u32, u32); 4],
    digest: u64,
) {
    let trainer = Trainer {
        validate,
        ..Trainer::new(DistConfig::new(1, 4, 4))
    };
    let h = trainer.train(model, source);
    assert_eq!(h.epochs.len(), epochs.len(), "{name}: epoch count");
    for (e, (loss, val)) in h.epochs.iter().zip(epochs) {
        assert_eq!(
            e.train_loss.to_bits(),
            loss,
            "{name} epoch {}: train {}",
            e.epoch,
            e.train_loss
        );
        assert_eq!(
            e.val_mae.to_bits(),
            val,
            "{name} epoch {}: val {}",
            e.epoch,
            e.val_mae
        );
    }
    assert_eq!(param_digest(model), digest, "{name}: final parameters");
}

const INDEX_LOSSES: [u32; 4] = [0x3f25_df74, 0x3ee2_f0fe, 0x3ec7_9c1b, 0x3ee1_27e2];
const INDEX_DIGEST: u64 = 0x1d7b_817a_8043_32b7;

#[test]
fn index_source_reproduces_the_standalone_loop() {
    let (model, ds, _) = fixture(SplitRatios::default());
    let vals = [0x401e_ace2, 0x4009_899b, 0x3ff9_f911, 0x3ff2_1df5];
    let epochs = std::array::from_fn(|i| (INDEX_LOSSES[i], vals[i]));
    assert_golden("index", &model, &ds, true, epochs, INDEX_DIGEST);
}

#[test]
fn materialized_source_reproduces_the_standalone_loop() {
    let (model, _, mat) = fixture(SplitRatios::default());
    assert_golden(
        "materialized",
        &model,
        &mat,
        true,
        [
            (0x3f21_8926, 0x401e_7f0b),
            (0x3edc_ce8f, 0x4009_8553),
            (0x3ec2_3bb9, 0x3ffa_7cd3),
            (0x3edb_3493, 0x3ff2_a6bf),
        ],
        0x43e4_c202_6d32_d4a0,
    );
}

#[test]
fn validation_off_reports_nan_and_trains_the_same_model() {
    let (model, ds, _) = fixture(SplitRatios::default());
    let epochs = INDEX_LOSSES.map(|loss| (loss, NAN));
    assert_golden("validate-off", &model, &ds, false, epochs, INDEX_DIGEST);
}

#[test]
fn empty_validation_split_reports_nan_not_zero() {
    let ratios = SplitRatios {
        train: 0.8,
        val: 0.0,
        test: 0.2,
    };
    let (model, ds, _) = fixture(ratios);
    assert!(ds.splits().val.is_empty());
    assert_golden(
        "empty-val",
        &model,
        &ds,
        true,
        [
            (0x3f25_2bee, NAN),
            (0x3eec_388d, NAN),
            (0x3ed1_7f14, NAN),
            (0x3ec7_36b9, NAN),
        ],
        0x1ef3_ffd7_2f63_7da1,
    );
}
