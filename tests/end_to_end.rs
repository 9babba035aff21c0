//! Cross-crate integration tests: the complete single-GPU workflow from
//! synthetic signal to trained model, exercised through the public API.

use pgt_i::core::workflow::{prepare_single_gpu, Batching};
use pgt_i::core::IndexDataset;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::preprocess::materialized_xy;
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;

#[test]
fn full_workflow_trains_and_converges() {
    let run = prepare_single_gpu(DatasetKind::ChickenpoxHungary, 0.3, Batching::Index, 12, 9);
    let history = run.train(6, 8, 0.01);
    let first = history.epochs.first().unwrap().train_loss;
    let last = history.epochs.last().unwrap().train_loss;
    assert!(
        last < first,
        "loss must decrease across the workflow: {first} -> {last}"
    );
    assert!(run.test_mae().is_finite());
}

#[test]
fn index_and_standard_batching_agree_end_to_end() {
    // The paper's core equivalence claim through the whole public API:
    // same data, same model seed, both pipelines learn comparably.
    let index = prepare_single_gpu(DatasetKind::WindmillLarge, 0.01, Batching::Index, 12, 5)
        .train(5, 16, 0.01);
    let standard = prepare_single_gpu(DatasetKind::WindmillLarge, 0.01, Batching::Standard, 12, 5)
        .train(5, 16, 0.01);
    let (i, s) = (index.best_val_mae(), standard.best_val_mae());
    assert!(
        (i - s).abs() < 0.3 * i.max(s).max(1e-6),
        "val MAE diverged: index {i} vs standard {s}"
    );
}

#[test]
fn every_domain_generator_feeds_the_workflow() {
    for kind in [
        DatasetKind::ChickenpoxHungary, // epidemiological
        DatasetKind::WindmillLarge,     // energy
        DatasetKind::MetrLa,            // traffic
    ] {
        let run = prepare_single_gpu(kind, 0.02, Batching::Index, 8, 3);
        let h = run.train(2, 8, 0.01);
        assert!(
            h.final_train_loss().is_finite(),
            "{kind:?} failed to produce a finite loss"
        );
    }
}

#[test]
fn snapshot_equivalence_across_public_pipelines() {
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(0.01);
    let sig = synthetic::generate(&spec, 17);
    let aug = sig.with_time_feature(spec.period);
    let materialized = materialized_xy(&aug, spec.horizon, SplitRatios::default());
    let index = IndexDataset::from_signal(
        &sig,
        spec.horizon,
        SplitRatios::default(),
        Some(spec.period),
    );
    assert_eq!(index.num_snapshots(), materialized.x.dim(0));
    // Spot-check a handful of snapshots in raw units.
    for i in (0..index.num_snapshots()).step_by(index.num_snapshots() / 7 + 1) {
        let (x, _) = index.snapshot(i);
        let xi = index.scaler().inverse(&x);
        let xm = materialized
            .scaler
            .inverse(&materialized.x.select(0, i).unwrap());
        assert!(
            xi.allclose(&xm, 1e-3),
            "snapshot {i} differs between pipelines"
        );
    }
}

#[test]
fn signal_io_roundtrip_through_workflow() {
    let spec = DatasetSpec::get(DatasetKind::MetrLa).scaled(0.01);
    let sig = synthetic::generate(&spec, 23);
    let bytes = pgt_i::data::io::to_bytes(&sig);
    let restored = pgt_i::data::io::from_bytes(&bytes).expect("roundtrip");
    let ds_a = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
    let ds_b = IndexDataset::from_signal(&restored, spec.horizon, SplitRatios::default(), None);
    let (xa, ya) = ds_a.batch(&[0, 5]);
    let (xb, yb) = ds_b.batch(&[0, 5]);
    assert_eq!(xa.to_vec(), xb.to_vec());
    assert_eq!(ya.to_vec(), yb.to_vec());
}
