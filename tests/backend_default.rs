//! `ST_BACKEND` (the process-wide backend) survives engine and trainer
//! runs that do not ask for a backend themselves.
//!
//! `DistConfig::new` and `ServeConfig::new` used to hard-code
//! `BackendKind::Tiled`, and every engine rank / serve shard applies its
//! config's backend process-wide — so `ST_BACKEND=reference` was silently
//! overridden by the first run. This binary holds one test because the
//! backend selection is process-global state.

use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::index_batching::IndexDataset;
use pgt_i::core::trainer::{Trainer, TrainerConfig};
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::serve::ServeConfig;
use pgt_i::tensor::backend::{active_backend, set_backend, BackendKind};

#[test]
fn default_configs_follow_and_preserve_the_process_wide_backend() {
    // What `ST_BACKEND=reference` resolves to on first use.
    set_backend(BackendKind::Reference);

    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
    let sig = synthetic::generate(&spec, 5);
    // Hidden 32 puts every gate GEMM above the tiled backend's
    // small-product fallback, so the two runs below really take different
    // kernels.
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 32, 42);
    let cfg = DistConfig::new(2, 1, spec.horizon);
    assert_eq!(cfg.backend, BackendKind::Reference);
    assert_eq!(ServeConfig::new(2, 16).backend, BackendKind::Reference);

    let r = run_distributed_index(&sig, &cfg, &factory);
    assert!(r.epochs[0].train_loss.is_finite());
    assert_eq!(
        active_backend(),
        BackendKind::Reference,
        "an engine run with a default config must not flip the backend"
    );

    // The Trainer facade builds its own default `DistConfig`.
    let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
    let model = factory(&ds);
    let trainer = Trainer::new(TrainerConfig {
        epochs: 1,
        ..Default::default()
    });
    trainer.train(model.as_ref(), &ds);
    assert_eq!(active_backend(), BackendKind::Reference);

    // An explicit per-run choice still applies.
    let mut tiled = cfg.clone();
    tiled.backend = BackendKind::Tiled;
    let t = run_distributed_index(&sig, &tiled, &factory);
    assert_eq!(active_backend(), BackendKind::Tiled);

    // The backends differ in speed only: same learning, bit for bit.
    assert_eq!(r.epochs.len(), t.epochs.len());
    for (a, b) in r.epochs.iter().zip(&t.epochs) {
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        assert_eq!(a.val_mae.to_bits(), b.val_mae.to_bits());
    }
}
