//! Epidemic forecasting with A3T-GCN — the paper's intro use case of
//! infectious-disease prediction (§1), on a Chickenpox-Hungary-like
//! synthetic SIR workload.
//!
//! ```text
//! cargo run --release --example epidemic_forecasting
//! ```
//!
//! Shows the attention-based model (A3T-GCN, §5.5) working through the same
//! index-batching API as the DCRNN family — the "any sequence-to-sequence
//! model" claim.

use pgt_i::core::trainer::Trainer;
use pgt_i::core::{DistConfig, IndexDataset};
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::graph::sym_norm_adjacency;
use pgt_i::models::{A3tGcn, ModelConfig, Support};

fn main() {
    // A county network with weekly case counts from the SIR generator.
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.6);
    let sig = synthetic::generate(&spec, 7);
    println!(
        "epidemic network: {} counties, {} weeks of case counts, horizon {} weeks\n",
        spec.nodes, spec.entries, spec.horizon
    );

    let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
    let model = A3tGcn::new(
        ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 16,
            num_nodes: spec.nodes,
            horizon: spec.horizon,
            diffusion_steps: 1,
            layers: 1,
        },
        Support::new(sym_norm_adjacency(&sig.adjacency)),
        7,
    );

    let mut cfg = DistConfig::new(1, 15, spec.horizon);
    cfg.batch_per_worker = spec.batch_size;
    cfg.seed = 7;
    let trainer = Trainer::new(cfg);
    let history = trainer.train(&model, &ds);
    println!("epoch  train-loss  val-MAE (weekly cases)");
    for e in &history.epochs {
        println!("{:>5}  {:>10.4}  {:>8.3}", e.epoch, e.train_loss, e.val_mae);
    }
    let test = trainer.evaluate(&model, &ds, ds.splits().test.clone());
    println!(
        "\nbest val MAE {:.3} cases/week | held-out test MAE {:.3} cases/week",
        history.best_val_mae(),
        test
    );
}
