//! Quickstart: train a PGT-DCRNN traffic forecaster with index-batching.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a scaled PeMS-BAY-like synthetic dataset, builds the
//! index-batching dataset (one standardized copy + window indices), trains
//! for a few epochs, and prints per-epoch validation MAE alongside the
//! memory the standard pipeline would have needed.

use pgt_i::core::index_batching_bytes;
use pgt_i::core::workflow::{prepare_single_gpu, Batching};
use pgt_i::data::datasets::DatasetKind;
use pgt_i::data::preprocess::materialized_bytes;

fn main() {
    println!("PGT-I quickstart — index-batching on a PeMS-BAY-like workload\n");

    // 1. Prepare: synthetic sensor network + signal, index-batching dataset,
    //    and a single-layer diffusion-convolution GRU (PGT-DCRNN).
    let run = prepare_single_gpu(DatasetKind::PemsBay, 0.02, Batching::Index, 16, 42);
    println!(
        "dataset: {} nodes x {} entries (scaled PeMS-BAY), horizon {}",
        run.spec.nodes, run.spec.entries, run.spec.horizon
    );

    // 2. The memory argument, at this run's scale (float32):
    let eq1 = materialized_bytes(run.spec.entries, run.spec.horizon, run.spec.nodes, 2, 4);
    let eq2 = index_batching_bytes(run.spec.entries, run.spec.horizon, run.spec.nodes, 2, 4);
    println!(
        "standard preprocessing would materialize {:.1} MiB; index-batching holds {:.1} MiB ({:.1}% less)\n",
        eq1 as f64 / (1 << 20) as f64,
        eq2 as f64 / (1 << 20) as f64,
        100.0 * (1.0 - eq2 as f64 / eq1 as f64)
    );

    // 3. Train.
    let history = run.train(8, 16, 0.01);
    println!("epoch  train-loss  val-MAE (mph)");
    for e in &history.epochs {
        println!("{:>5}  {:>10.4}  {:>8.3}", e.epoch, e.train_loss, e.val_mae);
    }
    println!(
        "\nbest val MAE: {:.3} mph | test MAE: {:.3} mph | total {:.1}s",
        history.best_val_mae(),
        run.test_mae(),
        history.wall_secs
    );

    // 4. Horizon-wise error breakdown on a test batch: forecasts degrade
    //    with lead time, and the per-step report makes that visible (the
    //    15/30/60-minute rows of DCRNN-style evaluations).
    use pgt_i::autograd::Tape;
    use pgt_i::models::metrics::{report, MetricConfig};
    use pgt_i::models::Seq2Seq;
    let ids: Vec<usize> = run.source.splits().test.clone().take(64).collect();
    let (x, y) = run.source.get_batch(&ids);
    let target = y.narrow(3, 0, 1).expect("speed feature").contiguous();
    let tape = Tape::new();
    let pred = run.model.forward(&tape, &x);
    let scaler = run.source.scaler();
    let r = report(
        pred.value(),
        &target,
        &MetricConfig::standardized(scaler.mean, scaler.std),
    );
    println!("\nhorizon-wise test metrics (original units):\n{r}");
}
