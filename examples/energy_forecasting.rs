//! Wind-farm energy forecasting (Windmill-Large-like) with GPU-index-
//! batching — the paper's energy-modeling use case (§1) plus the §4.1
//! device-resident workflow: one consolidated transfer, zero per-batch
//! copies.
//!
//! ```text
//! cargo run --release --example energy_forecasting
//! ```

use pgt_i::core::gpu_index::{GpuIndexDataset, Residency};
use pgt_i::core::trainer::Trainer;
use pgt_i::core::{DistConfig, IndexDataset};
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::device::memory::MemPool;
use pgt_i::device::CostModel;
use pgt_i::graph::diffusion_supports;
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};

fn main() {
    let spec = DatasetSpec::get(DatasetKind::WindmillLarge).scaled(0.05);
    let sig = synthetic::generate(&spec, 11);
    println!(
        "wind farm: {} turbines, {} hourly readings, horizon {}h\n",
        spec.nodes, spec.entries, spec.horizon
    );

    let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);

    // Place the whole standardized dataset on a simulated 40 GB device.
    let mut device = MemPool::new("gpu0", 40 << 30);
    let placed =
        GpuIndexDataset::place(ds, Residency::Device, &mut device, CostModel::polaris(), 4)
            .expect("scaled windmill fits easily on-device");
    println!(
        "consolidated transfer: {} host->device copies, {:.2} MiB, device pool at {:.2} MiB",
        placed.h2d_count(),
        placed.h2d_bytes() as f64 / (1 << 20) as f64,
        device.in_use() as f64 / (1 << 20) as f64,
    );

    let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
    let model = PgtDcrnn::new(
        ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 16,
            num_nodes: spec.nodes,
            horizon: spec.horizon,
            diffusion_steps: 2,
            layers: 1,
        },
        &supports,
        11,
    );
    let mut cfg = DistConfig::new(1, 8, spec.horizon);
    cfg.batch_per_worker = 16;
    cfg.seed = 11;
    let history = Trainer::new(cfg).train(&model, &placed);
    println!("\nepoch  train-loss  val-MAE (normalized power)");
    for e in &history.epochs {
        println!("{:>5}  {:>10.4}  {:>8.4}", e.epoch, e.train_loss, e.val_mae);
    }
    println!(
        "\nafter training: still {} host->device transfer(s) — batches were sliced on-device",
        placed.h2d_count()
    );
}
