//! Dynamic-graph training example (paper §7 future work).
//!
//! Trains a PGT-DCRNN on a corridor whose edge weights evolve over time
//! (lane-closing incidents that slowly recover), using index-batching on
//! both halves of every snapshot: features are zero-copy windows into one
//! standardized array, and each time entry's diffusion supports are
//! computed once and shared by every overlapping window.
//!
//! Run with: `cargo run --release --example dynamic_graph`

use pgt_index::dist_index::DistConfig;
use pgt_index::dynamic_index::{train_dynamic, DynamicIndexDataset};
use st_data::dynamic::synthetic_dynamic_traffic;
use st_data::splits::SplitRatios;

fn main() {
    let signal = synthetic_dynamic_traffic(10, 160, 42);
    println!(
        "dynamic corridor: {} sensors, {} entries, topology evolves per step",
        signal.num_nodes(),
        signal.entries()
    );

    let horizon = 4;
    let ds = DynamicIndexDataset::from_signal(&signal, horizon, SplitRatios::default(), 2);
    println!(
        "index layout: {} B resident vs {} B if windows were materialized ({:.1}x saving)\n",
        ds.resident_bytes(),
        ds.materialized_bytes(),
        ds.materialized_bytes() as f64 / ds.resident_bytes() as f64
    );

    let (_model, report) = train_dynamic(&signal, 12, &DistConfig::new(1, 5, horizon));
    for s in &report.epochs {
        println!(
            "epoch {:>2}: train loss {:.4} | val MAE {:.4}",
            s.epoch, s.train_loss, s.val_mae
        );
    }
    println!(
        "\nGate weights are shared across time; only the diffusion operators \
         change per step — the §7 'dynamic graphs with temporal signal' \
         extension running on index-batching."
    );
}
