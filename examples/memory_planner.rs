//! Memory planner: will your spatiotemporal dataset fit?
//!
//! ```text
//! cargo run --release --example memory_planner -- <entries> <nodes> <features> <horizon>
//! cargo run --release --example memory_planner          # all six benchmarks
//! ```
//!
//! For a dataset shape, prints the eq.-(1) standard-preprocessing footprint,
//! the eq.-(2) index-batching footprint, and the verdicts of the three
//! pipeline replays (standard, index-batching, GPU-index-batching) on a
//! 512 GB host and a 40 GB GPU — the planning question the paper answers
//! for PeMS. `features` counts the columns after the time-of-day
//! augmentation; the raw file is taken to be as wide.

use pgt_i::core::memory_model::{
    gpu_index_replay, growth_stages, index_batching_bytes, index_replay, standard_replay,
    LoaderVariant, Replay,
};
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::preprocess::materialized_bytes;
use pgt_i::report::table::{fmt_bytes, Table};

const HOST: u64 = 512 << 30;
const GPU: u64 = 40 << 30;
const USAGE: &str = "usage: memory_planner [<entries> <nodes> <features> <horizon>]
  four positive integers, entries >= 2 * horizon (at least one window),
  and a shape whose byte counts fit in 64 bits";

/// "fits" with the pool's peak share, or where the replay ran out.
fn verdict(replay: &Replay, peak: u64, capacity: u64) -> String {
    match replay.oom() {
        None => format!("fits ({:.1}%)", 100.0 * peak as f64 / capacity as f64),
        Some((_, e)) => format!(
            "OOM on {} ({:.2}x over)",
            e.pool,
            (e.in_use as f64 + e.requested as f64) / e.capacity as f64
        ),
    }
}

fn plan(spec: &DatasetSpec) -> Vec<String> {
    let (e, h, n, f) = (spec.entries, spec.horizon, spec.nodes, spec.aug_features);
    let eq1 = materialized_bytes(e, h, n, f, 8);
    let eq2 = index_batching_bytes(e, h, n, f, 8);
    let standard = Replay::run(HOST, GPU, |r| {
        standard_replay(r, spec, LoaderVariant::Pgt, 8)
    });
    let index = Replay::run(HOST, GPU, |r| index_replay(r, spec, 8));
    let gpu_index = Replay::run(HOST, GPU, |r| gpu_index_replay(r, spec, 8));
    vec![
        spec.name.to_string(),
        fmt_bytes(eq1),
        fmt_bytes(eq2),
        format!("{:.1}%", 100.0 * (1.0 - eq2 as f64 / eq1 as f64)),
        verdict(&standard, standard.peak_host(), HOST),
        verdict(&index, index.peak_host(), HOST),
        verdict(&gpu_index, gpu_index.peak_device(), GPU),
    ]
}

/// The shape given on the command line, or `None` when it is not four
/// positive integers with at least one window whose eq.-(1) size fits a
/// `u64`.
fn custom(args: &[String]) -> Option<DatasetSpec> {
    let dims: Vec<usize> = args
        .iter()
        .map(|a| a.parse().ok().filter(|&v| v > 0))
        .collect::<Option<_>>()?;
    let &[entries, nodes, features, horizon] = dims.as_slice() else {
        return None;
    };
    let eq1_fits = [entries, nodes, features, horizon, 16]
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .is_some();
    (eq1_fits && entries >= 2 * horizon).then(|| DatasetSpec {
        name: "custom",
        entries,
        nodes,
        raw_features: features,
        aug_features: features,
        horizon,
        ..DatasetSpec::get(DatasetKind::Pems)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs = if args.is_empty() {
        DatasetSpec::all()
    } else {
        match custom(&args) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    };
    let mut table = Table::new(
        "Memory plan (float64; host 512 GB, GPU 40 GB)",
        &[
            "Dataset",
            "Standard (eq.1)",
            "Index (eq.2)",
            "Saved",
            "Standard fits host?",
            "Index fits host?",
            "GPU-index fits device?",
        ],
    );
    for spec in &specs {
        table.row(&plan(spec));
    }
    println!("{}", table.to_text());

    // Detail the growth stages for the headline dataset.
    let g = growth_stages(&DatasetSpec::get(DatasetKind::Pems), 8);
    println!(
        "PeMS growth stages: raw {} -> +time {} -> SWA x {} -> x+y {}",
        fmt_bytes(g.raw),
        fmt_bytes(g.stage1),
        fmt_bytes(g.stage2),
        fmt_bytes(g.stage3)
    );
}
