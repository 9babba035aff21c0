//! Single-GPU learning experiments: base vs index-batching, trained for
//! real on scaled synthetic data. Accuracy and wall seconds are `measured`;
//! the memory columns are the paper-scale analytic eq. (1)/eq. (2) values.

use pgt_index::trainer::{BatchSource, MaterializedDataset, Trainer};
use pgt_index::workflow::{prepare_single_gpu, Batching};
use pgt_index::{DistConfig, EngineReport, IndexDataset};
use st_autograd::loss::mse_metric;
use st_autograd::Tape;
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::preprocess::materialized_xy;
use st_data::splits::SplitRatios;
use st_graph::sym_norm_adjacency;
use st_models::{A3tGcn, ModelConfig, Seq2Seq, Support};
use st_report::record::{analytic, measured, RecordSet};
use st_report::series::{ascii_plot, render_columns, Series};
use st_report::table::{fmt_bytes, Table};

use crate::{footprints, Ctx, SEED};

/// Note on every single-shot wall-seconds row.
const WALL_NOTE: &str =
    "one run's wall seconds at scaled size, shown not judged; bench/ measures the wall clock";

/// The three Table-3 / Fig-5 datasets.
const DATASETS: [DatasetKind; 3] = [
    DatasetKind::ChickenpoxHungary,
    DatasetKind::WindmillLarge,
    DatasetKind::PemsBay,
];

/// Paper-scale steady memory: base holds raw + materialized x/y; index
/// holds the single copy + indices.
fn steady_memory(spec: &DatasetSpec) -> (u64, u64) {
    let (materialized, index) = footprints(spec);
    (spec.raw_bytes(8) + materialized, index)
}

/// One seeded single-GPU PGT-DCRNN training at the mode's scale.
fn train(ctx: &Ctx, kind: DatasetKind, batching: Batching, seed: u64) -> EngineReport {
    let run = prepare_single_gpu(kind, ctx.scale.measure_scale, batching, 16, seed);
    let batch = run.spec.batch_size.min(16);
    run.train(ctx.scale.measure_epochs, batch, 0.01)
}

/// Mean (wall seconds, best val MAE) over the run's seeds.
fn table3_run(ctx: &Ctx, kind: DatasetKind, batching: Batching) -> (f64, f32) {
    let seeds = ctx.scale.seeds;
    let (mut runtime, mut mae) = (0.0, 0.0f32);
    for &seed in seeds {
        let h = train(ctx, kind, batching, seed);
        runtime += h.wall_secs;
        mae += h.best_val_mae();
    }
    (runtime / seeds.len() as f64, mae / seeds.len() as f32)
}

/// **Table 3**: base PGT-DCRNN vs index-batching on Chickenpox-Hungary,
/// Windmill-Large and PeMS-BAY — runtime, MAE, and max memory, averaged
/// over several seeds like the paper's 10 runs.
pub fn table3(ctx: &Ctx) -> RecordSet {
    let mut table = Table::new(
        "Table 3 — base vs index-batching (measured at scale; memory at paper scale)",
        &[
            "Config",
            "Runtime (s, measured)",
            "Val MAE (measured)",
            "Max memory (paper scale)",
        ],
    );
    let mut records = RecordSet::new("Table 3");
    // Paper's memory-reduction claims per dataset.
    for (kind, paper_red) in DATASETS.into_iter().zip(["minimal", "46.88%", "70.31%"]) {
        let spec = DatasetSpec::get(kind);
        let (base_runtime, base_mae) = table3_run(ctx, kind, Batching::Standard);
        let (index_runtime, index_mae) = table3_run(ctx, kind, Batching::Index);
        let (base_mem, index_mem) = steady_memory(&spec);
        table.row(&[
            format!("Base-{}", spec.name),
            format!("{base_runtime:.2}"),
            format!("{base_mae:.4}"),
            fmt_bytes(base_mem),
        ]);
        table.row(&[
            format!("Index-{}", spec.name),
            format!("{index_runtime:.2}"),
            format!("{index_mae:.4}"),
            fmt_bytes(index_mem),
        ]);

        let dt = (index_runtime - base_runtime).abs() / base_runtime;
        records.push(
            &format!("{} runtime overhead of index-batching", spec.name),
            "<1% absolute difference",
            format!("{:.1}% relative", dt * 100.0),
            measured(dt < 0.15),
            WALL_NOTE,
        );
        let dm = (index_mae - base_mae).abs() / base_mae.max(1e-6);
        records.push(
            &format!("{} MAE parity", spec.name),
            "negligible difference",
            format!("{:.1}% relative", dm * 100.0),
            measured(dm < 0.15),
            "same snapshots, different standardization fit",
        );
        let red = 1.0 - index_mem as f64 / base_mem as f64;
        records.push(
            &format!("{} memory reduction", spec.name),
            paper_red,
            format!("{:.1}%", red * 100.0),
            analytic(red > 0.4 || kind == DatasetKind::ChickenpoxHungary),
            "paper reports process RSS deltas; ours is the analytic data footprint",
        );
    }
    println!("{}", table.to_text());
    records
}

fn fig5_curve(ctx: &Ctx, kind: DatasetKind, batching: Batching) -> Series {
    let h = train(ctx, kind, batching, SEED);
    let label = match batching {
        Batching::Standard => "Baseline",
        Batching::Index => "Index",
    };
    Series::new(
        label,
        h.epochs
            .iter()
            .map(|e| (e.epoch as f64, e.val_mae as f64))
            .collect(),
    )
}

/// **Figure 5**: per-epoch validation-MAE curves for baseline batching vs
/// index-batching on the three Table-3 datasets. The claim: the two curves
/// track each other (identical snapshots ⇒ equivalent convergence).
pub fn fig5(ctx: &Ctx) -> RecordSet {
    let mut records = RecordSet::new("Fig 5");
    for kind in DATASETS {
        let name = DatasetSpec::get(kind).name;
        let curves = [
            fig5_curve(ctx, kind, Batching::Standard),
            fig5_curve(ctx, kind, Batching::Index),
        ];
        println!(
            "{}",
            render_columns(&format!("Fig 5 — {name} validation MAE"), "epoch", &curves)
        );
        println!("{}", ascii_plot(&curves, 10));
        let (b, i) = (
            curves[0].last_y().unwrap_or(f64::NAN),
            curves[1].last_y().unwrap_or(f64::NAN),
        );
        let rel = (b - i).abs() / b.abs().max(1e-9);
        records.push(
            &format!("{name} final val MAE: baseline vs index"),
            "curves coincide",
            format!("{b:.4} vs {i:.4} ({:.1}% apart)", rel * 100.0),
            measured(rel < 0.15),
            "measured at scaled size, single seed like the paper's figure",
        );
    }
    records
}

/// Train, then (wall seconds, test MSE in standardized units — as
/// A3T-GCN's example reports).
fn table6_run(source: &dyn BatchSource, model: &A3tGcn, trainer: &Trainer) -> (f64, f32) {
    let h = trainer.train(model, source);
    let ids: Vec<usize> = source.splits().test.clone().collect();
    let mut mse_sum = 0.0f64;
    let mut n = 0usize;
    for chunk in ids.chunks(trainer.cfg.batch_per_worker) {
        let (x, y) = source.get_batch(chunk);
        let target = y.narrow(3, 0, 1).unwrap().contiguous();
        let tape = Tape::new();
        let pred = model.forward(&tape, &x);
        mse_sum += mse_metric(pred.value(), &target) as f64 * target.numel() as f64;
        n += target.numel();
    }
    (h.wall_secs, (mse_sum / n.max(1) as f64) as f32)
}

/// **Table 6**: single-GPU A3T-GCN on METR-LA, base vs index-batching —
/// runtime, CPU memory, test MSE (§5.5 "broader applicability"). The memory
/// column is the paper-scale analytic footprint (the paper reports a 49.20%
/// reduction).
pub fn table6(ctx: &Ctx) -> RecordSet {
    let metr = ctx.scaled(DatasetKind::MetrLa, ctx.scale.measure_scale);
    let (spec, sig) = (&metr.spec, &metr.sig);
    let a_hat = Support::new(sym_norm_adjacency(&sig.adjacency));
    let mk_model = || {
        A3tGcn::new(
            ModelConfig {
                input_dim: 2,
                output_dim: 1,
                hidden: 16,
                num_nodes: spec.nodes,
                horizon: spec.horizon,
                diffusion_steps: 1,
                layers: 1,
            },
            a_hat.clone(),
            SEED,
        )
    };
    let mut cfg = DistConfig::new(1, ctx.scale.measure_epochs.min(8), spec.horizon);
    cfg.batch_per_worker = 16;
    cfg.seed = SEED;
    let trainer = Trainer {
        validate: false,
        ..Trainer::new(cfg)
    };

    let aug = sig.with_time_feature(spec.period);
    let base_src =
        MaterializedDataset::new(materialized_xy(&aug, spec.horizon, SplitRatios::default()));
    let (base_runtime, base_mse) = table6_run(&base_src, &mk_model(), &trainer);
    let index_src =
        IndexDataset::from_signal(sig, spec.horizon, SplitRatios::default(), Some(spec.period));
    let (index_runtime, index_mse) = table6_run(&index_src, &mk_model(), &trainer);

    // Paper-scale memory: full METR-LA footprints.
    let (base_mem, index_mem) = steady_memory(&DatasetSpec::get(DatasetKind::MetrLa));

    let mut table = Table::new(
        "Table 6 — A3T-GCN on METR-LA (measured at scale; memory at paper scale)",
        &["Implementation", "Runtime (s)", "CPU memory", "Test MSE"],
    );
    table.row(&[
        "Baseline".into(),
        format!("{base_runtime:.2}"),
        fmt_bytes(base_mem),
        format!("{base_mse:.4}"),
    ]);
    table.row(&[
        "Index-batching".into(),
        format!("{index_runtime:.2}"),
        fmt_bytes(index_mem),
        format!("{index_mse:.4}"),
    ]);
    println!("{}", table.to_text());

    let mut records = RecordSet::new("Table 6");
    let dmse = (base_mse - index_mse).abs() / base_mse.max(1e-6);
    records.push(
        "A3T-GCN test MSE parity",
        "0.5436 vs 0.5427 (0.2% apart)",
        format!(
            "{base_mse:.4} vs {index_mse:.4} ({:.1}% apart)",
            dmse * 100.0
        ),
        measured(dmse < 0.15),
        "measured at scaled size",
    );
    let dt = (index_runtime - base_runtime).abs() / base_runtime;
    records.push(
        "A3T-GCN runtime parity",
        "1041.95 vs 1050.80 s (0.8% apart)",
        format!("{:.1}% apart", dt * 100.0),
        measured(dt < 0.2),
        WALL_NOTE,
    );
    let red = 1.0 - index_mem as f64 / base_mem as f64;
    records.push(
        "A3T-GCN memory reduction",
        "49.20%",
        format!("{:.1}%", red * 100.0),
        analytic(red > 0.4),
        "analytic footprint at full METR-LA shape",
    );
    records
}
