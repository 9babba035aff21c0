//! Memory experiments: byte arithmetic on the Table-1 shapes and the
//! virtual replays of the reference pipelines against the Polaris pools.

use pgt_index::gpu_index::{GpuIndexDataset, Residency};
use pgt_index::memory_model::growth_stages;
use pgt_index::projection::{project_table2, project_table4, ProjectionParams};
use pgt_index::trainer::BatchSource;
use pgt_index::IndexDataset;
use st_autograd::Tape;
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::preprocess::materialized_xy;
use st_data::replay::LoaderVariant;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_device::memory::MemPool;
use st_device::{CostModel, SimClock, GIB};
use st_graph::{diffusion_supports, Adjacency};
use st_models::{Dcrnn, ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_report::record::{analytic, measured, modeled, RecordSet};
use st_report::series::{render_columns, Series};
use st_report::table::{fmt_bytes, Table};
use st_tensor::Tensor;

use crate::{footprints, gib, minutes, Ctx, SEED};

/// **Table 1**: dataset sizes before and after preprocessing (float64),
/// computed analytically from the registered Table-1 shapes via the paper's
/// eq. (1). Also prints the eq.-(2) index-batching footprint as the extra
/// column this library adds.
pub fn table1(_: &Ctx) -> RecordSet {
    let mut table = Table::new(
        "Table 1 — dataset sizes (float64)",
        &[
            "Dataset",
            "Type",
            "Nodes",
            "Entries",
            "Before",
            "After (eq. 1)",
            "Index-batching (eq. 2)",
        ],
    );
    let mut records = RecordSet::new("Table 1");
    // Paper's printed "after" sizes for the shape check.
    let paper_after = [
        ("Chickenpox-Hungary", 657.92e3),
        ("Windmill-Large", 712.80e6),
        ("METR-LA", 2.54 * (1u64 << 30) as f64),
        ("PeMS-BAY", 6.05 * (1u64 << 30) as f64),
        ("PeMS-All-LA", 102.08 * (1u64 << 30) as f64),
        ("PeMS", 419.46 * (1u64 << 30) as f64),
    ];
    for (spec, (name, paper)) in DatasetSpec::all().iter().zip(paper_after) {
        let before = spec.raw_bytes(8);
        let (after, index) = footprints(spec);
        table.row(&[
            spec.name.to_string(),
            format!("{:?}", spec.domain),
            spec.nodes.to_string(),
            spec.entries.to_string(),
            fmt_bytes(before),
            fmt_bytes(after),
            fmt_bytes(index),
        ]);
        let rel = (after as f64 - paper).abs() / paper;
        records.push(
            &format!("{name} size after preprocessing"),
            fmt_bytes(paper as u64),
            fmt_bytes(after),
            analytic(rel < 0.02),
            "eq. (1) from registered shapes; paper mixes KB/MB/GB unit bases",
        );
    }
    println!("{}", table.to_text());
    let (after, index) = footprints(&DatasetSpec::get(DatasetKind::Pems));
    println!(
        "PeMS reduction from index-batching: {:.1}% ({} -> {})",
        100.0 * (1.0 - index as f64 / after as f64),
        fmt_bytes(after),
        fmt_bytes(index),
    );
    records
}

/// **Figures 1 & 4**: sliding-window snapshot semantics and runtime
/// reconstruction from indices. Uses the figures' own example (horizon 3
/// over graph states G0..G5) and then verifies, on a scaled dataset, that
/// every index-batching snapshot equals its Algorithm-1 materialized
/// counterpart — the zero-copy property included.
pub fn fig1(ctx: &Ctx) -> RecordSet {
    // --- The figures' toy example: 6 entries, 1 node, horizon 3. ---
    let adj = Adjacency::from_dense(1, vec![1.0]);
    let data = Tensor::arange(6).reshape([6, 1, 1]).unwrap(); // G0..G5
    let sig = StaticGraphTemporalSignal::new(data, adj);
    let ds = IndexDataset::from_signal(&sig, 3, SplitRatios::default(), None);

    println!("Fig 1/4 — runtime snapshot reconstruction (horizon = 3)");
    println!("data: G0 G1 G2 G3 G4 G5\n");
    for i in 0..ds.num_snapshots() {
        let (x, y) = ds.snapshot(i);
        let show = |t: &Tensor| -> String {
            ds.scaler()
                .inverse(t)
                .to_vec()
                .iter()
                .map(|v| format!("G{}", v.round() as i64))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "snapshot {i}: feature = [{}]  label = [{}]  (views of one copy: {})",
            show(&x),
            show(&y),
            x.shares_storage(ds.data()) && y.shares_storage(ds.data()),
        );
    }

    // --- Full equivalence check on a scaled traffic dataset. ---
    let metr = ctx.scaled(DatasetKind::MetrLa, ctx.scale.measure_scale);
    let (spec, gen) = (&metr.spec, &metr.sig);
    let aug = gen.with_time_feature(spec.period);
    let std_out = materialized_xy(&aug, spec.horizon, SplitRatios::default());
    let index =
        IndexDataset::from_signal(gen, spec.horizon, SplitRatios::default(), Some(spec.period));
    let mut max_err = 0.0f32;
    for i in 0..index.num_snapshots() {
        let (x, y) = index.snapshot(i);
        let xs = std_out.scaler.inverse(&std_out.x.select(0, i).unwrap());
        let ys = std_out.scaler.inverse(&std_out.y.select(0, i).unwrap());
        let xi = index.scaler().inverse(&x);
        let yi = index.scaler().inverse(&y);
        for (a, b) in xi
            .to_vec()
            .iter()
            .chain(yi.to_vec().iter())
            .zip(xs.to_vec().iter().chain(ys.to_vec().iter()))
        {
            max_err = max_err.max((a - b).abs());
        }
    }
    println!(
        "\nEquivalence over {} snapshots of scaled METR-LA: max |Δ| = {max_err:.2e}",
        index.num_snapshots()
    );

    let mut records = RecordSet::new("Fig 1/4");
    records.push(
        "index snapshots ≡ materialized snapshots",
        "identical by construction",
        format!("max |Δ| = {max_err:.2e}"),
        measured(max_err < 1e-3),
        "zero-copy views verified via storage aliasing",
    );
    records
}

/// Measure tape activation bytes for one forward at a scaled config, then
/// scale to the paper's (batch=32, nodes=2716) shape.
fn projected_gpu_bytes(model: &dyn Seq2Seq, x: &Tensor, scale: f64) -> u64 {
    let tape = Tape::new();
    let _ = model.forward(&tape, x);
    (tape.activation_bytes(4) as f64 * scale) as u64
}

/// **Table 2**: single-epoch DCRNN vs PGT-DCRNN on PeMS-All-LA — runtime
/// (minutes), peak system memory, peak GPU memory.
///
/// Host memory comes from the virtual replay of each pipeline at the
/// paper's shapes; runtimes from the calibrated cost projection; GPU memory
/// from autograd-tape activation bytes at a fixed scaled configuration,
/// scaled linearly by batch × nodes to paper shape (plus the padded
/// loader's device-side batch copies for DCRNN).
pub fn table2(ctx: &Ctx) -> RecordSet {
    let spec = DatasetSpec::get(DatasetKind::PemsAllLa);
    let params = ProjectionParams::default();

    // --- Host memory: virtual replays. ---
    let host_peak = |variant| {
        let replay = ctx.replays().standard(DatasetKind::PemsAllLa, variant);
        replay.report.peak_bytes
    };
    let dcrnn_host = host_peak(LoaderVariant::DcrnnPadded);
    let pgt_host = host_peak(LoaderVariant::Pgt);

    // --- Runtime: calibrated projection. ---
    let (dcrnn_secs, pgt_secs) = project_table2(&params, &spec);

    // --- GPU memory: tape bytes at a scaled config, scaled up. ---
    let scaled_nodes = 64usize;
    let batch_small = 4usize;
    let net = st_graph::generators::highway_corridor(scaled_nodes, 2, SEED);
    let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
    let mk_cfg = |layers: usize| ModelConfig {
        input_dim: 2,
        output_dim: 1,
        hidden: 64,
        num_nodes: scaled_nodes,
        horizon: 12,
        diffusion_steps: 2,
        layers,
    };
    let x = Tensor::ones([batch_small, 12, scaled_nodes, 2]);
    let scale = (32.0 / batch_small as f64) * (spec.nodes as f64 / scaled_nodes as f64);
    let dcrnn_model = Dcrnn::new(mk_cfg(2), &supports, SEED);
    let pgt_model = PgtDcrnn::new(mk_cfg(1), &supports, SEED);
    let mut dcrnn_gpu = projected_gpu_bytes(&dcrnn_model, &x, scale);
    let pgt_gpu = projected_gpu_bytes(&pgt_model, &x, scale);
    // The original DCRNN loader stages padded batch copies on-device too.
    dcrnn_gpu += (32 * 12 * spec.nodes * 2 * 8) as u64 * 4;

    let mut table = Table::new(
        "Table 2 — single-epoch comparison on PeMS-All-LA",
        &[
            "Model",
            "Runtime (min)",
            "Max system mem (GB)",
            "Max GPU mem (GB)",
        ],
    );
    table.row(&[
        "DCRNN".into(),
        format!("{:.2}", minutes(dcrnn_secs)),
        format!("{:.2}/512", gib(dcrnn_host)),
        format!("{:.2}/40", gib(dcrnn_gpu)),
    ]);
    table.row(&[
        "PGT-DCRNN".into(),
        format!("{:.2}", minutes(pgt_secs)),
        format!("{:.2}/512", gib(pgt_host)),
        format!("{:.2}/40", gib(pgt_gpu)),
    ]);
    println!("{}", table.to_text());

    let mut records = RecordSet::new("Table 2");
    records.push(
        "DCRNN runtime (min)",
        "68.48",
        format!("{:.2}", minutes(dcrnn_secs)),
        modeled((minutes(dcrnn_secs) - 68.48).abs() / 68.48 < 0.4),
        "calibrated projection; DCRNN reference impl modeled at lower effective FLOPs",
    );
    records.push(
        "PGT-DCRNN runtime (min)",
        "4.48",
        format!("{:.2}", minutes(pgt_secs)),
        modeled((minutes(pgt_secs) - 4.48).abs() / 4.48 < 0.4),
        "speedup ratio is the claim: paper 15.3x",
    );
    records.push(
        "PGT/DCRNN runtime ratio",
        "15.3x",
        format!("{:.1}x", dcrnn_secs / pgt_secs),
        modeled((8.0..25.0).contains(&(dcrnn_secs / pgt_secs))),
        "",
    );
    records.push(
        "DCRNN peak system memory (GB)",
        "371.25",
        format!("{:.2}", gib(dcrnn_host)),
        modeled((gib(dcrnn_host) - 371.25).abs() / 371.25 < 0.05),
        "virtual replay with padded-loader duplication",
    );
    records.push(
        "PGT-DCRNN peak system memory (GB)",
        "259.84",
        format!("{:.2}", gib(pgt_host)),
        modeled((gib(pgt_host) - 259.84).abs() / 259.84 < 0.05),
        "virtual replay of Algorithm-1 allocation order",
    );
    records.push(
        "GPU memory: DCRNN ≫ PGT-DCRNN",
        "24.84 vs 1.58 GB (15.7x)",
        format!(
            "{:.2} vs {:.2} GB ({:.1}x)",
            gib(dcrnn_gpu),
            gib(pgt_gpu),
            dcrnn_gpu as f64 / pgt_gpu as f64
        ),
        modeled(dcrnn_gpu > 5 * pgt_gpu),
        "tape activation bytes, measured at scaled config, linearly scaled",
    );
    records
}

/// **Figure 2**: system-memory timelines for DCRNN and PGT-DCRNN on
/// PeMS-All-LA and PeMS against the 512 GB Polaris host limit — both
/// implementations must OOM on full PeMS before training starts.
pub fn fig2(ctx: &Ctx) -> RecordSet {
    println!("Fig 2 — memory during training, 512 GB system limit\n");
    let mut records = RecordSet::new("Fig 2");
    let mut series = Vec::new();
    for (kind, paper_oom) in [(DatasetKind::PemsAllLa, false), (DatasetKind::Pems, true)] {
        for variant in [LoaderVariant::DcrnnPadded, LoaderVariant::Pgt] {
            let replay = ctx.replays().standard(kind, variant);
            let label = format!(
                "{}/{}",
                match variant {
                    LoaderVariant::DcrnnPadded => "DCRNN",
                    LoaderVariant::Pgt => "PGT-DCRNN",
                },
                DatasetSpec::get(kind).name
            );
            let oom = replay.timeline.oom_at();
            let verdict = match oom {
                Some(p) => format!("OOM at {:.0}% progress", p * 100.0),
                None => format!("completes, peak {:.2} GiB", gib(replay.report.peak_bytes)),
            };
            println!("{label:<24} {verdict}");
            let crashed = |oom: bool| if oom { "crash (OOM)" } else { "completes" };
            records.push(
                &format!("{label} OOM verdict"),
                crashed(paper_oom),
                crashed(oom.is_some()),
                modeled(oom.is_some() == paper_oom),
                "virtual replay at paper shapes, 512 GB limit",
            );
            series.push(Series::new(label, replay.timeline.rows_gib()));
        }
    }
    println!();
    println!(
        "{}",
        render_columns("Fig 2 timelines (GiB vs % progress)", "progress%", &series)
    );
    records
}

/// **Figure 3**: the data-growth stages when preprocessing PeMS-All-LA (raw
/// → time-of-day augmentation → SWA snapshots → x/y sets), plus the same
/// breakdown for full PeMS and the index-batching footprint that replaces
/// stages 2–3.
pub fn fig3(_: &Ctx) -> RecordSet {
    let mut records = RecordSet::new("Fig 3");
    for kind in [DatasetKind::PemsAllLa, DatasetKind::Pems] {
        let spec = DatasetSpec::get(kind);
        let g = growth_stages(&spec, 8);
        let mut table = Table::new(
            format!("Fig 3 — data growth for {} (float64)", spec.name),
            &["Stage", "Bytes", "Growth vs raw"],
        );
        let rows = [
            ("raw file", g.raw),
            ("stage 1: + time-of-day", g.stage1),
            ("stage 2: SWA snapshots (x)", g.stage2),
            ("stage 3: x + y train/val/test", g.stage3),
            ("index-batching instead (eq. 2)", footprints(&spec).1),
        ];
        for (name, bytes) in rows {
            table.row(&[
                name.to_string(),
                fmt_bytes(bytes),
                format!("{:.2}x", bytes as f64 / g.raw as f64),
            ]);
        }
        println!("{}", table.to_text());
        if kind == DatasetKind::PemsAllLa {
            let final_gib = gib(g.stage3);
            records.push(
                "PeMS-All-LA final size (stage 3)",
                "102.08 GB",
                format!("{final_gib:.2} GiB"),
                analytic((final_gib - 102.08).abs() < 1.0),
                "stage-by-stage analytic byte counts",
            );
        }
    }
    records
}

/// **Figure 6**: single-GPU memory on full PeMS — standard PGT (OOM),
/// index-batching (~46 GB spike then eq.-2 steady state), and
/// GPU-index-batching (lower, flatter host curve).
pub fn fig6(ctx: &Ctx) -> RecordSet {
    let replays = ctx.replays();
    let mut records = RecordSet::new("Fig 6");

    // --- Standard PGT pipeline: must OOM. ---
    let standard = replays.standard(DatasetKind::Pems, LoaderVariant::Pgt);
    println!(
        "PGT (standard batching): {}",
        match &standard.report.oom {
            Some(e) => format!("OOM — {e}"),
            None => "completed (unexpected!)".into(),
        }
    );
    records.push(
        "standard PGT on PeMS",
        "OOM before training",
        if standard.report.oom.is_some() {
            "OOM during preprocessing"
        } else {
            "completed"
        },
        modeled(standard.report.oom.is_some()),
        "",
    );

    // --- Index-batching. ---
    let idx = &replays.index.report;
    println!(
        "PGT-index-batching: peak {:.2} GiB, steady {:.2} GiB",
        gib(idx.peak_host),
        gib(idx.steady_host)
    );
    records.push(
        "index-batching peak host memory",
        "≈46 GB spike during preprocessing",
        format!("{:.2} GiB", gib(idx.peak_host)),
        modeled((gib(idx.peak_host) - 45.84).abs() < 3.0),
        "raw + augmented + standardize temporary",
    );

    // --- GPU-index-batching. ---
    let gidx = &replays.gpu_index.report;
    println!(
        "PGT-GPU-index-batching: host peak {:.2} GiB, device peak {:.2} GiB",
        gib(gidx.peak_host),
        gib(gidx.peak_device)
    );
    records.push(
        "GPU-index host memory reduction vs index",
        "60.30%",
        format!(
            "{:.1}%",
            100.0 * (1.0 - gidx.peak_host as f64 / idx.peak_host as f64)
        ),
        modeled(gidx.peak_host < idx.peak_host / 2),
        "chunked read never materializes the raw array on the host",
    );

    let series = [
        Series::new("PGT", standard.timeline.rows_gib()),
        Series::new("PGT-index-batching", replays.index.timeline.rows_gib()),
        Series::new(
            "PGT-GPU-index-batching",
            replays.gpu_index.timeline.rows_gib(),
        ),
    ];
    println!();
    println!(
        "{}",
        render_columns("Fig 6 — host GiB vs % progress", "progress%", &series)
    );
    records
}

/// **Table 4**: single-GPU PeMS training (30 epochs) — index batching vs
/// GPU-index-batching: runtime, CPU memory, GPU memory. Memory from the
/// virtual replays; runtime from the calibrated projection; plus a
/// transfer-count comparison at scaled size showing the consolidation
/// effect the projection is built on.
pub fn table4(ctx: &Ctx) -> RecordSet {
    let spec = DatasetSpec::get(DatasetKind::Pems);
    let params = ProjectionParams::default();
    let (index_secs, gpu_secs) = project_table4(&params, &spec, 30);
    let idx = &ctx.replays().index.report;
    let gidx = &ctx.replays().gpu_index.report;

    let mut table = Table::new(
        "Table 4 — single-GPU PeMS training (30 epochs)",
        &[
            "Implementation",
            "Runtime (min)",
            "CPU memory (GB)",
            "GPU memory (GB)",
        ],
    );
    table.row(&[
        "Index-batching".into(),
        format!("{:.2}", minutes(index_secs)),
        format!("{:.2}", gib(idx.peak_host)),
        "5.50 (model+batches)".into(),
    ]);
    table.row(&[
        "GPU-index-batching".into(),
        format!("{:.2}", minutes(gpu_secs)),
        format!("{:.2}", gib(gidx.peak_host)),
        format!("{:.2}", gib(gidx.peak_device)),
    ]);
    println!("{}", table.to_text());

    // --- Consolidation on the scaled dataset. ---
    let small = ctx.scaled(DatasetKind::Pems, ctx.scale.dist_scale);
    let ds = IndexDataset::from_signal(
        &small.sig,
        small.spec.horizon,
        SplitRatios::default(),
        Some(small.spec.period),
    );
    let count_for = |residency| {
        let pool = MemPool::new("gpu0", 40 * GIB);
        let placed = GpuIndexDataset::place(
            ds.clone(),
            residency,
            &pool,
            CostModel::polaris(),
            SimClock::new(),
            4,
        )
        .expect("fits");
        for i in 0..50 {
            let _ = placed.get_batch(&[i, i + 1]);
        }
        (placed.ledger().h2d_count(), placed.clock().comm_secs())
    };
    let (host_count, host_time) = count_for(Residency::Host);
    let (dev_count, dev_time) = count_for(Residency::Device);
    println!(
        "measured (scaled, 50 batches): host-resident {host_count} transfers ({host_time:.4}s sim) \
         vs device-resident {dev_count} transfer ({dev_time:.4}s sim)"
    );

    let mut records = RecordSet::new("Table 4");
    records.push(
        "index-batching runtime (min)",
        "333.58",
        format!("{:.2}", minutes(index_secs)),
        modeled((minutes(index_secs) - 333.58).abs() / 333.58 < 0.1),
        "calibrated projection",
    );
    records.push(
        "GPU-index runtime (min)",
        "290.65",
        format!("{:.2}", minutes(gpu_secs)),
        modeled((minutes(gpu_secs) - 290.65).abs() / 290.65 < 0.1),
        "",
    );
    records.push(
        "GPU-index runtime reduction",
        "12.87%",
        format!("{:.2}%", 100.0 * (index_secs - gpu_secs) / index_secs),
        modeled(((index_secs - gpu_secs) / index_secs - 0.1287).abs() < 0.05),
        "eliminated per-batch CPU→GPU transfers",
    );
    records.push(
        "index CPU memory (GB)",
        "45.84",
        format!("{:.2}", gib(idx.peak_host)),
        modeled((gib(idx.peak_host) - 45.84).abs() / 45.84 < 0.06),
        "",
    );
    records.push(
        "GPU-index CPU / GPU memory (GB)",
        "18.20 / 18.60",
        format!("{:.2} / {:.2}", gib(gidx.peak_host), gib(gidx.peak_device)),
        modeled(
            (gib(gidx.peak_host) - 18.20).abs() < 1.5
                && (gib(gidx.peak_device) - 18.60).abs() < 1.5,
        ),
        "",
    );
    records.push(
        "transfer consolidation",
        "single transfer at start",
        format!("{dev_count} vs {host_count} transfers for 50 batches"),
        measured(dev_count == 1 && host_count == 50),
        "measured on the scaled dataset",
    );
    records
}
