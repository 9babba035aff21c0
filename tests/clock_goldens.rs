//! The modeled clock, pinned bit for bit.
//!
//! Every number a rank's simulated clock emits — `sim_total_secs`,
//! `sim_comm_secs`, `sim_compute_secs`, the bytes moved, and per epoch the
//! hidden/exposed comm split and the fence stalls — for the three
//! distributed runners at world 3 under every staleness the sweeps use,
//! for out-of-core (`StorageSpec::Chunked`) runs with prefetch, and for
//! GPU-index-batching's host→device accounting. Recorded at commit
//! `07477e4`, when a rank's modeled time was an `Arc<Mutex>` clock shared
//! by its `WorkerCtx` and `Comm` plus a separate overlap ledger. `f64`s
//! are compared as bit patterns; on a mismatch the test prints the
//! computed table in source form.

use pgt_i::core::baseline_ddp::run_baseline_ddp;
use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::dynamic_index::train_dynamic;
use pgt_i::core::gen_dist_index::run_generalized;
use pgt_i::core::gpu_index::{GpuIndexDataset, Residency};
use pgt_i::core::trainer::BatchSource;
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::core::{EngineReport, IndexDataset};
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::storage::{ChunkedSpec, StorageSpec};
use pgt_i::data::synthetic;
use pgt_i::device::memory::MemPool;
use pgt_i::device::{CostModel, GIB};
use pgt_i::graph::diffusion_supports;
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};

/// Compare `got` with `want` row by row; on any difference print the
/// computed table in source form.
fn assert_table(what: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gl, gv), (wl, wv))| gl == wl && gv == wv);
    if !same {
        for (label, v) in got {
            let h = format!("{v:016x}");
            let (a, b, c, d) = (&h[..4], &h[4..8], &h[8..12], &h[12..]);
            eprintln!("    (\"{label}\", 0x{a}_{b}_{c}_{d}),");
        }
        panic!("{what}: modeled clock moved (computed table printed above)");
    }
}

/// A report's modeled accounting as labelled words (`f64`s as bits).
fn rows(name: &str, r: &EngineReport) -> Vec<(String, u64)> {
    let mut out = vec![
        (format!("{name} sim_total"), r.sim_total_secs.to_bits()),
        (format!("{name} sim_comm"), r.sim_comm_secs.to_bits()),
        (format!("{name} sim_compute"), r.sim_compute_secs.to_bits()),
        (format!("{name} bytes_moved"), r.bytes_moved),
    ];
    for e in &r.epochs {
        let ep = e.epoch;
        out.push((format!("{name} e{ep} hidden"), e.hidden_comm_secs.to_bits()));
        out.push((
            format!("{name} e{ep} exposed"),
            e.exposed_comm_secs.to_bits(),
        ));
        out.push((format!("{name} e{ep} fence_stalls"), e.fence_stalls));
    }
    out
}

fn pems_bay() -> (DatasetSpec, pgt_i::data::signal::StaticGraphTemporalSignal) {
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(0.012);
    let sig = synthetic::generate(&spec, 31);
    (spec, sig)
}

fn run(runner: &str, cfg: &DistConfig) -> EngineReport {
    let (spec, sig) = pems_bay();
    match runner {
        "dist_index" => {
            run_distributed_index(&sig, cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42))
        }
        "generalized" => run_generalized(&sig, cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42)),
        _ => run_baseline_ddp(&sig, cfg, |_| {
            let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
            Box::new(PgtDcrnn::new(
                ModelConfig {
                    input_dim: 1,
                    output_dim: 1,
                    hidden: 8,
                    num_nodes: sig.num_nodes(),
                    horizon: spec.horizon,
                    diffusion_steps: 2,
                    layers: 1,
                },
                &supports,
                42,
            ))
        }),
    }
}

#[test]
fn distributed_runners_at_world_3_under_staleness() {
    let (spec, _) = pems_bay();
    let mut got = Vec::new();
    for runner in ["dist_index", "generalized", "baseline_ddp"] {
        for staleness in 0..3 {
            // The default bucket cap, prefetch on: every stream kind the
            // engine prices (setup, prefetched fetch, bucket, deadline).
            let mut cfg = DistConfig::new(3, 2, spec.horizon);
            cfg.batch_per_worker = 4;
            cfg.prefetch = true;
            cfg.staleness = staleness;
            got.extend(rows(
                &format!("{runner}/w3/s{staleness}"),
                &run(runner, &cfg),
            ));
        }
    }
    assert_table("world 3", &got, &WORLD3);
}

#[test]
fn chunked_storage_with_prefetch() {
    let (spec, _) = pems_bay();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    cfg.batch_per_worker = 4;
    cfg.prefetch = true;
    cfg.storage = StorageSpec::Chunked(ChunkedSpec::new(16));
    let mut got = rows("dist_index/w2/chunked", &run("dist_index", &cfg));

    let sig = pgt_i::data::dynamic::synthetic_dynamic_traffic(6, 80, 7);
    let mut cfg = DistConfig::new(1, 2, 4);
    cfg.prefetch = true;
    cfg.storage = StorageSpec::Chunked(ChunkedSpec::new(16));
    let (_, r) = train_dynamic(&sig, 8, &cfg);
    got.extend(rows("dynamic/chunked", &r));
    assert_table("chunked", &got, &CHUNKED);
}

#[test]
fn gpu_index_host_to_device_accounting() {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
    let sig = synthetic::generate(&spec, 5);
    let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
    let mut got = Vec::new();
    for (name, residency) in [("host", Residency::Host), ("device", Residency::Device)] {
        let mut pool = MemPool::new("gpu0", 40 * GIB);
        let placed =
            GpuIndexDataset::place(ds.clone(), residency, &mut pool, CostModel::polaris(), 4)
                .expect("fits");
        for i in 0..20 {
            let _ = placed.get_batch(&[i, i + 1, i + 3]);
        }
        got.push((format!("gpu_index/{name} h2d_count"), placed.h2d_count()));
        got.push((format!("gpu_index/{name} h2d_bytes"), placed.h2d_bytes()));
        let secs = placed.h2d_secs();
        got.push((format!("gpu_index/{name} h2d_secs"), secs.to_bits()));
    }
    assert_table("gpu index", &got, &GPU_INDEX);
}

const WORLD3: [(&str, u64); 90] = [
    ("dist_index/w3/s0 sim_total", 0x3f49_f30e_959c_cdea),
    ("dist_index/w3/s0 sim_comm", 0x3f49_c3e9_20a2_97f0),
    ("dist_index/w3/s0 sim_compute", 0x3ed7_92ba_7d1a_fccd),
    ("dist_index/w3/s0 bytes_moved", 0x0000_0000_000c_0e48),
    ("dist_index/w3/s0 e0 hidden", 0x0000_0000_0000_0000),
    ("dist_index/w3/s0 e0 exposed", 0x3f39_97e3_ea08_f92b),
    ("dist_index/w3/s0 e0 fence_stalls", 0x0000_0000_0000_0000),
    ("dist_index/w3/s0 e1 hidden", 0x0000_0000_0000_0000),
    ("dist_index/w3/s0 e1 exposed", 0x3f39_97e3_ea08_f921),
    ("dist_index/w3/s0 e1 fence_stalls", 0x0000_0000_0000_0000),
    ("dist_index/w3/s1 sim_total", 0x3f3c_1a37_c9a7_1f26),
    ("dist_index/w3/s1 sim_comm", 0x3f3b_bbec_dfb2_b32e),
    ("dist_index/w3/s1 sim_compute", 0x3ed7_92ba_7d1a_fccd),
    ("dist_index/w3/s1 bytes_moved", 0x0000_0000_000c_0e48),
    ("dist_index/w3/s1 e0 hidden", 0x3f27_cbe5_6192_7cbf),
    ("dist_index/w3/s1 e0 exposed", 0x3f2b_63e2_727f_75a1),
    ("dist_index/w3/s1 e0 fence_stalls", 0x0000_0000_0000_0018),
    ("dist_index/w3/s1 e1 hidden", 0x3f27_cbe5_6192_7cb3),
    ("dist_index/w3/s1 e1 exposed", 0x3f2b_63e2_727f_7593),
    ("dist_index/w3/s1 e1 fence_stalls", 0x0000_0000_0000_0013),
    ("dist_index/w3/s2 sim_total", 0x3f34_2d48_edeb_b4a6),
    ("dist_index/w3/s2 sim_comm", 0x3f33_cefe_03f7_48ae),
    ("dist_index/w3/s2 sim_compute", 0x3ed7_92ba_7d1a_fccd),
    ("dist_index/w3/s2 bytes_moved", 0x0000_0000_000c_0e48),
    ("dist_index/w3/s2 e0 hidden", 0x3f2f_b8d4_3d4d_e743),
    ("dist_index/w3/s2 e0 exposed", 0x3f23_76f3_96c4_0b1c),
    ("dist_index/w3/s2 e0 fence_stalls", 0x0000_0000_0000_0016),
    ("dist_index/w3/s2 e1 hidden", 0x3f2f_b8d4_3d4d_e731),
    ("dist_index/w3/s2 e1 exposed", 0x3f23_76f3_96c4_0b18),
    ("dist_index/w3/s2 e1 fence_stalls", 0x0000_0000_0000_000e),
    ("generalized/w3/s0 sim_total", 0x3f52_03c1_562f_2437),
    ("generalized/w3/s0 sim_comm", 0x3f51_e3bd_85e2_a3e2),
    ("generalized/w3/s0 sim_compute", 0x3ee0_01e8_2640_29f4),
    ("generalized/w3/s0 bytes_moved", 0x0000_0000_0011_0e08),
    ("generalized/w3/s0 e0 hidden", 0x3ed0_01e8_2640_29f0),
    ("generalized/w3/s0 e0 exposed", 0x3f41_bbc7_e7b4_16ce),
    ("generalized/w3/s0 e0 fence_stalls", 0x0000_0000_0000_0000),
    ("generalized/w3/s0 e1 hidden", 0x3eb3_df55_1287_42c4),
    ("generalized/w3/s0 e1 exposed", 0x3f41_bbc7_e7b4_16e0),
    ("generalized/w3/s0 e1 fence_stalls", 0x0000_0000_0000_0000),
    ("generalized/w3/s1 sim_total", 0x3f43_7f41_e0f3_956e),
    ("generalized/w3/s1 sim_comm", 0x3f43_3f3a_405a_94c4),
    ("generalized/w3/s1 sim_compute", 0x3ee0_01e8_2640_29f4),
    ("generalized/w3/s1 bytes_moved", 0x0000_0000_0011_0e08),
    ("generalized/w3/s1 e0 hidden", 0x3f30_c848_6c03_b3a6),
    ("generalized/w3/s1 e0 exposed", 0x3f32_ef4f_03fd_7ab9),
    ("generalized/w3/s1 e0 fence_stalls", 0x0000_0000_0000_001f),
    ("generalized/w3/s1 e1 hidden", 0x3f30_9c20_207d_3a36),
    ("generalized/w3/s1 e1 exposed", 0x3f32_ef4f_03fd_7aa1),
    ("generalized/w3/s1 e1 fence_stalls", 0x0000_0000_0000_001b),
    ("generalized/w3/s2 sim_total", 0x3f3b_1c63_abe6_1a6c),
    ("generalized/w3/s2 sim_comm", 0x3f3a_9c54_6ab4_1918),
    ("generalized/w3/s2 sim_compute", 0x3ee0_01e8_2640_29f4),
    ("generalized/w3/s2 bytes_moved", 0x0000_0000_0011_0e08),
    ("generalized/w3/s2 e0 hidden", 0x3f36_b958_7704_3be0),
    ("generalized/w3/s2 e0 exposed", 0x3f29_fc7d_f1f9_e4e9),
    ("generalized/w3/s2 e0 fence_stalls", 0x0000_0000_0000_001b),
    ("generalized/w3/s2 e1 hidden", 0x3f36_8d30_2b7d_c270),
    ("generalized/w3/s2 e1 exposed", 0x3f29_fc7d_f1f9_e4ed),
    ("generalized/w3/s2 e1 fence_stalls", 0x0000_0000_0000_0013),
    ("baseline_ddp/w3/s0 sim_total", 0x3f62_9265_f806_c378),
    ("baseline_ddp/w3/s0 sim_comm", 0x3f62_869c_9ac8_35fc),
    ("baseline_ddp/w3/s0 sim_compute", 0x3ed7_92ba_7d1a_fccd),
    ("baseline_ddp/w3/s0 bytes_moved", 0x0000_0000_000f_d2c8),
    ("baseline_ddp/w3/s0 e0 hidden", 0x3ec5_0653_4cfc_64eb),
    ("baseline_ddp/w3/s0 e0 exposed", 0x3f52_7b99_a6eb_6a23),
    ("baseline_ddp/w3/s0 e0 fence_stalls", 0x0000_0000_0000_0000),
    ("baseline_ddp/w3/s0 e1 hidden", 0x3ec4_6339_80f4_bf01),
    ("baseline_ddp/w3/s0 e1 exposed", 0x3f52_7b9c_f358_3270),
    ("baseline_ddp/w3/s0 e1 fence_stalls", 0x0000_0000_0000_0000),
    ("baseline_ddp/w3/s1 sim_total", 0x3f59_0184_ad76_30d1),
    ("baseline_ddp/w3/s1 sim_comm", 0x3f58_e9f1_f2f9_15d2),
    ("baseline_ddp/w3/s1 sim_compute", 0x3ed7_92ba_7d1a_fccd),
    ("baseline_ddp/w3/s1 bytes_moved", 0x0000_0000_000f_d2c8),
    ("baseline_ddp/w3/s1 e0 hidden", 0x3f45_63d5_384f_46f5),
    ("baseline_ddp/w3/s1 e0 exposed", 0x3f48_8021_cf1c_9b36),
    ("baseline_ddp/w3/s1 e0 fence_stalls", 0x0000_0000_0000_0020),
    ("baseline_ddp/w3/s1 e1 hidden", 0x3f46_0acd_2fa2_95c1),
    ("baseline_ddp/w3/s1 e1 exposed", 0x3f49_27bc_e03b_f1a4),
    ("baseline_ddp/w3/s1 e1 fence_stalls", 0x0000_0000_0000_0022),
    ("baseline_ddp/w3/s2 sim_total", 0x3f58_d74b_3dc8_012a),
    ("baseline_ddp/w3/s2 sim_comm", 0x3f58_bfb8_834a_e62b),
    ("baseline_ddp/w3/s2 sim_compute", 0x3ed7_92ba_7d1a_fccd),
    ("baseline_ddp/w3/s2 bytes_moved", 0x0000_0000_000f_d2c8),
    ("baseline_ddp/w3/s2 e0 hidden", 0x3f55_2efb_1256_c222),
    ("baseline_ddp/w3/s2 e0 exposed", 0x3f48_7fc4_7cec_4ff3),
    ("baseline_ddp/w3/s2 e0 fence_stalls", 0x0000_0000_0000_0022),
    ("baseline_ddp/w3/s2 e1 hidden", 0x3f55_5899_4a4c_2110),
    ("baseline_ddp/w3/s2 e1 exposed", 0x3f48_d3a7_530f_dd99),
    ("baseline_ddp/w3/s2 e1 fence_stalls", 0x0000_0000_0000_0022),
];

const CHUNKED: [(&str, u64); 20] = [
    ("dist_index/w2/chunked sim_total", 0x3f44_a54f_5e0f_2c3f),
    ("dist_index/w2/chunked sim_comm", 0x3f44_5ecd_8c86_887f),
    ("dist_index/w2/chunked sim_compute", 0x3ee1_a074_6228_efca),
    ("dist_index/w2/chunked bytes_moved", 0x0000_0000_0008_dab4),
    ("dist_index/w2/chunked e0 hidden", 0x3ed0_909e_b8c6_db2a),
    ("dist_index/w2/chunked e0 exposed", 0x3f34_4c63_c884_bad5),
    (
        "dist_index/w2/chunked e0 fence_stalls",
        0x0000_0000_0000_0000,
    ),
    ("dist_index/w2/chunked e1 hidden", 0x3ed0_909e_b8c6_db30),
    ("dist_index/w2/chunked e1 exposed", 0x3f34_4532_19ee_b75f),
    (
        "dist_index/w2/chunked e1 fence_stalls",
        0x0000_0000_0000_0000,
    ),
    ("dynamic/chunked sim_total", 0x3ee2_d2d7_c5f0_fe84),
    ("dynamic/chunked sim_comm", 0x3ee0_935d_c7eb_45af),
    ("dynamic/chunked sim_compute", 0x3eb1_fbcf_f02d_c67f),
    ("dynamic/chunked bytes_moved", 0x0000_0000_0000_0000),
    ("dynamic/chunked e0 hidden", 0x3ea0_dc12_f12a_ea0c),
    ("dynamic/chunked e0 exposed", 0x3ed0_935d_c7eb_45ae),
    ("dynamic/chunked e0 fence_stalls", 0x0000_0000_0000_0000),
    ("dynamic/chunked e1 hidden", 0x3ea0_dc12_f12a_ea28),
    ("dynamic/chunked e1 exposed", 0x3ed0_935d_c7eb_45b0),
    ("dynamic/chunked e1 fence_stalls", 0x0000_0000_0000_0000),
];

const GPU_INDEX: [(&str, u64); 6] = [
    ("gpu_index/host h2d_count", 0x0000_0000_0000_0014),
    ("gpu_index/host h2d_bytes", 0x0000_0000_0000_2d00),
    ("gpu_index/host h2d_secs", 0x3f2a_46fe_1645_e795),
    ("gpu_index/device h2d_count", 0x0000_0000_0000_0001),
    ("gpu_index/device h2d_bytes", 0x0000_0000_0000_1368),
    ("gpu_index/device h2d_secs", 0x3ee5_67d7_65e9_242d),
];
