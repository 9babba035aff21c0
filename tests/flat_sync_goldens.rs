//! What `DistConfig::grad_bucket_bytes = None` means, pinned.
//!
//! `None` used to select a stand-alone flat all-reduce context;
//! it now builds one whole-model gradient bucket on the only sync path.
//! The constants below are what the **flat branch reported at commit
//! `cf7dfb3`** — modeled totals, the per-epoch hidden/exposed split and
//! ledger bytes — so `None` is judged against that branch, not against
//! itself. (The loss bits of the same runners are in `engine_goldens`.)

use pgt_i::core::baseline_ddp::run_baseline_ddp;
use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::gen_dist_index::run_generalized;
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::synthetic;
use pgt_i::graph::diffusion_supports;
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};

/// One run's modeled accounting, as f64 bit patterns.
struct Golden {
    runner: &'static str,
    world: usize,
    sim_total: u64,
    sim_comm: u64,
    bytes_moved: u64,
    /// Per epoch: `(hidden_comm_secs, exposed_comm_secs)`.
    epochs: [(u64, u64); 2],
}

const GOLDENS: [Golden; 6] = [
    Golden {
        runner: "dist_index",
        world: 2,
        sim_total: 0x3f42_bfd3_d5c0_2ebf,
        sim_comm: 0x3f42_7952_0437_8b00,
        bytes_moved: 580_276,
        epochs: [(0, 0x3f32_634f_68ea_bba1), (0, 0x3f32_634f_68ea_bb95)],
    },
    Golden {
        runner: "dist_index",
        world: 3,
        sim_total: 0x3f49_f30e_959c_cdea,
        sim_comm: 0x3f49_c3e9_20a2_97f0,
        bytes_moved: 790_088,
        epochs: [(0, 0x3f39_97e3_ea08_f92b), (0, 0x3f39_97e3_ea08_f921)],
    },
    Golden {
        runner: "generalized",
        world: 2,
        sim_total: 0x3f4a_7177_d003_c339,
        sim_comm: 0x3f4a_1195_2591_4424,
        bytes_moved: 831_252,
        epochs: [
            (0x3ed4_f977_0c7b_f5ea, 0x3f39_f853_d827_1a98),
            (0, 0x3f39_f75f_3175_0ed6),
        ],
    },
    Golden {
        runner: "generalized",
        world: 3,
        sim_total: 0x3f52_03c1_562f_2437,
        sim_comm: 0x3f51_e3bd_85e2_a3e2,
        bytes_moved: 1_117_704,
        epochs: [
            (0x3ed0_01e8_2640_29f0, 0x3f41_bbc7_e7b4_16ce),
            (0x3eb3_df55_1287_42c4, 0x3f41_bbc7_e7b4_16e0),
        ],
    },
    Golden {
        runner: "baseline_ddp",
        world: 2,
        sim_total: 0x3f5d_3e4a_12da_47e1,
        sim_comm: 0x3f5d_1b09_2a15_f5fe,
        bytes_moved: 773_812,
        epochs: [
            (0x3ecc_086f_1150_8693, 0x3f4d_1016_b459_1332),
            (0x3ec8_d8ee_152a_48c9, 0x3f4d_0ff9_0486_0965),
        ],
    },
    Golden {
        runner: "baseline_ddp",
        world: 3,
        sim_total: 0x3f62_9265_f806_c378,
        sim_comm: 0x3f62_869c_9ac8_35fc,
        bytes_moved: 1_037_000,
        epochs: [
            (0x3ec5_0653_4cfc_64eb, 0x3f52_7b99_a6eb_6a23),
            (0x3ec4_6339_80f4_bf01, 0x3f52_7b9c_f358_3270),
        ],
    },
];

#[test]
fn none_keeps_the_flat_reduces_modeled_accounting() {
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(0.012);
    let sig = synthetic::generate(&spec, 31);
    for g in &GOLDENS {
        let mut cfg = DistConfig::new(g.world, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.grad_bucket_bytes = None;
        // Prefetch on, so the remote planes' hidden column is non-trivial
        // (a no-op for dist-index, which has no data plane to hide).
        cfg.prefetch = true;
        let r = match g.runner {
            "dist_index" => {
                run_distributed_index(&sig, &cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42))
            }
            "generalized" => {
                run_generalized(&sig, &cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42))
            }
            _ => run_baseline_ddp(&sig, &cfg, |_| {
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
        };
        let name = format!("{}/w{}", g.runner, g.world);
        assert_eq!(r.sim_total_secs.to_bits(), g.sim_total, "{name}: total");
        assert_eq!(r.sim_comm_secs.to_bits(), g.sim_comm, "{name}: comm");
        assert_eq!(r.bytes_moved, g.bytes_moved, "{name}: bytes moved");
        assert_eq!(r.epochs.len(), g.epochs.len(), "{name}: epoch count");
        for (e, (hidden, exposed)) in r.epochs.iter().zip(g.epochs) {
            assert_eq!(
                e.hidden_comm_secs.to_bits(),
                hidden,
                "{name} epoch {}: hidden {}",
                e.epoch,
                e.hidden_comm_secs
            );
            assert_eq!(
                e.exposed_comm_secs.to_bits(),
                exposed,
                "{name} epoch {}: exposed {}",
                e.epoch,
                e.exposed_comm_secs
            );
        }
    }
}
