//! Cross-crate integration tests for the distributed runtimes: replica
//! consistency, strategy parity, and the communication ledger.

use pgt_i::core::baseline_ddp::run_baseline_ddp;
use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::gen_dist_index::run_generalized;
use pgt_i::core::partitioned::run_partitioned;
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::core::{IndexDataset, Trainer};
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::dist::shuffle::ShuffleStrategy;
use pgt_i::graph::{diffusion_supports, Partitioning};
use pgt_i::models::{ModelConfig, PgtDcrnn, Support};

fn setup() -> (DatasetSpec, StaticGraphTemporalSignal) {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
    (spec.clone(), synthetic::generate(&spec, 13))
}

#[test]
fn dist_index_is_deterministic_across_runs() {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    cfg.batch_per_worker = 4;
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    let a = run_distributed_index(&sig, &cfg, &factory);
    let b = run_distributed_index(&sig, &cfg, &factory);
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(
            ea.train_loss, eb.train_loss,
            "replicated run must be identical"
        );
        assert_eq!(ea.val_mae, eb.val_mae);
    }
}

#[test]
fn all_three_distributed_modes_learn_the_same_task() {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 3, spec.horizon);
    cfg.batch_per_worker = 4;
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    let index = run_distributed_index(&sig, &cfg, &factory);
    let gen = run_generalized(&sig, &cfg, &factory);
    let ddp = run_baseline_ddp(&sig, &cfg, |_| {
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
    });
    for (name, r) in [("index", &index), ("generalized", &gen), ("ddp", &ddp)] {
        let first = r.epochs.first().unwrap().train_loss;
        let last = r.epochs.last().unwrap().train_loss;
        assert!(
            last < first * 1.05,
            "{name}: loss did not trend down ({first} -> {last})"
        );
        assert!(r.best_val_mae().is_finite(), "{name}: no valid val MAE");
    }
}

#[test]
fn communication_ordering_matches_the_papers_fig7_argument() {
    // dist-index (gradients only) < generalized (halo + gradients)
    // << baseline DDP (every batch fetched).
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    cfg.batch_per_worker = 4;
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    let index = run_distributed_index(&sig, &cfg, &factory);
    let ddp = run_baseline_ddp(&sig, &cfg, |_| {
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
    });
    assert!(
        ddp.bytes_moved > index.bytes_moved,
        "baseline DDP must move more data: {} vs {}",
        ddp.bytes_moved,
        index.bytes_moved
    );
}

#[test]
fn global_batch_grows_with_workers() {
    let (spec, sig) = setup();
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    // More workers at fixed per-worker batch ⇒ fewer steps per epoch; the
    // first-epoch loss should be no better (usually worse) with the bigger
    // global batch — the Fig. 8 effect.
    let run = |world: usize| {
        let mut cfg = DistConfig::new(world, 1, spec.horizon);
        cfg.batch_per_worker = 4;
        run_distributed_index(&sig, &cfg, &factory).epochs[0].train_loss
    };
    let small = run(1);
    let large = run(4);
    assert!(
        large >= small * 0.8,
        "4-worker first-epoch loss ({large}) unexpectedly beats 1-worker ({small}) by a lot"
    );
}

#[test]
fn shuffle_strategies_produce_finite_results_at_world_3() {
    let (spec, sig) = setup();
    for strategy in [
        ShuffleStrategy::Global,
        ShuffleStrategy::Local,
        ShuffleStrategy::LocalBatch,
    ] {
        let mut cfg = DistConfig::new(3, 1, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.shuffle = strategy;
        let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
        let r = run_distributed_index(&sig, &cfg, &factory);
        assert!(r.epochs[0].train_loss.is_finite(), "{strategy:?}");
    }
}

#[test]
fn batch_zero_trains_exactly_like_batch_one() {
    // `batch_per_worker = 0` means 1 on every plane and runner, as
    // `engine::chunk_ids` and `shuffle::common_rounds` always had it. (The
    // dynamic runner never reads the batch: its windows train one by one.)
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.1);
    let sig = synthetic::generate(&spec, 13);
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 4, 42);
    let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
    let split = Partitioning::greedy_bfs(&sig.adjacency, 2);
    let bits = |batch: usize| {
        let mut cfg = DistConfig::new(2, 1, spec.horizon);
        cfg.batch_per_worker = batch;
        let mut reports = Vec::new();
        for shuffle in [
            ShuffleStrategy::Global,
            ShuffleStrategy::Local,
            ShuffleStrategy::LocalBatch,
        ] {
            cfg.shuffle = shuffle;
            reports.push(run_distributed_index(&sig, &cfg, &factory));
        }
        reports.push(run_generalized(&sig, &cfg, &factory));
        reports.push(run_baseline_ddp(&sig, &cfg, |_| factory(&ds)));
        let model = factory(&ds);
        let trainer = Trainer::new(cfg.clone());
        reports.push(trainer.train(model.as_ref(), &ds));
        let mut bits: Vec<u32> = reports
            .iter()
            .flat_map(|r| &r.epochs)
            .flat_map(|e| [e.train_loss.to_bits(), e.val_mae.to_bits()])
            .collect();
        let test_mae = trainer.evaluate(model.as_ref(), &ds, ds.splits().test.clone());
        bits.push(test_mae.to_bits());
        let parts = run_partitioned(&sig, &split, 4, &cfg).parts;
        bits.extend(parts.iter().map(|p| p.val_mae.to_bits()));
        bits
    };
    let one = bits(1);
    assert!(one.iter().all(|&b| f32::from_bits(b).is_finite()));
    assert_eq!(bits(0), one);
}

#[test]
fn straggler_noise_never_leaks_into_numerics() {
    // Design invariant: the simulated clock shapes *reported time* only.
    // Injecting per-rank straggler compute noise around every collective
    // must leave training numerics bit-identical — the separation that
    // makes the dual-scale (measured + projected) methodology sound.
    use pgt_i::dist::launch::{run_workers, ReduceOp, Timing};
    use pgt_i::dist::topology::ClusterTopology;

    let run = |straggle: bool| {
        run_workers(3, ClusterTopology::polaris(), move |mut ctx| {
            let mut acc = vec![ctx.rank() as f32 + 0.5; 4];
            for round in 0..5 {
                if straggle {
                    // Rank- and round-dependent virtual slowdown.
                    let slowdown = (ctx.rank() * round) as f64 * 0.37;
                    ctx.comm.clock_mut().advance_compute(slowdown);
                }
                ctx.comm
                    .all_reduce(&mut acc, ReduceOp::Mean, Timing::Charge);
                for v in acc.iter_mut() {
                    *v = *v * 1.25 + round as f32;
                }
            }
            (acc, ctx.comm.clock().now())
        })
    };
    let clean = run(false);
    let noisy = run(true);
    for ((va, ta), (vb, tb)) in clean.iter().zip(noisy.iter()) {
        assert_eq!(va, vb, "numerics must not depend on virtual time");
        assert!(tb > ta, "virtual time must reflect the stragglers");
    }
}

#[test]
fn distributed_checkpoint_resume_is_bit_identical() {
    // The distributed extension of the single-worker
    // `checkpoint_resume_reproduces_uninterrupted_run`: a 2-rank engine
    // run interrupted at epoch 2 and resumed must match an uninterrupted
    // 4-epoch run exactly — same final parameters and Adam moments (the
    // captured checkpoints are byte-identical) and the same per-epoch
    // stats for the resumed tail. This requires every rank to restore the
    // same state and to replay the epoch-keyed shuffles from the right
    // epoch. Under bounded staleness it also requires the window to hold
    // nothing across an epoch boundary.
    use pgt_i::core::dist_index::LocalCopyPlane;
    use pgt_i::core::engine::{self, EngineOptions};

    let (spec, sig) = setup();
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    for staleness in [0, 2] {
        let run = |epochs: usize, opts: &EngineOptions| {
            let mut cfg = DistConfig::new(2, epochs, spec.horizon);
            cfg.batch_per_worker = 4;
            cfg.staleness = staleness;
            engine::run(
                &cfg,
                opts,
                |rank, cm| LocalCopyPlane::new(&sig, &cfg, rank, cm),
                |plane: &LocalCopyPlane| factory(plane.dataset()),
            )
            .expect("checkpoint round-trips")
        };
        let capture = EngineOptions {
            resume: None,
            capture_checkpoint: true,
        };
        let straight = run(4, &capture);
        let interrupted = run(2, &capture);
        let resumed = run(
            4,
            &EngineOptions {
                resume: Some(interrupted.checkpoint.clone().expect("rank-0 checkpoint")),
                capture_checkpoint: true,
            },
        );
        assert_eq!(
            straight.checkpoint, resumed.checkpoint,
            "s = {staleness}: resumed model + optimizer state must be byte-identical"
        );
        // The resumed run reports exactly the tail epochs of the straight run.
        assert_eq!(resumed.epochs.len(), 2);
        for (r, s) in resumed.epochs.iter().zip(&straight.epochs[2..]) {
            assert_eq!(r.epoch, s.epoch);
            assert_eq!(r.train_loss.to_bits(), s.train_loss.to_bits());
            assert_eq!(r.val_mae.to_bits(), s.val_mae.to_bits());
        }
        // And the first segment reproduced the straight run's head.
        for (i, s) in interrupted.epochs.iter().zip(&straight.epochs[..2]) {
            assert_eq!(i.train_loss.to_bits(), s.train_loss.to_bits());
        }
    }
}

#[test]
fn prefetch_and_policies_compose_with_training() {
    // End-to-end: baseline DDP with prefetching still reaches the same
    // accuracy as the synchronous baseline (bytes identical, time hidden).
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(2, 2, spec.horizon);
    cfg.batch_per_worker = 4;
    let factory = |_: &pgt_i::core::baseline_ddp::DataSvcPlane| {
        let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
        let mc = ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 8,
            num_nodes: sig.num_nodes(),
            horizon: spec.horizon,
            diffusion_steps: 2,
            layers: 1,
        };
        Box::new(PgtDcrnn::new(mc, &supports, 42)) as Box<dyn pgt_i::models::Seq2Seq>
    };
    let sync = run_baseline_ddp(&sig, &cfg, factory);
    cfg.prefetch = true;
    let pf = run_baseline_ddp(&sig, &cfg, factory);
    assert_eq!(
        sync.epochs.last().unwrap().train_loss,
        pf.epochs.last().unwrap().train_loss,
        "prefetching must not change learning"
    );
    assert!(pf.sim_total_secs < sync.sim_total_secs);
}
