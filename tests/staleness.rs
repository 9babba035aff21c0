//! Bounded-staleness gradient sync: determinism, the `s = 0` equivalence,
//! the age bound, and the modeled-time win under injected stragglers.

use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::core::EngineReport;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::synthetic;
use pgt_i::device::{OverlapLedger, SimClock};
use pgt_i::dist::ddp::GradBuckets;
use pgt_i::dist::launch::run_workers;
use pgt_i::dist::staleness::StalenessWindow;
use pgt_i::dist::topology::ClusterTopology;
use pgt_i::tensor::Tensor;
use proptest::prelude::*;

fn setup() -> (DatasetSpec, StaticGraphTemporalSignal) {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
    (spec.clone(), synthetic::generate(&spec, 13))
}

fn run(world: usize, staleness: usize, skew: f64, epochs: usize) -> EngineReport {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(world, epochs, spec.horizon);
    cfg.batch_per_worker = 2;
    cfg.staleness = staleness;
    cfg.straggler_skew = skew;
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    run_distributed_index(&sig, &cfg, &factory)
}

#[test]
fn straggler_skew_never_touches_numerics_at_staleness_zero() {
    // The synchronous path under an injected straggler ramp: modeled time
    // stretches, every reported number stays bit-identical.
    let clean = run(2, 0, 0.0, 2);
    let skewed = run(2, 0, 0.6, 2);
    for (a, b) in clean.epochs.iter().zip(&skewed.epochs) {
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        assert_eq!(a.val_mae.to_bits(), b.val_mae.to_bits());
        assert_eq!((a.stale_steps_applied, a.fence_stalls), (0, 0));
        assert_eq!((b.stale_steps_applied, b.fence_stalls), (0, 0));
    }
    assert!(
        skewed.sim_total_secs > clean.sim_total_secs,
        "the straggler ramp must stretch modeled time: {} vs {}",
        skewed.sim_total_secs,
        clean.sim_total_secs
    );
}

#[test]
fn bounded_staleness_is_deterministic_and_applies_stale_gradients() {
    let a = run(2, 1, 0.4, 2);
    let b = run(2, 1, 0.4, 2);
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(
            ea.train_loss.to_bits(),
            eb.train_loss.to_bits(),
            "modeled-time policies must stay reproducible"
        );
        assert_eq!(ea.val_mae.to_bits(), eb.val_mae.to_bits());
        assert_eq!(ea.stale_steps_applied, eb.stale_steps_applied);
        assert_eq!(ea.fence_stalls, eb.fence_stalls);
    }
    assert!(
        a.epochs.iter().any(|e| e.stale_steps_applied > 0),
        "under skew, s = 1 must actually defer applications: {:?}",
        a.epochs
            .iter()
            .map(|e| e.stale_steps_applied)
            .collect::<Vec<_>>()
    );
    assert!(a.best_val_mae().is_finite(), "and still learn");
}

#[test]
fn bounded_staleness_outruns_the_synchronous_path_under_stragglers() {
    // The tentpole claim, in miniature (the full sweep is `repro
    // staleness`): at world 4 under a straggler ramp, riding out
    // the skew inside the staleness window beats the per-step rendezvous,
    // and small-s convergence stays in the same neighborhood.
    let sync = run(4, 0, 0.5, 2);
    let stale = run(4, 1, 0.5, 2);
    assert!(
        stale.sim_total_secs < sync.sim_total_secs,
        "s=1 must beat s=0 under skew: {} vs {}",
        stale.sim_total_secs,
        sync.sim_total_secs
    );
    let (v_sync, v_stale) = (sync.best_val_mae(), stale.best_val_mae());
    assert!(
        (v_stale - v_sync).abs() <= 0.5 * v_sync,
        "small-s convergence should stay close: {v_stale} vs {v_sync}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The window's contract, under arbitrary arrival latencies and step
    /// times: every launch applies exactly once, in FIFO order, at an age
    /// that never exceeds the bound.
    #[test]
    fn window_applies_each_launch_once_in_order_within_the_bound(
        bound in 0usize..4,
        steps in proptest::collection::vec((0.0f64..8.0, 0.1f64..3.0), 1..24),
    ) {
        let clock = SimClock::new();
        let mut overlap = OverlapLedger::new();
        let mut w = StalenessWindow::new(bound);
        let mut applied: Vec<(u64, u64)> = Vec::new();
        for (step, &(delay, compute)) in steps.iter().enumerate() {
            let step = step as u64;
            clock.advance_compute(compute);
            let stream = overlap.begin_at(clock.now() + delay, clock.now());
            let buf = w.payload_buf();
            w.launch(step as usize, step, buf, stream);
            let mut hits = Vec::new();
            w.settle(step, &mut overlap, &clock, |bucket, _| hits.push(bucket as u64));
            applied.extend(hits.into_iter().map(|launch| (launch, step)));
        }
        let last = steps.len() as u64 - 1;
        w.flush(&mut overlap, &clock, |bucket, _| applied.push((bucket as u64, last)));
        prop_assert_eq!(w.in_flight(), 0);
        prop_assert_eq!(applied.len(), steps.len(), "each launch applied exactly once");
        for (i, &(launch, settle)) in applied.iter().enumerate() {
            prop_assert_eq!(launch, i as u64, "FIFO application order");
            prop_assert!(
                settle - launch <= bound as u64 || settle == last,
                "age {} exceeds bound {} (flush excepted)", settle - launch, bound
            );
        }
        prop_assert!(w.max_applied_age() <= bound as u64, "settle ages bounded");
    }

    /// `s = 0` over the async machinery is bitwise the quoted synchronous
    /// reduce, whatever clock skew the ranks carry into the collective —
    /// the degenerate window forces every payload to land in its own step.
    #[test]
    fn staleness_zero_matches_the_quoted_path_for_any_clock_skew(
        skews in proptest::collection::vec(0.0f64..5.0, 3..4),
        seed in any::<u32>(),
    ) {
        let out = run_workers(3, ClusterTopology::polaris(), move |mut ctx| {
            let rank = ctx.rank();
            ctx.clock.advance_compute(skews[rank]);
            let grads = |tag: &str| {
                let ps = vec![
                    pgt_i::autograd::Param::new(
                        format!("{tag}.a"),
                        Tensor::zeros([3]),
                    ),
                    pgt_i::autograd::Param::new(
                        format!("{tag}.b"),
                        Tensor::zeros([4]),
                    ),
                ];
                for (i, p) in ps.iter().enumerate() {
                    let v: Vec<f32> = (0..p.numel())
                        .map(|j| {
                            let k = seed
                                .wrapping_mul(2654435761)
                                .wrapping_add((rank * 97 + i * 31 + j) as u32);
                            (k % 1000) as f32 * 0.013 - 6.5
                        })
                        .collect();
                    let n = v.len();
                    p.set_grad(Some(Tensor::from_vec(v, [n]).unwrap()));
                }
                ps
            };
            let sync_ps = grads("sync");
            let mut sync = GradBuckets::new(sync_ps.clone(), 12);
            for i in 0..sync.num_buckets() {
                sync.reduce_bucket_quoted(i, &mut ctx.comm);
            }

            let stale_ps = grads("stale");
            let mut buckets = GradBuckets::new(stale_ps.clone(), 12);
            let mut overlap = OverlapLedger::new();
            let mut w = StalenessWindow::new(0);
            for i in 0..buckets.num_buckets() {
                let ready_at = buckets.reduce_bucket_async(i, &mut ctx.comm);
                let stream = overlap.begin_at(ready_at, ctx.clock.now());
                let mut buf = w.payload_buf();
                buf.extend_from_slice(buckets.bucket_payload(i));
                w.launch(i, 0, buf, stream);
            }
            for p in &stale_ps {
                p.zero_grad();
            }
            w.settle(0, &mut overlap, &ctx.clock, |i, p| buckets.apply_stale(i, p));
            assert_eq!(w.in_flight(), 0, "bound 0 settles in-step");
            assert_eq!(w.max_applied_age(), 0);

            let bits = |ps: &[pgt_i::autograd::Param]| -> Vec<u32> {
                ps.iter()
                    .flat_map(|p| p.grad().unwrap().to_vec())
                    .map(f32::to_bits)
                    .collect()
            };
            (bits(&sync_ps), bits(&stale_ps))
        });
        for (sync, stale) in out {
            prop_assert_eq!(sync, stale, "s = 0 must be bitwise synchronous");
        }
    }
}
