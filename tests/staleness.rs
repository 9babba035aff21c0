//! Bounded-staleness gradient sync: determinism, the `s = 0` equivalence,
//! the landing age, and the modeled-time win of hiding the wire.

use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::workflow::pgt_dcrnn_factory;
use pgt_i::core::EngineReport;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::signal::StaticGraphTemporalSignal;
use pgt_i::data::synthetic;
use pgt_i::device::SimClock;
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

fn run(world: usize, staleness: usize, epochs: usize) -> EngineReport {
    let (spec, sig) = setup();
    let mut cfg = DistConfig::new(world, epochs, spec.horizon);
    cfg.batch_per_worker = 2;
    cfg.staleness = staleness;
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, 42);
    run_distributed_index(&sig, &cfg, &factory)
}

#[test]
fn bounded_staleness_is_deterministic_and_applies_stale_gradients() {
    let bits = |r: &EngineReport| -> Vec<(u32, u32)> {
        r.epochs
            .iter()
            .map(|e| (e.train_loss.to_bits(), e.val_mae.to_bits()))
            .collect()
    };
    let a = run(2, 1, 2);
    let b = run(2, 1, 2);
    assert_eq!(bits(&a), bits(&b), "the schedule must stay reproducible");
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.fence_stalls, eb.fence_stalls);
    }
    assert_ne!(
        bits(&a),
        bits(&run(2, 0, 2)),
        "s = 1 must actually apply its gradients a step late"
    );
    assert!(a.best_val_mae().is_finite(), "and still learn");
}

#[test]
fn bounded_staleness_outruns_the_synchronous_path_under_stragglers() {
    // The tentpole claim, in miniature (the full sweep is `repro
    // staleness`): at world 4, hiding each step's gradient wire behind
    // the next step beats the per-step rendezvous, in which the ranks'
    // clocks also wait for the slowest, and small-s convergence stays in
    // the same neighborhood.
    let sync = run(4, 0, 2);
    let stale = run(4, 1, 2);
    assert!(
        stale.sim_total_secs < sync.sim_total_secs,
        "s=1 must beat s=0: {} vs {}",
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
    /// of exactly the bound (the final flush excepted).
    #[test]
    fn window_applies_each_launch_once_in_order_within_the_bound(
        bound in 0usize..4,
        steps in proptest::collection::vec((0.0f64..8.0, 0.1f64..3.0), 1..24),
    ) {
        let mut clock = SimClock::new();
        let mut w = StalenessWindow::new(bound);
        let mut applied: Vec<(u64, u64)> = Vec::new();
        for (step, &(delay, compute)) in steps.iter().enumerate() {
            let step = step as u64;
            clock.advance_compute(compute);
            let stream = clock.begin_at(clock.now() + delay);
            let buf = w.payload_buf();
            w.launch(step as usize, step, buf, stream);
            let mut hits = Vec::new();
            w.settle(step, &mut clock, |bucket, _| hits.push(bucket as u64));
            applied.extend(hits.into_iter().map(|launch| (launch, step)));
        }
        let last = steps.len() as u64 - 1;
        w.flush(&mut clock, |bucket, _| applied.push((bucket as u64, last)));
        prop_assert_eq!(w.in_flight(), 0);
        prop_assert_eq!(applied.len(), steps.len(), "each launch applied exactly once");
        for (i, &(launch, settle)) in applied.iter().enumerate() {
            prop_assert_eq!(launch, i as u64, "FIFO application order");
            let flushed = settle == last && launch + bound as u64 > last;
            prop_assert!(
                settle - launch == bound as u64 || flushed,
                "age {} is not bound {} (flush excepted)", settle - launch, bound
            );
        }
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
            ctx.comm.clock_mut().advance_compute(skews[rank]);
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
            let mut w = StalenessWindow::new(0);
            for i in 0..buckets.num_buckets() {
                let ready_at = buckets.reduce_bucket_async(i, &mut ctx.comm);
                let stream = ctx.comm.clock_mut().begin_at(ready_at);
                let mut buf = w.payload_buf();
                buf.extend_from_slice(buckets.bucket_payload(i));
                w.launch(i, 0, buf, stream);
            }
            for p in &stale_ps {
                p.zero_grad();
            }
            w.settle(0, ctx.comm.clock_mut(), |i, p| buckets.apply_stale(i, p));
            assert_eq!(w.in_flight(), 0, "bound 0 settles in-step");

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
