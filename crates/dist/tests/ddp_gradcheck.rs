//! The DDP correctness property (§4.2): averaging per-worker gradients over
//! equal sub-batches is mathematically identical to computing the gradient
//! of the same mean loss on the concatenated batch. This is the distributed
//! analogue of `crates/autograd/tests/gradcheck.rs` — there the backward
//! rules are pinned against finite differences; here the *collective* is
//! pinned against the single-worker autograd result.

use st_autograd::module::Param;
use st_autograd::{loss, ops, Tape};
use st_dist::ddp::broadcast_parameters;
use st_dist::{run_workers, ClusterTopology, GradBuckets};
use st_tensor::Tensor;

const DIM: usize = 5;
const PER_WORKER: usize = 4;

/// Deterministic pseudo-random inputs (shared by both sides of the check).
fn data(world: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let n = world * PER_WORKER;
    let xs: Vec<f32> = (0..n * DIM)
        .map(|i| ((i.wrapping_mul(2_654_435_761) >> 7) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let ys: Vec<f32> = (0..n).map(|i| (i % 7) as f32 / 3.0 - 1.0).collect();
    let w0: Vec<f32> = (0..DIM).map(|i| 0.05 * (i as f32 + 1.0)).collect();
    (xs, ys, w0)
}

/// Gradient of mean-squared error of `y = X·w` on one batch.
fn reference_grad(xs: &[f32], ys: &[f32], w0: &[f32], rows: usize) -> Vec<f32> {
    let p = Param::new("w", Tensor::from_vec(w0.to_vec(), [DIM, 1]).unwrap());
    let tape = Tape::new();
    let x = tape.constant(Tensor::from_vec(xs.to_vec(), [rows, DIM]).unwrap());
    let target = tape.constant(Tensor::from_vec(ys.to_vec(), [rows, 1]).unwrap());
    let w = tape.param(&p);
    let pred = ops::matmul(&x, &w);
    let l = loss::mse(&pred, &target);
    let grads = tape.backward(&l);
    tape.accumulate_param_grads(&grads);
    p.grad().expect("reference gradient").to_vec()
}

#[test]
fn averaged_gradients_match_concatenated_batch() {
    for world in [1usize, 2, 3, 4] {
        let (xs, ys, w0) = data(world);
        let want = reference_grad(&xs, &ys, &w0, world * PER_WORKER);

        let results = run_workers(world, ClusterTopology::polaris(), |mut ctx| {
            let r = ctx.rank();
            let p = Param::new("w", Tensor::from_vec(w0.clone(), [DIM, 1]).unwrap());
            let mut sync = GradBuckets::new(vec![p.clone()], usize::MAX);
            broadcast_parameters(std::slice::from_ref(&p), &mut ctx.comm);

            let tape = Tape::new();
            let x = tape.constant(
                Tensor::from_vec(
                    xs[r * PER_WORKER * DIM..(r + 1) * PER_WORKER * DIM].to_vec(),
                    [PER_WORKER, DIM],
                )
                .unwrap(),
            );
            let target = tape.constant(
                Tensor::from_vec(
                    ys[r * PER_WORKER..(r + 1) * PER_WORKER].to_vec(),
                    [PER_WORKER, 1],
                )
                .unwrap(),
            );
            let w = tape.param(&p);
            let pred = ops::matmul(&x, &w);
            let l = loss::mse(&pred, &target);
            let grads = tape.backward(&l);
            tape.accumulate_param_grads(&grads);
            sync.reduce_bucket_quoted(0, &mut ctx.comm);
            p.grad().expect("averaged gradient").to_vec()
        });

        for (rank, got) in results.iter().enumerate() {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                    "world={world} rank={rank}: averaged {g} vs concatenated {w}"
                );
            }
        }
    }
}

#[test]
fn all_ranks_hold_identical_gradients_after_averaging() {
    let world = 3;
    let (xs, ys, w0) = data(world);
    let results = run_workers(world, ClusterTopology::polaris(), |mut ctx| {
        let r = ctx.rank();
        let p = Param::new("w", Tensor::from_vec(w0.clone(), [DIM, 1]).unwrap());
        let mut sync = GradBuckets::new(vec![p.clone()], usize::MAX);
        let tape = Tape::new();
        let x = tape.constant(
            Tensor::from_vec(
                xs[r * PER_WORKER * DIM..(r + 1) * PER_WORKER * DIM].to_vec(),
                [PER_WORKER, DIM],
            )
            .unwrap(),
        );
        let target = tape.constant(
            Tensor::from_vec(
                ys[r * PER_WORKER..(r + 1) * PER_WORKER].to_vec(),
                [PER_WORKER, 1],
            )
            .unwrap(),
        );
        let w = tape.param(&p);
        let l = loss::mse(&ops::matmul(&x, &w), &target);
        let grads = tape.backward(&l);
        tape.accumulate_param_grads(&grads);
        sync.reduce_bucket_quoted(0, &mut ctx.comm);
        p.grad().unwrap().to_vec()
    });
    // Bit-identical across ranks: the collective combines in rank order.
    for r in 1..world {
        assert_eq!(results[0], results[r], "rank {r} diverged from rank 0");
    }
}
