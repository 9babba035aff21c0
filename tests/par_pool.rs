//! The resident intra-op pool behind `st_tensor::par`, from outside the
//! crate: what a caller can rely on whatever the host's core count,
//! `ST_NUM_THREADS` or the state of the pool's workers.
//!
//! Every dispatch here declares `usize::MAX` work under an explicit
//! `with_width`, so the pooled path is taken even where the default width
//! is 1 (a one-core runner, `ST_NUM_THREADS=1`) — the pool then simply has
//! no workers and the caller runs every chunk, which is part of the
//! contract.

use pgt_i::dist::{run_workers, ClusterTopology};
use pgt_i::tensor::par;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const POOLED: usize = usize::MAX;

/// Visit counts of `0..len` under one `parallel_chunks` call.
fn visits(len: usize) -> Vec<usize> {
    let seen: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
    par::parallel_chunks(len, POOLED, |_, lo, hi| {
        for slot in &seen[lo..hi] {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    });
    seen.into_iter().map(AtomicUsize::into_inner).collect()
}

#[test]
fn a_panicking_chunk_reaches_the_caller_after_the_rest_finished_and_the_pool_lives_on() {
    const CHUNKS: usize = 6;
    // Chunk 0 runs on the caller, the last one most likely on a worker.
    for bad in [0, CHUNKS - 1] {
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            par::with_width(CHUNKS, || {
                par::parallel_chunks(CHUNKS, POOLED, |c, _, _| {
                    if c == bad {
                        panic!("chunk {c} gives up");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            })
        }));
        let payload = outcome.expect_err("the chunk's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("chunk {bad} gives up").as_str()),
            "the original payload, not a wrapper"
        );
        // `finished` lives on this stack frame: had the panic come back
        // while a chunk still ran, that chunk would hold a dangling borrow.
        assert_eq!(finished.load(Ordering::Relaxed), CHUNKS - 1);
        // Same pool, next call.
        par::with_width(CHUNKS, || {
            assert_eq!(visits(1000), vec![1; 1000]);
        });
    }
}

#[test]
fn every_chunk_sees_and_mutates_borrowed_stack_data_exactly_once() {
    for width in [2, 3, 7] {
        par::with_width(width, || {
            for len in [0, 1, 2, width, width + 1, 1000] {
                assert_eq!(visits(len), vec![1; len], "width {width} len {len}");

                // The `&mut` flavour: each 3-element chunk is handed out
                // once, with its own index, and the writes come back.
                let scale = 0.5f32; // borrowed by every chunk
                let mut out = vec![1.0f32; len * 3];
                par::parallel_fill_chunks(&mut out, 3, POOLED, |i, chunk| {
                    for x in chunk.iter_mut() {
                        *x += i as f32 * scale;
                    }
                });
                let want: Vec<f32> = (0..len * 3).map(|j| 1.0 + (j / 3) as f32 * scale).collect();
                assert_eq!(out, want, "width {width} len {len}");
            }
        });
    }
}

#[test]
fn four_concurrent_callers_all_complete_with_their_own_coverage() {
    const CALLERS: usize = 4;
    const ROUNDS: usize = 200;
    let gate = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let gate = &gate;
            scope.spawn(move || {
                let len = 100 + caller * 37;
                par::with_width(3, || {
                    gate.wait();
                    for round in 0..ROUNDS {
                        assert_eq!(visits(len), vec![1; len], "caller {caller} round {round}");
                    }
                });
            });
        }
    });
}

#[test]
fn dispatching_from_inside_a_chunk_completes() {
    let inner = AtomicUsize::new(0);
    par::with_width(3, || {
        par::parallel_chunks(3, POOLED, |_, _, _| {
            // A chunk is one of its caller's pieces: by default the
            // kernels nested in it run inline…
            assert_eq!(par::width(), 1);
            assert_eq!(visits(50), vec![1; 50]);
            // …and one that asks for width again goes through the pool
            // from whatever thread the chunk landed on, without deadlock.
            par::with_width(3, || {
                par::parallel_chunks(9, POOLED, |_, lo, hi| {
                    inner.fetch_add(hi - lo, Ordering::Relaxed);
                });
            });
        });
    });
    assert_eq!(inner.load(Ordering::Relaxed), 3 * 9);
}

#[test]
fn run_workers_hands_each_rank_its_share_of_the_callers_width() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cap = par::num_threads();
    assert_eq!(par::width(), cap, "an unbudgeted thread may use the cap");
    for world in [1, 2, 3, 2 * cores] {
        let widths = run_workers(world, ClusterTopology::polaris(), |_| par::width());
        assert_eq!(widths, vec![(cap / world).max(1); world], "world {world}");
        assert_eq!(par::width(), cap, "caller's width after world {world}");
    }
    // The share is of the *caller's* budget, so nested worlds divide
    // instead of multiplying; the scope restores on exit.
    par::with_width(6, || {
        let widths = run_workers(2, ClusterTopology::polaris(), |_| {
            run_workers(3, ClusterTopology::polaris(), |_| par::width())
        });
        assert_eq!(widths, vec![vec![1; 3]; 2]);
        assert_eq!(
            run_workers(1, ClusterTopology::polaris(), |_| par::width()),
            vec![6],
            "world 1 runs on the caller and keeps its width"
        );
        assert_eq!(par::width(), 6);
    });
    assert_eq!(par::width(), cap);
}
