//! Property-based pinning of the kernel-backend bitwise contract: for
//! arbitrary (ragged, tiny, empty) shapes, the tiled backend's GEMM, bmm,
//! and fused elementwise kernels produce **bit-identical** `f32` buffers to
//! the reference backend. This is the invariant that lets the engine's
//! golden tests keep pinning train-loss bits while the backend underneath
//! is swapped freely (DESIGN.md §8).
//!
//! The backends are exercised as structs (not through the process-wide
//! dispatch), so these tests are independent of `ST_BACKEND` and of any
//! other test mutating the global selection.
//!
//! The last property pins the other half of the contract: the intra-op
//! width (`st_tensor::par`) moves chunk boundaries and never a bit.

use pgt_i::tensor::backend::{kernels_for, Activation, BackendKind, Kernels};
use pgt_i::tensor::ops::reduce::sum_abs;
use pgt_i::tensor::{par, Tensor};
use proptest::prelude::*;

fn reference() -> &'static dyn Kernels {
    kernels_for(BackendKind::Reference)
}

fn tiled() -> &'static dyn Kernels {
    kernels_for(BackendKind::Tiled)
}

/// Deterministic mixed-sign values from a seed (xorshift, like the other
/// proptest files — cheap and shrink-friendly).
fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed as u64 | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 / 1000.0) - 1.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiled GEMM == reference GEMM, bit for bit, across ragged shapes that
    /// straddle the small-product fallback and the tile remainders
    /// (m % MR, n % NR, any k — including empty dims).
    #[test]
    fn tiled_matmul_bitwise_equals_reference(
        m in 0usize..70,
        k in 0usize..70,
        n in 0usize..70,
        seed in any::<u32>(),
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed.wrapping_add(1));
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        reference().matmul(&a, &b, &mut r, m, k, n);
        tiled().matmul(&a, &b, &mut t, m, k, n);
        prop_assert_eq!(bits(&r), bits(&t), "({}, {}, {})", m, k, n);
    }

    /// Batched GEMM agrees in both rhs modes: one shared `[k,n]` weight
    /// (the seq2seq unroll) and a per-batch `[bs,k,n]` rhs.
    #[test]
    fn tiled_bmm_bitwise_equals_reference(
        bs in 0usize..5,
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        shared in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let a = fill(bs * m * k, seed);
        let blen = if shared { k * n } else { bs * k * n };
        let b = fill(blen, seed.wrapping_add(2));
        let mut r = vec![0.0f32; bs * m * n];
        let mut t = vec![0.0f32; bs * m * n];
        reference().bmm(&a, &b, &mut r, bs, m, k, n, shared);
        tiled().bmm(&a, &b, &mut t, bs, m, k, n, shared);
        prop_assert_eq!(bits(&r), bits(&t), "({}, {}, {}, {}) shared={}", bs, m, k, n, shared);
    }

    /// The fused bias+activation tail matches the reference's two
    /// materializing passes bitwise for every activation and row width.
    #[test]
    fn fused_bias_act_bitwise_equals_reference(
        rows in 1usize..40,
        width in 1usize..33,
        which in 0u8..3,
        seed in any::<u32>(),
    ) {
        let act = match which {
            0 => Activation::Identity,
            1 => Activation::Sigmoid,
            _ => Activation::Tanh,
        };
        let z = fill(rows * width, seed);
        let bias = fill(width, seed.wrapping_add(3));
        let mut r = vec![0.0f32; z.len()];
        let mut t = vec![0.0f32; z.len()];
        reference().bias_act(&z, &bias, &mut r, act);
        tiled().bias_act(&z, &bias, &mut t, act);
        prop_assert_eq!(bits(&r), bits(&t), "{:?} {}x{}", act, rows, width);
    }

    /// The fused GRU blend matches the composed
    /// `(u*h) + (((u*-1)+1)*c)` expression bitwise.
    #[test]
    fn fused_gru_blend_bitwise_equals_reference(
        len in 0usize..200,
        seed in any::<u32>(),
    ) {
        let u = fill(len, seed);
        let h = fill(len, seed.wrapping_add(4));
        let c = fill(len, seed.wrapping_add(5));
        let mut r = vec![0.0f32; len];
        let mut t = vec![0.0f32; len];
        reference().gru_blend(&u, &h, &c, &mut r);
        tiled().gru_blend(&u, &h, &c, &mut t);
        prop_assert_eq!(bits(&r), bits(&t));
    }

    /// Non-finite values flow through both backends identically — the
    /// historical zero-skip that swallowed `0 × NaN` is pinned out.
    #[test]
    fn non_finite_propagation_agrees(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        poison_at in any::<u32>(),
        poison_inf in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let a = fill(m * k, seed);
        let mut b = fill(k * n, seed.wrapping_add(6));
        let idx = poison_at as usize % b.len();
        b[idx] = if poison_inf { f32::INFINITY } else { f32::NAN };
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        reference().matmul(&a, &b, &mut r, m, k, n);
        tiled().matmul(&a, &b, &mut t, m, k, n);
        prop_assert_eq!(bits(&r), bits(&t));
        // The poisoned column's outputs must be non-finite in both.
        let col = idx % n;
        for i in 0..m {
            prop_assert!(!r[i * n + col].is_finite(), "row {} col {}", i, col);
        }
    }
}

/// Every data-parallel kernel's output bits at one intra-op width, and how
/// many of the five calls were split over the pool, on shapes big enough to
/// be split (at the default `par_threshold`) and ragged against every width
/// tried.
fn kernel_bits_at_width(
    width: usize,
    kernels: &dyn Kernels,
    (bs, m, k, n): (usize, usize, usize, usize),
    (a, b): (&[f32], &[f32]),
    (row_ptr, col_idx, values, x): (&[usize], &[usize], &[f32], &[f32]),
    long: &Tensor,
) -> (Vec<Vec<u32>>, u64) {
    par::with_width(width, || {
        let pooled_before = par::dispatch_calls()[0];
        let mut matmul = vec![0.0f32; m * n];
        kernels.matmul(&a[..m * k], &b[..k * n], &mut matmul, m, k, n);
        let mut shared = vec![0.0f32; bs * m * n];
        kernels.bmm(a, &b[..k * n], &mut shared, bs, m, k, n, true);
        let mut per_batch = vec![0.0f32; bs * m * n];
        kernels.bmm(a, b, &mut per_batch, bs, m, k, n, false);
        let rows = row_ptr.len() - 1;
        let mut spmm = vec![0.0f32; rows * n];
        kernels.spmm(row_ptr, col_idx, values, x, &mut spmm, rows, n);
        let total = sum_abs(long).to_bits();
        let out = vec![
            bits(&matmul),
            bits(&shared),
            bits(&per_batch),
            bits(&spmm),
            vec![(total >> 32) as u32, total as u32],
        ];
        (out, par::dispatch_calls()[0] - pooled_before)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Width 1 (sequential), 2, 3 and 7 (wider than most runners, dividing
    /// none of the shapes) give the same bits for matmul, bmm with a
    /// shared and a per-batch rhs, spmm and `sum_abs`, on both backends —
    /// "bits never depend on the thread count" as a test, not a comment.
    #[test]
    fn results_do_not_depend_on_the_intra_op_width(
        bs in 2usize..5,
        m in 41usize..90,
        k in 32usize..60,
        n in 32usize..60,
        degree in 7usize..12,
        tail in 1usize..70_000,
        seed in any::<u32>(),
    ) {
        let a = fill(bs * m * k, seed);
        let b = fill(bs * k * n, seed.wrapping_add(7));
        // A square CSR over `4m` rows, `degree` pseudo-random columns each.
        let rows = 4 * m;
        let row_ptr: Vec<usize> = (0..=rows).map(|r| r * degree).collect();
        let col_idx: Vec<usize> = fill(rows * degree, seed.wrapping_add(8))
            .iter()
            .map(|v| ((v + 1.0) * 500.0) as usize % rows)
            .collect();
        let values = fill(rows * degree, seed.wrapping_add(9));
        let x = fill(rows * n, seed.wrapping_add(10));
        // Two full `sum_abs` chunks and a ragged third.
        let long_len = 2 * (1 << 16) + tail;
        let long = Tensor::from_vec(fill(long_len, seed.wrapping_add(11)), [long_len])
            .expect("1-d tensor");
        for kernels in [reference(), tiled()] {
            let at = |width| {
                kernel_bits_at_width(
                    width,
                    kernels,
                    (bs, m, k, n),
                    (&a, &b),
                    (&row_ptr, &col_idx, &values, &x),
                    &long,
                )
            };
            let (sequential, pooled) = at(1);
            prop_assert_eq!(pooled, 0, "width 1 never reaches the pool");
            for width in [2, 3, 7] {
                let (bits, pooled) = at(width);
                prop_assert!(
                    bits == sequential,
                    "{} at width {}: ({}, {}, {}, {})",
                    kernels.name(), width, bs, m, k, n
                );
                // Not vacuous: unless the environment raised the threshold,
                // all five calls really were split.
                prop_assert!(
                    pooled == 5 || par::par_threshold() > par::PAR_THRESHOLD,
                    "{} at width {}: {} of 5 calls pooled", kernels.name(), width, pooled
                );
            }
        }
    }
}
