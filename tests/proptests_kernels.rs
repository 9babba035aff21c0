//! Property-based pinning of the kernel-backend bitwise contract: for
//! arbitrary (ragged, tiny, empty) shapes, the tiled backend's GEMM, bmm,
//! panel and split-store GEMMs, the panel GEMM's weight gradient, CSR SpMM
//! and fused elementwise kernels produce **bit-identical** `f32` buffers to
//! the reference backend. This
//! is the invariant that lets the engine's golden tests keep pinning
//! train-loss bits while the backend underneath is swapped freely
//! (DESIGN.md §8). On an AVX-512 build the tiled GEMM and SpMM are the
//! intrinsic register tiles; on any other target they are the portable
//! ones, and the same properties pin both.
//!
//! The backends are exercised as structs (not through the process-wide
//! dispatch), so these tests are independent of `ST_BACKEND` and of any
//! other test mutating the global selection. The one exception, the panel
//! GEMM's autograd property, selects each backend in turn; both give the
//! same bits, so the switch cannot move another test's result.
//!
//! The last property pins the other half of the contract: the intra-op
//! width (`st_tensor::par`) moves chunk boundaries and never a bit. One
//! plain test checks that every kernel panics on a short or out-of-range
//! operand instead of reading past it.

use pgt_i::autograd::{ops, Tape, Var};
use pgt_i::tensor::backend::{
    active_backend, kernels_for, set_backend, Activation, BackendKind, Kernels,
};
use pgt_i::tensor::ops as tensor_ops;
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
    /// (m % MR, n % NC, any k — including empty dims).
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
    /// (the seq2seq unroll) and a per-batch `[bs,k,n]` rhs, with NaNs of
    /// four payloads, ±∞ and −0.0 planted, two of the NaNs where they meet
    /// in one product.
    #[test]
    fn tiled_bmm_bitwise_equals_reference(
        bs in 0usize..5,
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        shared in any::<bool>(),
        specials in proptest::collection::vec((any::<u32>(), 0u8..7, any::<bool>()), 0..6),
        meet in (any::<u32>(), 4u8..7),
        seed in any::<u32>(),
    ) {
        let mut a = fill(bs * m * k, seed);
        let blen = if shared { k * n } else { bs * k * n };
        let mut b = fill(blen, seed.wrapping_add(2));
        plant(&specials, &mut a, &mut b);
        if bs * m * k * n > 0 {
            let (r, l, c, x, y) = meeting(meet, bs * m, k, n);
            a[r * k + l] = x;
            b[if shared { 0 } else { r / m * k * n } + l * n + c] = y;
        }
        let mut r = vec![0.0f32; bs * m * n];
        let mut t = vec![0.0f32; bs * m * n];
        reference().bmm(&a, &b, &mut r, bs, m, k, n, shared);
        tiled().bmm(&a, &b, &mut t, bs, m, k, n, shared);
        prop_assert_eq!(bits(&r), bits(&t), "({}, {}, {}, {}) shared={}", bs, m, k, n, shared);
    }

    /// A projection's narrow shapes, shared rhs: one output column (rows
    /// 64 to a block, read down a column of the lhs), two columns, and one
    /// lane (`k = 1`), over up to 267 rows (several 12- and 64-row blocks
    /// and every remainder), with NaNs of four payloads, ±∞ and −0.0
    /// planted and two NaNs meeting in one product, so the operand order of
    /// every multiply is pinned.
    #[test]
    fn narrow_bmm_bitwise_equals_reference(
        bs in 1usize..4,
        m in 1usize..90,
        wide in 1usize..40,
        which in 0u8..3,
        specials in proptest::collection::vec((any::<u32>(), 0u8..7, any::<bool>()), 0..6),
        meet in (any::<u32>(), 4u8..7),
        seed in any::<u32>(),
    ) {
        let (k, n) = match which {
            0 => (wide, 1),
            1 => (wide, 2),
            _ => (1, wide),
        };
        let mut a = fill(bs * m * k, seed);
        let mut b = fill(k * n, seed.wrapping_add(3));
        plant(&specials, &mut a, &mut b);
        let (r, l, c, x, y) = meeting(meet, bs * m, k, n);
        a[r * k + l] = x;
        b[l * n + c] = y;
        let mut want = vec![0.0f32; bs * m * n];
        let mut got = vec![0.0f32; bs * m * n];
        reference().bmm(&a, &b, &mut want, bs, m, k, n, true);
        tiled().bmm(&a, &b, &mut got, bs, m, k, n, true);
        prop_assert_eq!(bits(&want), bits(&got), "({}, {}, {}, {})", bs, m, k, n);
    }

    /// Tiled SpMM == reference SpMM, bit for bit: 0 to 69 rows of 0 to 5
    /// nonzeros (empty rows included), `n` from 0 to 69 (one to five
    /// 16-lane strips and every tail width), columns drawn from a few `x`
    /// rows so they repeat within a row, and NaN / ±∞ / −0.0 planted in
    /// both `x` and `values`.
    #[test]
    fn tiled_spmm_bitwise_equals_reference(
        degrees in proptest::collection::vec(0usize..6, 0..70),
        n in 0usize..70,
        cols in 1usize..12,
        specials in proptest::collection::vec((any::<u32>(), 0u8..4, any::<bool>()), 0..6),
        seed in any::<u32>(),
    ) {
        let rows = degrees.len();
        let row_ptr: Vec<usize> = std::iter::once(0)
            .chain(degrees.iter().scan(0, |end, &d| {
                *end += d;
                Some(*end)
            }))
            .collect();
        let nnz = row_ptr[rows];
        let col_idx: Vec<usize> = fill(nnz, seed)
            .iter()
            .map(|v| ((v + 1.0) * 1000.0) as usize % cols)
            .collect();
        let mut values = fill(nnz, seed.wrapping_add(1));
        let mut x = fill(cols * n, seed.wrapping_add(2));
        for &(at, kind, in_x) in &specials {
            let target = if in_x { &mut x } else { &mut values };
            if !target.is_empty() {
                let i = at as usize / 7 % target.len();
                target[i] = special(kind);
            }
        }
        let mut r = vec![0.0f32; rows * n];
        let mut t = vec![0.0f32; rows * n];
        reference().spmm(&row_ptr, &col_idx, &values, &x, &mut r, rows, n);
        tiled().spmm(&row_ptr, &col_idx, &values, &x, &mut t, rows, n);
        prop_assert_eq!(bits(&r), bits(&t), "{} rows, n {}, {} cols", rows, n, cols);
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

    /// The panel GEMM equals concatenate-then-`bmm`, bit for bit, on both
    /// backends: ragged panel widths (1 to 69), `n` up to 70 (one to three
    /// zmm strips and every tail), NaNs of four payloads, ±∞ and −0.0
    /// planted in the panels and the rhs, two of the NaNs where they meet
    /// in one product. `Reference::bmm_panels` is itself the concatenation
    /// and the naive `bmm`, so it is checked too.
    #[test]
    fn panel_gemm_bitwise_equals_concat_then_bmm(
        widths in proptest::collection::vec(1usize..70, 1..5),
        bs in 1usize..4,
        m in 1usize..40,
        n in 1usize..71,
        specials in proptest::collection::vec((any::<u32>(), 0u8..7), 0..6),
        meet in (any::<u32>(), 4u8..7),
        seed in any::<u32>(),
    ) {
        let k: usize = widths.iter().sum();
        let mut panels: Vec<Vec<f32>> = widths
            .iter()
            .enumerate()
            .map(|(p, &w)| fill(bs * m * w, seed.wrapping_add(p as u32)))
            .collect();
        let mut b = fill(k * n, seed.wrapping_add(99));
        for &(at, kind) in &specials {
            let target = match at as usize % (panels.len() + 1) {
                p if p < panels.len() => &mut panels[p],
                _ => &mut b,
            };
            let i = at as usize / 7 % target.len();
            target[i] = payload_special(kind);
        }
        let (r, l, c, x, y) = meeting(meet, bs * m, k, n);
        let (p, t) = lane_in_panel(&widths, l);
        panels[p][r * widths[p] + t] = x;
        b[l * n + c] = y;
        let cat = concat_panels(&panels, &widths, bs * m);
        let refs: Vec<&[f32]> = panels.iter().map(Vec::as_slice).collect();
        let mut want = vec![0.0f32; bs * m * n];
        reference().bmm(&cat, &b, &mut want, bs, m, k, n, true);
        // Sums seeded with +0.0 never become −0.0, whatever the inputs: the
        // diffusion convolution's identity pass-through relies on it.
        prop_assert!(want.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()));
        for kernels in [reference(), tiled()] {
            let mut concat_out = vec![0.0f32; bs * m * n];
            kernels.bmm(&cat, &b, &mut concat_out, bs, m, k, n, true);
            let mut panel_out = vec![0.0f32; bs * m * n];
            kernels.bmm_panels(&refs, &widths, &b, &mut panel_out, bs, m, n);
            prop_assert_eq!(bits(&concat_out), bits(&want), "{} bmm", kernels.name());
            prop_assert_eq!(
                bits(&panel_out), bits(&want),
                "{} panels {:?} ({}, {}, {})", kernels.name(), widths, bs, m, n
            );
        }
    }

    /// The split-store GEMM equals the whole `bmm` with its columns copied
    /// out panel by panel, bit for bit, on both backends, with the same
    /// ragged widths and planted specials, two NaNs meeting in one product.
    /// It is the panel GEMM's `dPₖ`.
    #[test]
    fn split_store_gemm_bitwise_equals_bmm_then_narrow(
        widths in proptest::collection::vec(1usize..70, 1..5),
        bs in 1usize..4,
        m in 1usize..40,
        k in 1usize..40,
        specials in proptest::collection::vec((any::<u32>(), 0u8..7), 0..6),
        meet in (any::<u32>(), 4u8..7),
        seed in any::<u32>(),
    ) {
        let n: usize = widths.iter().sum();
        let mut a = fill(bs * m * k, seed);
        let mut b = fill(k * n, seed.wrapping_add(99));
        for &(at, kind) in &specials {
            let target = if at % 2 == 0 { &mut a } else { &mut b };
            let i = at as usize / 7 % target.len();
            target[i] = payload_special(kind);
        }
        let (r, l, c, x, y) = meeting(meet, bs * m, k, n);
        a[r * k + l] = x;
        b[l * n + c] = y;
        let mut full = vec![0.0f32; bs * m * n];
        reference().bmm(&a, &b, &mut full, bs, m, k, n, true);
        // Panel p: columns off..off+w of every row of the whole product.
        let mut want: Vec<Vec<f32>> = Vec::new();
        let mut off = 0;
        for &w in &widths {
            want.push(full.chunks_exact(n).flat_map(|row| &row[off..off + w]).copied().collect());
            off += w;
        }
        for kernels in [reference(), tiled()] {
            let mut bufs: Vec<Vec<f32>> = widths.iter().map(|&w| vec![0.0f32; bs * m * w]).collect();
            let mut outs: Vec<&mut [f32]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
            kernels.bmm_split(&a, &b, &mut outs, &widths, bs, m, k);
            for (p, (got, want)) in bufs.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    bits(got), bits(want),
                    "{} panel {} of {:?} ({}, {}, {})", kernels.name(), p, widths, bs, m, k
                );
            }
        }
    }

    /// The panel GEMM's weight gradient equals the composition it replaces,
    /// bit for bit, on both backends: the panels' transposes concatenated,
    /// one batched GEMM against `g`, and the products summed in batch order
    /// by `add_assign`. Ragged panel widths 1–69 put panel boundaries inside
    /// the 12-row blocks, `K·in` and `n` are rarely multiples of `MR` and
    /// `NC`, `bs = 1` is included, and NaNs of several payloads, ±∞ and
    /// −0.0 are planted in the panels and in `g`: with two NaNs in one batch
    /// sum, only the add's operand order decides which payload survives.
    #[test]
    fn panel_gemm_dw_bitwise_equals_transpose_concat_bmm_sum(
        widths in proptest::collection::vec(1usize..70, 1..5),
        bs in 1usize..5,
        m in 1usize..40,
        n in 1usize..40,
        specials in proptest::collection::vec((any::<u32>(), 0u8..7), 0..8),
        seed in any::<u32>(),
    ) {
        let k: usize = widths.iter().sum();
        let mut inputs: Vec<Vec<f32>> = widths
            .iter()
            .enumerate()
            .map(|(p, &w)| fill(bs * m * w, seed.wrapping_add(p as u32)))
            .collect();
        inputs.push(fill(bs * m * n, seed.wrapping_add(98))); // g
        for &(at, kind) in &specials {
            let target = &mut inputs[at as usize % (widths.len() + 1)];
            let i = at as usize / 7 % target.len();
            target[i] = payload_special(kind);
        }
        let g = inputs.pop().expect("g");
        let panels: Vec<Tensor> = widths
            .iter()
            .zip(&inputs)
            .map(|(&w, p)| Tensor::from_vec(p.clone(), [bs, m, w]).expect("sized buffer"))
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        for kernels in [reference(), tiled()] {
            // The composition: [bs, k, m] transposes, `bmm` against g, then
            // slab 0 plus each later slab in order.
            let pts: Vec<Tensor> = panels.iter().map(|p| p.transpose(1, 2).expect("rank 3")).collect();
            let at = tensor_ops::concat(&pts.iter().collect::<Vec<_>>(), 1).expect("transposes");
            let mut prods = vec![0.0f32; bs * k * n];
            kernels.bmm(&at.to_vec(), &g, &mut prods, bs, k, m, n, false);
            let mut want = Tensor::from_vec(prods[..k * n].to_vec(), [k, n]).expect("slab");
            for slab in prods.chunks_exact(k * n).skip(1) {
                let slab = Tensor::from_vec(slab.to_vec(), [k, n]).expect("slab");
                tensor_ops::add_assign(&mut want, &slab).expect("same shape");
            }
            let mut got = vec![0.0f32; k * n];
            kernels.bmm_panels_dw(&refs, &widths, &g, &mut got, bs, m, n);
            let (got, want) = (bits(&got), bits(&want.to_vec()));
            let first = (0..k * n).find(|&i| got[i] != want[i]);
            prop_assert!(
                first.is_none(),
                "{} dW, widths {:?} ({}, {}, {}): element {:?} is {:#x}, not {:#x}",
                kernels.name(), widths, bs, m, n, first,
                first.map_or(0, |i| got[i]), first.map_or(0, |i| want[i])
            );
        }
    }

    /// The autograd op: forward, every `dPₖ` and `dW` of `bmm_panels` equal
    /// those of `bmm(&concat(panels, 2), w)` bit for bit, under both
    /// backends, with the same planted specials in panels, weight and the
    /// upstream gradient.
    #[test]
    fn panel_gemm_gradients_equal_concat_then_bmm(
        widths in proptest::collection::vec(1usize..70, 1..4),
        bs in 1usize..4,
        m in 1usize..24,
        n in 1usize..24,
        specials in proptest::collection::vec((any::<u32>(), 0u8..4), 0..5),
        seed in any::<u32>(),
    ) {
        let k: usize = widths.iter().sum();
        let mut inputs: Vec<Vec<f32>> = widths
            .iter()
            .enumerate()
            .map(|(p, &w)| fill(bs * m * w, seed.wrapping_add(p as u32)))
            .collect();
        inputs.push(fill(k * n, seed.wrapping_add(99))); // the weight
        inputs.push(fill(bs * m * n, seed.wrapping_add(98))); // the upstream gradient
        for &(at, kind) in &specials {
            let target = &mut inputs[at as usize % (widths.len() + 2)];
            let i = at as usize / 7 % target.len();
            target[i] = special(kind);
        }
        let tensor = |p: usize, dims: &[usize]| {
            Tensor::from_vec(inputs[p].clone(), dims.to_vec()).expect("sized buffer")
        };
        let panels: Vec<Tensor> = widths.iter().enumerate().map(|(p, &w)| tensor(p, &[bs, m, w])).collect();
        let (w, upstream) = (tensor(widths.len(), &[k, n]), tensor(widths.len() + 1, &[bs, m, n]));
        // Forward value and the gradient of every input, panels first.
        let run = |fused: bool| -> Vec<Vec<u32>> {
            let tape = Tape::new();
            let vars: Vec<Var> = panels.iter().map(|p| tape.leaf(p.clone())).collect();
            let wv = tape.leaf(w.clone());
            let refs: Vec<&Var> = vars.iter().collect();
            let y = if fused {
                ops::bmm_panels(&refs, &wv)
            } else {
                ops::bmm(&ops::concat(&refs, 2), &wv)
            };
            // d loss / dy is exactly `upstream`.
            let grads = tape.backward(&ops::sum_all(&ops::mul(&y, &tape.constant(upstream.clone()))));
            let mut out = vec![bits(&y.value().to_vec())];
            out.extend(vars.iter().chain([&wv]).map(|v| bits(&grads.get(v).expect("reached").to_vec())));
            out
        };
        let before = active_backend();
        for kind in [BackendKind::Reference, BackendKind::Tiled] {
            set_backend(kind);
            let (composed, fused) = (run(false), run(true));
            set_backend(before);
            for (i, (c, f)) in composed.iter().zip(&fused).enumerate() {
                prop_assert!(
                    c == f,
                    "{:?}: output {} of {} (forward, dP per panel, dW) differs, widths {:?} ({}, {}, {})",
                    kind, i, composed.len(), widths, bs, m, n
                );
            }
        }
    }
}

/// Whether `f` panics.
fn panics(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

/// Every kernel bounds-checks what it reads: on both backends, a CSR column
/// index past `x`'s rows, a short `x`, a GEMM lhs shorter than `m·k` and a
/// short lhs panel panic instead of reading past a slice. Each call is first
/// made with sound operands, which must not panic, so the panic is the bad
/// operand's. The AVX-512 kernels' raw loads make this a memory-safety
/// property, so CI runs it in release too, where `debug_assert!` is off.
#[test]
fn kernels_panic_on_short_or_out_of_range_operands() {
    // A 40-row CSR over `x[40, 37]`: three nonzeros a row, every column
    // used, and 37 columns are two full 16-lane strips and a tail.
    let (rows, cols, n) = (40, 40, 37);
    let row_ptr: Vec<usize> = (0..=rows).map(|r| 3 * r).collect();
    let col_idx: Vec<usize> = (0..3 * rows).map(|p| p % cols).collect();
    let mut past_x = col_idx.clone();
    past_x[3 * rows - 1] = cols;
    let values = fill(3 * rows, 1);
    let x = fill(cols * n, 2);
    // GEMMs below and above the tiled backend's small-product fallback.
    let gemms = [(3, 4, 5), (64, 64, 64)];
    // Two panels of `[2, 33, width]`; the short one loses its last element.
    let (bs, m, widths) = (2, 33, [20usize, 30]);
    let w = fill(50 * 40, 3);
    let panels: Vec<Vec<f32>> = widths.iter().map(|&k| fill(bs * m * k, 4)).collect();
    for kernels in [reference(), tiled()] {
        let name = kernels.name();
        let spmm = |cols_of: &[usize], x: &[f32]| {
            let mut out = vec![0.0f32; rows * n];
            kernels.spmm(&row_ptr, cols_of, &values, x, &mut out, rows, n);
        };
        assert!(!panics(|| spmm(&col_idx, &x)), "{name}: sound spmm");
        assert!(panics(|| spmm(&past_x, &x)), "{name}: column past x");
        assert!(
            panics(|| spmm(&col_idx, &x[..cols * n - 1])),
            "{name}: short x"
        );
        for (m, k, n) in gemms {
            let (a, b) = (fill(m * k, 5), fill(k * n, 6));
            let matmul = |a: &[f32]| {
                let mut out = vec![0.0f32; m * n];
                kernels.matmul(a, &b, &mut out, m, k, n);
            };
            assert!(
                !panics(|| matmul(&a)),
                "{name}: sound matmul ({m}, {k}, {n})"
            );
            assert!(
                panics(|| matmul(&a[..m * k - 1])),
                "{name}: short lhs ({m}, {k}, {n})"
            );
        }
        let bmm_panels = |short: usize| {
            let (p0, p1) = (&panels[0][..], &panels[1][..panels[1].len() - short]);
            let mut out = vec![0.0f32; bs * m * 40];
            kernels.bmm_panels(&[p0, p1], &widths, &w, &mut out, bs, m, 40);
        };
        assert!(!panics(|| bmm_panels(0)), "{name}: sound panels");
        assert!(panics(|| bmm_panels(1)), "{name}: short panel");
    }
}

/// NaN, +∞, −∞ or −0.0.
fn special(kind: u8) -> f32 {
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][kind as usize % 4]
}

/// [`special`], or one of three NaNs whose payloads differ from its NaN and
/// from each other (one negative, one signaling).
fn payload_special(kind: u8) -> f32 {
    match kind {
        4 => f32::from_bits(0x7fc0_1234),
        5 => f32::from_bits(0xffc0_0777),
        6 => f32::from_bits(0x7f80_0042),
        _ => special(kind),
    }
}

/// Each `(at, kind, in_a)` puts [`payload_special`]`(kind)` into `a` or
/// `b` (skipping an empty one).
fn plant(specials: &[(u32, u8, bool)], a: &mut [f32], b: &mut [f32]) {
    for &(at, kind, in_a) in specials {
        let target = if in_a { &mut *a } else { &mut *b };
        if !target.is_empty() {
            let i = at as usize / 7 % target.len();
            target[i] = payload_special(kind);
        }
    }
}

/// Where two NaNs of different payloads meet in one product of a
/// `[rows, k] @ [k, n]` GEMM: `(row, lane, column, A's NaN, B's NaN)`. A
/// multiply that swaps its operands returns the other payload.
fn meeting(
    (at, kind): (u32, u8),
    rows: usize,
    k: usize,
    n: usize,
) -> (usize, usize, usize, f32, f32) {
    let at = at as usize;
    (
        at % rows,
        at / 7 % k,
        at / 11 % n,
        payload_special(kind),
        payload_special(4 + (kind - 3) % 3),
    )
}

/// The panel holding lane `l` of panels laid side by side, and the lane's
/// column in it.
fn lane_in_panel(widths: &[usize], mut l: usize) -> (usize, usize) {
    for (p, &w) in widths.iter().enumerate() {
        if l < w {
            return (p, l);
        }
        l -= w;
    }
    panic!("lane past the panels")
}

/// `[rows, Σ widths]` from panels of `[rows, widths[p]]`.
fn concat_panels(panels: &[Vec<f32>], widths: &[usize], rows: usize) -> Vec<f32> {
    let mut cat = Vec::with_capacity(rows * widths.iter().sum::<usize>());
    for r in 0..rows {
        for (p, &w) in panels.iter().zip(widths) {
            cat.extend_from_slice(&p[r * w..(r + 1) * w]);
        }
    }
    cat
}

/// Every data-parallel kernel's output bits at one intra-op width, and how
/// many of the eight calls were split over the pool, on shapes big enough to
/// be split (at `par_threshold`) and ragged against every width tried.
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
        // `a` read as two column panels of a `[bs, m, k]` lhs.
        let k0 = k / 3;
        let (p0, p1) = a.split_at(bs * m * k0);
        let mut panels = vec![0.0f32; bs * m * n];
        kernels.bmm_panels(&[p0, p1], &[k0, k - k0], &b[..k * n], &mut panels, bs, m, n);
        let (n0, n1) = (n / 3, n - n / 3);
        let mut split = vec![0.0f32; bs * m * n];
        let (s0, s1) = split.split_at_mut(bs * m * n0);
        kernels.bmm_split(a, &b[..k * n], &mut [s0, s1], &[n0, n1], bs, m, k);
        // The same two panels' weight gradient against `shared` as `g`.
        let mut dw = vec![0.0f32; k * n];
        kernels.bmm_panels_dw(&[p0, p1], &[k0, k - k0], &shared, &mut dw, bs, m, n);
        let rows = row_ptr.len() - 1;
        let mut spmm = vec![0.0f32; rows * n];
        kernels.spmm(row_ptr, col_idx, values, x, &mut spmm, rows, n);
        let total = sum_abs(long).to_bits();
        let out = vec![
            bits(&matmul),
            bits(&shared),
            bits(&per_batch),
            bits(&panels),
            bits(&split),
            bits(&dw),
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
    /// shared and a per-batch rhs, the panel and split-store GEMMs, the
    /// panel GEMM's weight gradient, spmm and `sum_abs`, on
    /// both backends —
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
                // Not vacuous: all eight calls really were split.
                prop_assert!(
                    pooled == 8,
                    "{} at width {}: {} of 8 calls pooled", kernels.name(), width, pooled
                );
            }
        }
    }
}
