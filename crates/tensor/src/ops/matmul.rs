//! Matrix multiplication entry points: dense (2-D, batched 3-D and the
//! diffusion convolution's panel GEMMs) and CSR sparse × dense.
//!
//! Shape validation and tensor plumbing live here; the raw loops are the
//! active [`crate::backend::Kernels`] backend's, bit-identical on either,
//! and timed into its per-thread counters. Each output comes from
//! `Storage::scratch` unfilled: every kernel writes all of it.

use crate::backend::{timed, KernelClass};
use crate::{Result, Storage, Tensor, TensorError};

/// `C[m,n] = A[m,k] @ B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::Invalid {
            op: "matmul",
            msg: format!("requires rank-2 inputs, got {} and {}", a.rank(), b.rank()),
        });
    }
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (ac, bc) = (a.contiguous(), b.contiguous());
    let (av, bv) = (ac.as_slice()?, bc.as_slice()?);
    let mut out = Storage::scratch(m * n);
    timed(KernelClass::Gemm, |kern| {
        kern.matmul(av, bv, out.make_mut(), m, k, n)
    });
    Ok(Tensor::from_storage(out, [m, n]))
}

/// Batched matmul: `C[b,m,n] = A[b,m,k] @ B[b,k,n]`.
/// `B` may also be rank-2 `[k,n]`, shared across the batch.
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 3 {
        return Err(TensorError::Invalid {
            op: "bmm",
            msg: format!("lhs must be rank-3, got {}", a.rank()),
        });
    }
    let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
    let shared_rhs = b.rank() == 2;
    let rhs = match b.rank() {
        2 => Some((b.dim(0), b.dim(1))),
        3 if b.dim(0) == bs => Some((b.dim(1), b.dim(2))),
        _ => None,
    };
    let Some((_, n)) = rhs.filter(|&(k2, _)| k2 == k) else {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    };
    let (ac, bc) = (a.contiguous(), b.contiguous());
    let (av, bv) = (ac.as_slice()?, bc.as_slice()?);
    let mut out = Storage::scratch(bs * m * n);
    timed(KernelClass::Gemm, |kern| {
        kern.bmm(av, bv, out.make_mut(), bs, m, k, n, shared_rhs)
    });
    Ok(Tensor::from_storage(out, [bs, m, n]))
}

/// Shared-rhs batched matmul over column panels:
/// `C[b,m,n] = [P₀ | P₁ | …][b,m,Σkₚ] @ W[Σkₚ,n]` with every panel
/// `[b,m,kₚ]`, without materializing the concatenation. Bit-identical to
/// `bmm(&concat(panels, 2)?, w)`.
pub fn bmm_panels(panels: &[&Tensor], w: &Tensor) -> Result<Tensor> {
    let Some(first) = panels.first() else {
        return Err(TensorError::Invalid {
            op: "bmm_panels",
            msg: "empty panel list".into(),
        });
    };
    let mismatch = |p: &Tensor| TensorError::ShapeMismatch {
        op: "bmm_panels",
        lhs: p.dims().to_vec(),
        rhs: w.dims().to_vec(),
    };
    if first.rank() != 3 || w.rank() != 2 {
        return Err(mismatch(first));
    }
    let (bs, m, n) = (first.dim(0), first.dim(1), w.dim(1));
    if let Some(p) = panels
        .iter()
        .find(|p| p.rank() != 3 || p.dim(0) != bs || p.dim(1) != m)
    {
        return Err(mismatch(p));
    }
    let widths: Vec<usize> = panels.iter().map(|p| p.dim(2)).collect();
    if widths.iter().sum::<usize>() != w.dim(0) {
        return Err(mismatch(first));
    }
    let (contiguous, wc) = (flat(panels), w.contiguous());
    let (slices, wv) = (slices(&contiguous)?, wc.as_slice()?);
    let mut out = Storage::scratch(bs * m * n);
    timed(KernelClass::Gemm, |kern| {
        kern.bmm_panels(&slices, &widths, wv, out.make_mut(), bs, m, n)
    });
    Ok(Tensor::from_storage(out, [bs, m, n]))
}

/// `A[b,m,k] @ W[k,n]` with the output's columns split into panels of
/// `widths` (summing to `n`): one `[b,m,widths[p]]` tensor per panel, all
/// computed by one GEMM. Bit-identical to narrowing `bmm(a, w)` along its
/// last axis, without the copies.
pub fn bmm_split(a: &Tensor, w: &Tensor, widths: &[usize]) -> Result<Vec<Tensor>> {
    if a.rank() != 3
        || w.rank() != 2
        || a.dim(2) != w.dim(0)
        || widths.iter().sum::<usize>() != w.dim(1)
    {
        return Err(TensorError::ShapeMismatch {
            op: "bmm_split",
            lhs: a.dims().to_vec(),
            rhs: w.dims().to_vec(),
        });
    }
    let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
    let (ac, wc) = (a.contiguous(), w.contiguous());
    let (av, wv) = (ac.as_slice()?, wc.as_slice()?);
    let mut bufs: Vec<Storage> = widths
        .iter()
        .map(|&p| Storage::scratch(bs * m * p))
        .collect();
    let mut outs: Vec<&mut [f32]> = bufs.iter_mut().map(Storage::make_mut).collect();
    timed(KernelClass::Gemm, |kern| {
        kern.bmm_split(av, wv, &mut outs, widths, bs, m, k)
    });
    Ok(bufs
        .into_iter()
        .zip(widths)
        .map(|(buf, &p)| Tensor::from_storage(buf, [bs, m, p]))
        .collect())
}

/// The weight gradient of [`bmm_panels`]: `dW[Σkₚ,n] = Σ_b [P₀ | P₁ | …][b]ᵀ
/// @ g[b]` for `g: [b,m,n]`, summed over the batch in order. Bit-identical to
/// concatenating the panels' transposes, `bmm` against `g` and adding the
/// batch's products in order, without the transposes or the per-batch
/// products.
pub fn bmm_panels_dw(panels: &[&Tensor], g: &Tensor) -> Result<Tensor> {
    let mismatch = |p: &Tensor| TensorError::ShapeMismatch {
        op: "bmm_panels_dw",
        lhs: p.dims().to_vec(),
        rhs: g.dims().to_vec(),
    };
    if g.rank() != 3 || panels.is_empty() {
        return Err(mismatch(g));
    }
    let (bs, m, n) = (g.dim(0), g.dim(1), g.dim(2));
    if let Some(p) = panels
        .iter()
        .find(|p| p.rank() != 3 || p.dim(0) != bs || p.dim(1) != m)
    {
        return Err(mismatch(p));
    }
    let widths: Vec<usize> = panels.iter().map(|p| p.dim(2)).collect();
    let k = widths.iter().sum::<usize>();
    let (contiguous, gc) = (flat(panels), g.contiguous());
    let (slices, gv) = (slices(&contiguous)?, gc.as_slice()?);
    let mut out = Storage::scratch(k * n);
    timed(KernelClass::Gemm, |kern| {
        kern.bmm_panels_dw(&slices, &widths, gv, out.make_mut(), bs, m, n)
    });
    Ok(Tensor::from_storage(out, [k, n]))
}

/// CSR sparse × dense: `Y[rows,n] = S[rows,cols] @ X[cols,n]`, or
/// `Y[b] = S @ X[b]` for every batch of a rank-3 `X[B,cols,n]`. `S` has
/// `shape = (rows, cols)`, and row `r`'s nonzeros are
/// `col_idx`/`values[row_ptr[r]..row_ptr[r + 1]]`, each output element
/// adding them in storage order. The CSR arrays are trusted (as a
/// `st_graph::Csr` keeps them): a column index past `cols` panics.
pub fn spmm(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f32],
    (rows, cols): (usize, usize),
    x: &Tensor,
) -> Result<Tensor> {
    let r = x.rank();
    if !(r == 2 || r == 3) || x.dim(r - 2) != cols || row_ptr.len() != rows + 1 {
        return Err(TensorError::ShapeMismatch {
            op: "spmm",
            lhs: vec![rows, cols],
            rhs: x.dims().to_vec(),
        });
    }
    let mut dims = x.dims().to_vec();
    dims[r - 2] = rows;
    let n = dims[r - 1];
    let xc = x.contiguous();
    let xs = xc.as_slice()?;
    let mut out = Storage::scratch(dims.iter().product());
    if rows * n > 0 {
        let slabs = out.make_mut().chunks_exact_mut(rows * n);
        timed(KernelClass::Spmm, |kern| {
            for (i, slab) in slabs.enumerate() {
                let xb = &xs[i * cols * n..(i + 1) * cols * n];
                kern.spmm(row_ptr, col_idx, values, xb, slab, rows, n);
            }
        });
    }
    Ok(Tensor::from_storage(out, dims))
}

/// `panels`, each made contiguous (a clone when it already is).
fn flat(panels: &[&Tensor]) -> Vec<Tensor> {
    panels.iter().map(|p| p.contiguous()).collect()
}

/// The flat buffers of contiguous tensors.
fn slices(ts: &[Tensor]) -> Result<Vec<&[f32]>> {
    ts.iter().map(Tensor::as_slice).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matmul_exact() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_noop() {
        let a = Tensor::arange(9).reshape([3, 3]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(matmul(&a, &i).unwrap().to_vec(), a.to_vec());
        assert_eq!(matmul(&i, &a).unwrap().to_vec(), a.to_vec());
    }

    #[test]
    fn rectangular_shapes() {
        let a = Tensor::ones([3, 4]);
        let b = Tensor::ones([4, 5]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 5]);
        assert!(c.to_vec().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn mismatched_inner_dim_errors() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_on_transposed_view() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let at = a.t().unwrap(); // [3,2]
        let c = matmul(&at, &a).unwrap(); // [3,3]
                                          // Verify one entry: row0 of at = (1,4); col0 of a = (1,4) => 1+16=17.
        assert_eq!(c.at(&[0, 0]), 17.0);
        assert_eq!(c.dims(), &[3, 3]);
    }

    #[test]
    fn large_matmul_matches_naive() {
        // Exercise the parallel path against a naive reference.
        let m = 37;
        let k = 53;
        let n = 41;
        let mut rng = crate::random::rng_from_seed(3);
        let a = crate::random::uniform([m, k], -1.0, 1.0, &mut rng);
        let b = crate::random::uniform([k, n], -1.0, 1.0, &mut rng);
        let c = matmul(&a, &b).unwrap();
        let (av, bv) = (a.to_vec(), b.to_vec());
        for i in (0..m).step_by(7) {
            for j in (0..n).step_by(5) {
                let mut s = 0.0;
                for l in 0..k {
                    s += av[i * k + l] * bv[l * n + j];
                }
                assert!((c.at(&[i, j]) - s).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nan_and_inf_propagate_through_matmul() {
        // Regression: the old kernel skipped `al == 0.0` multiplicands, so
        // a zero in A silently swallowed a NaN/Inf in B (`0 × NaN` never
        // landed). IEEE semantics must hold on the public op.
        let a = Tensor::from_vec(vec![0.0, 0.0], [1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0, 1.0], [2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap().to_vec();
        assert!(c[0].is_nan(), "0 × NaN must produce NaN");
        assert!(c[1].is_nan(), "0 × Inf must produce NaN");
        // Batched path shares the fix.
        let ab = Tensor::from_vec(vec![0.0, 0.0], [1, 1, 2]).unwrap();
        let cb = bmm(&ab, &b).unwrap().to_vec();
        assert!(cb[0].is_nan() && cb[1].is_nan());
    }

    #[test]
    fn backends_agree_bitwise_on_public_ops() {
        use crate::backend::{kernels_for, BackendKind};
        let mut rng = crate::random::rng_from_seed(11);
        let a = crate::random::uniform([45, 70], -1.0, 1.0, &mut rng);
        let b = crate::random::uniform([70, 19], -1.0, 1.0, &mut rng);
        let (m, k, n) = (45, 70, 19);
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        kernels_for(BackendKind::Reference).matmul(
            a.as_slice().unwrap(),
            b.as_slice().unwrap(),
            &mut r,
            m,
            k,
            n,
        );
        kernels_for(BackendKind::Tiled).matmul(
            a.as_slice().unwrap(),
            b.as_slice().unwrap(),
            &mut t,
            m,
            k,
            n,
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r), bits(&t));
    }

    /// Inside a `RecycleScope` a second call of each panel GEMM and of the
    /// CSR product gets the first call's freed, non-zero output buffer,
    /// and its bits equal the same call's made outside a scope.
    #[test]
    fn recycled_outputs_are_written_whole() {
        use crate::storage::RecycleScope;
        // Every output is at least the recycler's 64 KiB floor.
        let (bs, m, w, n) = (2, 128, 64, 128);
        let inputs = |seed: u64| {
            let mut rng = crate::random::rng_from_seed(seed);
            let mut draw = |dims: &[usize]| crate::random::uniform(dims, -1.0, 1.0, &mut rng);
            [
                draw(&[bs, m, w]),
                draw(&[bs, m, w]),
                draw(&[2 * w, n]),
                draw(&[bs, m, n]),
                draw(&[bs, m, w]),
                draw(&[n, 2 * w]),
            ]
        };
        // A tridiagonal `[m, m]` CSR.
        let row_ptr: Vec<usize> = (0..=m)
            .map(|r| (3 * r).saturating_sub(1).min(3 * m - 2))
            .collect();
        let col_idx: Vec<usize> = (0..m)
            .flat_map(|r| r.saturating_sub(1)..(r + 2).min(m))
            .collect();
        let values: Vec<f32> = (0..col_idx.len())
            .map(|i| 0.5 - (i % 5) as f32 * 0.25)
            .collect();
        let run = |[p0, p1, wt, g, x, ws]: &[Tensor; 6]| {
            let mut outs = vec![
                bmm_panels(&[p0, p1], wt).unwrap(),
                bmm_panels_dw(&[p0, p1], g).unwrap(),
                spmm(&row_ptr, &col_idx, &values, (m, m), x).unwrap(),
            ];
            outs.extend(bmm_split(g, ws, &[w, w]).unwrap());
            outs
        };
        let buffers = |ts: &[Tensor]| {
            let mut at: Vec<*const f32> =
                ts.iter().map(|t| t.as_slice().unwrap().as_ptr()).collect();
            at.sort();
            at
        };
        let (first, second) = (inputs(1), inputs(2));
        let want = run(&second);
        let _scope = RecycleScope::open();
        let used = run(&first);
        let freed = buffers(&used);
        assert!(used.iter().all(|t| t.to_vec().iter().any(|&v| v != 0.0)));
        drop(used);
        let got = run(&second);
        assert_eq!(buffers(&got), freed, "every output is a recycled buffer");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "output {i}");
        }
    }

    #[test]
    fn bmm_with_shared_rhs() {
        let a = Tensor::ones([2, 3, 4]);
        let b = Tensor::ones([4, 5]);
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 5]);
        assert!(c.to_vec().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn bmm_per_batch_rhs() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], [2, 2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [2, 2, 2]).unwrap();
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 10.0, 12.0, 14.0, 16.0]);
    }
}
