//! Dense matrix multiplication entry points (2-D and batched 3-D).
//!
//! Shape validation and tensor plumbing live here; the raw loops are
//! dispatched through the active [`crate::backend::Kernels`] backend —
//! the naive i-k-j reference or the tiled default, bit-identical either
//! way. Small products stay on the sequential path inside the kernels to
//! avoid thread overhead.

use crate::backend::{self, KernelClass};
use crate::{Result, Tensor, TensorError};

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
    let ac = a.contiguous();
    let bc = b.contiguous();
    let av = ac.as_slice().expect("contiguous");
    let bv = bc.as_slice().expect("contiguous");
    let mut out = vec![0.0f32; m * n];
    backend::timed(KernelClass::Gemm, || {
        backend::kernels().matmul(av, bv, &mut out, m, k, n)
    });
    Tensor::from_vec(out, [m, n])
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
    let (k2, n) = if shared_rhs {
        (b.dim(0), b.dim(1))
    } else if b.rank() == 3 && b.dim(0) == bs {
        (b.dim(1), b.dim(2))
    } else {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let ac = a.contiguous();
    let bc = b.contiguous();
    let av = ac.as_slice().expect("contiguous");
    let bv = bc.as_slice().expect("contiguous");
    let mut out = vec![0.0f32; bs * m * n];
    backend::timed(KernelClass::Gemm, || {
        backend::kernels().bmm(av, bv, &mut out, bs, m, k, n, shared_rhs)
    });
    Tensor::from_vec(out, [bs, m, n])
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
    let contiguous: Vec<Tensor> = panels.iter().map(|p| p.contiguous()).collect();
    let slices: Vec<&[f32]> = contiguous
        .iter()
        .map(|p| p.as_slice().expect("contiguous"))
        .collect();
    let wc = w.contiguous();
    let wv = wc.as_slice().expect("contiguous");
    let mut out = vec![0.0f32; bs * m * n];
    backend::timed(KernelClass::Gemm, || {
        backend::kernels().bmm_panels(&slices, &widths, wv, &mut out, bs, m, n)
    });
    Tensor::from_vec(out, [bs, m, n])
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
    let ac = a.contiguous();
    let wc = w.contiguous();
    let av = ac.as_slice().expect("contiguous");
    let wv = wc.as_slice().expect("contiguous");
    let mut bufs: Vec<Vec<f32>> = widths.iter().map(|&p| vec![0.0f32; bs * m * p]).collect();
    let mut outs: Vec<&mut [f32]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
    backend::timed(KernelClass::Gemm, || {
        backend::kernels().bmm_split(av, wv, &mut outs, widths, bs, m, k)
    });
    bufs.into_iter()
        .zip(widths)
        .map(|(buf, &p)| Tensor::from_vec(buf, [bs, m, p]))
        .collect()
}

/// `y[m] = A[m,k] @ x[k]` — matrix–vector product.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || x.rank() != 1 {
        return Err(TensorError::Invalid {
            op: "matvec",
            msg: format!("need [m,k] @ [k], got {:?} @ {:?}", a.dims(), x.dims()),
        });
    }
    let out = matmul(a, &x.reshape([x.dim(0), 1])?)?;
    out.reshape([a.dim(0)])
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

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let x = Tensor::from_slice(&[1.0, -1.0]);
        assert_eq!(matvec(&a, &x).unwrap().to_vec(), vec![-1.0, -1.0]);
    }
}
