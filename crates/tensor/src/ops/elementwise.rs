//! Elementwise binary/unary kernels with NumPy-style broadcasting.

use crate::backend::{self, KernelClass};
use crate::shape::{for_each_offset, Shape};
use crate::{Result, Tensor, TensorError};

/// Apply `f` elementwise to broadcast-aligned `a` and `b`.
pub fn zip_with(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    backend::timed(KernelClass::Elementwise, || {
        let out_shape = a.shape().broadcast_with(b.shape())?;
        // Fast path: identical contiguous shapes.
        if a.shape().same_as(b.shape()) {
            if let (Ok(sa), Ok(sb)) = (a.as_slice(), b.as_slice()) {
                let data = sa.iter().zip(sb).map(|(&x, &y)| f(x, y)).collect();
                return Tensor::from_vec(data, out_shape);
            }
        }
        let av = gather_broadcast(a, &out_shape);
        let bv = gather_broadcast(b, &out_shape);
        let data = av.iter().zip(bv.iter()).map(|(&x, &y)| f(x, y)).collect();
        Tensor::from_vec(data, out_shape)
    })
}

/// In-place `a += b` for exactly matching shapes — the gradient
/// accumulator's fast path. Reuses `a`'s buffer when uniquely owned
/// (copy-on-write otherwise) instead of allocating a sum tensor; the
/// element walk and `x + y` expression are identical to [`add`]'s
/// same-shape fast path, so results are bit-identical to the allocating
/// op.
pub fn add_assign(a: &mut Tensor, b: &Tensor) -> Result<()> {
    check_same_shape("add_assign", a, b)?;
    let bc = b.contiguous();
    let bs = bc.as_slice().expect("contiguous");
    backend::timed(KernelClass::Elementwise, || {
        let av = a.make_mut_contiguous();
        for (x, &y) in av.iter_mut().zip(bs) {
            *x += y;
        }
    });
    Ok(())
}

/// Collect `t`'s elements broadcast to `target` into a flat row-major vec.
fn gather_broadcast(t: &Tensor, target: &Shape) -> Vec<f32> {
    if t.shape().same_as(target) {
        return t.to_vec();
    }
    let rank = target.rank();
    let lead = rank - t.rank();
    let mut vstrides = vec![0usize; rank];
    for d in 0..t.rank() {
        vstrides[lead + d] = if t.shape().dim(d) == 1 {
            0
        } else {
            t.strides()[d]
        };
    }
    let data = t.storage().as_slice();
    let mut out = Vec::with_capacity(target.numel());
    for_each_offset(target.dims(), &vstrides, t.storage_offset(), |o| {
        out.push(data[o]);
    });
    out
}

/// Apply `f` to every element.
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    backend::timed(KernelClass::Elementwise, || {
        let data = t.to_vec().into_iter().map(f).collect();
        Tensor::from_vec(data, t.shape().clone()).expect("same numel")
    })
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x + y)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x - y)
}

/// `a * b` with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x * y)
}

/// `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x / y)
}

/// `t + s` for a scalar `s`.
pub fn add_scalar(t: &Tensor, s: f32) -> Tensor {
    map(t, |x| x + s)
}

/// `t * s` for a scalar `s`.
pub fn mul_scalar(t: &Tensor, s: f32) -> Tensor {
    map(t, |x| x * s)
}

/// `-t`.
pub fn neg(t: &Tensor) -> Tensor {
    map(t, |x| -x)
}

/// Elementwise absolute value.
pub fn abs(t: &Tensor) -> Tensor {
    map(t, |x| x.abs())
}

/// Elementwise square.
pub fn square(t: &Tensor) -> Tensor {
    map(t, |x| x * x)
}

/// Elementwise square root.
pub fn sqrt(t: &Tensor) -> Tensor {
    map(t, |x| x.sqrt())
}

/// Elementwise natural exponential.
pub fn exp(t: &Tensor) -> Tensor {
    map(t, |x| x.exp())
}

/// Elementwise natural log.
pub fn ln(t: &Tensor) -> Tensor {
    map(t, |x| x.ln())
}

/// Elementwise power with a scalar exponent.
pub fn powf(t: &Tensor, e: f32) -> Tensor {
    map(t, |x| x.powf(e))
}

/// Elementwise maximum of two tensors with broadcasting.
pub fn maximum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, f32::max)
}

/// Elementwise minimum of two tensors with broadcasting.
pub fn minimum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, f32::min)
}

/// Clamp values into `[lo, hi]`.
pub fn clamp(t: &Tensor, lo: f32, hi: f32) -> Tensor {
    map(t, |x| x.clamp(lo, hi))
}

/// Validate shapes match exactly (no broadcasting) — used by gradient code.
pub fn check_same_shape(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.shape().same_as(b.shape()) {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        assert_eq!(add(&a, &b).unwrap().to_vec(), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = Tensor::arange(6).reshape([2, 3]).unwrap();
        let b = Tensor::from_slice(&[10.0, 20.0, 30.0]); // [3]
        let c = add(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn mul_broadcast_col() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::from_vec(vec![2.0, 3.0], [2, 1]).unwrap();
        let c = mul(&a, &b).unwrap();
        assert_eq!(c.to_vec(), vec![2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn broadcast_mismatch_errors() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn zip_on_views_uses_strides() {
        let a = Tensor::arange(6).reshape([2, 3]).unwrap();
        let at = a.t().unwrap(); // [3,2] non-contiguous
        let b = Tensor::zeros([3, 2]);
        let c = add(&at, &b).unwrap();
        assert_eq!(c.to_vec(), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn unary_ops() {
        let t = Tensor::from_slice(&[-2.0, 4.0]);
        assert_eq!(abs(&t).to_vec(), vec![2.0, 4.0]);
        assert_eq!(square(&t).to_vec(), vec![4.0, 16.0]);
        assert_eq!(sqrt(&square(&t)).to_vec(), vec![2.0, 4.0]);
        assert_eq!(neg(&t).to_vec(), vec![2.0, -4.0]);
        assert_eq!(clamp(&t, -1.0, 3.0).to_vec(), vec![-1.0, 3.0]);
    }

    #[test]
    fn scalar_ops() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(add_scalar(&t, 1.0).to_vec(), vec![2.0, 3.0]);
        assert_eq!(mul_scalar(&t, -2.0).to_vec(), vec![-2.0, -4.0]);
    }

    #[test]
    fn add_assign_matches_add_and_respects_cow() {
        let mut a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let shared = a.clone();
        let b = Tensor::from_slice(&[0.5, -1.0, 4.0]);
        let want = add(&a, &b).unwrap().to_vec();
        add_assign(&mut a, &b).unwrap();
        assert_eq!(a.to_vec(), want);
        assert_eq!(shared.to_vec(), vec![1.0, 2.0, 3.0], "clone untouched");
        // Shape mismatch (even broadcastable) is rejected.
        assert!(add_assign(&mut a, &Tensor::ones([1])).is_err());
        // Non-contiguous views accumulate through a contiguous copy.
        let m = Tensor::arange(4).reshape([2, 2]).unwrap();
        let mut mt = m.t().unwrap();
        add_assign(&mut mt, &Tensor::ones([2, 2])).unwrap();
        assert_eq!(mt.to_vec(), vec![1.0, 3.0, 2.0, 4.0]);
    }
}
