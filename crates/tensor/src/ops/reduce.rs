//! Reductions: sum / mean / std, full and per-axis.

use crate::{par, Result, Tensor, TensorError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sum of all elements.
pub fn sum_all(t: &Tensor) -> f32 {
    t.to_vec().iter().sum()
}

/// Mean of all elements (0 for empty tensors).
pub fn mean_all(t: &Tensor) -> f32 {
    let n = t.numel();
    if n == 0 {
        0.0
    } else {
        sum_all(t) / n as f32
    }
}

/// Elements per [`sum_abs`] partial; fixed (rather than derived from the
/// thread count) so the f64 accumulation order — and therefore the result
/// bit pattern — is identical no matter how many threads run the chunks.
const SUM_ABS_CHUNK: usize = 1 << 16;

/// Fused Σ|tᵢ| accumulated in f64 — the validation-path reduction.
///
/// Replaces the `abs(t).to_vec().iter().sum()` pattern, which materializes
/// an |t|-sized tensor plus a Vec copy per batch; this walks the data once
/// with no allocation beyond the per-chunk partials. Parallel via
/// [`par::parallel_chunks`] over fixed-size chunks whose partials are
/// combined in chunk order.
pub fn sum_abs(t: &Tensor) -> f64 {
    let src = t.contiguous();
    let s = src.as_slice().expect("contiguous");
    let chunks = s.len().div_ceil(SUM_ABS_CHUNK).max(1);
    let partials: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
    par::parallel_chunks(chunks, s.len(), |_, lo, hi| {
        for c in lo..hi {
            let span = &s[c * SUM_ABS_CHUNK..((c + 1) * SUM_ABS_CHUNK).min(s.len())];
            let acc: f64 = span.iter().map(|&v| (v as f64).abs()).sum();
            partials[c].store(acc.to_bits(), Ordering::Relaxed);
        }
    });
    partials
        .iter()
        .map(|p| f64::from_bits(p.load(Ordering::Relaxed)))
        .sum()
}

/// Population standard deviation of all elements.
pub fn std_all(t: &Tensor) -> f32 {
    let v = t.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f32>() / v.len() as f32;
    (v.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / v.len() as f32).sqrt()
}

/// Reduce along `axis` with a binary accumulator, producing a tensor whose
/// `axis` has been removed.
fn reduce_axis(t: &Tensor, axis: usize, init: f32, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    if axis >= t.rank() {
        return Err(TensorError::Invalid {
            op: "reduce_axis",
            msg: format!("axis {axis} out of range for rank {}", t.rank()),
        });
    }
    let dims = t.dims().to_vec();
    let axis_len = dims[axis];
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let src = t.contiguous();
    let s = src.as_slice().expect("contiguous");
    let mut out = vec![init; outer * inner];
    for o in 0..outer {
        for a in 0..axis_len {
            let base = (o * axis_len + a) * inner;
            let obase = o * inner;
            for i in 0..inner {
                out[obase + i] = f(out[obase + i], s[base + i]);
            }
        }
    }
    let mut out_dims = dims;
    out_dims.remove(axis);
    Tensor::from_vec(out, out_dims)
}

/// Sum along `axis` (axis removed from the result shape).
pub fn sum_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    reduce_axis(t, axis, 0.0, |a, b| a + b)
}

/// Mean along `axis`.
pub fn mean_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let n = t.dim(axis) as f32;
    let s = sum_axis(t, axis)?;
    Ok(crate::ops::mul_scalar(&s, 1.0 / n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reductions() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum_all(&t), 10.0);
        assert_eq!(mean_all(&t), 2.5);
        let std = std_all(&t);
        assert!((std - 1.118034).abs() < 1e-5);
    }

    #[test]
    fn sum_abs_matches_scalar_path_and_handles_views() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(sum_abs(&t), 10.0);
        // Empty tensors sum to zero.
        assert_eq!(sum_abs(&Tensor::from_vec(vec![], [0]).unwrap()), 0.0);
        // Non-contiguous views are handled via a contiguous copy.
        let m = Tensor::from_vec(vec![1.0, -1.0, 2.0, -2.0], [2, 2]).unwrap();
        assert_eq!(sum_abs(&m.t().unwrap()), 6.0);
        // Large input exercises the parallel chunked path and must agree
        // bit-for-bit with the sequential reference accumulation.
        let n = (super::SUM_ABS_CHUNK * 3) + 17;
        let vals: Vec<f32> = (0..n).map(|i| ((i % 255) as f32 - 127.0) * 0.37).collect();
        let big = Tensor::from_vec(vals.clone(), [n]).unwrap();
        let reference: f64 = vals
            .chunks(super::SUM_ABS_CHUNK)
            .map(|c| c.iter().map(|&v| (v as f64).abs()).sum::<f64>())
            .sum();
        assert_eq!(sum_abs(&big), reference);
    }

    #[test]
    fn sum_axis_0_and_1() {
        let t = Tensor::arange(6).reshape([2, 3]).unwrap();
        assert_eq!(sum_axis(&t, 0).unwrap().to_vec(), vec![3.0, 5.0, 7.0]);
        assert_eq!(sum_axis(&t, 1).unwrap().to_vec(), vec![3.0, 12.0]);
    }

    #[test]
    fn mean_axis_middle() {
        let t = Tensor::arange(24).reshape([2, 3, 4]).unwrap();
        let m = mean_axis(&t, 1).unwrap();
        assert_eq!(m.dims(), &[2, 4]);
        // mean over entries (0,4,8)=4, (1,5,9)=5, ...
        assert_eq!(m.to_vec()[..4], [4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn reductions_on_views() {
        let t = Tensor::arange(6).reshape([2, 3]).unwrap();
        let tt = t.t().unwrap();
        assert_eq!(sum_axis(&tt, 0).unwrap().to_vec(), vec![3.0, 12.0]);
    }
}
