//! Activation functions used by the ST-GNN model zoo.

use crate::math;
use crate::ops::{map, map_slice, zip_with};
use crate::{Result, Tensor, TensorError};

/// Logistic sigmoid, numerically stable in both tails ([`math::sigmoid`]).
pub fn sigmoid(t: &Tensor) -> Tensor {
    map_slice(t, math::sigmoid_in_place)
}

/// Hyperbolic tangent ([`math::tanhf`]).
pub fn tanh(t: &Tensor) -> Tensor {
    map_slice(t, math::tanh_in_place)
}

/// Rectified linear unit.
pub fn relu(t: &Tensor) -> Tensor {
    map(t, |x| x.max(0.0))
}

/// GELU (tanh approximation), used by the transformer blocks.
pub fn gelu(t: &Tensor) -> Tensor {
    zip_with(t, &gelu_tanh(t), |x, th| 0.5 * x * (1.0 + th)).expect("same shape")
}

/// GELU's inner `tanh(√(2/π)·(x + 0.044715·x³))` on the slice kernel,
/// shared by [`gelu`] and its derivative.
pub fn gelu_tanh(t: &Tensor) -> Tensor {
    map_slice(t, |v| {
        for x in v.iter_mut() {
            *x = 0.797_884_6 * (*x + 0.044715 * *x * *x * *x);
        }
        math::tanh_in_place(v);
    })
}

/// Softmax along the last dimension (max-subtracted for stability).
pub fn softmax_last(t: &Tensor) -> Result<Tensor> {
    if t.rank() == 0 {
        return Err(TensorError::Invalid {
            op: "softmax_last",
            msg: "rank-0 tensor".into(),
        });
    }
    let last = t.dim(t.rank() - 1);
    let mut v = t.to_vec();
    // A zero-length last dimension has no rows to normalize.
    for row in v.chunks_mut(last.max(1)) {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for x in row.iter_mut() {
            *x -= mx;
        }
        math::exp_in_place(row);
        let z = row.iter().fold(0.0, |z, &x| z + x);
        for x in row.iter_mut() {
            *x /= z;
        }
    }
    Tensor::from_vec(v, t.shape().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        let t = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        let s = sigmoid(&t).to_vec();
        assert!(s[0] >= 0.0 && s[0] < 1e-6);
        assert!((s[1] - 0.5).abs() < 1e-6);
        assert!(s[2] <= 1.0 && s[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_and_relu() {
        let t = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(relu(&t).to_vec(), vec![0.0, 0.0, 2.0]);
        let th = tanh(&t).to_vec();
        assert!((th[0] + 0.7615942).abs() < 1e-5);
    }

    #[test]
    fn gelu_is_monotone_near_zero() {
        let t = Tensor::from_slice(&[-1.0, 0.0, 1.0]);
        let g = gelu(&t).to_vec();
        assert!(g[0] < g[1] && g[1] < g[2]);
        assert!(g[1].abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], [2, 3]).unwrap();
        let s = softmax_last(&t).unwrap();
        let v = s.to_vec();
        let r0: f32 = v[..3].iter().sum();
        let r1: f32 = v[3..].iter().sum();
        assert!((r0 - 1.0).abs() < 1e-5);
        assert!((r1 - 1.0).abs() < 1e-5, "stable under large inputs");
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_of_an_empty_last_dim_is_empty() {
        for dims in [vec![2, 0], vec![0], vec![0, 3, 0]] {
            let s = softmax_last(&Tensor::zeros(dims.clone())).unwrap();
            assert_eq!(s.dims(), &dims[..]);
            assert_eq!(s.numel(), 0);
        }
    }
}
