//! Differentiable graph operations built on [`st_autograd::Tape::custom_op`].
//!
//! The one primitive every model here needs is the batched sparse×dense
//! product `S @ X[b]` with a sparse support matrix `S`; its backward pass is
//! `Sᵀ @ dY[b]`, so we precompute the transpose once per support.

use st_autograd::{Tape, Var};
use st_graph::Csr;
use std::sync::Arc;

/// A support matrix paired with its transpose (for the backward pass).
#[derive(Debug, Clone)]
pub struct Support {
    /// The support matrix `S` (e.g. a random-walk power).
    pub mat: Arc<Csr>,
    /// `Sᵀ`, used by the gradient.
    pub mat_t: Arc<Csr>,
    /// `S` is exactly the identity ([`Csr::is_identity`]).
    identity: bool,
}

impl Support {
    /// Wrap a CSR support, precomputing its transpose.
    pub fn new(mat: Csr) -> Self {
        let mat_t = mat.transpose();
        Support {
            identity: mat.is_identity(),
            mat: Arc::new(mat),
            mat_t: Arc::new(mat_t),
        }
    }

    /// True when `S = I`, so `S X` is `X` itself: the diffusion
    /// convolution then reads `X` as a view instead of running an SpMM.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Wrap a whole list of supports.
    pub fn wrap_all(mats: Vec<Csr>) -> Vec<Support> {
        mats.into_iter().map(Support::new).collect()
    }
}

/// Differentiable batched spmm: `y[b] = S @ x[b]` for `x: [B, N, C]`.
pub fn spmm_var(tape: &Tape, support: &Support, x: &Var) -> Var {
    let value = support
        .mat
        .spmm_batched(x.value())
        .expect("support and feature shapes agree");
    let st = support.mat_t.clone();
    tape.custom_op(&[x], value, move |g| {
        vec![st.spmm_batched(g).expect("transpose shapes agree")]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_autograd::ops;
    use st_tensor::Tensor;

    #[test]
    fn forward_matches_dense() {
        let dense = vec![0.0, 1.0, 0.5, 0.0];
        let s = Support::new(Csr::from_dense(2, 2, &dense));
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(4).reshape([1, 2, 2]).unwrap());
        let y = spmm_var(&tape, &s, &x);
        // S @ X = [[0,1],[0.5,0]] @ [[0,1],[2,3]] = [[2,3],[0,0.5]]
        assert_eq!(y.value().to_vec(), vec![2.0, 3.0, 0.0, 0.5]);
    }

    #[test]
    fn gradient_is_transpose_spmm() {
        // f = sum(S @ x) => df/dx = S^T @ ones.
        let dense = vec![0.0, 2.0, 0.0, 0.0]; // single edge 0->1 weight 2
        let s = Support::new(Csr::from_dense(2, 2, &dense));
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1, 2, 1]));
        let y = spmm_var(&tape, &s, &x);
        let loss = ops::sum_all(&y);
        let g = tape.backward(&loss);
        // S^T @ [1,1] = [[0,0],[2,0]] @ [1,1] = [0, 2]
        assert_eq!(g.get(&x).unwrap().to_vec(), vec![0.0, 2.0]);
    }

    #[test]
    fn finite_difference_check() {
        let dense = vec![0.5, 0.2, 0.0, 0.9];
        let s = Support::new(Csr::from_dense(2, 2, &dense));
        let x0 = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.4], [1, 2, 2]).unwrap();
        let f = |x: &Tensor| -> f32 {
            let t = Tape::new();
            let v = t.leaf(x.clone());
            let y = spmm_var(&t, &s, &v);
            st_tensor::ops::sum_all(&st_tensor::ops::square(y.value()))
        };
        // Analytic gradient of sum(y^2) = 2 S^T (S x).
        let tape = Tape::new();
        let v = tape.leaf(x0.clone());
        let y = spmm_var(&tape, &s, &v);
        let loss = ops::sum_all(&ops::square(&y));
        let grads = tape.backward(&loss);
        let analytic = grads.get(&v).unwrap().to_vec();
        let h = 1e-3f32;
        let base = x0.to_vec();
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += h;
            let mut minus = base.clone();
            minus[i] -= h;
            let fp = f(&Tensor::from_vec(plus, [1, 2, 2]).unwrap());
            let fm = f(&Tensor::from_vec(minus, [1, 2, 2]).unwrap());
            let numeric = (fp - fm) / (2.0 * h);
            assert!(
                (analytic[i] - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "index {i}: {} vs {numeric}",
                analytic[i]
            );
        }
    }
}
