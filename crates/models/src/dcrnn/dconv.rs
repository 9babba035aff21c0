//! The diffusion convolution layer.
//!
//! `DConv(X) = Σ_k  (S_k X) W_k + b`, where the supports `S_k` are the
//! identity plus forward/reverse random-walk powers (Li et al. eq. 2). The
//! implementation concatenates the `S_k X` terms along the feature axis and
//! applies one fused weight matrix, exactly like the reference code.

use crate::graph_ops::{spmm_var, Support};
use st_autograd::ops::Activation;
use st_autograd::{ops, Module, Param, Tape, Var};
use st_tensor::random;

/// A diffusion convolution mapping `[B, N, in_dim] → [B, N, out_dim]`.
pub struct DiffusionConv {
    supports: Vec<Support>,
    w: Param,
    b: Param,
    in_dim: usize,
    out_dim: usize,
}

impl DiffusionConv {
    /// Create with Xavier-initialized weights. `supports` come from
    /// [`st_graph::diffusion_supports`].
    pub fn new(
        name: &str,
        supports: Vec<Support>,
        in_dim: usize,
        out_dim: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Self {
        let k = supports.len();
        let w = Param::new(
            format!("{name}.w"),
            random::xavier_uniform(k * in_dim, out_dim, rng),
        );
        let b = Param::new(format!("{name}.b"), st_tensor::Tensor::zeros([out_dim]));
        DiffusionConv {
            supports,
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Apply to `x: [B, N, in_dim]`, producing `[B, N, out_dim]`.
    ///
    /// Parameters are bound through [`Tape::param`], so the trainer's
    /// [`Tape::accumulate_param_grads`] collects their gradients after the
    /// backward pass.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        self.forward_with_act(tape, &self.supports, x, Activation::Identity)
    }

    /// [`DiffusionConv::forward`] with the gate nonlinearity fused into the
    /// bias add — the DCRNN gate path (`dconv → add-bias → σ/tanh`) runs as
    /// one elementwise kernel instead of two materializing tape nodes.
    pub fn forward_act(&self, tape: &Tape, x: &Var, act: Activation) -> Var {
        self.forward_with_act(tape, &self.supports, x, act)
    }

    /// Apply with caller-supplied supports (the dynamic-graph path: the
    /// weights are time-invariant, the diffusion operators are not) and a
    /// fused bias+activation tail. The support count must match
    /// construction — the fused weight is laid out `[K·in, out]`.
    pub fn forward_with_act(
        &self,
        tape: &Tape,
        supports: &[Support],
        x: &Var,
        act: Activation,
    ) -> Var {
        debug_assert_eq!(x.value().dim(2), self.in_dim, "dconv input dim");
        assert_eq!(
            supports.len(),
            self.supports.len(),
            "support count is baked into the weight layout"
        );
        // S_k X for every support, concatenated over features:
        // [B, N, K * in_dim].
        let diffused: Vec<Var> = supports.iter().map(|s| spmm_var(tape, s, x)).collect();
        let refs: Vec<&Var> = diffused.iter().collect();
        let cat = ops::concat(&refs, 2);
        // Fused projection: bmm with the shared [K*in, out] weight, then
        // the bias/activation tail in one pass.
        let w = tape.param(&self.w);
        let b = tape.param(&self.b);
        ops::bias_act(&ops::bmm(&cat, &w), &b, act)
    }

    /// FLOPs of one forward call at batch `b` over `n` nodes:
    /// spmm per support (≈2·nnz·in) + the fused GEMM.
    pub fn flops(&self, batch: usize, n: usize) -> f64 {
        let k = self.supports.len() as f64;
        let nnz: usize = self.supports.iter().map(|s| s.mat.nnz()).sum();
        let spmm = 2.0 * nnz as f64 * self.in_dim as f64 * batch as f64;
        let gemm = 2.0 * batch as f64 * n as f64 * (k * self.in_dim as f64) * self.out_dim as f64;
        spmm + gemm
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Module for DiffusionConv {
    fn params(&self) -> Vec<Param> {
        vec![self.w.clone(), self.b.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::{diffusion_supports, Adjacency};
    use st_tensor::Tensor;

    fn layer(in_dim: usize, out_dim: usize) -> DiffusionConv {
        let adj = Adjacency::from_dense(3, vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        let supports = Support::wrap_all(diffusion_supports(&adj, 2));
        let mut rng = st_tensor::random::rng_from_seed(1);
        DiffusionConv::new("dc", supports, in_dim, out_dim, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let dc = layer(2, 4);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([5, 3, 2]));
        let y = dc.forward(&tape, &x);
        assert_eq!(y.value().dims(), &[5, 3, 4]);
    }

    #[test]
    fn gradients_flow_to_weights() {
        let dc = layer(1, 2);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 3, 1]));
        let y = dc.forward(&tape, &x);
        let loss = ops::sum_all(&y);
        let grads = tape.backward(&loss);
        tape.accumulate_param_grads(&grads);
        let gw = dc.w.grad().expect("weight gradient accumulated");
        assert_eq!(gw.dims(), dc.w.value().dims());
        assert!(gw.to_vec().iter().any(|&v| v != 0.0));
        let gb = dc.b.grad().expect("bias gradient accumulated");
        // Bias gradient for sum-loss = batch * nodes per output unit.
        assert!(gb.to_vec().iter().all(|&v| (v - 6.0).abs() < 1e-4));
    }

    #[test]
    fn repeated_binding_accumulates_once_per_backward() {
        // Use the same layer twice in one graph (as a recurrent cell does):
        // binding must reuse one leaf and the gradient must combine both uses.
        let dc = layer(1, 1);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1, 3, 1]));
        let y1 = dc.forward(&tape, &x);
        let y2 = dc.forward(&tape, &y1);
        let loss = ops::sum_all(&y2);
        let grads = tape.backward(&loss);
        tape.accumulate_param_grads(&grads);
        assert!(dc.w.grad().is_some());
    }

    #[test]
    fn flops_positive_and_scale_with_batch() {
        let dc = layer(2, 4);
        assert!(dc.flops(1, 3) > 0.0);
        assert!(dc.flops(8, 3) > dc.flops(4, 3));
    }
}
