//! The DCGRU cell: a GRU whose gate transforms are diffusion convolutions.
//!
//!   r = σ(DConv_r([x, h]))        — reset gate
//!   u = σ(DConv_u([x, h]))        — update gate
//!   c = tanh(DConv_c([x, r ⊙ h])) — candidate state
//!   h' = u ⊙ h + (1 − u) ⊙ c
//!
//! All three convolutions see the concatenation of input and hidden state
//! along the feature axis, as in Li et al.'s reference implementation.
//! Those two concats (`[x, h]`, `[x, r⊙h]`) are the cell's only copies: each
//! convolution reads its diffused panels in place. Feeding `x` and `h` to
//! the convolutions as separate panels would drop them too, but it would
//! reorder the terms of `h`'s gradient sum, and so change its bits.
//!
//! The graph is an argument of [`DcGruCell::step`], as in PyTorch Geometric
//! Temporal's recurrent layers: the gate weights are shared across time,
//! and a dynamic graph passes each step's supports.

use crate::dcrnn::dconv::DiffusionConv;
use crate::graph_ops::Support;
use st_autograd::ops::Activation;
use st_autograd::{ops, Module, Param, Tape, Var};
use st_tensor::Tensor;

/// One DCGRU cell operating on `[B, N, ·]` states.
pub struct DcGruCell {
    gate_r: DiffusionConv,
    gate_u: DiffusionConv,
    cand: DiffusionConv,
    input_dim: usize,
    hidden: usize,
}

impl DcGruCell {
    /// Build a cell over `k` supports. Each gate owns its own diffusion
    /// convolution over `input_dim + hidden` inputs.
    pub fn new(
        name: &str,
        k: usize,
        input_dim: usize,
        hidden: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Self {
        let io = input_dim + hidden;
        DcGruCell {
            gate_r: DiffusionConv::new(&format!("{name}.r"), k, io, hidden, rng),
            gate_u: DiffusionConv::new(&format!("{name}.u"), k, io, hidden, rng),
            cand: DiffusionConv::new(&format!("{name}.c"), k, io, hidden, rng),
            input_dim,
            hidden,
        }
    }

    /// A zero initial hidden state for batch size `b` over `n` nodes.
    pub fn zero_state(&self, b: usize, n: usize) -> Tensor {
        Tensor::zeros([b, n, self.hidden])
    }

    /// One step over `supports`: `x: [B, N, input_dim]`,
    /// `h: [B, N, hidden]` → new hidden.
    pub fn step(&self, tape: &Tape, supports: &[Support], x: &Var, h: &Var) -> Var {
        debug_assert_eq!(x.value().dim(2), self.input_dim, "cell input dim");
        let xh = ops::concat(&[x, h], 2);
        let r = self
            .gate_r
            .forward(tape, supports, &xh, Activation::Sigmoid);
        let u = self
            .gate_u
            .forward(tape, supports, &xh, Activation::Sigmoid);
        let rh = ops::mul(&r, h);
        let xrh = ops::concat(&[x, &rh], 2);
        let c = self.cand.forward(tape, supports, &xrh, Activation::Tanh);
        // h' = u*h + (1-u)*c, as one fused blend node.
        ops::gru_blend(&u, h, &c)
    }

    /// FLOPs of one step over `supports` (three diffusion convolutions +
    /// gate arithmetic).
    pub fn flops(&self, supports: &[Support], batch: usize, n: usize) -> f64 {
        let conv = self.gate_r.flops(supports, batch, n)
            + self.gate_u.flops(supports, batch, n)
            + self.cand.flops(supports, batch, n);
        let gates = 6.0 * (batch * n * self.hidden) as f64;
        conv + gates
    }
}

impl Module for DcGruCell {
    fn params(&self) -> Vec<Param> {
        let mut p = self.gate_r.params();
        p.extend(self.gate_u.params());
        p.extend(self.cand.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::{diffusion_supports, Adjacency};

    fn cell() -> (DcGruCell, Vec<Support>) {
        let adj = Adjacency::from_dense(4, {
            let mut w = vec![0.0; 16];
            for i in 0..3 {
                w[i * 4 + i + 1] = 1.0;
            }
            w
        });
        let supports = Support::wrap_all(diffusion_supports(&adj, 2));
        let mut rng = st_tensor::random::rng_from_seed(9);
        let cell = DcGruCell::new("cell", supports.len(), 2, 8, &mut rng);
        (cell, supports)
    }

    #[test]
    fn step_preserves_shape() {
        let (c, supports) = cell();
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([3, 4, 2]));
        let h = tape.leaf(c.zero_state(3, 4));
        let h2 = c.step(&tape, &supports, &x, &h);
        assert_eq!(h2.value().dims(), &[3, 4, 8]);
    }

    #[test]
    fn hidden_state_stays_bounded() {
        // GRU interpolation keeps h in (-1, 1) when starting from zero.
        let (c, supports) = cell();
        let tape = Tape::new();
        let x = tape.leaf(st_tensor::random::uniform(
            [2, 4, 2],
            -3.0,
            3.0,
            &mut st_tensor::random::rng_from_seed(2),
        ));
        let mut h = tape.leaf(c.zero_state(2, 4));
        for _ in 0..5 {
            h = c.step(&tape, &supports, &x, &h);
        }
        assert!(h.value().to_vec().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn params_count_and_gradients() {
        let (c, supports) = cell();
        // 3 convolutions × (w, b).
        assert_eq!(c.params().len(), 6);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1, 4, 2]));
        let h = tape.leaf(c.zero_state(1, 4));
        let h2 = c.step(&tape, &supports, &x, &h);
        let loss = ops::sum_all(&h2);
        let grads = tape.backward(&loss);
        tape.accumulate_param_grads(&grads);
        // Update-gate and candidate weights must receive gradient.
        let with_grad = c.params().iter().filter(|p| p.grad().is_some()).count();
        assert!(with_grad >= 4, "only {with_grad} params got gradients");
    }
}
