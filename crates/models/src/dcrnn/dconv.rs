//! The diffusion convolution layer.
//!
//! `DConv(X) = Σ_k  (S_k X) W_k + b`, where the supports `S_k` are the
//! identity plus forward/reverse random-walk powers (Li et al. eq. 2). The
//! reference code concatenates the `S_k X` terms along the feature axis and
//! applies one fused weight matrix. Here one GEMM reads the `S_k X` panels
//! where they lie ([`ops::bmm_panels`]), with the same bits and no
//! concatenation.
//!
//! A leading identity support (`S_0 = I`, as [`st_graph::diffusion_supports`]
//! builds it) runs no SpMM: its panel is `X` itself, behind a pass-through
//! tape node. `I X` differs from `X` only in turning `-0.0` into `+0.0`, and
//! the panel GEMM's `+0.0`-seeded sums cannot tell the two apart. Backward,
//! `Iᵀ dA_0` equals `dA_0` bit for bit, because `dA_0` is itself the output
//! of a `+0.0`-seeded GEMM and so is never `-0.0`. The pass-through is
//! recorded before the SpMM nodes, so `dA_0` is still the last term added
//! to `X`'s gradient, as `Iᵀ dA_0` was. Both hold at K = 1 too, where the
//! identity is the only support (DESIGN.md §8, "Panel GEMM").

use crate::graph_ops::{spmm_var, Support};
use st_autograd::ops::Activation;
use st_autograd::{ops, Module, Param, Tape, Var};
use st_tensor::random;

/// A diffusion convolution mapping `[B, N, in_dim] → [B, N, out_dim]`.
///
/// The layer owns only its weights: the supports are an argument of every
/// call, so a model holds its graph once and a dynamic graph passes a new
/// one per step.
pub struct DiffusionConv {
    /// Support count K, baked into the weight layout `[K·in, out]`.
    k: usize,
    w: Param,
    b: Param,
    in_dim: usize,
    out_dim: usize,
}

impl DiffusionConv {
    /// Create with Xavier-initialized weights for `k` supports (as many as
    /// [`st_graph::diffusion_supports`] builds).
    pub fn new(
        name: &str,
        k: usize,
        in_dim: usize,
        out_dim: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Self {
        let w = Param::new(
            format!("{name}.w"),
            random::xavier_uniform(k * in_dim, out_dim, rng),
        );
        let b = Param::new(format!("{name}.b"), st_tensor::Tensor::zeros([out_dim]));
        DiffusionConv {
            k,
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Apply over `supports` to `x: [B, N, in_dim]`, producing
    /// `[B, N, out_dim]`, with `act` fused into the bias add: the DCRNN
    /// gate path (`dconv → add-bias → σ/tanh`) runs as one elementwise
    /// kernel instead of two materializing tape nodes. The support count
    /// must match construction.
    ///
    /// Parameters are bound through [`Tape::param`], so the trainer's
    /// [`Tape::accumulate_param_grads`] collects their gradients after the
    /// backward pass.
    pub fn forward(&self, tape: &Tape, supports: &[Support], x: &Var, act: Activation) -> Var {
        debug_assert_eq!(x.value().dim(2), self.in_dim, "dconv input dim");
        assert_eq!(
            supports.len(),
            self.k,
            "support count is baked into the weight layout"
        );
        // The panels S_k X, each [B, N, in_dim]. A leading identity support
        // is X itself, through a pass-through node recorded before the SpMM
        // nodes so its gradient still lands last in X's sum (module docs).
        let mut panels: Vec<Var> = Vec::with_capacity(supports.len());
        let rest = match supports {
            [s0, tail @ ..] if s0.is_identity() => {
                panels.push(tape.custom_op(&[x], x.value().clone(), |g| vec![g.clone()]));
                tail
            }
            _ => supports,
        };
        panels.extend(rest.iter().map(|s| spmm_var(tape, s, x)));
        // Fused projection: one GEMM over the panels with the shared
        // [K*in, out] weight, then the bias/activation tail in one pass.
        let w = tape.param(&self.w);
        let b = tape.param(&self.b);
        let refs: Vec<&Var> = panels.iter().collect();
        ops::bias_act(&ops::bmm_panels(&refs, &w), &b, act)
    }

    /// FLOPs of one forward call over `supports` at batch `b` over `n`
    /// nodes: an SpMM per support (≈2·nnz·in) plus the fused GEMM. This
    /// prices the reference formulation the modeled clock charges (K
    /// SpMMs, the identity's included), not the kernels this host runs,
    /// which skip the identity.
    pub fn flops(&self, supports: &[Support], batch: usize, n: usize) -> f64 {
        let k = supports.len() as f64;
        let nnz: usize = supports.iter().map(|s| s.mat.nnz()).sum();
        let spmm = 2.0 * nnz as f64 * self.in_dim as f64 * batch as f64;
        let gemm = 2.0 * batch as f64 * n as f64 * (k * self.in_dim as f64) * self.out_dim as f64;
        spmm + gemm
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
    use st_graph::{diffusion_supports, Adjacency, Csr};
    use st_tensor::Tensor;

    fn layer(in_dim: usize, out_dim: usize) -> (DiffusionConv, Vec<Support>) {
        let adj = Adjacency::from_dense(3, vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        let supports = Support::wrap_all(diffusion_supports(&adj, 2));
        let mut rng = st_tensor::random::rng_from_seed(1);
        let dc = DiffusionConv::new("dc", supports.len(), in_dim, out_dim, &mut rng);
        (dc, supports)
    }

    #[test]
    fn forward_shape() {
        let (dc, supports) = layer(2, 4);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([5, 3, 2]));
        let y = dc.forward(&tape, &supports, &x, Activation::Identity);
        assert_eq!(y.value().dims(), &[5, 3, 4]);
    }

    #[test]
    fn gradients_flow_to_weights() {
        let (dc, supports) = layer(1, 2);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 3, 1]));
        let y = dc.forward(&tape, &supports, &x, Activation::Identity);
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
        let (dc, supports) = layer(1, 1);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1, 3, 1]));
        let y1 = dc.forward(&tape, &supports, &x, Activation::Identity);
        let y2 = dc.forward(&tape, &supports, &y1, Activation::Identity);
        let loss = ops::sum_all(&y2);
        let grads = tape.backward(&loss);
        tape.accumulate_param_grads(&grads);
        assert!(dc.w.grad().is_some());
    }

    /// The composition this layer replaced: an SpMM per support (the
    /// identity's included), `concat`, then one `bmm` with the fused weight.
    fn concat_dconv(
        tape: &Tape,
        supports: &[Support],
        x: &Var,
        wb: &[Param],
        act: Activation,
    ) -> Var {
        let diffused: Vec<Var> = supports.iter().map(|s| spmm_var(tape, s, x)).collect();
        let cat = ops::concat(&diffused.iter().collect::<Vec<_>>(), 2);
        ops::bias_act(
            &ops::bmm(&cat, &tape.param(&wb[0])),
            &tape.param(&wb[1]),
            act,
        )
    }

    /// `DcGruCell::step` over [`concat_dconv`], with the cell's own
    /// parameters (`r.w, r.b, u.w, u.b, c.w, c.b`).
    fn concat_step(tape: &Tape, supports: &[Support], p: &[Param], x: &Var, h: &Var) -> Var {
        let xh = ops::concat(&[x, h], 2);
        let r = concat_dconv(tape, supports, &xh, &p[0..2], Activation::Sigmoid);
        let u = concat_dconv(tape, supports, &xh, &p[2..4], Activation::Sigmoid);
        let xrh = ops::concat(&[x, &ops::mul(&r, h)], 2);
        let c = concat_dconv(tape, supports, &xrh, &p[4..6], Activation::Tanh);
        ops::gru_blend(&u, h, &c)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// Two recurrent cell steps and a loss weighted by `target`: the
    /// output, then the gradient of both inputs, the initial state and all
    /// six parameters, as bits.
    fn cell_run(
        cell: &crate::dcrnn::DcGruCell,
        supports: &[Support],
        inputs: &[Tensor; 4],
        concat: bool,
    ) -> Vec<Vec<u32>> {
        let tape = Tape::new();
        let [x0, x1, h0] = [0, 1, 2].map(|i| tape.leaf(inputs[i].clone()));
        let params = cell.params();
        let step = |x: &Var, h: &Var| match concat {
            true => concat_step(&tape, supports, &params, x, h),
            false => cell.step(&tape, supports, x, h),
        };
        let h2 = step(&x1, &step(&x0, &h0));
        let loss = ops::sum_all(&ops::mul(&h2, &tape.constant(inputs[3].clone())));
        let grads = tape.backward(&loss);
        let mut out = vec![bits(h2.value())];
        out.extend([&x0, &x1, &h0].map(|v| bits(grads.get(v).expect("input gradient"))));
        out.extend(
            params
                .iter()
                .map(|p| bits(grads.get(&tape.param(p)).expect("param gradient"))),
        );
        out
    }

    #[test]
    fn cell_step_matches_the_concat_composition_bit_for_bit() {
        // A directed, unevenly weighted 6-node graph: forward and reverse
        // walks differ, and powers reach further than one hop.
        let n = 6;
        let mut w = vec![0.0; n * n];
        for (i, j, v) in [
            (0, 1, 1.0),
            (1, 2, 0.7),
            (2, 0, 0.3),
            (2, 3, 1.9),
            (3, 4, 0.4),
            (4, 5, 1.1),
            (5, 3, 0.6),
            (1, 4, 0.2),
        ] {
            w[i * n + j] = v;
        }
        let adj = Adjacency::from_dense(n, w);
        let (input_dim, hidden, batch) = (2, 5, 3);
        let mut rng = st_tensor::random::rng_from_seed(77);
        let mut inputs = [
            [batch, n, input_dim],
            [batch, n, input_dim],
            [batch, n, hidden],
            [batch, n, hidden],
        ]
        .map(|dims| st_tensor::random::uniform(dims, -1.5, 1.5, &mut rng));
        // −0.0 in the inputs, the state and the upstream gradient.
        for t in &mut inputs {
            let v = t.make_mut_contiguous();
            for i in (0..v.len()).step_by(5) {
                v[i] = -0.0;
            }
        }
        let rw = st_graph::transition::random_walk(&adj);
        let rev = st_graph::transition::reverse_random_walk(&adj);
        let dynamic = Support::wrap_all(vec![rw, Csr::identity(n), rev]);
        assert!(!dynamic[0].is_identity() && dynamic[1].is_identity());
        let cases = [1, 2, 3]
            .map(|k| {
                (
                    format!("K = {k}"),
                    Support::wrap_all(diffusion_supports(&adj, k)),
                )
            })
            .into_iter()
            .chain([("dynamic, first support not I".to_string(), dynamic)]);
        for (name, supports) in cases {
            let mut rng = st_tensor::random::rng_from_seed(5);
            let cell =
                crate::dcrnn::DcGruCell::new("cell", supports.len(), input_dim, hidden, &mut rng);
            let panel = cell_run(&cell, &supports, &inputs, false);
            let concat = cell_run(&cell, &supports, &inputs, true);
            let labels = [
                "h2", "dx0", "dx1", "dh0", "r.w", "r.b", "u.w", "u.b", "c.w", "c.b",
            ];
            for ((p, c), label) in panel.iter().zip(&concat).zip(labels) {
                assert_eq!(p, c, "{name}: {label}");
            }
        }
    }

    #[test]
    fn a_forward_records_one_node_per_panel_and_no_concat() {
        // One node per support (the identity's pass-through or an SpMM),
        // then w, b, the panel GEMM and the bias/activation tail.
        let adj = Adjacency::from_dense(3, vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        for k in 1..=3 {
            let supports = Support::wrap_all(diffusion_supports(&adj, k));
            let count = supports.len();
            let mut rng = st_tensor::random::rng_from_seed(1);
            let dc = DiffusionConv::new("dc", count, 2, 4, &mut rng);
            let tape = Tape::new();
            let x = tape.leaf(Tensor::ones([2, 3, 2]));
            let _ = dc.forward(&tape, &supports, &x, Activation::Identity);
            assert_eq!(tape.len(), 1 + count + 4, "K = {k}");
        }
    }

    #[test]
    fn flops_positive_and_scale_with_batch() {
        let (dc, supports) = layer(2, 4);
        assert!(dc.flops(&supports, 1, 3) > 0.0);
        assert!(dc.flops(&supports, 8, 3) > dc.flops(&supports, 4, 3));
    }
}
