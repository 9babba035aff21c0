//! PGT-DCRNN: the lightweight single-layer stepwise variant (§3).
//!
//! As the paper describes, PGT's DCRNN "uses a single spatiotemporal
//! diffusion convolution layer and does not replicate the full behavior of
//! the original model". The paper's case-study extension processes the
//! input sequence stepwise, carrying a hidden state and emitting an output
//! at each step, so the prediction sequence matches the input length —
//! that is exactly what this module implements.

use crate::common::{check_input, ModelConfig, Seq2Seq};
use crate::dcrnn::cell::DcGruCell;
use crate::graph_ops::Support;
use st_autograd::{ops, Module, Param, Tape, Var};
use st_tensor::{random, Tensor};

/// Single-layer stepwise DCRNN, PGT style.
pub struct PgtDcrnn {
    cfg: ModelConfig,
    /// The construction-time supports [`Seq2Seq::forward`] steps over.
    supports: Vec<Support>,
    cell: DcGruCell,
    out_w: Param,
    out_b: Param,
}

impl PgtDcrnn {
    /// Build from diffusion supports and a seed.
    pub fn new(cfg: ModelConfig, supports: &[Support], seed: u64) -> Self {
        let mut rng = random::rng_from_seed(seed);
        let cell = DcGruCell::new(
            "pgt.cell",
            supports.len(),
            cfg.input_dim,
            cfg.hidden,
            &mut rng,
        );
        let out_w = Param::new(
            "pgt.out.w",
            random::xavier_uniform(cfg.hidden, cfg.output_dim, &mut rng),
        );
        let out_b = Param::new("pgt.out.b", Tensor::zeros([cfg.output_dim]));
        PgtDcrnn {
            cfg,
            supports: supports.to_vec(),
            cell,
            out_w,
            out_b,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Roll `x: [B, T, N, F]` through the cell, step `t` over
    /// `supports(t)`, projecting each hidden state to the output features.
    fn unroll<'s>(
        &self,
        tape: &Tape,
        x: &Tensor,
        supports: impl Fn(usize) -> &'s [Support],
    ) -> Var {
        let (b, t, n) = (x.dim(0), x.dim(1), x.dim(2));
        let mut h = tape.constant(self.cell.zero_state(b, n));
        let w = tape.param(&self.out_w);
        let bias = tape.param(&self.out_b);
        let mut outputs: Vec<Var> = Vec::with_capacity(t);
        for step in 0..t {
            let xt = tape.constant(x.select(1, step).expect("step in range").contiguous());
            h = self.cell.step(tape, supports(step), &xt, &h);
            let out = ops::bias_act(&ops::bmm(&h, &w), &bias, ops::Activation::Identity); // [B, N, out]
            outputs.push(out);
        }
        let refs: Vec<&Var> = outputs.iter().collect();
        let stacked = ops::stack0(&refs); // [T, B, N, out]
        ops::permute(&stacked, &[1, 0, 2, 3])
    }
}

impl Module for PgtDcrnn {
    fn params(&self) -> Vec<Param> {
        let mut p = self.cell.params();
        p.push(self.out_w.clone());
        p.push(self.out_b.clone());
        p
    }
}

impl Seq2Seq for PgtDcrnn {
    fn forward(&self, tape: &Tape, x: &Tensor) -> Var {
        check_input(x, &self.cfg, "PGT-DCRNN");
        self.unroll(tape, x, |_| &self.supports)
    }

    /// Forward over a **dynamic** graph: one support set per time step
    /// (paper §7 — "dynamic graphs with temporal signal"). Gate weights are
    /// shared across steps; only the diffusion operators change. Each
    /// `per_step` entry must have the same support count the model was
    /// built with.
    fn forward_dynamic(&self, tape: &Tape, x: &Tensor, per_step: &[&[Support]]) -> Var {
        check_input(x, &self.cfg, "PGT-DCRNN(dynamic)");
        assert_eq!(
            per_step.len(),
            self.cfg.horizon,
            "need one support set per time step"
        );
        self.unroll(tape, x, |step| per_step[step])
    }

    fn name(&self) -> &'static str {
        "PGT-DCRNN"
    }

    fn flops_per_forward(&self, batch: usize) -> f64 {
        let n = self.cfg.num_nodes;
        let t = self.cfg.horizon as f64;
        let proj = 2.0 * (batch * n * self.cfg.hidden * self.cfg.output_dim) as f64;
        t * (self.cell.flops(&self.supports, batch, n) + proj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_autograd::loss;
    use st_autograd::optim::{Adam, Optimizer};
    use st_graph::{diffusion_supports, generators::highway_corridor};

    fn model(nodes: usize, horizon: usize) -> PgtDcrnn {
        let net = highway_corridor(nodes, 1, 3);
        let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
        let cfg = ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 12,
            num_nodes: nodes,
            horizon,
            diffusion_steps: 2,
            layers: 1,
        };
        PgtDcrnn::new(cfg, &supports, 7)
    }

    #[test]
    fn forward_shape_matches_input_length() {
        let m = model(6, 4);
        let tape = Tape::new();
        let y = m.forward(&tape, &Tensor::ones([3, 4, 6, 1]));
        assert_eq!(y.value().dims(), &[3, 4, 6, 1]);
    }

    #[test]
    fn can_overfit_a_constant_mapping() {
        // Sanity: a few Adam steps on a fixed (x, y) pair must reduce loss
        // substantially — proves gradients are wired end to end.
        let m = model(4, 3);
        let x = st_tensor::random::uniform(
            [2, 3, 4, 1],
            -1.0,
            1.0,
            &mut st_tensor::random::rng_from_seed(3),
        );
        let target = Tensor::full([2, 3, 4, 1], 0.5);
        let mut opt = Adam::new(m.params(), 0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            opt.zero_grad();
            let tape = Tape::new();
            let pred = m.forward(&tape, &x);
            let tgt = tape.constant(target.clone());
            let l = loss::mae(&pred, &tgt);
            last = l.value().item();
            first.get_or_insert(last);
            let grads = tape.backward(&l);
            tape.accumulate_param_grads(&grads);
            opt.step();
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.35,
            "loss failed to drop: {first} -> {last}"
        );
    }

    #[test]
    fn dynamic_forward_with_static_supports_matches_static_forward() {
        // When every step uses the construction-time supports, the dynamic
        // path must be bit-identical to the static one.
        let net = highway_corridor(5, 1, 4);
        let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
        let cfg = ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 6,
            num_nodes: 5,
            horizon: 3,
            diffusion_steps: 2,
            layers: 1,
        };
        let m = PgtDcrnn::new(cfg, &supports, 9);
        let x = st_tensor::random::uniform(
            [2, 3, 5, 1],
            -1.0,
            1.0,
            &mut st_tensor::random::rng_from_seed(5),
        );
        let tape = Tape::new();
        let stat = m.forward(&tape, &x);
        let per_step: Vec<&[Support]> = (0..3).map(|_| supports.as_slice()).collect();
        let dynv = m.forward_dynamic(&tape, &x, &per_step);
        assert_eq!(stat.value().to_vec(), dynv.value().to_vec());
    }

    #[test]
    fn dynamic_forward_reacts_to_topology_change() {
        // Zeroing the graph at one step must change the output.
        let net = highway_corridor(5, 1, 4);
        let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
        let empty = Support::wrap_all(diffusion_supports(
            &st_graph::Adjacency::from_dense(5, vec![0.0; 25]),
            2,
        ));
        let cfg = ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 6,
            num_nodes: 5,
            horizon: 3,
            diffusion_steps: 2,
            layers: 1,
        };
        let m = PgtDcrnn::new(cfg, &supports, 9);
        let x = st_tensor::random::uniform(
            [1, 3, 5, 1],
            -1.0,
            1.0,
            &mut st_tensor::random::rng_from_seed(5),
        );
        let tape = Tape::new();
        let baseline = m.forward(&tape, &x).value().to_vec();
        let per_step: Vec<&[Support]> =
            vec![supports.as_slice(), empty.as_slice(), supports.as_slice()];
        let changed = m.forward_dynamic(&tape, &x, &per_step).value().to_vec();
        assert_ne!(baseline, changed, "topology change must affect predictions");
    }

    #[test]
    #[should_panic(expected = "one support set per time step")]
    fn dynamic_forward_rejects_wrong_step_count() {
        let net = highway_corridor(4, 1, 4);
        let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
        let cfg = ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 4,
            num_nodes: 4,
            horizon: 3,
            diffusion_steps: 2,
            layers: 1,
        };
        let m = PgtDcrnn::new(cfg, &supports, 1);
        let tape = Tape::new();
        let per_step: Vec<&[Support]> = vec![supports.as_slice()]; // 1 ≠ 3
        m.forward_dynamic(&tape, &Tensor::ones([1, 3, 4, 1]), &per_step);
    }

    #[test]
    fn forward_inference_is_bit_identical_and_tape_free() {
        let m = model(6, 4);
        let x = st_tensor::random::uniform(
            [3, 4, 6, 1],
            -1.0,
            1.0,
            &mut st_tensor::random::rng_from_seed(17),
        );
        let tape = Tape::new();
        let trained_path = m.forward(&tape, &x);
        let served_path = m.forward_inference(&x);
        assert_eq!(
            trained_path.value().to_vec(),
            served_path.to_vec(),
            "inference forward must match the training forward bitwise"
        );
        assert!(tape.activation_bytes(4) > 0, "training tape records");
    }

    #[test]
    fn flops_scale_with_horizon() {
        let short = model(6, 2);
        let long = model(6, 8);
        assert!(long.flops_per_forward(4) > 3.0 * short.flops_per_forward(4));
    }

    #[test]
    fn param_count_is_single_cell_plus_head() {
        let m = model(4, 3);
        // 3 dconv (w+b) + head (w+b) = 8.
        assert_eq!(m.params().len(), 8);
    }
}
