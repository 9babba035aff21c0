//! The full DCRNN: multi-layer DCGRU encoder–decoder.
//!
//! The encoder consumes the `T`-step history; its final hidden states seed a
//! decoder that unrolls `T` future steps from a GO symbol, projecting each
//! hidden state to the output features. This is the heavyweight baseline of
//! Table 2 — its autograd graph retains ~2·T·layers step subgraphs, which is
//! why its GPU footprint dwarfs the single-layer PGT variant's.

use crate::common::{check_input, ModelConfig, Seq2Seq};
use crate::dcrnn::cell::DcGruCell;
use crate::graph_ops::Support;
use st_autograd::{ops, Module, Param, Tape, Var};
use st_tensor::{random, Tensor};

/// Encoder–decoder DCRNN.
pub struct Dcrnn {
    cfg: ModelConfig,
    /// The diffusion supports every cell steps over.
    supports: Vec<Support>,
    encoder: Vec<DcGruCell>,
    decoder: Vec<DcGruCell>,
    proj_w: Param,
    proj_b: Param,
}

impl Dcrnn {
    /// Build from supports (see [`st_graph::diffusion_supports`]) and a seed.
    pub fn new(cfg: ModelConfig, supports: &[Support], seed: u64) -> Self {
        let mut rng = random::rng_from_seed(seed);
        let mut encoder = Vec::with_capacity(cfg.layers);
        let mut decoder = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let enc_in = if l == 0 { cfg.input_dim } else { cfg.hidden };
            encoder.push(DcGruCell::new(
                &format!("enc{l}"),
                supports.len(),
                enc_in,
                cfg.hidden,
                &mut rng,
            ));
            let dec_in = if l == 0 { cfg.output_dim } else { cfg.hidden };
            decoder.push(DcGruCell::new(
                &format!("dec{l}"),
                supports.len(),
                dec_in,
                cfg.hidden,
                &mut rng,
            ));
        }
        let proj_w = Param::new(
            "proj.w",
            random::xavier_uniform(cfg.hidden, cfg.output_dim, &mut rng),
        );
        let proj_b = Param::new("proj.b", Tensor::zeros([cfg.output_dim]));
        Dcrnn {
            cfg,
            supports: supports.to_vec(),
            encoder,
            decoder,
            proj_w,
            proj_b,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }
}

impl Module for Dcrnn {
    fn params(&self) -> Vec<Param> {
        let mut p = Vec::new();
        for c in &self.encoder {
            p.extend(c.params());
        }
        for c in &self.decoder {
            p.extend(c.params());
        }
        p.push(self.proj_w.clone());
        p.push(self.proj_b.clone());
        p
    }
}

impl Seq2Seq for Dcrnn {
    fn forward(&self, tape: &Tape, x: &Tensor) -> Var {
        check_input(x, &self.cfg, "DCRNN");
        let (b, t, n) = (x.dim(0), x.dim(1), x.dim(2));

        // ---- Encoder: roll the history through every layer. ----
        let mut hidden: Vec<Var> = self
            .encoder
            .iter()
            .map(|c| tape.constant(c.zero_state(b, n)))
            .collect();
        for step in 0..t {
            // x_t: [B, N, F]
            let xt = tape.constant(x.select(1, step).expect("step in range").contiguous());
            let mut inp = xt;
            for (l, cell) in self.encoder.iter().enumerate() {
                let h = cell.step(tape, &self.supports, &inp, &hidden[l]);
                hidden[l] = h.clone();
                inp = h;
            }
        }

        // ---- Decoder: unroll T future steps from a GO symbol. ----
        let mut dec_hidden = hidden; // decoder initialized from encoder state
        let mut outputs: Vec<Var> = Vec::with_capacity(t);
        let mut prev = tape.constant(Tensor::zeros([b, n, self.cfg.output_dim]));
        let w = tape.param(&self.proj_w);
        let bias = tape.param(&self.proj_b);
        for _ in 0..t {
            let mut inp = prev.clone();
            for (l, cell) in self.decoder.iter().enumerate() {
                let h = cell.step(tape, &self.supports, &inp, &dec_hidden[l]);
                dec_hidden[l] = h.clone();
                inp = h;
            }
            // Project hidden -> output features.
            let out = ops::bias_act(&ops::bmm(&inp, &w), &bias, ops::Activation::Identity); // [B, N, out]
            outputs.push(out.clone());
            prev = out; // autoregressive feed (no teacher forcing)
        }
        // Stack to [T, B, N, out] then permute to [B, T, N, out].
        let refs: Vec<&Var> = outputs.iter().collect();
        let stacked = ops::stack0(&refs);
        ops::permute(&stacked, &[1, 0, 2, 3])
    }

    fn name(&self) -> &'static str {
        "DCRNN"
    }

    fn flops_per_forward(&self, batch: usize) -> f64 {
        let n = self.cfg.num_nodes;
        let t = self.cfg.horizon as f64;
        let flops = |c: &DcGruCell| c.flops(&self.supports, batch, n);
        let enc: f64 = self.encoder.iter().map(flops).sum();
        let dec: f64 = self.decoder.iter().map(flops).sum();
        let proj = 2.0 * (batch * n * self.cfg.hidden * self.cfg.output_dim) as f64;
        t * (enc + dec + proj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::{diffusion_supports, generators::highway_corridor};

    fn model(nodes: usize) -> (Dcrnn, Vec<Support>) {
        let net = highway_corridor(nodes, 1, 3);
        let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
        let cfg = ModelConfig {
            input_dim: 2,
            output_dim: 1,
            hidden: 8,
            num_nodes: nodes,
            horizon: 3,
            diffusion_steps: 2,
            layers: 2,
        };
        (Dcrnn::new(cfg, &supports, 42), supports)
    }

    #[test]
    fn forward_shape() {
        let (m, _) = model(5);
        let tape = Tape::new();
        let x = Tensor::ones([2, 3, 5, 2]);
        let y = m.forward(&tape, &x);
        assert_eq!(y.value().dims(), &[2, 3, 5, 1]);
    }

    #[test]
    fn all_params_receive_gradients() {
        let (m, _) = model(4);
        let tape = Tape::new();
        let x = st_tensor::random::uniform(
            [1, 3, 4, 2],
            -1.0,
            1.0,
            &mut st_tensor::random::rng_from_seed(5),
        );
        let y = m.forward(&tape, &x);
        let loss = ops::mean_all(&ops::square(&y));
        let grads = tape.backward(&loss);
        tape.accumulate_param_grads(&grads);
        let missing: Vec<String> = m
            .params()
            .iter()
            .filter(|p| p.grad().is_none())
            .map(Param::name)
            .collect();
        assert!(missing.is_empty(), "params without gradient: {missing:?}");
    }

    #[test]
    fn deterministic_by_seed() {
        let (a, _) = model(4);
        let (b, _) = model(4);
        assert_eq!(a.state_vector(), b.state_vector());
    }

    #[test]
    fn encoder_decoder_graph_is_larger_than_single_layer() {
        // The property behind Table 2's GPU column.
        let (m, supports) = model(5);
        let tape = Tape::new();
        let x = Tensor::ones([2, 3, 5, 2]);
        let _ = m.forward(&tape, &x);
        let dcrnn_bytes = tape.activation_bytes(4);

        let pgt = crate::pgt_dcrnn::PgtDcrnn::new(
            ModelConfig {
                input_dim: 2,
                output_dim: 1,
                hidden: 8,
                num_nodes: 5,
                horizon: 3,
                diffusion_steps: 2,
                layers: 1,
            },
            &supports,
            42,
        );
        let tape2 = Tape::new();
        let _ = pgt.forward(&tape2, &x);
        let pgt_bytes = tape2.activation_bytes(4);
        assert!(
            dcrnn_bytes > 2 * pgt_bytes,
            "DCRNN {dcrnn_bytes} vs PGT {pgt_bytes}"
        );
    }
}
