//! ST-LLM-style model (§5.5, Fig 10): spatial-temporal token embeddings
//! feeding a small transformer encoder.
//!
//! The real ST-LLM embeds spatial-temporal context into tokens processed by
//! a partially-frozen GPT-2. A GPT-2 checkpoint is not shippable offline, so
//! this substitute keeps the pieces the scaling experiment exercises: per
//! (node, step) token embeddings with learned node and position embeddings,
//! multi-head self-attention blocks over the time axis, and a forecasting
//! head — i.e., a sequence-to-sequence attention model whose per-step cost
//! is attention-dominated, matching the workload shape of Fig 10.

use crate::common::{check_input, ModelConfig, Seq2Seq};
use st_autograd::{ops, Module, Param, Tape, Var};
use st_tensor::{random, Tensor};

/// One pre-norm transformer block (MHA with `heads` heads + FFN).
struct Block {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    ln1_g: Param,
    ln1_b: Param,
    ffn_w1: Param,
    ffn_b1: Param,
    ffn_w2: Param,
    ffn_b2: Param,
    ln2_g: Param,
    ln2_b: Param,
    dim: usize,
    heads: usize,
}

impl Block {
    fn new(name: &str, dim: usize, heads: usize, rng: &mut rand::rngs::StdRng) -> Self {
        assert_eq!(dim % heads, 0, "dim must divide heads");
        let ffn = 2 * dim;
        Block {
            wq: Param::new(format!("{name}.wq"), random::xavier_uniform(dim, dim, rng)),
            wk: Param::new(format!("{name}.wk"), random::xavier_uniform(dim, dim, rng)),
            wv: Param::new(format!("{name}.wv"), random::xavier_uniform(dim, dim, rng)),
            wo: Param::new(format!("{name}.wo"), random::xavier_uniform(dim, dim, rng)),
            ln1_g: Param::new(format!("{name}.ln1.g"), Tensor::ones([dim])),
            ln1_b: Param::new(format!("{name}.ln1.b"), Tensor::zeros([dim])),
            ffn_w1: Param::new(
                format!("{name}.ffn.w1"),
                random::xavier_uniform(dim, ffn, rng),
            ),
            ffn_b1: Param::new(format!("{name}.ffn.b1"), Tensor::zeros([ffn])),
            ffn_w2: Param::new(
                format!("{name}.ffn.w2"),
                random::xavier_uniform(ffn, dim, rng),
            ),
            ffn_b2: Param::new(format!("{name}.ffn.b2"), Tensor::zeros([dim])),
            ln2_g: Param::new(format!("{name}.ln2.g"), Tensor::ones([dim])),
            ln2_b: Param::new(format!("{name}.ln2.b"), Tensor::zeros([dim])),
            dim,
            heads,
        }
    }

    /// `x: [S, T, D]` where S = batch × nodes sequences of length T.
    fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let (s, t, d) = (x.value().dim(0), x.value().dim(1), x.value().dim(2));
        let hd = d / self.heads;

        // ---- Multi-head self-attention (pre-norm). ----
        let g1 = tape.param(&self.ln1_g);
        let b1 = tape.param(&self.ln1_b);
        let normed = ops::layer_norm(x, &g1, &b1, 1e-5);
        let q = ops::bmm(&normed, &tape.param(&self.wq)); // [S,T,D]
        let k = ops::bmm(&normed, &tape.param(&self.wk));
        let v = ops::bmm(&normed, &tape.param(&self.wv));

        let mut head_outs: Vec<Var> = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = ops::narrow(&q, 2, h * hd, hd); // [S,T,hd]
            let kh = ops::narrow(&k, 2, h * hd, hd);
            let vh = ops::narrow(&v, 2, h * hd, hd);
            let kt = ops::permute(&kh, &[0, 2, 1]); // [S,hd,T]
            let scores = ops::mul_scalar(&ops::bmm(&qh, &kt), 1.0 / (hd as f32).sqrt());
            let attn = ops::softmax_last(&scores); // [S,T,T]
            head_outs.push(ops::bmm(&attn, &vh)); // [S,T,hd]
        }
        // The heads' [S,T,hd] outputs side by side are the [S,T,D] input
        // of the output projection; one panel GEMM reads them in place.
        let head_refs: Vec<&Var> = head_outs.iter().collect();
        let mha = ops::bmm_panels(&head_refs, &tape.param(&self.wo));
        let x = ops::add(x, &mha); // residual

        // ---- FFN (pre-norm). ----
        let g2 = tape.param(&self.ln2_g);
        let b2 = tape.param(&self.ln2_b);
        let normed2 = ops::layer_norm(&x, &g2, &b2, 1e-5);
        let hid = ops::gelu(&ops::add(
            &ops::bmm(&normed2, &tape.param(&self.ffn_w1)),
            &tape.param(&self.ffn_b1),
        ));
        let ffn = ops::add(
            &ops::bmm(&hid, &tape.param(&self.ffn_w2)),
            &tape.param(&self.ffn_b2),
        );
        let _ = (s, t);
        ops::add(&x, &ffn)
    }

    fn params(&self) -> Vec<Param> {
        vec![
            self.wq.clone(),
            self.wk.clone(),
            self.wv.clone(),
            self.wo.clone(),
            self.ln1_g.clone(),
            self.ln1_b.clone(),
            self.ffn_w1.clone(),
            self.ffn_b1.clone(),
            self.ffn_w2.clone(),
            self.ffn_b2.clone(),
            self.ln2_g.clone(),
            self.ln2_b.clone(),
        ]
    }

    fn flops(&self, seqs: usize, t: usize) -> f64 {
        let d = self.dim as f64;
        let proj = 4.0 * 2.0 * (seqs * t) as f64 * d * d; // q,k,v,o
        let attn = 2.0 * 2.0 * seqs as f64 * (t * t) as f64 * d;
        let ffn = 2.0 * 2.0 * (seqs * t) as f64 * d * (2.0 * d);
        proj + attn + ffn
    }
}

/// The ST-LLM-style forecaster.
pub struct StLlm {
    cfg: ModelConfig,
    token_w: Param, // [input_dim, dim]
    token_b: Param,
    node_emb: Param, // [num_nodes, dim]
    pos_emb: Param,  // [horizon, dim]
    blocks: Vec<Block>,
    head_w: Param, // [dim, output_dim]
    head_b: Param,
}

impl StLlm {
    /// Transformer width (small GPT-2-flavoured).
    const DIM: usize = 32;
    /// Attention heads per block.
    const HEADS: usize = 2;
    /// Encoder depth.
    const DEPTH: usize = 2;

    /// Build from a config and seed.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = random::rng_from_seed(seed);
        let d = Self::DIM;
        let blocks = (0..Self::DEPTH)
            .map(|i| Block::new(&format!("stllm.b{i}"), d, Self::HEADS, &mut rng))
            .collect();
        StLlm {
            token_w: Param::new(
                "stllm.tok.w",
                random::xavier_uniform(cfg.input_dim, d, &mut rng),
            ),
            token_b: Param::new("stllm.tok.b", Tensor::zeros([d])),
            node_emb: Param::new(
                "stllm.node_emb",
                random::normal([cfg.num_nodes, d], 0.0, 0.02, &mut rng),
            ),
            pos_emb: Param::new(
                "stllm.pos_emb",
                random::normal([cfg.horizon, d], 0.0, 0.02, &mut rng),
            ),
            head_w: Param::new(
                "stllm.head.w",
                random::xavier_uniform(d, cfg.output_dim, &mut rng),
            ),
            head_b: Param::new("stllm.head.b", Tensor::zeros([cfg.output_dim])),
            blocks,
            cfg,
        }
    }
}

impl Module for StLlm {
    fn params(&self) -> Vec<Param> {
        let mut p = vec![
            self.token_w.clone(),
            self.token_b.clone(),
            self.node_emb.clone(),
            self.pos_emb.clone(),
        ];
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.push(self.head_w.clone());
        p.push(self.head_b.clone());
        p
    }
}

impl Seq2Seq for StLlm {
    fn forward(&self, tape: &Tape, x: &Tensor) -> Var {
        check_input(x, &self.cfg, "ST-LLM");
        let (b, t, n, f) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let d = Self::DIM;

        // Tokens: [B,T,N,F] -> [B,N,T,F] -> [B*N, T, F] -> project to D.
        let xt = tape.constant(
            x.permute(&[0, 2, 1, 3])
                .expect("rank 4")
                .contiguous()
                .reshape([b * n, t, f])
                .expect("same numel"),
        );
        let tokens = ops::add(
            &ops::bmm(&xt, &tape.param(&self.token_w)),
            &tape.param(&self.token_b),
        ); // [B*N, T, D]

        // Add node embedding (per sequence) and position embedding (per step).
        let node = tape.param(&self.node_emb); // [N, D]
                                               // Tile node embeddings to [B*N, 1, D] by index-select.
        let idx: Vec<usize> = (0..b).flat_map(|_| 0..n).collect();
        let node_rows = ops::index_select0(&node, &idx); // [B*N, D]
        let node_rows = ops::reshape(&node_rows, vec![b * n, 1, d]);
        let pos = ops::reshape(&tape.param(&self.pos_emb), vec![1, t, d]);
        let mut h = ops::add(&ops::add(&tokens, &node_rows), &pos);

        for blk in &self.blocks {
            h = blk.forward(tape, &h);
        }

        // Head: per-token forecast; reshape back to [B, T, N, out].
        let out = ops::add(
            &ops::bmm(&h, &tape.param(&self.head_w)),
            &tape.param(&self.head_b),
        ); // [B*N, T, out]
        let out = ops::reshape(&out, vec![b, n, t, self.cfg.output_dim]);
        ops::permute(&out, &[0, 2, 1, 3])
    }

    fn name(&self) -> &'static str {
        "ST-LLM"
    }

    fn flops_per_forward(&self, batch: usize) -> f64 {
        let n = self.cfg.num_nodes;
        let t = self.cfg.horizon;
        let seqs = batch * n;
        let embed = 2.0 * (seqs * t * self.cfg.input_dim * Self::DIM) as f64;
        let blocks: f64 = self.blocks.iter().map(|b| b.flops(seqs, t)).sum();
        let head = 2.0 * (seqs * t * Self::DIM * self.cfg.output_dim) as f64;
        embed + blocks + head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize, horizon: usize) -> StLlm {
        let cfg = ModelConfig {
            input_dim: 2,
            output_dim: 1,
            hidden: 32,
            num_nodes: nodes,
            horizon,
            diffusion_steps: 1,
            layers: 2,
        };
        StLlm::new(cfg, 13)
    }

    #[test]
    fn forward_shape() {
        let m = model(4, 5);
        let tape = Tape::new();
        let y = m.forward(&tape, &Tensor::ones([2, 5, 4, 2]));
        assert_eq!(y.value().dims(), &[2, 5, 4, 1]);
    }

    #[test]
    fn node_embeddings_get_gradients() {
        let m = model(3, 4);
        let tape = Tape::new();
        let x = st_tensor::random::uniform(
            [1, 4, 3, 2],
            -1.0,
            1.0,
            &mut st_tensor::random::rng_from_seed(2),
        );
        let y = m.forward(&tape, &x);
        let l = ops::mean_all(&ops::square(&y));
        let grads = tape.backward(&l);
        tape.accumulate_param_grads(&grads);
        assert!(m.node_emb.grad().is_some());
        assert!(m.pos_emb.grad().is_some());
        for blk in &m.blocks {
            assert!(blk.wq.grad().is_some(), "attention weights need grads");
        }
    }

    #[test]
    fn training_reduces_loss() {
        use st_autograd::loss;
        use st_autograd::optim::{Adam, Optimizer};
        let m = model(3, 3);
        let x = st_tensor::random::uniform(
            [2, 3, 3, 2],
            -1.0,
            1.0,
            &mut st_tensor::random::rng_from_seed(4),
        );
        let target = Tensor::full([2, 3, 3, 1], 0.3);
        let mut opt = Adam::new(m.params(), 0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            opt.zero_grad();
            let tape = Tape::new();
            let pred = m.forward(&tape, &x);
            let tgt = tape.constant(target.clone());
            let l = loss::mse(&pred, &tgt);
            last = l.value().item();
            first.get_or_insert(last);
            let grads = tape.backward(&l);
            tape.accumulate_param_grads(&grads);
            opt.step();
        }
        assert!(last < first.unwrap() * 0.5, "{:?} -> {last}", first);
    }

    #[test]
    fn attention_cost_quadratic_in_horizon() {
        let short = model(4, 4);
        let long = model(4, 16);
        // 4× horizon: a purely linear model would scale exactly 4×; the
        // quadratic attention term must push it strictly beyond that.
        assert!(long.flops_per_forward(2) > 4.3 * short.flops_per_forward(2));
    }
}
