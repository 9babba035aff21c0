//! Optimizers: SGD (with momentum) and Adam, plus large-batch helpers.
//!
//! The paper's §5.3.3 follow-up attributes most of the MAE inflation at high
//! GPU counts to the growing *global batch size* and shows learning-rate
//! scaling mitigates it; [`lr_for_global_batch`] implements the standard
//! linear scaling rule (Goyal et al.) used for that experiment.

use crate::module::Param;
use st_tensor::Tensor;

/// Interface shared by all optimizers.
pub trait Optimizer {
    /// Apply one update using the parameters' accumulated gradients.
    fn step(&mut self);
    /// Clear all gradients.
    fn zero_grad(&self);
    /// Current learning rate.
    fn lr(&self) -> f32;
    /// Override the learning rate (for schedules / scaling rules).
    fn set_lr(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum.
pub struct Sgd {
    params: Vec<Param>,
    lr: f32,
    momentum: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Create an SGD optimizer over `params`.
    pub fn new(params: Vec<Param>, lr: f32, momentum: f32) -> Self {
        let n = params.len();
        Sgd {
            params,
            lr,
            momentum,
            velocity: vec![None; n],
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for (p, v) in self.params.iter().zip(self.velocity.iter_mut()) {
            let Some(g) = p.grad() else { continue };
            let update = if self.momentum > 0.0 {
                let mut vel = v.take().unwrap_or_else(|| Tensor::zeros(g.shape().clone()));
                vel.scale_(self.momentum);
                vel.add_scaled_(&g, 1.0).expect("shapes stable");
                *v = Some(vel.clone());
                vel
            } else {
                g
            };
            p.update_with(|value, _| {
                let mut nv = value.clone();
                nv.add_scaled_(&update, -self.lr).expect("shapes stable");
                nv
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) — the paper's default optimizer.
pub struct Adam {
    params: Vec<Param>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Adam with PyTorch-default hyperparameters.
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        Self::with_config(params, lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Fully-configured Adam.
    pub fn with_config(
        params: Vec<Param>,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        let n = params.len();
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            m: vec![None; n],
            v: vec![None; n],
        }
    }
}

impl Adam {
    /// Export `(t, m, v)` for checkpointing (see `checkpoint`).
    pub fn export_state(&self) -> (u64, Vec<Option<Tensor>>, Vec<Option<Tensor>>) {
        (self.t, self.m.clone(), self.v.clone())
    }

    /// Restore `(t, m, v)` from a checkpoint. Lengths must match the
    /// parameter list this optimizer was built over.
    pub fn import_state(&mut self, t: u64, m: Vec<Option<Tensor>>, v: Vec<Option<Tensor>>) {
        assert_eq!(m.len(), self.params.len(), "moment count mismatch");
        assert_eq!(v.len(), self.params.len(), "moment count mismatch");
        self.t = t;
        self.m = m;
        self.v = v;
    }

    /// The parameters this optimizer tracks, in moment order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..self.params.len() {
            let p = &self.params[i];
            let Some(mut g) = p.grad() else { continue };
            if self.weight_decay > 0.0 {
                g.add_scaled_(&p.value(), self.weight_decay)
                    .expect("shapes stable");
            }
            let mut m = self.m[i]
                .take()
                .unwrap_or_else(|| Tensor::zeros(g.shape().clone()));
            let mut v = self.v[i]
                .take()
                .unwrap_or_else(|| Tensor::zeros(g.shape().clone()));
            m.scale_(self.beta1);
            m.add_scaled_(&g, 1.0 - self.beta1).expect("shapes stable");
            let g2 = st_tensor::ops::square(&g);
            v.scale_(self.beta2);
            v.add_scaled_(&g2, 1.0 - self.beta2).expect("shapes stable");

            let mhat = st_tensor::ops::mul_scalar(&m, 1.0 / bc1);
            let vhat = st_tensor::ops::mul_scalar(&v, 1.0 / bc2);
            let denom = st_tensor::ops::add_scalar(&st_tensor::ops::sqrt(&vhat), self.eps);
            let update = st_tensor::ops::div(&mhat, &denom).expect("same shape");
            p.update_with(|value, _| {
                let mut nv = value.clone();
                nv.add_scaled_(&update, -self.lr).expect("shapes stable");
                nv
            });
            self.m[i] = Some(m);
            self.v[i] = Some(v);
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Clip gradients by global L2 norm; returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Param], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(g) = p.grad() {
            total += g.to_vec().iter().map(|x| x * x).sum::<f32>();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(mut g) = p.grad() {
                g.scale_(scale);
                p.set_grad(Some(g));
            }
        }
    }
    norm
}

/// Linear learning-rate scaling rule for large global batches
/// (`lr = base_lr * global_batch / base_batch`), as used in the paper's
/// §5.3.3 follow-up experiment.
pub fn lr_for_global_batch(base_lr: f32, base_batch: usize, global_batch: usize) -> f32 {
    base_lr * (global_batch as f32 / base_batch as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::tape::Tape;

    /// Minimize (w - 3)^2 and check convergence.
    fn run_steps(opt: &mut dyn Optimizer, p: &Param, steps: usize) -> f32 {
        for _ in 0..steps {
            opt.zero_grad();
            let tape = Tape::new();
            let w = p.leaf(&tape);
            let target = tape.leaf(Tensor::scalar(3.0));
            let diff = ops::sub(&w, &target);
            let loss = ops::sum_all(&ops::square(&diff));
            let grads = tape.backward(&loss);
            p.accumulate_from(&grads, &w);
            opt.step();
        }
        p.value().item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let p = Param::new("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(vec![p.clone()], 0.1, 0.0);
        let w = run_steps(&mut opt, &p, 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let p = Param::new("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(vec![p.clone()], 0.05, 0.9);
        let w = run_steps(&mut opt, &p, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Param::new("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let w = run_steps(&mut opt, &p, 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn clip_reduces_norm() {
        let p = Param::new("w", Tensor::from_slice(&[0.0, 0.0]));
        p.set_grad(Some(Tensor::from_slice(&[3.0, 4.0]))); // norm 5
        let pre = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let g = p.grad().unwrap().to_vec();
        let post = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn lr_scaling_rules() {
        assert_eq!(lr_for_global_batch(0.01, 64, 512), 0.08);
    }

    #[test]
    fn zero_grad_clears_all() {
        let p = Param::new("w", Tensor::scalar(1.0));
        p.set_grad(Some(Tensor::scalar(2.0)));
        let opt = Sgd::new(vec![p.clone()], 0.1, 0.0);
        opt.zero_grad();
        assert!(p.grad().is_none());
    }
}
