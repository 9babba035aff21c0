//! Loss functions and (non-differentiable) evaluation metrics.
//!
//! The paper reports MAE for the traffic/epidemic experiments (Tables 3, 5,
//! Figs 5, 8) and MSE for A3T-GCN (Table 6). The masked test metrics
//! (MAE, RMSE and MAPE over non-missing readings) live in
//! `st_models::metrics`.

use crate::ops;
use crate::tape::Var;
use st_tensor::ops as t;
use st_tensor::Tensor;

/// Differentiable mean absolute error.
pub fn mae(pred: &Var, target: &Var) -> Var {
    ops::mean_all(&ops::abs(&ops::sub(pred, target)))
}

/// Differentiable mean squared error.
pub fn mse(pred: &Var, target: &Var) -> Var {
    ops::mean_all(&ops::square(&ops::sub(pred, target)))
}

// ---------------------------------------------------------------------
// Metric (tensor-level, non-differentiable) versions used for validation.
// ---------------------------------------------------------------------

/// MSE between two tensors.
pub fn mse_metric(pred: &Tensor, target: &Tensor) -> f32 {
    t::mean_all(&t::square(&t::sub(pred, target).expect("same shape")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn mae_value_and_gradient() {
        let tape = Tape::new();
        let pred = tape.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let target = tape.constant(Tensor::from_slice(&[0.0, 4.0]));
        let l = mae(&pred, &target);
        assert!((l.value().item() - 1.5).abs() < 1e-6);
        let g = tape.backward(&l);
        // d|e|/dpred = sign(e)/n = (+0.5, -0.5)
        assert_eq!(g.get(&pred).unwrap().to_vec(), vec![0.5, -0.5]);
    }

    #[test]
    fn mse_matches_metric() {
        let tape = Tape::new();
        let pred = tape.leaf(Tensor::from_slice(&[1.0, 3.0]));
        let target = tape.constant(Tensor::from_slice(&[0.0, 0.0]));
        let l = mse(&pred, &target);
        assert!((l.value().item() - 5.0).abs() < 1e-6);
        assert!((mse_metric(pred.value(), target.value()) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn zero_loss_for_perfect_prediction() {
        let tape = Tape::new();
        let x = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let pred = tape.leaf(x.clone());
        let target = tape.constant(x);
        assert_eq!(mae(&pred, &target).value().item(), 0.0);
        assert_eq!(mse(&pred, &target).value().item(), 0.0);
    }
}
