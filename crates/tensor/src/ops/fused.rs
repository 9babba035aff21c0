//! Fused elementwise kernels for the recurrent gate path.
//!
//! The DCRNN cell historically composed its gates from five-plus tensor
//! ops, materializing an intermediate per op. These entry points collapse
//! the two hot compositions — `z + bias → activation` and the GRU blend
//! `u⊙h + (1−u)⊙c` — into single backend-dispatched kernels that walk the
//! data once and allocate only the output. Per the backend contract, the
//! fused per-element expressions replicate the composed ones exactly, so
//! results are bit-identical to the unfused op chain: `bias_act`'s
//! activation is [`crate::math`]'s slice kernel over the biased output in
//! place (`Tiled`) or its scalar port per element (`Reference`), and the
//! unfused `ops::sigmoid`/`ops::tanh` maps run the same kernels.

use crate::backend::{timed, Activation, KernelClass};
use crate::ops::map;
use crate::{Result, Storage, Tensor, TensorError};

/// Fused `act(z + bias)` where `bias` is rank-1 and broadcasts over `z`'s
/// last dimension — the `dconv → add-bias → σ/tanh` gate tail in one pass.
pub fn bias_act(z: &Tensor, bias: &Tensor, act: Activation) -> Result<Tensor> {
    if bias.rank() != 1 || z.rank() == 0 || z.dim(z.rank() - 1) != bias.dim(0) {
        return Err(TensorError::ShapeMismatch {
            op: "bias_act",
            lhs: z.dims().to_vec(),
            rhs: bias.dims().to_vec(),
        });
    }
    let zc = z.contiguous();
    let bc = bias.contiguous();
    let zs = zc.as_slice().expect("contiguous");
    let bs = bc.as_slice().expect("contiguous");
    let mut out = Storage::scratch(zs.len());
    timed(KernelClass::Elementwise, |kern| {
        kern.bias_act(zs, bs, out.make_mut(), act)
    });
    Ok(Tensor::from_storage(out, z.shape().clone()))
}

/// `d act / d z` evaluated from the activation *output* `y`, matching the
/// composed backward expressions bit for bit (`y*(1-y)` for sigmoid,
/// `1-y²` for tanh, ones for identity).
pub fn act_grad(y: &Tensor, act: Activation) -> Tensor {
    match act {
        Activation::Identity => Tensor::ones(y.shape().clone()),
        Activation::Sigmoid => map(y, |e| e * (1.0 - e)),
        Activation::Tanh => map(y, |e| 1.0 - e * e),
    }
}

/// Fused GRU blend `u⊙h + (1−u)⊙c` over equal shapes.
pub fn gru_blend(u: &Tensor, h: &Tensor, c: &Tensor) -> Result<Tensor> {
    crate::ops::check_same_shape("gru_blend", u, h)?;
    crate::ops::check_same_shape("gru_blend", u, c)?;
    let (uc, hc, cc) = (u.contiguous(), h.contiguous(), c.contiguous());
    let us = uc.as_slice().expect("contiguous");
    let hs = hc.as_slice().expect("contiguous");
    let cs = cc.as_slice().expect("contiguous");
    let mut out = Storage::scratch(us.len());
    timed(KernelClass::Elementwise, |kern| {
        kern.gru_blend(us, hs, cs, out.make_mut())
    });
    Ok(Tensor::from_storage(out, u.shape().clone()))
}

/// `1 − u` computed as the historical `neg → add_scalar` composition
/// (`(u * -1.0) + 1.0` per element) — the GRU blend backward needs it.
pub fn one_minus(u: &Tensor) -> Tensor {
    #[allow(clippy::neg_multiply)]
    map(u, |e| (e * -1.0) + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops as t;

    fn rand(dims: impl Into<crate::Shape>, seed: u64) -> Tensor {
        let mut rng = crate::random::rng_from_seed(seed);
        crate::random::uniform(dims, -2.0, 2.0, &mut rng)
    }

    #[test]
    fn bias_act_matches_composed_ops_bitwise() {
        let z = rand([3, 5, 4], 1);
        let b = rand([4], 2);
        for (act, composed) in [
            (Activation::Identity, t::add(&z, &b).unwrap()),
            (Activation::Sigmoid, t::sigmoid(&t::add(&z, &b).unwrap())),
            (Activation::Tanh, t::tanh(&t::add(&z, &b).unwrap())),
        ] {
            let fused = bias_act(&z, &b, act).unwrap();
            assert_eq!(fused.dims(), composed.dims());
            let fb: Vec<u32> = fused.to_vec().iter().map(|x| x.to_bits()).collect();
            let cb: Vec<u32> = composed.to_vec().iter().map(|x| x.to_bits()).collect();
            assert_eq!(fb, cb, "{act:?}");
        }
    }

    #[test]
    fn gru_blend_matches_composed_ops_bitwise() {
        let u = t::sigmoid(&rand([2, 3, 4], 3));
        let h = rand([2, 3, 4], 4);
        let c = t::tanh(&rand([2, 3, 4], 5));
        let fused = gru_blend(&u, &h, &c).unwrap();
        let uh = t::mul(&u, &h).unwrap();
        let omu = t::add_scalar(&t::mul_scalar(&u, -1.0), 1.0);
        let composed = t::add(&uh, &t::mul(&omu, &c).unwrap()).unwrap();
        let fb: Vec<u32> = fused.to_vec().iter().map(|x| x.to_bits()).collect();
        let cb: Vec<u32> = composed.to_vec().iter().map(|x| x.to_bits()).collect();
        assert_eq!(fb, cb);
        // The backward helper matches the composed 1-u too.
        let ob: Vec<u32> = one_minus(&u).to_vec().iter().map(|x| x.to_bits()).collect();
        let cb2: Vec<u32> = omu.to_vec().iter().map(|x| x.to_bits()).collect();
        assert_eq!(ob, cb2);
    }

    #[test]
    fn bias_act_rejects_mismatched_bias() {
        let z = Tensor::ones([2, 3]);
        assert!(bias_act(&z, &Tensor::ones([4]), Activation::Sigmoid).is_err());
        assert!(bias_act(&z, &Tensor::ones([2, 3]), Activation::Sigmoid).is_err());
    }

    #[test]
    fn act_grad_matches_backward_expressions() {
        let y = t::sigmoid(&rand([7], 6));
        let one_minus_y = t::map(&y, |e| 1.0 - e);
        let composed = t::mul(&y, &one_minus_y).unwrap();
        assert_eq!(
            act_grad(&y, Activation::Sigmoid).to_vec(),
            composed.to_vec()
        );
        let yt = t::tanh(&rand([7], 7));
        let composed_t = t::map(&yt, |e| 1.0 - e * e);
        assert_eq!(
            act_grad(&yt, Activation::Tanh).to_vec(),
            composed_t.to_vec()
        );
        assert!(act_grad(&y, Activation::Identity)
            .to_vec()
            .iter()
            .all(|&v| v == 1.0));
    }
}
