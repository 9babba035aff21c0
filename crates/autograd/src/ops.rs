//! Differentiable tensor operations on [`Var`].
//!
//! Each op computes its forward value with `st_tensor::ops` and records a
//! backward closure. Binary ops support NumPy broadcasting; their backward
//! passes reduce gradients back to each input's shape.

use crate::tape::Var;
use st_tensor::ops as t;
use st_tensor::{Shape, Tensor};

pub use st_tensor::backend::Activation;

/// Sum `grad` down to `shape` (undo broadcasting): collapse leading extra
/// dims, then sum dims where the target size is 1.
pub fn reduce_grad_to(grad: &Tensor, shape: &Shape) -> Tensor {
    let mut g = grad.clone();
    while g.rank() > shape.rank() {
        g = t::sum_axis(&g, 0).expect("rank > 0");
    }
    for d in 0..shape.rank() {
        if shape.dim(d) == 1 && g.dim(d) != 1 {
            g = t::sum_axis(&g, d)
                .expect("axis in range")
                .unsqueeze(d)
                .expect("unsqueeze");
        }
    }
    g
}

fn binary(
    a: &Var,
    b: &Var,
    value: Tensor,
    da: impl Fn(&Tensor) -> Tensor + 'static,
    db: impl Fn(&Tensor) -> Tensor + 'static,
) -> Var {
    assert!(a.same_tape(b), "binary op across different tapes");
    let (sa, sb) = (a.value().shape().clone(), b.value().shape().clone());
    a.tape().custom_op(&[a, b], value, move |g| {
        vec![reduce_grad_to(&da(g), &sa), reduce_grad_to(&db(g), &sb)]
    })
}

/// `a + b` (broadcasting).
pub fn add(a: &Var, b: &Var) -> Var {
    let v = t::add(a.value(), b.value()).expect("add shapes broadcast");
    binary(a, b, v, Tensor::clone, Tensor::clone)
}

/// `a - b` (broadcasting).
pub fn sub(a: &Var, b: &Var) -> Var {
    let v = t::sub(a.value(), b.value()).expect("sub shapes broadcast");
    binary(a, b, v, Tensor::clone, t::neg)
}

/// `a * b` (broadcasting).
pub fn mul(a: &Var, b: &Var) -> Var {
    let v = t::mul(a.value(), b.value()).expect("mul shapes broadcast");
    let (av, bv) = (a.value().clone(), b.value().clone());
    binary(
        a,
        b,
        v,
        move |g| t::mul(g, &bv).expect("grad mul"),
        move |g| t::mul(g, &av).expect("grad mul"),
    )
}

/// `a / b` (broadcasting).
pub fn div(a: &Var, b: &Var) -> Var {
    let v = t::div(a.value(), b.value()).expect("div shapes broadcast");
    let (av, bv) = (a.value().clone(), b.value().clone());
    let bv2 = bv.clone();
    binary(
        a,
        b,
        v,
        move |g| t::div(g, &bv).expect("grad div"),
        move |g| {
            // d(a/b)/db = -a / b^2
            let num = t::mul(g, &av).expect("grad div");
            t::neg(&t::div(&num, &t::square(&bv2)).expect("grad div"))
        },
    )
}

/// `v + s` for scalar `s`.
pub fn add_scalar(v: &Var, s: f32) -> Var {
    v.tape()
        .custom_op(&[v], t::add_scalar(v.value(), s), |g| vec![g.clone()])
}

/// `v * s` for scalar `s`.
pub fn mul_scalar(v: &Var, s: f32) -> Var {
    v.tape()
        .custom_op(&[v], t::mul_scalar(v.value(), s), move |g| {
            vec![t::mul_scalar(g, s)]
        })
}

/// `-v`.
pub fn neg(v: &Var) -> Var {
    mul_scalar(v, -1.0)
}

/// Elementwise square.
pub fn square(v: &Var) -> Var {
    let x = v.value().clone();
    v.tape().custom_op(&[v], t::square(v.value()), move |g| {
        vec![t::mul_scalar(&t::mul(g, &x).expect("same shape"), 2.0)]
    })
}

/// Elementwise square root.
pub fn sqrt(v: &Var) -> Var {
    let y = t::sqrt(v.value());
    let yc = y.clone();
    v.tape().custom_op(&[v], y, move |g| {
        // d sqrt(x) = g / (2 sqrt(x))
        vec![t::div(g, &t::mul_scalar(&yc, 2.0)).expect("same shape")]
    })
}

/// Elementwise absolute value (subgradient 0 at 0).
pub fn abs(v: &Var) -> Var {
    let x = v.value().clone();
    v.tape().custom_op(&[v], t::abs(v.value()), move |g| {
        let sign = t::map(&x, |e| {
            if e > 0.0 {
                1.0
            } else if e < 0.0 {
                -1.0
            } else {
                0.0
            }
        });
        vec![t::mul(g, &sign).expect("same shape")]
    })
}

/// Elementwise exponential.
pub fn exp(v: &Var) -> Var {
    let y = t::exp(v.value());
    let yc = y.clone();
    v.tape()
        .custom_op(&[v], y, move |g| vec![t::mul(g, &yc).expect("same shape")])
}

/// Logistic sigmoid.
pub fn sigmoid(v: &Var) -> Var {
    let y = t::sigmoid(v.value());
    let yc = y.clone();
    v.tape().custom_op(&[v], y, move |g| {
        // dy = y (1 - y)
        let one_minus = t::map(&yc, |e| 1.0 - e);
        let dy = t::mul(&yc, &one_minus).expect("same shape");
        vec![t::mul(g, &dy).expect("same shape")]
    })
}

/// Hyperbolic tangent.
pub fn tanh(v: &Var) -> Var {
    let y = t::tanh(v.value());
    let yc = y.clone();
    v.tape().custom_op(&[v], y, move |g| {
        let dy = t::map(&yc, |e| 1.0 - e * e);
        vec![t::mul(g, &dy).expect("same shape")]
    })
}

/// Rectified linear unit.
pub fn relu(v: &Var) -> Var {
    let x = v.value().clone();
    v.tape().custom_op(&[v], t::relu(v.value()), move |g| {
        let mask = t::map(&x, |e| if e > 0.0 { 1.0 } else { 0.0 });
        vec![t::mul(g, &mask).expect("same shape")]
    })
}

/// GELU with its tanh-approximation derivative.
pub fn gelu(v: &Var) -> Var {
    let x = v.value().clone();
    v.tape().custom_op(&[v], t::gelu(v.value()), move |g| {
        const C: f32 = 0.797_884_6;
        let dy = t::zip_with(&x, &t::gelu_tanh(&x), |e, th| {
            let sech2 = 1.0 - th * th;
            0.5 * (1.0 + th) + 0.5 * e * sech2 * C * (1.0 + 3.0 * 0.044715 * e * e)
        })
        .expect("same shape");
        vec![t::mul(g, &dy).expect("same shape")]
    })
}

/// Fused `act(z + bias)` — the recurrent gate tail (`dconv → add-bias →
/// σ/tanh`) as one tape node instead of two, with a single output
/// allocation. `bias` is rank-1 over `z`'s last dimension.
///
/// Forward and backward replicate the composed `add` + activation pair's
/// per-element expressions and gradient compositions exactly, so loss and
/// gradient bits match the unfused graph.
pub fn bias_act(z: &Var, bias: &Var, act: Activation) -> Var {
    assert!(z.same_tape(bias), "bias_act across different tapes");
    let y = t::fused::bias_act(z.value(), bias.value(), act).expect("bias_act shapes");
    let yc = y.clone();
    let bshape = bias.value().shape().clone();
    z.tape().custom_op(&[z, bias], y, move |g| {
        let gout = match act {
            Activation::Identity => g.clone(),
            _ => t::mul(g, &t::fused::act_grad(&yc, act)).expect("same shape"),
        };
        let db = reduce_grad_to(&gout, &bshape);
        vec![gout, db]
    })
}

/// Fused GRU blend `h' = u⊙h + (1−u)⊙c` as one tape node (the historical
/// composition materialized four intermediates and five nodes).
///
/// The backward closure reproduces the composed graph's gradient sums in
/// their historical accumulation order, keeping gradient bits identical.
pub fn gru_blend(u: &Var, h: &Var, c: &Var) -> Var {
    assert!(
        u.same_tape(h) && u.same_tape(c),
        "gru_blend across different tapes"
    );
    let y = t::fused::gru_blend(u.value(), h.value(), c.value()).expect("gru_blend shapes");
    let (uv, hv, cv) = (u.value().clone(), h.value().clone(), c.value().clone());
    u.tape().custom_op(&[u, h, c], y, move |g| {
        // du: the (1−u)⊙c branch's −g⊙c lands first, then the u⊙h
        // branch's g⊙h — the reverse node order of the composed graph.
        let du = t::add(
            &t::mul_scalar(&t::mul(g, &cv).expect("same shape"), -1.0),
            &t::mul(g, &hv).expect("same shape"),
        )
        .expect("same shape");
        let dh = t::mul(g, &uv).expect("same shape");
        let dc = t::mul(g, &t::fused::one_minus(&uv)).expect("same shape");
        vec![du, dh, dc]
    })
}

/// `a @ b` for 2-D matrices.
pub fn matmul(a: &Var, b: &Var) -> Var {
    assert!(a.same_tape(b), "matmul across different tapes");
    let v = t::matmul(a.value(), b.value()).expect("matmul shapes");
    let (av, bv) = (a.value().clone(), b.value().clone());
    a.tape().custom_op(&[a, b], v, move |g| {
        let da = t::matmul(g, &bv.t().expect("rank 2")).expect("grad matmul");
        let db = t::matmul(&av.t().expect("rank 2"), g).expect("grad matmul");
        vec![da, db]
    })
}

/// Batched matmul `[B,m,k] @ [B,k,n]` or `[B,m,k] @ [k,n]` (shared rhs).
pub fn bmm(a: &Var, b: &Var) -> Var {
    assert!(a.same_tape(b), "bmm across different tapes");
    let v = t::bmm(a.value(), b.value()).expect("bmm shapes");
    let (av, bv) = (a.value().clone(), b.value().clone());
    let shared = b.value().rank() == 2;
    a.tape().custom_op(&[a, b], v, move |g| {
        // dA[b] = dC[b] @ B[b]^T ; dB[b] = A[b]^T @ dC[b]
        let bt = if shared {
            bv.t().expect("rank 2")
        } else {
            bv.transpose(1, 2).expect("rank 3")
        };
        let da = t::bmm(g, &bt.contiguous()).expect("grad bmm");
        let at = av.transpose(1, 2).expect("rank 3").contiguous();
        let db_batched = t::bmm(&at, g).expect("grad bmm");
        let db = if shared {
            sum_batches(&db_batched)
        } else {
            db_batched
        };
        vec![da, db]
    })
}

/// Sum `[bs, k, n]` over its batch axis, in batch order, into one buffer:
/// the gradient of a rhs shared across the batch.
fn sum_batches(db_batched: &Tensor) -> Tensor {
    let mut acc = db_batched.select(0, 0).expect("batch >= 1");
    for i in 1..db_batched.dim(0) {
        let slice = db_batched.select(0, i).expect("in range");
        t::add_assign(&mut acc, &slice).expect("same shape");
    }
    acc
}

/// Shared-rhs batched matmul over column panels, `[P₀ | P₁ | …] @ w` with
/// every panel `[B,m,kₚ]` and `w: [Σkₚ, n]`, without materializing the
/// concatenation (the diffusion convolution's projection).
///
/// Bit-identical to `bmm(&concat(panels, 2), w)`, forward and backward:
/// the `dPₚ` are the concatenated `dA = g @ wᵀ` from one GEMM whose store
/// splits at the panel boundaries, and `dw` is the same `Aᵀ g` over the
/// panels' transposes stacked in order, summed over the batch in order.
pub fn bmm_panels(panels: &[&Var], w: &Var) -> Var {
    assert!(
        panels.iter().all(|p| p.same_tape(w)),
        "bmm_panels across different tapes"
    );
    let values: Vec<&Tensor> = panels.iter().map(|p| p.value()).collect();
    let v = t::bmm_panels(&values, w.value()).expect("bmm_panels shapes");
    let pv: Vec<Tensor> = values.into_iter().cloned().collect();
    let widths: Vec<usize> = pv.iter().map(|p| p.dim(2)).collect();
    let wv = w.value().clone();
    let mut parents = panels.to_vec();
    parents.push(w);
    w.tape().custom_op(&parents, v, move |g| {
        // `dw`'s operand, the panels' transposes stacked on dim 1, comes
        // first: allocated below the retained `dPₚ` buffers, it leaves a
        // hole the next call's transposes reuse. Allocated after them, it
        // sits at the top of the rank thread's heap, which glibc hands back
        // to the OS on free: 4× the page faults per `train_wide` engine call
        // on the 2-core host, enough to cancel the copies saved.
        let pts: Vec<Tensor> = pv
            .iter()
            .map(|p| p.transpose(1, 2).expect("rank 3"))
            .collect();
        let at = t::concat(&pts.iter().collect::<Vec<_>>(), 1).expect("panel transposes");
        // One GEMM `g @ wᵀ`, its columns stored straight into the panels.
        let wt = wv.t().expect("rank 2").contiguous();
        let mut grads = t::bmm_split(g, &wt, &widths).expect("grad bmm_panels");
        grads.push(sum_batches(&t::bmm(&at, g).expect("grad bmm_panels")));
        grads
    })
}

/// Softmax along the last dimension.
pub fn softmax_last(v: &Var) -> Var {
    let y = t::softmax_last(v.value()).expect("softmax shape");
    let yc = y.clone();
    v.tape().custom_op(&[v], y, move |g| {
        // dx = (g - sum_last(g*y)) * y
        let gy = t::mul(g, &yc).expect("same shape");
        let last_axis = yc.rank() - 1;
        let s = t::sum_axis(&gy, last_axis)
            .expect("axis ok")
            .unsqueeze(last_axis)
            .expect("unsqueeze");
        let centered = t::sub(g, &s).expect("broadcast sub");
        vec![t::mul(&centered, &yc).expect("same shape")]
    })
}

/// Mean over all elements, producing a scalar.
pub fn mean_all(v: &Var) -> Var {
    let n = v.value().numel() as f32;
    let shape = v.value().shape().clone();
    let val = Tensor::scalar(t::mean_all(v.value()));
    v.tape().custom_op(&[v], val, move |g| {
        let gs = g.item() / n;
        vec![Tensor::full(shape.clone(), gs)]
    })
}

/// Sum over all elements, producing a scalar.
pub fn sum_all(v: &Var) -> Var {
    let shape = v.value().shape().clone();
    let val = Tensor::scalar(t::sum_all(v.value()));
    v.tape().custom_op(&[v], val, move |g| {
        vec![Tensor::full(shape.clone(), g.item())]
    })
}

/// Mean along `axis` (axis removed).
pub fn mean_axis(v: &Var, axis: usize) -> Var {
    let n = v.value().dim(axis) as f32;
    let shape = v.value().shape().clone();
    let val = t::mean_axis(v.value(), axis).expect("axis in range");
    v.tape().custom_op(&[v], val, move |g| {
        // Broadcast g back along `axis` and divide by n.
        let expanded = g.unsqueeze(axis).expect("unsqueeze");
        let b = expanded
            .broadcast_to(&shape)
            .expect("broadcast back to input");
        vec![t::mul_scalar(&b, 1.0 / n)]
    })
}

/// Zero-copy forward narrow; backward scatters into a zero tensor.
pub fn narrow(v: &Var, dim: usize, start: usize, len: usize) -> Var {
    let val = v.value().narrow(dim, start, len).expect("narrow bounds");
    let shape = v.value().shape().clone();
    v.tape().custom_op(&[v], val, move |g| {
        let mut full = Tensor::zeros(shape.clone());
        scatter_narrow(&mut full, g, dim, start);
        vec![full]
    })
}

/// Write `src` into `dst` at offset `start` along `dim` (shapes must agree
/// elsewhere). Helper for narrow/concat backward.
fn scatter_narrow(dst: &mut Tensor, src: &Tensor, dim: usize, start: usize) {
    let dims = dst.dims().to_vec();
    let outer: usize = dims[..dim].iter().product();
    let inner: usize = dims[dim + 1..].iter().product();
    let dlen = dims[dim];
    let slen = src.dim(dim);
    let sv = src.to_vec();
    let dv = dst.make_mut_contiguous();
    for o in 0..outer {
        for a in 0..slen {
            let doff = (o * dlen + start + a) * inner;
            let soff = (o * slen + a) * inner;
            for i in 0..inner {
                dv[doff + i] += sv[soff + i];
            }
        }
    }
}

/// Concatenate along `dim`; backward splits the gradient.
pub fn concat(vars: &[&Var], dim: usize) -> Var {
    assert!(!vars.is_empty(), "concat of empty list");
    let tensors: Vec<&Tensor> = vars.iter().map(|v| v.value()).collect();
    let val = t::concat(&tensors, dim).expect("concat shapes");
    let sizes: Vec<usize> = vars.iter().map(|v| v.value().dim(dim)).collect();
    vars[0].tape().custom_op(vars, val, move |g| {
        let mut out = Vec::with_capacity(sizes.len());
        let mut cursor = 0;
        for &s in &sizes {
            out.push(g.narrow(dim, cursor, s).expect("split bounds").contiguous());
            cursor += s;
        }
        out
    })
}

/// Reshape (zero-copy when contiguous); backward reshapes the gradient back.
pub fn reshape(v: &Var, shape: impl Into<Shape>) -> Var {
    let shape = shape.into();
    let orig = v.value().shape().clone();
    let val = v.value().reshape(shape).expect("reshape numel");
    v.tape().custom_op(&[v], val, move |g| {
        vec![g.reshape(orig.clone()).expect("reshape back")]
    })
}

/// Permute dimensions; backward applies the inverse permutation.
pub fn permute(v: &Var, perm: &[usize]) -> Var {
    let val = v
        .value()
        .permute(perm)
        .expect("valid permutation")
        .contiguous();
    let mut inverse = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inverse[p] = i;
    }
    v.tape().custom_op(&[v], val, move |g| {
        vec![g
            .permute(&inverse)
            .expect("inverse permutation")
            .contiguous()]
    })
}

/// Stack vars along a new leading dimension.
pub fn stack0(vars: &[&Var]) -> Var {
    let unsqueezed: Vec<Var> = vars
        .iter()
        .map(|v| {
            reshape(v, {
                let mut d = vec![1usize];
                d.extend_from_slice(v.value().dims());
                d
            })
        })
        .collect();
    let refs: Vec<&Var> = unsqueezed.iter().collect();
    concat(&refs, 0)
}

/// Row gather on dim 0 (embedding lookup); backward scatter-adds.
pub fn index_select0(v: &Var, indices: &[usize]) -> Var {
    let val = v.value().index_select0(indices).expect("indices in range");
    let idx = indices.to_vec();
    let shape = v.value().shape().clone();
    v.tape().custom_op(&[v], val, move |g| {
        let mut full = Tensor::zeros(shape.clone());
        let row = full.numel() / shape.dim(0).max(1);
        let gv = g.to_vec();
        let fv = full.make_mut_contiguous();
        for (r, &i) in idx.iter().enumerate() {
            for c in 0..row {
                fv[i * row + c] += gv[r * row + c];
            }
        }
        vec![full]
    })
}

/// Layer normalization over the last dimension (composed from primitives,
/// so the backward pass is derived automatically).
pub fn layer_norm(v: &Var, gamma: &Var, beta: &Var, eps: f32) -> Var {
    let last = v.value().rank() - 1;
    let mu = mean_axis(v, last);
    let mu_b = reshape(&mu, {
        let mut d = mu.value().dims().to_vec();
        d.push(1);
        d
    });
    let centered = sub(v, &mu_b);
    let var = mean_axis(&square(&centered), last);
    let var_b = reshape(&var, {
        let mut d = var.value().dims().to_vec();
        d.push(1);
        d
    });
    let denom = sqrt(&add_scalar(&var_b, eps));
    let normed = div(&centered, &denom);
    add(&mul(&normed, gamma), beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Finite-difference gradient check for scalar-valued f(x).
    fn grad_check(x0: Tensor, f: impl Fn(&Tape, &Var) -> Var, tol: f32) {
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = f(&tape, &x);
        assert_eq!(y.value().numel(), 1, "grad_check needs scalar output");
        let grads = tape.backward(&y);
        let analytic = grads.get_or_zeros(&x).to_vec();

        let h = 1e-3f32;
        let base = x0.to_vec();
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += h;
            let mut minus = base.clone();
            minus[i] -= h;
            let tp = Tape::new();
            let fp = f(
                &tp,
                &tp.leaf(Tensor::from_vec(plus, x0.shape().clone()).unwrap()),
            )
            .value()
            .item();
            let tm = Tape::new();
            let fm = f(
                &tm,
                &tm.leaf(Tensor::from_vec(minus, x0.shape().clone()).unwrap()),
            )
            .value()
            .item();
            let numeric = (fp - fm) / (2.0 * h);
            assert!(
                (analytic[i] - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {} vs numeric {}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn grad_check_elementwise_chain() {
        grad_check(
            Tensor::from_slice(&[0.5, -0.3, 1.2]),
            |_, x| mean_all(&sigmoid(&mul_scalar(x, 2.0))),
            1e-2,
        );
    }

    #[test]
    fn grad_check_tanh_square() {
        grad_check(
            Tensor::from_slice(&[0.1, 0.9, -0.7, 0.3]),
            |_, x| sum_all(&square(&tanh(x))),
            1e-2,
        );
    }

    #[test]
    fn grad_check_matmul() {
        grad_check(
            Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.8, -1.0, 0.1], [2, 3]).unwrap(),
            |tape, x| {
                let w = tape
                    .leaf(Tensor::from_vec(vec![0.3, -0.2, 0.5, 0.7, 0.9, -0.1], [3, 2]).unwrap());
                mean_all(&matmul(x, &w))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_softmax() {
        grad_check(
            Tensor::from_vec(vec![0.1, 0.5, -0.2, 0.8], [2, 2]).unwrap(),
            |_, x| {
                let s = softmax_last(x);
                // Weighted sum so the gradient isn't trivially zero.
                let w = s
                    .tape()
                    .leaf(Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], [2, 2]).unwrap());
                sum_all(&mul(&s, &w))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_broadcast_add() {
        grad_check(
            Tensor::from_slice(&[0.3, -0.6]),
            |tape, x| {
                // x: [2] broadcast against [3,2] matrix.
                let m = tape.leaf(Tensor::arange(6).reshape([3, 2]).unwrap());
                sum_all(&square(&add(&m, x)))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_div() {
        grad_check(
            Tensor::from_slice(&[1.5, 2.5, -3.0]),
            |tape, x| {
                let d = tape.leaf(Tensor::from_slice(&[2.0, 4.0, 5.0]));
                sum_all(&div(x, &d))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_narrow_concat() {
        grad_check(
            Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]),
            |_, x| {
                let a = narrow(x, 0, 0, 2);
                let b = narrow(x, 0, 2, 2);
                let c = concat(&[&b, &a], 0);
                sum_all(&square(&c))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_mean_axis() {
        grad_check(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap(),
            |_, x| sum_all(&square(&mean_axis(x, 1))),
            1e-2,
        );
    }

    #[test]
    fn grad_check_layer_norm() {
        grad_check(
            Tensor::from_vec(vec![0.5, 1.5, -0.5, 2.0, 0.1, -1.0], [2, 3]).unwrap(),
            |tape, x| {
                let gamma = tape.leaf(Tensor::ones([3]));
                let beta = tape.leaf(Tensor::zeros([3]));
                let w = tape
                    .leaf(Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5, 1.5, -0.5], [2, 3]).unwrap());
                sum_all(&mul(&layer_norm(x, &gamma, &beta, 1e-5), &w))
            },
            2e-2,
        );
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_bias_act_matches_composed_graph_bitwise() {
        let mut rng = st_tensor::random::rng_from_seed(41);
        let z0 = st_tensor::random::uniform([2, 3, 4], -2.0, 2.0, &mut rng);
        let b0 = st_tensor::random::uniform([4], -1.0, 1.0, &mut rng);
        for act in [Activation::Identity, Activation::Sigmoid, Activation::Tanh] {
            // Composed: add then activation, two nodes.
            let tape1 = Tape::new();
            let z1 = tape1.leaf(z0.clone());
            let b1 = tape1.leaf(b0.clone());
            let pre = add(&z1, &b1);
            let y1 = match act {
                Activation::Identity => pre,
                Activation::Sigmoid => sigmoid(&pre),
                Activation::Tanh => tanh(&pre),
            };
            let g1 = tape1.backward(&sum_all(&square(&y1)));
            // Fused: one node.
            let tape2 = Tape::new();
            let z2 = tape2.leaf(z0.clone());
            let b2 = tape2.leaf(b0.clone());
            let y2 = bias_act(&z2, &b2, act);
            let g2 = tape2.backward(&sum_all(&square(&y2)));
            assert_eq!(bits(y1.value()), bits(y2.value()), "{act:?} forward");
            assert_eq!(
                bits(g1.get(&z1).unwrap()),
                bits(g2.get(&z2).unwrap()),
                "{act:?} dz"
            );
            assert_eq!(
                bits(g1.get(&b1).unwrap()),
                bits(g2.get(&b2).unwrap()),
                "{act:?} db"
            );
        }
    }

    #[test]
    fn fused_gru_blend_matches_composed_graph_bitwise() {
        let mut rng = st_tensor::random::rng_from_seed(42);
        let u0 =
            st_tensor::ops::sigmoid(&st_tensor::random::uniform([2, 3, 4], -2.0, 2.0, &mut rng));
        let h0 = st_tensor::random::uniform([2, 3, 4], -1.0, 1.0, &mut rng);
        let c0 = st_tensor::ops::tanh(&st_tensor::random::uniform([2, 3, 4], -2.0, 2.0, &mut rng));
        // Composed: uh + (1-u)*c via five nodes.
        let tape1 = Tape::new();
        let (u1, h1, c1) = (
            tape1.leaf(u0.clone()),
            tape1.leaf(h0.clone()),
            tape1.leaf(c0.clone()),
        );
        let uh = mul(&u1, &h1);
        let one_minus_u = add_scalar(&neg(&u1), 1.0);
        let y1 = add(&uh, &mul(&one_minus_u, &c1));
        let g1 = tape1.backward(&sum_all(&square(&y1)));
        // Fused: one node.
        let tape2 = Tape::new();
        let (u2, h2, c2) = (
            tape2.leaf(u0.clone()),
            tape2.leaf(h0.clone()),
            tape2.leaf(c0.clone()),
        );
        let y2 = gru_blend(&u2, &h2, &c2);
        let g2 = tape2.backward(&sum_all(&square(&y2)));
        assert_eq!(bits(y1.value()), bits(y2.value()), "forward");
        for ((a1, a2), name) in [(&u1, &u2), (&h1, &h2), (&c1, &c2)]
            .into_iter()
            .zip(["du", "dh", "dc"])
        {
            assert_eq!(
                bits(g1.get(a1).unwrap()),
                bits(g2.get(a2).unwrap()),
                "{name}"
            );
        }
    }

    #[test]
    fn grad_check_fused_bias_act() {
        grad_check(
            Tensor::from_slice(&[0.5, -0.3, 1.2, 0.4]),
            |tape, x| {
                let z = reshape(x, [2, 2]);
                let b = tape.leaf(Tensor::from_slice(&[0.2, -0.6]));
                sum_all(&square(&bias_act(&z, &b, Activation::Sigmoid)))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_fused_gru_blend() {
        grad_check(
            Tensor::from_slice(&[0.3, 0.7, 0.1, 0.9]),
            |tape, u| {
                let h = tape.leaf(Tensor::from_slice(&[1.0, -0.5, 0.25, 2.0]));
                let c = tape.leaf(Tensor::from_slice(&[-0.8, 0.6, 0.4, -0.2]));
                sum_all(&square(&gru_blend(u, &h, &c)))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_bmm_shared_rhs() {
        grad_check(
            Tensor::from_vec((0..12).map(|i| 0.1 * i as f32).collect(), [2, 2, 3]).unwrap(),
            |tape, x| {
                let w = tape
                    .leaf(Tensor::from_vec(vec![0.2, -0.1, 0.4, 0.3, 0.6, -0.5], [3, 2]).unwrap());
                mean_all(&bmm(x, &w))
            },
            1e-2,
        );
    }

    #[test]
    fn grad_check_index_select() {
        grad_check(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]).unwrap(),
            |_, x| {
                // Select row 1 twice: its gradient must double.
                let g = index_select0(x, &[1, 1, 0]);
                sum_all(&square(&g))
            },
            1e-2,
        );
    }

    #[test]
    fn permute_roundtrip_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(6).reshape([2, 3]).unwrap());
        let p = permute(&x, &[1, 0]);
        let y = sum_all(&p);
        let g = tape.backward(&y);
        assert_eq!(g.get(&x).unwrap().dims(), &[2, 3]);
        assert!(g.get(&x).unwrap().to_vec().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn stack0_shapes() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones([2, 2]));
        let b = tape.leaf(Tensor::zeros([2, 2]));
        let s = stack0(&[&a, &b]);
        assert_eq!(s.value().dims(), &[2, 2, 2]);
    }
}
