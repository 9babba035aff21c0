//! The autograd tape: graph recording and reverse-mode traversal.

use st_tensor::{Shape, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// Backward closure: given the gradient flowing into this node, produce one
/// gradient tensor per parent (aligned with the node's parent list).
type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    shape: Shape,
}

struct TapeInner {
    nodes: Vec<Node>,
    /// Parameters bound to this tape: (param, leaf node id). Binding the
    /// same parameter twice returns the same leaf, so recurrent cells that
    /// reuse weights at every time step accumulate one combined gradient.
    params: Vec<(crate::module::Param, usize)>,
    /// When false ([`Tape::inference`]), nothing is recorded: backward
    /// closures are dropped on arrival and no node (hence no retained
    /// activation) is created. Forward values are identical either way.
    grad_enabled: bool,
}

impl Default for TapeInner {
    fn default() -> Self {
        TapeInner {
            nodes: Vec::new(),
            params: Vec::new(),
            grad_enabled: true,
        }
    }
}

/// A per-thread autograd tape. Clones share the same recording.
#[derive(Clone, Default)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

/// A value recorded on a tape: a tensor plus its node id.
#[derive(Clone)]
pub struct Var {
    pub(crate) id: usize,
    value: Tensor,
    tape: Tape,
}

impl Tape {
    /// Fresh, empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// A **non-recording** tape for forward-only (inference) passes: every
    /// op computes its forward value exactly as usual, but no graph node is
    /// created and no backward closure (or the activations it captures) is
    /// retained — [`Tape::activation_bytes`] stays 0 no matter how deep the
    /// model. Calling [`Tape::backward`] on an inference tape panics.
    pub fn inference() -> Self {
        let tape = Tape::default();
        tape.inner.borrow_mut().grad_enabled = false;
        tape
    }

    /// False when this tape was created with [`Tape::inference`].
    pub fn grad_enabled(&self) -> bool {
        self.inner.borrow().grad_enabled
    }

    /// Number of recorded nodes (useful for tests and leak checks).
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of forward activations retained by this tape (every
    /// recorded node keeps its value alive for the backward pass), at
    /// `elem_bytes` per scalar. This is what "GPU memory during training"
    /// means for the autograd graph — the quantity behind Table 2's GPU
    /// column: DCRNN's encoder–decoder retains ~2·T·layers step graphs,
    /// PGT-DCRNN a single stepwise layer.
    pub fn activation_bytes(&self, elem_bytes: usize) -> u64 {
        let inner = self.inner.borrow();
        inner
            .nodes
            .iter()
            .map(|n| (n.shape.numel() * elem_bytes) as u64)
            .sum()
    }

    /// Record a leaf (no gradient flows past it unless it's a parameter
    /// leaf created through [`crate::Param::leaf`]).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.record(value, Vec::new(), None)
    }

    /// Record a constant — alias of [`Tape::leaf`], reads better at call
    /// sites for non-trainable inputs.
    pub fn constant(&self, value: Tensor) -> Var {
        self.leaf(value)
    }

    /// Bind a trainable parameter to this tape, returning its leaf [`Var`].
    /// Idempotent per parameter: repeated binds return the same leaf.
    /// After [`Tape::backward`], call [`Tape::accumulate_param_grads`] to
    /// push gradients into every bound parameter.
    pub fn param(&self, p: &crate::module::Param) -> Var {
        if !self.inner.borrow().grad_enabled {
            // No gradients will flow: the parameter is just a constant.
            return self.leaf(p.value());
        }
        let key = p.key();
        {
            let inner = self.inner.borrow();
            if let Some((_, id)) = inner.params.iter().find(|(q, _)| q.key() == key) {
                let id = *id;
                let shape = inner.nodes[id].shape.clone();
                drop(inner);
                // Rebuild the Var handle for the existing leaf. The value
                // snapshot is the parameter's current value (unchanged
                // within a step).
                let _ = shape;
                return Var {
                    id,
                    value: p.value(),
                    tape: self.clone(),
                };
            }
        }
        let var = self.leaf(p.value());
        self.inner.borrow_mut().params.push((p.clone(), var.id));
        var
    }

    /// Push gradients from `grads` into every parameter bound via
    /// [`Tape::param`].
    pub fn accumulate_param_grads(&self, grads: &Gradients) {
        let inner = self.inner.borrow();
        for (p, id) in &inner.params {
            if let Some(g) = grads.get_by_id(*id) {
                p.accumulate_raw(g);
            }
        }
    }

    pub(crate) fn record(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        let mut inner = self.inner.borrow_mut();
        if !inner.grad_enabled {
            // Inference mode: drop the closure, retain nothing. Node ids
            // are meaningless here (backward is forbidden), so 0 is fine.
            return Var {
                id: 0,
                value,
                tape: self.clone(),
            };
        }
        let id = inner.nodes.len();
        inner.nodes.push(Node {
            parents,
            backward,
            shape: value.shape().clone(),
        });
        Var {
            id,
            value,
            tape: self.clone(),
        }
    }

    /// Extension point for domain-specific differentiable ops (e.g. the
    /// sparse diffusion convolution in `st-models`): provide the forward
    /// `value`, the parent vars, and a closure mapping the output gradient
    /// to per-parent gradients.
    pub fn custom_op(
        &self,
        parents: &[&Var],
        value: Tensor,
        backward: impl Fn(&Tensor) -> Vec<Tensor> + 'static,
    ) -> Var {
        for p in parents {
            assert!(
                Rc::ptr_eq(&p.tape.inner, &self.inner),
                "custom_op: all parents must live on the same tape"
            );
        }
        let ids = parents.iter().map(|p| p.id).collect();
        self.record(value, ids, Some(Box::new(backward)))
    }

    /// Parameters bound to this tape in **gradient-completion order**: the
    /// order their gradients finalize during [`Tape::backward`]. The
    /// reverse scan visits node ids descending, and a node's gradient is
    /// complete once every consumer (a higher id) has been processed — so
    /// parameter leaves complete in descending bind order. This is the
    /// sequence DDP-style bucketing wants: buckets of late-bound (deep)
    /// parameters fire early in the backward pass, overlapping their
    /// collective with the gradient computation still running for the
    /// early-bound (shallow) ones.
    pub fn param_completion_order(&self) -> Vec<crate::module::Param> {
        let inner = self.inner.borrow();
        let mut by_id: Vec<(usize, crate::module::Param)> = inner
            .params
            .iter()
            .map(|(p, id)| (*id, p.clone()))
            .collect();
        by_id.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
        by_id.into_iter().map(|(_, p)| p).collect()
    }

    /// Run reverse-mode differentiation from `root` (a scalar, typically a
    /// loss). Returns per-node gradients.
    ///
    /// Gradients finalize in descending node-id order (the reverse scan
    /// below); [`Tape::param_completion_order`] exposes that sequence for
    /// the bound parameters so gradient buckets can fire as soon as their
    /// last member completes rather than after the whole backward.
    pub fn backward(&self, root: &Var) -> Gradients {
        assert!(
            Rc::ptr_eq(&root.tape.inner, &self.inner),
            "backward: root recorded on another tape"
        );
        assert!(
            self.inner.borrow().grad_enabled,
            "backward: inference tapes record no graph"
        );
        let inner = self.inner.borrow();
        let mut grads: Vec<Option<Tensor>> = vec![None; inner.nodes.len()];
        grads[root.id] = Some(Tensor::ones(root.value.shape().clone()));
        // Nodes are created in topological order, so a reverse scan visits
        // every consumer before its producers.
        for id in (0..=root.id).rev() {
            let Some(g) = grads[id].take() else { continue };
            let node = &inner.nodes[id];
            if let Some(backward) = &node.backward {
                let parent_grads = backward(&g);
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (pid, pg) in node.parents.iter().zip(parent_grads) {
                    accumulate(&mut grads[*pid], pg);
                }
            }
            grads[id] = Some(g);
        }
        Gradients { grads }
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        None => *slot = Some(g),
        Some(acc) => {
            // In-place accumulate: reuses the slot's buffer when uniquely
            // owned instead of allocating a fresh sum per contribution.
            // `add_assign` walks elements in the same order with the same
            // `x + y` expression as the allocating `add`, so gradient bits
            // are unchanged.
            st_tensor::ops::add_assign(acc, &g).expect("gradient shapes must match");
        }
    }
}

/// Gradients produced by [`Tape::backward`], indexed by node id.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the root w.r.t. `var`, if any gradient flowed to it.
    pub fn get(&self, var: &Var) -> Option<&Tensor> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// Gradient for a raw node id (used by the tape's parameter registry).
    pub(crate) fn get_by_id(&self, id: usize) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    /// Gradient for `var`, or a zero tensor of its shape.
    pub fn get_or_zeros(&self, var: &Var) -> Tensor {
        self.get(var)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(var.value.shape().clone()))
    }
}

impl Var {
    /// The forward value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// The tape this var is recorded on.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Node id (stable within one tape).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Dimension sizes of the forward value.
    pub fn dims(&self) -> &[usize] {
        self.value.dims()
    }

    pub(crate) fn same_tape(&self, other: &Var) -> bool {
        Rc::ptr_eq(&self.tape.inner, &other.tape.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn leaf_has_no_backward() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let g = tape.backward(&x);
        // Root gradient is ones.
        assert_eq!(g.get(&x).unwrap().to_vec(), vec![1.0, 1.0]);
    }

    #[test]
    fn chain_rule_through_two_ops() {
        // y = (2x)^2 summed; dy/dx = 8x
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[1.0, 3.0]));
        let two_x = ops::mul_scalar(&x, 2.0);
        let sq = ops::square(&two_x);
        let y = ops::sum_all(&sq);
        let g = tape.backward(&y);
        assert_eq!(g.get(&x).unwrap().to_vec(), vec![8.0, 24.0]);
    }

    #[test]
    fn gradients_accumulate_over_multiple_uses() {
        // y = sum(x * x_used_twice): use x in two branches, grads must add.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[2.0]));
        let a = ops::mul_scalar(&x, 3.0);
        let b = ops::mul_scalar(&x, 4.0);
        let y = ops::sum_all(&ops::add(&a, &b));
        let g = tape.backward(&y);
        assert_eq!(g.get(&x).unwrap().to_vec(), vec![7.0]);
    }

    #[test]
    fn custom_op_backward_is_called() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[5.0]));
        // Forward: x * 10, backward: grad * 10.
        let y = tape.custom_op(&[&x], st_tensor::ops::mul_scalar(x.value(), 10.0), |g| {
            vec![st_tensor::ops::mul_scalar(g, 10.0)]
        });
        let s = ops::sum_all(&y);
        let g = tape.backward(&s);
        assert_eq!(g.get(&x).unwrap().to_vec(), vec![10.0]);
    }

    #[test]
    fn inference_tape_computes_identical_values_without_recording() {
        let run = |tape: &Tape| {
            let x = tape.leaf(Tensor::from_slice(&[1.0, 3.0]));
            ops::sum_all(&ops::square(&ops::mul_scalar(&x, 2.0)))
                .value()
                .item()
        };
        let train = Tape::new();
        let infer = Tape::inference();
        assert_eq!(run(&train).to_bits(), run(&infer).to_bits());
        assert!(train.activation_bytes(4) > 0);
        assert_eq!(infer.activation_bytes(4), 0, "inference retains nothing");
        assert!(infer.is_empty());
        assert!(!infer.grad_enabled());
    }

    #[test]
    fn inference_tape_treats_params_as_constants() {
        let p = crate::module::Param::new("w", Tensor::from_slice(&[2.0]));
        let tape = Tape::inference();
        let w = tape.param(&p);
        assert_eq!(w.value().to_vec(), vec![2.0]);
        assert!(tape.is_empty(), "param binding must not record");
    }

    #[test]
    #[should_panic(expected = "inference tapes record no graph")]
    fn backward_on_inference_tape_is_loud() {
        let tape = Tape::inference();
        let x = tape.leaf(Tensor::from_slice(&[1.0]));
        let y = ops::mul_scalar(&x, 2.0);
        tape.backward(&y);
    }

    #[test]
    fn params_complete_in_reverse_bind_order() {
        let a = crate::module::Param::new("a", Tensor::from_slice(&[1.0]));
        let b = crate::module::Param::new("b", Tensor::from_slice(&[2.0]));
        let tape = Tape::new();
        let va = tape.param(&a);
        let vb = tape.param(&b);
        let y = ops::sum_all(&ops::add(&va, &vb));
        let _ = tape.backward(&y);
        let order = tape.param_completion_order();
        assert_eq!(order.len(), 2);
        // b bound last ⇒ its grad finalizes first in the reverse scan.
        assert_eq!(order[0].name(), "b");
        assert_eq!(order[1].name(), "a");
        // Re-binding is idempotent: the order is stable.
        let _ = tape.param(&a);
        assert_eq!(tape.param_completion_order().len(), 2);
    }

    #[test]
    fn no_grad_for_unreachable_nodes() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[1.0]));
        let unused = tape.leaf(Tensor::from_slice(&[1.0]));
        let y = ops::sum_all(&ops::mul_scalar(&x, 2.0));
        let g = tape.backward(&y);
        assert!(g.get(&unused).is_none());
        assert_eq!(g.get_or_zeros(&unused).to_vec(), vec![0.0]);
    }
}
