//! Concatenation, stacking, and splitting.

use crate::{Result, Shape, Storage, Tensor, TensorError};

/// Concatenate tensors along `dim`. All other dimensions must match.
pub fn concat(tensors: &[&Tensor], dim: usize) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Invalid {
            op: "concat",
            msg: "empty input list".into(),
        });
    }
    let rank = tensors[0].rank();
    if dim >= rank {
        return Err(TensorError::Invalid {
            op: "concat",
            msg: format!("dim {dim} out of range for rank {rank}"),
        });
    }
    let mut cat_len = 0usize;
    for t in tensors {
        if t.rank() != rank {
            return Err(TensorError::ShapeMismatch {
                op: "concat",
                lhs: tensors[0].dims().to_vec(),
                rhs: t.dims().to_vec(),
            });
        }
        for d in 0..rank {
            if d != dim && t.dim(d) != tensors[0].dim(d) {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: tensors[0].dims().to_vec(),
                    rhs: t.dims().to_vec(),
                });
            }
        }
        cat_len += t.dim(dim);
    }
    let mut out_dims = tensors[0].dims().to_vec();
    out_dims[dim] = cat_len;

    let out_shape = Shape::new(out_dims);
    let strides = out_shape.contiguous_strides();
    let mut out = Storage::scratch(out_shape.numel());
    // Each input is copied once, straight into its slot; an empty one has none.
    let mut cursor = 0usize;
    for t in tensors.iter().filter(|t| t.numel() > 0) {
        t.copy_into(&mut out.make_mut()[cursor * strides[dim]..], &strides);
        cursor += t.dim(dim);
    }
    Ok(Tensor::from_storage(out, out_shape))
}

/// Stack equal-shaped tensors along a new leading dimension.
pub fn stack0(tensors: &[&Tensor]) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Invalid {
            op: "stack0",
            msg: "empty input list".into(),
        });
    }
    let shape = tensors[0].shape().clone();
    let (n, strides) = (shape.numel(), shape.contiguous_strides());
    let mut out = Storage::scratch(tensors.len() * n);
    for (i, t) in tensors.iter().enumerate() {
        if !t.shape().same_as(&shape) {
            return Err(TensorError::ShapeMismatch {
                op: "stack0",
                lhs: shape.dims().to_vec(),
                rhs: t.dims().to_vec(),
            });
        }
        t.copy_into(&mut out.make_mut()[i * n..], &strides);
    }
    let mut dims = vec![tensors.len()];
    dims.extend_from_slice(shape.dims());
    Ok(Tensor::from_storage(out, dims))
}

/// Split a tensor into `n` equal chunks along `dim` (dim size must divide).
pub fn chunk(t: &Tensor, n: usize, dim: usize) -> Result<Vec<Tensor>> {
    if n == 0 || dim >= t.rank() || !t.dim(dim).is_multiple_of(n) {
        return Err(TensorError::Invalid {
            op: "chunk",
            msg: format!("cannot split dim {dim} of {:?} into {n} chunks", t.dims()),
        });
    }
    let step = t.dim(dim) / n;
    (0..n).map(|i| t.narrow(dim, i * step, step)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_dim0() {
        let a = Tensor::arange(4).reshape([2, 2]).unwrap();
        let b = Tensor::from_vec(vec![9.0, 9.0], [1, 2]).unwrap();
        let c = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.to_vec(), vec![0.0, 1.0, 2.0, 3.0, 9.0, 9.0]);
    }

    #[test]
    fn concat_dim1() {
        let a = Tensor::arange(4).reshape([2, 2]).unwrap();
        let b = Tensor::from_vec(vec![8.0, 9.0], [2, 1]).unwrap();
        let c = concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![0.0, 1.0, 8.0, 2.0, 3.0, 9.0]);
    }

    #[test]
    fn concat_last_dim_rank3() {
        let a = Tensor::ones([2, 2, 1]);
        let b = Tensor::zeros([2, 2, 2]);
        let c = concat(&[&a, &b], 2).unwrap();
        assert_eq!(c.dims(), &[2, 2, 3]);
        assert_eq!(c.to_vec()[..3], [1.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_shape_mismatch_errors() {
        let a = Tensor::ones([2, 2]);
        let b = Tensor::ones([3, 3]);
        assert!(concat(&[&a, &b], 0).is_err());
    }

    #[test]
    fn stack_makes_new_dim() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        let s = stack0(&[&a, &b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn chunk_roundtrips_concat() {
        let t = Tensor::arange(12).reshape([2, 6]).unwrap();
        let parts = chunk(&t, 3, 1).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].dims(), &[2, 2]);
        let refs: Vec<&Tensor> = parts.iter().collect();
        let rt = concat(&refs, 1).unwrap();
        assert_eq!(rt.to_vec(), t.to_vec());
    }

    #[test]
    fn chunk_views_share_storage() {
        let t = Tensor::arange(8).reshape([4, 2]).unwrap();
        let parts = chunk(&t, 2, 0).unwrap();
        assert!(parts[0].shares_storage(&t));
        assert!(parts[1].shares_storage(&t));
    }
}
