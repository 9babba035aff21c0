//! Shape and stride arithmetic.
//!
//! A [`Shape`] is a thin wrapper over `Vec<usize>` with the index math needed
//! for strided tensors: row-major (C-order) strides, broadcast resolution, and
//! linear-offset computation.

use crate::{Result, TensorError};

/// The dimensions of a tensor, in row-major order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Create a shape from a dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Scalar shape (rank 0).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Size of dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major (C-order) strides, in elements.
    pub fn contiguous_strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1usize;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d.max(1);
        }
        strides
    }

    /// Resolve the broadcast shape of `self` and `other` under NumPy rules:
    /// trailing dimensions must be equal or one of them must be 1.
    pub fn broadcast_with(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.0[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.0[i - (rank - other.rank())]
            };
            if a == b || a == 1 || b == 1 {
                *dim = a.max(b);
            } else {
                return Err(TensorError::ShapeMismatch {
                    op: "broadcast",
                    lhs: self.0.clone(),
                    rhs: other.0.clone(),
                });
            }
        }
        Ok(Shape(dims))
    }

    /// True when both shapes have identical dims.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.0 == other.0
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

/// Iterate over all multi-dimensional indices of `dims` in row-major order,
/// calling `f` with the flattened strided offset computed from `strides`.
///
/// Used by non-contiguous kernels; hot paths special-case contiguous layouts.
pub fn for_each_offset(dims: &[usize], strides: &[usize], base: usize, mut f: impl FnMut(usize)) {
    if dims.is_empty() {
        f(base);
        return;
    }
    let rank = dims.len();
    let mut idx = vec![0usize; rank];
    let total: usize = dims.iter().product();
    let mut offset = base;
    for _ in 0..total {
        f(offset);
        // Increment the odometer from the innermost dimension.
        for d in (0..rank).rev() {
            idx[d] += 1;
            offset += strides[d];
            if idx[d] < dims[d] {
                break;
            }
            offset -= strides[d] * dims[d];
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_strides_row_major() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.contiguous_strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.contiguous_strides().is_empty());
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new([4, 1, 3]);
        let b = Shape::new([2, 3]);
        assert_eq!(a.broadcast_with(&b).unwrap().dims(), &[4, 2, 3]);
        let c = Shape::new([5]);
        assert!(a.broadcast_with(&c).is_err());
    }

    #[test]
    fn broadcast_same_shape_is_identity() {
        let a = Shape::new([2, 3]);
        assert_eq!(a.broadcast_with(&a).unwrap(), a);
    }

    #[test]
    fn for_each_offset_visits_row_major() {
        let dims = [2usize, 3];
        let strides = [3usize, 1];
        let mut seen = Vec::new();
        for_each_offset(&dims, &strides, 0, |o| seen.push(o));
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn for_each_offset_transposed() {
        // 2x3 viewed as the transpose of a 3x2 buffer: strides (1, 2).
        let dims = [2usize, 3];
        let strides = [1usize, 2];
        let mut seen = Vec::new();
        for_each_offset(&dims, &strides, 0, |o| seen.push(o));
        assert_eq!(seen, vec![0, 2, 4, 1, 3, 5]);
    }
}
