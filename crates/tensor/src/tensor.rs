//! The core [`Tensor`] type: a strided view over shared storage.

use crate::shape::Shape;
use crate::storage::Storage;
use crate::{Result, TensorError};

/// Edge of the square tiles a transposing copy moves at a time.
const TILE: usize = 32;

/// A dense, strided, row-major tensor of `f32` over shared storage.
///
/// Cloning a tensor, or taking a view (`narrow`, `select`, `permute`,
/// `reshape` of a contiguous tensor) never copies element data.
#[derive(Debug, Clone)]
pub struct Tensor {
    storage: Storage,
    shape: Shape,
    strides: Vec<usize>,
    offset: usize,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let strides = shape.contiguous_strides();
        Tensor {
            storage: Storage::full(shape.numel(), 0.0),
            shape,
            strides,
            offset: 0,
        }
    }

    /// Tensor of the given shape filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let strides = shape.contiguous_strides();
        Tensor {
            storage: Storage::full(shape.numel(), value),
            shape,
            strides,
            offset: 0,
        }
    }

    /// Tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            storage: Storage::from_vec(vec![value]),
            shape: Shape::scalar(),
            strides: Vec::new(),
            offset: 0,
        }
    }

    /// Build a tensor from a flat `Vec` in row-major order.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::Invalid {
                op: "from_vec",
                msg: format!("data len {} != numel {}", data.len(), shape.numel()),
            });
        }
        let strides = shape.contiguous_strides();
        Ok(Tensor {
            storage: Storage::from_vec(data),
            shape,
            strides,
            offset: 0,
        })
    }

    /// A contiguous tensor over `storage`, which holds exactly `shape`'s
    /// elements — how the crate's ops wrap the buffers they fill.
    pub(crate) fn from_storage(storage: Storage, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(storage.len(), shape.numel(), "storage holds the shape");
        let strides = shape.contiguous_strides();
        Tensor {
            storage,
            shape,
            strides,
            offset: 0,
        }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(data.to_vec(), [data.len()]).expect("slice shape always matches")
    }

    /// `0, 1, ..., n-1` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n]).expect("arange shape")
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec(data, [n, n]).expect("eye shape")
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.shape.dim(d)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Strides in elements.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Element offset of this view into its storage.
    pub fn storage_offset(&self) -> usize {
        self.offset
    }

    /// The shared storage backing this tensor.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// True when this view shares an allocation with `other` — the zero-copy
    /// property index-batching snapshots are tested against.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        self.storage.ptr_eq(&other.storage)
    }

    /// True when elements are laid out contiguously in row-major order.
    pub fn is_contiguous(&self) -> bool {
        self.strides == self.shape.contiguous_strides()
    }

    // ------------------------------------------------------------------
    // Element access
    // ------------------------------------------------------------------

    /// Linear storage offset for a multi-dimensional index.
    fn offset_of(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::Invalid {
                op: "index",
                msg: format!("index rank {} != tensor rank {}", index.len(), self.rank()),
            });
        }
        let mut off = self.offset;
        for (d, &i) in index.iter().enumerate() {
            if i >= self.shape.dim(d) {
                return Err(TensorError::OutOfBounds {
                    op: "index",
                    index: i,
                    bound: self.shape.dim(d),
                });
            }
            off += i * self.strides[d];
        }
        Ok(off)
    }

    /// Read a single element.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self.offset_of(index).expect("index in bounds");
        self.storage.as_slice()[off]
    }

    /// Read a scalar tensor's single value.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a single-element tensor");
        self.storage.as_slice()[self.offset]
    }

    /// Write a single element (copy-on-write if storage is shared).
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset_of(index).expect("index in bounds");
        self.storage.make_mut()[off] = value;
    }

    /// Contiguous read-only element slice. Errors for non-contiguous views.
    pub fn as_slice(&self) -> Result<&[f32]> {
        if !self.is_contiguous() {
            return Err(TensorError::NotContiguous { op: "as_slice" });
        }
        // An empty view's offset may lie past its storage's end.
        let start = self.offset.min(self.storage.len());
        Ok(&self.storage.as_slice()[start..start + self.numel()])
    }

    /// Copy this tensor's elements into a fresh `Vec` in row-major order.
    pub fn to_vec(&self) -> Vec<f32> {
        if let Ok(s) = self.as_slice() {
            return s.to_vec();
        }
        let mut out = vec![0.0; self.numel()];
        self.copy_into(&mut out, &self.shape.contiguous_strides());
        out
    }

    /// [`Tensor::to_vec`] into a fresh [`Storage`] (a recycled buffer
    /// inside a [`crate::storage::RecycleScope`]).
    pub(crate) fn to_storage(&self) -> Storage {
        if let Ok(s) = self.as_slice() {
            return Storage::copy_of(s);
        }
        let mut out = Storage::scratch(self.numel());
        self.copy_into(out.make_mut(), &self.shape.contiguous_strides());
        out
    }

    /// Copy this view into `dst`, element `i` landing at `Σ i_d · dst_strides[d]`:
    /// the crate's one strided copy (`to_vec`, `broadcast_to`, `copy_from`,
    /// `concat`, `stack0`). Size-1 axes drop out and an axis merges into the
    /// one outside it when both strides chain; then whole runs move: a slice
    /// copy (innermost strides 1), a fill (source stride 0), a tiled transpose
    /// (two innermost axes swapped), else an element loop. Pure data movement:
    /// no value is combined, so no layout changes a bit.
    pub(crate) fn copy_into(&self, dst: &mut [f32], dst_strides: &[usize]) {
        if self.numel() == 0 {
            return;
        }
        let src = self.storage.as_slice();
        // (size, source stride, destination stride), outermost first.
        let mut axes: Vec<[usize; 3]> = Vec::with_capacity(self.rank());
        for ((&n, &s), &d) in self.dims().iter().zip(&self.strides).zip(dst_strides) {
            match axes.last_mut() {
                _ if n == 1 => {}
                Some(a) if a[1] == s * n && a[2] == d * n => *a = [a[0] * n, s, d],
                _ => axes.push([n, s, d]),
            }
        }
        let [n, s, d] = axes.pop().unwrap_or([1, 1, 1]);
        // Swapped inner axes: `m` rows of `n`, tiles read along the source's unit stride.
        let rows = match axes.last() {
            Some(&[m, 1, dm]) if d == 1 && s > 1 => axes.pop().map(|_| (m, dm)),
            _ => None,
        };
        let blocks: usize = axes.iter().map(|a| a[0]).product();
        let (mut idx, mut so, mut dof) = (vec![0; axes.len()], self.offset, 0);
        for _ in 0..blocks {
            match (rows, s, d) {
                (Some((m, dm)), ..) => {
                    for i0 in (0..m).step_by(TILE) {
                        let i1 = (i0 + TILE).min(m);
                        for j0 in (0..n).step_by(TILE) {
                            for j in j0..(j0 + TILE).min(n) {
                                let col = &src[so + j * s + i0..so + j * s + i1];
                                for (i, &v) in (i0..i1).zip(col) {
                                    dst[dof + i * dm + j] = v;
                                }
                            }
                        }
                    }
                }
                (None, 1, 1) => dst[dof..dof + n].copy_from_slice(&src[so..so + n]),
                (None, 0, 1) => dst[dof..dof + n].fill(src[so]),
                _ => (0..n).for_each(|j| dst[dof + j * d] = src[so + j * s]),
            }
            // Advance the outer odometer (after the last block it wraps, unread).
            for (i, &[size, ss, ds]) in idx.iter_mut().zip(&axes).rev() {
                *i += 1;
                (so, dof) = (so + ss, dof + ds);
                if *i < size {
                    break;
                }
                *i = 0;
                (so, dof) = (so - ss * size, dof - ds * size);
            }
        }
    }

    /// Mutable contiguous slice with copy-on-write. If the tensor is a
    /// non-contiguous view it is first gathered into fresh contiguous storage.
    pub fn make_mut_contiguous(&mut self) -> &mut [f32] {
        if !self.is_contiguous() || self.offset != 0 || self.storage.len() != self.numel() {
            self.storage = self.to_storage();
            self.strides = self.shape.contiguous_strides();
            self.offset = 0;
        }
        self.storage.make_mut()
    }

    /// Return a contiguous tensor with the same contents (self if already
    /// contiguous; otherwise a gathered copy).
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() {
            self.clone()
        } else {
            Tensor::from_storage(self.to_storage(), self.shape.clone())
        }
    }

    // ------------------------------------------------------------------
    // Views (never copy)
    // ------------------------------------------------------------------

    /// Restrict dimension `dim` to `[start, start + len)`. Zero-copy.
    ///
    /// This is the primitive used by index-batching: a snapshot with window
    /// start `s` and horizon `h` is `data.narrow(0, s, h)` and its label is
    /// `data.narrow(0, s + h, h)` — both views of the same storage.
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Result<Tensor> {
        if dim >= self.rank() {
            return Err(TensorError::Invalid {
                op: "narrow",
                msg: format!("dim {dim} out of range for rank {}", self.rank()),
            });
        }
        if start + len > self.shape.dim(dim) {
            return Err(TensorError::OutOfBounds {
                op: "narrow",
                index: start + len,
                bound: self.shape.dim(dim),
            });
        }
        let mut dims = self.shape.dims().to_vec();
        dims[dim] = len;
        Ok(Tensor {
            storage: self.storage.clone(),
            shape: Shape::new(dims),
            strides: self.strides.clone(),
            offset: self.offset + start * self.strides[dim],
        })
    }

    /// Drop dimension `dim` by fixing it to `index`. Zero-copy.
    pub fn select(&self, dim: usize, index: usize) -> Result<Tensor> {
        let narrowed = self.narrow(dim, index, 1)?;
        let mut dims = narrowed.shape.dims().to_vec();
        let mut strides = narrowed.strides.clone();
        dims.remove(dim);
        strides.remove(dim);
        Ok(Tensor {
            storage: narrowed.storage,
            shape: Shape::new(dims),
            strides,
            offset: narrowed.offset,
        })
    }

    /// Reorder dimensions. Zero-copy.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        if perm.len() != self.rank() {
            return Err(TensorError::Invalid {
                op: "permute",
                msg: format!("perm len {} != rank {}", perm.len(), self.rank()),
            });
        }
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            if p >= self.rank() || seen[p] {
                return Err(TensorError::Invalid {
                    op: "permute",
                    msg: format!("invalid permutation {perm:?}"),
                });
            }
            seen[p] = true;
        }
        let dims = perm.iter().map(|&p| self.shape.dim(p)).collect::<Vec<_>>();
        let strides = perm.iter().map(|&p| self.strides[p]).collect::<Vec<_>>();
        Ok(Tensor {
            storage: self.storage.clone(),
            shape: Shape::new(dims),
            strides,
            offset: self.offset,
        })
    }

    /// Swap two dimensions (zero-copy transpose).
    pub fn transpose(&self, d0: usize, d1: usize) -> Result<Tensor> {
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        if d0 >= self.rank() || d1 >= self.rank() {
            return Err(TensorError::Invalid {
                op: "transpose",
                msg: format!("dims ({d0},{d1}) out of range for rank {}", self.rank()),
            });
        }
        perm.swap(d0, d1);
        self.permute(&perm)
    }

    /// 2-D matrix transpose.
    pub fn t(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::Invalid {
                op: "t",
                msg: format!("t() requires rank 2, got {}", self.rank()),
            });
        }
        self.transpose(0, 1)
    }

    /// Reinterpret the shape. Zero-copy for contiguous tensors, otherwise the
    /// data is gathered first.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.dims().to_vec(),
                rhs: shape.dims().to_vec(),
            });
        }
        let base = self.contiguous();
        let strides = shape.contiguous_strides();
        Ok(Tensor {
            storage: base.storage,
            shape,
            strides,
            offset: base.offset,
        })
    }

    /// Insert a size-1 dimension at `dim`. Zero-copy for contiguous tensors.
    pub fn unsqueeze(&self, dim: usize) -> Result<Tensor> {
        let mut dims = self.dims().to_vec();
        if dim > dims.len() {
            return Err(TensorError::Invalid {
                op: "unsqueeze",
                msg: format!("dim {dim} > rank {}", dims.len()),
            });
        }
        dims.insert(dim, 1);
        self.reshape(dims)
    }

    /// Remove a size-1 dimension at `dim`.
    pub fn squeeze(&self, dim: usize) -> Result<Tensor> {
        let mut dims = self.dims().to_vec();
        if dim >= dims.len() || dims[dim] != 1 {
            return Err(TensorError::Invalid {
                op: "squeeze",
                msg: format!("dim {dim} is not size-1 in {dims:?}"),
            });
        }
        dims.remove(dim);
        self.reshape(dims)
    }

    /// Materialize a broadcast of this tensor to `target` (copies data).
    pub fn broadcast_to(&self, target: &Shape) -> Result<Tensor> {
        let bshape = self.shape.broadcast_with(target)?;
        if !bshape.same_as(target) {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast_to",
                lhs: self.dims().to_vec(),
                rhs: target.dims().to_vec(),
            });
        }
        if self.shape.same_as(target) {
            return Ok(self.clone());
        }
        // A view whose broadcast axes have stride 0 (never contiguous), copied.
        let mut strides = vec![0; target.rank() - self.rank()];
        let own = self.dims().iter().zip(&self.strides);
        strides.extend(own.map(|(&n, &s)| if n == 1 { 0 } else { s }));
        let view = Tensor {
            storage: self.storage.clone(),
            shape: target.clone(),
            strides,
            offset: self.offset,
        };
        Ok(view.contiguous())
    }

    // ------------------------------------------------------------------
    // In-place mutation (copy-on-write)
    // ------------------------------------------------------------------

    /// Set every element to `value`.
    pub fn fill_(&mut self, value: f32) {
        for x in self.make_mut_contiguous() {
            *x = value;
        }
    }

    /// `self += alpha * other` (elementwise, shapes must match exactly).
    /// Used on optimizer fast paths to avoid temporaries.
    pub fn add_scaled_(&mut self, other: &Tensor, alpha: f32) -> Result<()> {
        if !self.shape.same_as(other.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "add_scaled_",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let rhs = other.contiguous();
        let rhs_slice = rhs.as_slice().expect("contiguous");
        let lhs = self.make_mut_contiguous();
        for (a, &b) in lhs.iter_mut().zip(rhs_slice) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiply every element by `s` in place.
    pub fn scale_(&mut self, s: f32) {
        for x in self.make_mut_contiguous() {
            *x *= s;
        }
    }

    /// Copy `src` into this tensor (shapes must match).
    pub fn copy_from(&mut self, src: &Tensor) -> Result<()> {
        if !self.shape.same_as(src.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "copy_from",
                lhs: self.dims().to_vec(),
                rhs: src.dims().to_vec(),
            });
        }
        let strides = self.shape.contiguous_strides();
        src.copy_into(self.make_mut_contiguous(), &strides);
        Ok(())
    }

    /// Gather rows of dimension 0 by `indices` into a new tensor
    /// (the batching primitive: assemble a minibatch from sample indices).
    pub fn index_select0(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::Invalid {
                op: "index_select0",
                msg: "rank-0 tensor".into(),
            });
        }
        if let Some(&i) = indices.iter().find(|&&i| i >= self.dim(0)) {
            return Err(TensorError::OutOfBounds {
                op: "index_select0",
                index: i,
                bound: self.dim(0),
            });
        }
        let row = self.numel() / self.dim(0).max(1);
        let mut dims = self.dims().to_vec();
        dims[0] = indices.len();
        let mut out = Storage::scratch(indices.len() * row);
        let strides = Shape::new(dims.clone()).contiguous_strides();
        for (dst, &i) in out.make_mut().chunks_exact_mut(row.max(1)).zip(indices) {
            self.select(0, i)?.copy_into(dst, &strides[1..]);
        }
        Ok(Tensor::from_storage(out, dims))
    }

    /// Approximate elementwise equality (for tests).
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        if !self.shape.same_as(other.shape()) {
            return false;
        }
        self.to_vec()
            .iter()
            .zip(other.to_vec().iter())
            .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_read() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[1, 0, 2]), 14.0);
    }

    #[test]
    fn narrow_is_zero_copy_view() {
        let t = Tensor::arange(10).reshape([5, 2]).unwrap();
        let v = t.narrow(0, 1, 3).unwrap();
        assert_eq!(v.dims(), &[3, 2]);
        assert_eq!(v.at(&[0, 0]), 2.0);
        assert!(v.shares_storage(&t));
        assert!(v.is_contiguous() || v.storage_offset() == 2);
    }

    #[test]
    fn narrow_window_pair_matches_index_batching_semantics() {
        // data[s..s+h] and data[s+h..s+2h] as in Fig. 4 of the paper.
        let e = 12;
        let h = 3;
        let t = Tensor::arange(e);
        let s = 2;
        let x = t.narrow(0, s, h).unwrap();
        let y = t.narrow(0, s + h, h).unwrap();
        assert_eq!(x.to_vec(), vec![2.0, 3.0, 4.0]);
        assert_eq!(y.to_vec(), vec![5.0, 6.0, 7.0]);
        assert!(x.shares_storage(&t) && y.shares_storage(&t));
    }

    #[test]
    fn select_drops_dim() {
        let t = Tensor::arange(24).reshape([2, 3, 4]).unwrap();
        let s = t.select(1, 2).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.at(&[0, 0]), 8.0);
        assert_eq!(s.at(&[1, 3]), 23.0);
    }

    #[test]
    fn transpose_and_to_vec() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let tt = t.t().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert!(!tt.is_contiguous());
        assert_eq!(tt.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(tt.shares_storage(&t));
    }

    #[test]
    fn copy_into_fills_a_slot_row_major() {
        // A [2, 2] view written into columns 1..3 of a [2, 4] buffer.
        let t = Tensor::arange(4).reshape([2, 2]).unwrap();
        let mut dst = vec![0.0; 8];
        t.copy_into(&mut dst[1..], &[4, 1]);
        assert_eq!(dst, vec![0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn copy_into_transposed() {
        // Swapped axes longer than a tile edge: the tiled path, ragged edges.
        let (m, n) = (TILE + 3, 2 * TILE + 1);
        let t = Tensor::arange(m * n).reshape([m, n]).unwrap().t().unwrap();
        let mut dst = vec![0.0; m * n];
        t.copy_into(&mut dst, &[m, 1]);
        for (k, &v) in dst.iter().enumerate() {
            assert_eq!(v, ((k % m) * n + k / m) as f32, "element {k}");
        }
    }

    #[test]
    fn reshape_contiguous_shares_storage() {
        let t = Tensor::arange(6);
        let r = t.reshape([2, 3]).unwrap();
        assert!(r.shares_storage(&t));
    }

    #[test]
    fn reshape_noncontiguous_copies() {
        let t = Tensor::arange(6).reshape([2, 3]).unwrap();
        let tt = t.t().unwrap();
        let r = tt.reshape([6]).unwrap();
        assert_eq!(r.to_vec(), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn copy_on_write_preserves_views() {
        let t = Tensor::arange(4);
        let mut v = t.narrow(0, 0, 2).unwrap();
        v.fill_(7.0);
        // The original is untouched.
        assert_eq!(t.to_vec(), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(v.to_vec(), vec![7.0, 7.0]);
    }

    #[test]
    fn index_select0_gathers_rows() {
        let t = Tensor::arange(12).reshape([4, 3]).unwrap();
        let g = t.index_select0(&[3, 0, 3]).unwrap();
        assert_eq!(g.dims(), &[3, 3]);
        assert_eq!(
            g.to_vec(),
            vec![9.0, 10.0, 11.0, 0.0, 1.0, 2.0, 9.0, 10.0, 11.0]
        );
    }

    #[test]
    fn broadcast_to_materializes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]).unwrap();
        let b = t.broadcast_to(&Shape::new([2, 3])).unwrap();
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn unsqueeze_squeeze_roundtrip() {
        let t = Tensor::arange(6).reshape([2, 3]).unwrap();
        let u = t.unsqueeze(1).unwrap();
        assert_eq!(u.dims(), &[2, 1, 3]);
        let s = u.squeeze(1).unwrap();
        assert_eq!(s.dims(), &[2, 3]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.at(&[2, 2]), 1.0);
    }

    #[test]
    fn out_of_bounds_errors() {
        let t = Tensor::arange(4).reshape([2, 2]).unwrap();
        assert!(t.narrow(0, 1, 2).is_err());
        assert!(t.select(2, 0).is_err());
        assert!(t.index_select0(&[2]).is_err());
    }
}
