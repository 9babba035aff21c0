//! Compressed sparse row matrices and sparse×dense products.
//!
//! The diffusion convolution at the heart of DCRNN multiplies sparse
//! random-walk transition matrices against dense node-feature matrices;
//! CSR `spmm` is the kernel that makes that cheap for road networks whose
//! adjacency is overwhelmingly sparse.

use st_tensor::{Result, Tensor, TensorError};

/// A CSR sparse matrix of shape `[rows, cols]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl Csr {
    /// Build from a dense row-major buffer, dropping exact zeros.
    pub fn from_dense(rows: usize, cols: usize, dense: &[f32]) -> Self {
        assert_eq!(dense.len(), rows * cols);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense[r * cols + c];
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from COO triplets (row, col, value). Duplicates are summed in
    /// input order; like [`Csr::from_dense`], exact-zero results are dropped.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        row_ptr.push(0);
        let mut run = sorted.iter().peekable();
        while let Some(&(r, c, mut v)) = run.next() {
            assert!(r < rows && c < cols, "triplet out of bounds");
            while let Some(&(_, _, dup)) = run.next_if(|&&(r2, c2, _)| (r2, c2) == (r, c)) {
                v += dup;
            }
            if v != 0.0 {
                row_ptr.resize(r + 1, col_idx.len());
                col_idx.push(c);
                values.push(v);
            }
        }
        row_ptr.resize(rows + 1, col_idx.len());
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// True when this is exactly the identity: square, and row `r` stores
    /// one entry, `(r, 1.0)`.
    pub fn is_identity(&self) -> bool {
        self.rows == self.cols
            && self.nnz() == self.rows
            && (0..self.rows).all(|r| self.row_slices(r) == (&[r][..], &[1.0f32][..]))
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored columns and values of row `r`, in storage order.
    pub(crate) fn row_slices(&self, r: usize) -> (&[usize], &[f32]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterate the non-zeros of row `r` as `(col, value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (cols, values) = self.row_slices(r);
        cols.iter().copied().zip(values.iter().copied())
    }

    /// Dense `[rows, cols]` tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut d = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                d[r * self.cols + c] += v;
            }
        }
        Tensor::from_vec(d, [self.rows, self.cols]).expect("rows*cols buffer")
    }

    /// Transposed copy (CSR of the transpose).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 1..=self.cols {
            counts[i] += counts[i - 1];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut next = counts.clone();
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let pos = next[c];
                col_idx[pos] = r;
                values[pos] = v;
                next[c] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr: counts,
            col_idx,
            values,
        }
    }

    /// Sparse × dense product: `Y[rows, n] = self[rows, cols] @ X[cols, n]`.
    ///
    /// Dispatches through the active [`st_tensor::backend::Kernels`]
    /// backend and reports into the spmm kernel-time counter.
    pub fn spmm(&self, x: &Tensor) -> Result<Tensor> {
        if x.rank() != 2 || x.dim(0) != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "spmm",
                lhs: vec![self.rows, self.cols],
                rhs: x.dims().to_vec(),
            });
        }
        let n = x.dim(1);
        let xc = x.contiguous();
        let xs = xc.as_slice().expect("contiguous");
        let mut out = vec![0.0f32; self.rows * n];
        st_tensor::backend::timed(st_tensor::backend::KernelClass::Spmm, || {
            st_tensor::backend::kernels().spmm(
                &self.row_ptr,
                &self.col_idx,
                &self.values,
                xs,
                &mut out,
                self.rows,
                n,
            )
        });
        Tensor::from_vec(out, [self.rows, n])
    }

    /// Batched sparse × dense: applies `spmm` to each `X[b]` of a
    /// `[B, cols, n]` tensor, producing `[B, rows, n]`.
    ///
    /// Writes every batch straight into one output buffer (the historical
    /// path materialized a tensor per batch and stacked them).
    pub fn spmm_batched(&self, x: &Tensor) -> Result<Tensor> {
        if x.rank() != 3 || x.dim(1) != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "spmm_batched",
                lhs: vec![self.rows, self.cols],
                rhs: x.dims().to_vec(),
            });
        }
        let b = x.dim(0);
        let n = x.dim(2);
        let xc = x.contiguous();
        let xs = xc.as_slice().expect("contiguous");
        let mut out = vec![0.0f32; b * self.rows * n];
        if self.rows * n > 0 {
            st_tensor::backend::timed(st_tensor::backend::KernelClass::Spmm, || {
                let kernels = st_tensor::backend::kernels();
                for (i, slab) in out.chunks_mut(self.rows * n).enumerate() {
                    kernels.spmm(
                        &self.row_ptr,
                        &self.col_idx,
                        &self.values,
                        &xs[i * self.cols * n..(i + 1) * self.cols * n],
                        slab,
                        self.rows,
                        n,
                    );
                }
            });
        }
        Tensor::from_vec(out, [b, self.rows, n])
    }

    /// Sparse × sparse product `self @ other`, row by row: row `r` adds up
    /// `self[r,j] · other[j,:]` over `self`'s row in storage order in a
    /// `+0.0`-seeded accumulator, then stores its columns in ascending order,
    /// dropping exact zeros as [`Csr::from_dense`] does. Memory is O(nnz +
    /// cols), not `rows × cols`. For finite entries and rows without
    /// repeated columns, the bits equal the dense route,
    /// `Csr::from_dense(.., &self.spmm(&other.to_dense())?.to_vec())`: that
    /// route adds the same terms in the same order plus a `v · 0.0` for each
    /// absent `other[j,c]`, and adding `±0.0` to a sum that is never `-0.0`
    /// leaves it unchanged.
    pub fn matmul(&self, other: &Csr) -> Result<Csr> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "csr matmul",
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        let mut acc = vec![0.0f32; other.cols];
        let mut touched = vec![false; other.cols];
        let mut cols: Vec<usize> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        row_ptr.push(0);
        for r in 0..self.rows {
            for (j, v) in self.row(r) {
                for (c, bv) in other.row(j) {
                    if !touched[c] {
                        touched[c] = true;
                        cols.push(c);
                    }
                    acc[c] += v * bv;
                }
            }
            cols.sort_unstable();
            for c in cols.drain(..) {
                if acc[c] != 0.0 {
                    col_idx.push(c);
                    values.push(acc[c]);
                }
                (acc[c], touched[c]) = (0.0, false);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            rows: self.rows,
            cols: other.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Scale row `r` by `s[r]` (used for degree normalization).
    pub fn scale_rows(&self, s: &[f32]) -> Csr {
        assert_eq!(s.len(), self.rows);
        let mut out = self.clone();
        for (r, &scale) in s.iter().enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for v in &mut out.values[lo..hi] {
                *v *= scale;
            }
        }
        out
    }

    /// Estimated bytes of this sparse matrix (for memory accounting).
    pub fn approx_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> (usize, usize, Vec<f32>) {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        (3, 3, vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0])
    }

    #[test]
    fn dense_roundtrip() {
        let (r, c, d) = sample_dense();
        let m = Csr::from_dense(r, c, &d);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.to_dense().to_vec(), d);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = Csr::identity(3);
        let x = Tensor::arange(6).reshape([3, 2]).unwrap();
        assert_eq!(i.spmm(&x).unwrap().to_vec(), x.to_vec());
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let (r, c, d) = sample_dense();
        let m = Csr::from_dense(r, c, &d);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]).unwrap();
        let sparse = m.spmm(&x).unwrap();
        let dense = st_tensor::ops::matmul(&m.to_dense(), &x).unwrap();
        assert_eq!(sparse.to_vec(), dense.to_vec());
    }

    #[test]
    fn transpose_matches_dense() {
        let (r, c, d) = sample_dense();
        let m = Csr::from_dense(r, c, &d);
        let t = m.transpose();
        let dense_t = m.to_dense().t().unwrap().contiguous();
        assert_eq!(t.to_dense().to_vec(), dense_t.to_vec());
    }

    #[test]
    fn spmm_batched_applies_per_batch() {
        let m = Csr::identity(2);
        let x = Tensor::arange(8).reshape([2, 2, 2]).unwrap();
        let y = m.spmm_batched(&x).unwrap();
        assert_eq!(y.to_vec(), x.to_vec());
    }

    #[test]
    fn scale_rows_normalizes() {
        let (r, c, d) = sample_dense();
        let m = Csr::from_dense(r, c, &d);
        let scaled = m.scale_rows(&[1.0, 1.0, 0.5]);
        let dense = scaled.to_dense().to_vec();
        assert_eq!(dense[6], 1.5);
        assert_eq!(dense[7], 2.0);
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 5.0)]);
        let d = m.to_dense().to_vec();
        assert_eq!(d, vec![0.0, 3.0, 5.0, 0.0]);
        // Unsorted input, an empty middle row, and a pair that cancels.
        let m = Csr::from_triplets(
            3,
            2,
            &[(2, 1, 4.0), (0, 0, 1.5), (2, 0, -1.5), (0, 0, -1.5)],
        );
        assert_eq!(m.nnz(), 2, "the cancelled entry is not stored");
        assert_eq!(m.to_dense().to_vec(), vec![0.0, 0.0, 0.0, 0.0, -1.5, 4.0]);
        assert_eq!(m, Csr::from_dense(3, 2, &m.to_dense().to_vec()));
    }

    #[test]
    fn spmm_shape_mismatch_errors() {
        let m = Csr::identity(3);
        let x = Tensor::ones([2, 2]);
        assert!(m.spmm(&x).is_err());
    }
}
