//! # st-tensor
//!
//! Dense, strided, CPU tensor library used as the numerical substrate for the
//! PGT-I reproduction. It plays the role NumPy + PyTorch tensors play in the
//! original paper: in particular it supports **zero-copy views** (`narrow`,
//! `select`, `permute`), which are the core mechanism behind index-batching —
//! a spatiotemporal snapshot is a *view* into the single standardized data
//! array, never a copy.
//!
//! Design notes
//! - Element type is `f32` (model math). Byte accounting for the paper's
//!   float64 datasets is handled by `st-device` pools, not by this crate.
//! - Storage is `Arc<Vec<f32>>`; clones and views are O(1). Mutating methods
//!   (`fill_`, `add_scaled_`, ...) use copy-on-write semantics via
//!   [`Tensor::make_mut_contiguous`].
//! - GEMM, batched GEMM, spmm and the `sum_abs` reduction split large calls
//!   into row chunks over one resident `std::thread` pool ([`par`]); how
//!   many chunks is a per-thread budget handed down by the distributed
//!   runtime, and never changes a result bit.
//! - [`le`] is the workspace's one checked little-endian byte reader; the
//!   three binary formats (signals, checkpoints, snapshots) decode through
//!   it and through nothing else.

pub mod backend;
pub mod le;
pub mod ops;
pub mod par;
pub mod random;
pub mod shape;
pub mod storage;
pub mod tensor;

pub use shape::Shape;
pub use storage::Storage;
pub use tensor::Tensor;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Shapes are incompatible for the requested operation.
    ShapeMismatch {
        op: &'static str,
        lhs: Vec<usize>,
        rhs: Vec<usize>,
    },
    /// An index or range fell outside the tensor bounds.
    OutOfBounds {
        op: &'static str,
        index: usize,
        bound: usize,
    },
    /// The operation requires a contiguous tensor.
    NotContiguous { op: &'static str },
    /// Invalid argument (dimension out of range, zero-size dim, ...).
    Invalid { op: &'static str, msg: String },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: shape mismatch {lhs:?} vs {rhs:?}")
            }
            TensorError::OutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds ({bound})")
            }
            TensorError::NotContiguous { op } => write!(f, "{op}: tensor is not contiguous"),
            TensorError::Invalid { op, msg } => write!(f, "{op}: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
