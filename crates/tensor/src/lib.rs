//! Sparse tensor algebra for the HaTen2 reproduction.
//!
//! Real-world tensors in the paper (Freebase, NELL, network logs) are
//! extremely sparse — `nnz(X) ~ I` — and every HaTen2 idea leans on that
//! sparsity. This crate provides:
//!
//! * [`CooTensor3`]: the workhorse 3-way sparse tensor in coordinate format,
//! * [`DynTensor`]: N-way coordinate tensors for the paper's N-way
//!   generalizations,
//! * [`DenseTensor3`]: small dense tensors (core tensor `G`, reference
//!   results),
//! * [`SparseMat`]: sparse matricizations `X₍ₙ₎` usable as abstract linear
//!   operators ([`haten2_linalg::LinOp`]: products and the small Gram
//!   matrix `X₍ₙ₎ᵀX₍ₙ₎`) so Tucker's SVD step never densifies,
//! * reference (single-machine, dense-output) implementations of every
//!   operation the paper defines — `×̄ₙ` (n-mode vector product), `×ₙ`
//!   (n-mode matrix product), `*̄ₙ` (n-mode vector Hadamard product, Def. 1),
//!   `*ₙ` (n-mode matrix Hadamard product, Def. 5), `Collapse` (Def. 2),
//!   Khatri–Rao MTTKRP — used as ground truth by the distributed kernels'
//!   tests,
//! * text I/O in the `i j k value` format HaTen2's Hadoop implementation
//!   consumed.

#![forbid(unsafe_code)]

pub mod coo3;
pub mod dense3;
pub mod dyntensor;
pub mod io;
pub mod ops;
pub mod sparsemat;

pub use coo3::{CooTensor3, Entry3};
pub use dense3::DenseTensor3;
pub use dyntensor::DynTensor;
pub use ops::{collapse, mode_hadamard_mat, mode_hadamard_vec, mttkrp_dense, ttm, ttv};
pub use sparsemat::SparseMat;

/// Error type for tensor operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// An index exceeds the tensor's declared dimensions.
    IndexOutOfBounds {
        /// Offending index tuple rendered as text.
        index: String,
        /// Tensor dimensions rendered as text.
        dims: String,
    },
    /// Operand shapes are incompatible.
    ShapeMismatch(String),
    /// Mode number out of range for the tensor's order.
    InvalidMode {
        /// Requested mode (0-based).
        mode: usize,
        /// Tensor order.
        order: usize,
    },
    /// Parse or I/O failure while reading a tensor file.
    Io(String),
    /// Underlying linear-algebra failure.
    Linalg(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::IndexOutOfBounds { index, dims } => {
                write!(f, "index {index} out of bounds for dims {dims}")
            }
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::InvalidMode { mode, order } => {
                write!(f, "mode {mode} invalid for order-{order} tensor")
            }
            TensorError::Io(msg) => write!(f, "tensor I/O error: {msg}"),
            TensorError::Linalg(msg) => write!(f, "linear algebra error: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

impl From<haten2_linalg::LinalgError> for TensorError {
    fn from(e: haten2_linalg::LinalgError) -> Self {
        TensorError::Linalg(e.to_string())
    }
}

/// Convenience alias for tensor results.
pub type Result<T> = std::result::Result<T, TensorError>;
