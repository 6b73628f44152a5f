//! Single-machine baseline: an in-memory, MET-style implementation of
//! PARAFAC-ALS and Tucker-ALS.
//!
//! The paper compares HaTen2 against the Matlab Tensor Toolbox (with Kolda &
//! Sun's MET — Memory-Efficient Tucker) running on one machine of the
//! cluster. That comparator is reproduced here in Rust: the same ALS math as
//! `haten2-core`, but executed in-process with **explicit memory
//! accounting** against a configurable budget standing in for the paper's
//! 32 GB per machine. When the tensor, the factor matrices, or the
//! decomposition's working set exceed the budget, the run aborts with
//! [`BaselineError::Oom`] — the "o.o.m." entries of Figures 1 and 7.
//!
//! The memory model charges the dominant allocations of a Tensor
//! Toolbox-style sparse implementation:
//!
//! * the COO tensor itself (`nnz · 24` bytes of indices + value, plus
//!   Matlab's ~2× bookkeeping),
//! * each factor matrix (`Iₙ · R` doubles),
//! * PARAFAC: the MTTKRP accumulator and the Khatri–Rao slice working set
//!   (`nnz · R` doubles — MET-style, never the full `JK × R` product),
//! * Tucker: the semi-sparse projected tensor `Y = X ×₂ Bᵀ ×₃ Cᵀ`
//!   (`nnz · min(Q, R)` fibers of length `Q·R` in the worst case; we charge
//!   the Lemma 3 estimate `nnz · Q` entries after the first product).

#![forbid(unsafe_code)]

pub mod memory;
pub mod parafac;
pub mod tucker;

pub use memory::MemoryMeter;
pub use parafac::{parafac_als_baseline, BaselineParafac};
pub use tucker::{tucker_als_baseline, tucker_als_baseline_met, BaselineTucker, MetMode};

/// Errors from the single-machine baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The working set exceeded the memory budget — the paper's "o.o.m.".
    Oom {
        /// Bytes the computation needed at its peak.
        needed_bytes: usize,
        /// Configured budget.
        budget_bytes: usize,
        /// Which allocation pushed it over.
        what: String,
    },
    /// Underlying tensor failure.
    Tensor(String),
    /// Underlying linear-algebra failure.
    Linalg(String),
    /// Invalid parameters.
    InvalidArgument(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Oom {
                needed_bytes,
                budget_bytes,
                what,
            } => write!(
                f,
                "out of memory allocating {what}: needs {needed_bytes} B, budget {budget_bytes} B"
            ),
            BaselineError::Tensor(m) => write!(f, "tensor: {m}"),
            BaselineError::Linalg(m) => write!(f, "linalg: {m}"),
            BaselineError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<haten2_tensor::TensorError> for BaselineError {
    fn from(e: haten2_tensor::TensorError) -> Self {
        BaselineError::Tensor(e.to_string())
    }
}

impl From<haten2_linalg::LinalgError> for BaselineError {
    fn from(e: haten2_linalg::LinalgError) -> Self {
        BaselineError::Linalg(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, BaselineError>;
