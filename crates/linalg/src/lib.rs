//! Hand-rolled dense linear algebra for the HaTen2 reproduction.
//!
//! The HaTen2 paper (ICDE 2015) relies on a handful of dense kernels that run
//! on the "driver" side of the distributed decomposition:
//!
//! * small dense matrix products and Gram matrices (`BᵀB`, `CᵀC`),
//! * the Moore–Penrose pseudoinverse of the `R×R` Hadamard-product Gram
//!   matrix in PARAFAC-ALS (Algorithm 1, lines 3/5/7),
//! * the `P` leading left singular vectors of the matricized intermediate
//!   tensor in Tucker-ALS (Algorithm 2, lines 4/6/8),
//! * column normalization and Frobenius norms.
//!
//! Everything here is implemented from scratch (no external linear-algebra
//! crates): Householder QR, a cyclic Jacobi symmetric eigensolver, an SVD for
//! small/medium matrices built on the Gram-matrix eigendecomposition, and
//! the same route for tall-skinny abstract operators: leading singular
//! vectors from the small `n × n` Gram matrix in two passes over the
//! operator, never forming the tall `m × m` one and never iterating.
//!
//! Conventions: all matrices are row-major [`Mat`] with `f64` entries.
//! Dimensions follow the paper's notation where practical (`I×R` factors,
//! `R×R` Gram matrices).

#![forbid(unsafe_code)]

pub mod eigen;
pub mod mat;
pub mod matio;
pub mod pinv;
pub mod qr;
pub mod subspace;
pub mod svd;
pub mod vecops;

pub use eigen::{sym_eigen, SymEigen};
pub use mat::Mat;
pub use matio::{load_mat, read_mat, save_mat, write_mat};
pub use pinv::{pinv, solve_spd};
pub use qr::{householder_qr, thin_qr, Qr};
pub use subspace::{leading_left_singular_vectors, LinOp, SubspaceOptions};
pub use svd::{svd_small, Svd};

/// Error type for linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible (message describes the mismatch).
    DimensionMismatch(String),
    /// An iterative routine failed to converge within its iteration budget.
    NonConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The input matrix is singular (or numerically so) where an invertible
    /// matrix was required.
    Singular,
    /// An argument was out of the accepted domain (e.g. requesting more
    /// singular vectors than the matrix has columns).
    InvalidArgument(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinalgError::NonConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} failed to converge after {iterations} iterations"
                )
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for linear-algebra results.
pub type Result<T> = std::result::Result<T, LinalgError>;
