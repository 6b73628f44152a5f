//! HaTen2: distributed Tucker and PARAFAC tensor decompositions.
//!
//! This crate is the Rust reproduction of the paper's contribution — the
//! four algorithm variants (Table II) for the two bottleneck operations of
//! tensor ALS, expressed as MapReduce jobs over [`haten2_mapreduce`]:
//!
//! | Variant | Ideas applied |
//! |---------|---------------|
//! | [`Variant::Naive`] | per-column n-mode vector products with vector broadcast (MET-style, Algorithms 3–4) |
//! | [`Variant::Dnn`]   | + decoupled multiply/add: `*̄ₙ` Hadamard + `Collapse` (Algorithms 5–6) |
//! | [`Variant::Drn`]   | + dependency removal: `CrossMerge` / `PairwiseMerge` (Lemmas 1–2, Algorithms 7–8) |
//! | [`Variant::Dri`]   | + job integration: `IMHP` fuses all Hadamard products into one job (Algorithms 9–10) |
//!
//! The two decompositions share the framework: [`tucker::project`] computes
//! `Y ← X ×₂ Bᵀ ×₃ Cᵀ` (generalized to any target mode) and
//! [`parafac::mttkrp`] computes `Y ← X₍ₙ₎ (⊙ other factors)`; under DRI both
//! run `IMHP` followed by their merge (`CrossMerge` vs `PairwiseMerge`).
//! On top sit the ALS drivers [`als::parafac_als`] (Algorithm 1) and
//! [`als::tucker_als`] (Algorithm 2). The three DRI kernels and the two ALS
//! loops are written for any tensor order; [`nway`] is the order-generic
//! front over them.
//!
//! Every distributed operation is tested for exact agreement with the
//! single-machine reference implementations in `haten2_tensor::ops`.

#![forbid(unsafe_code)]
// A `for` loop over a `HashMap` or `HashSet` visits keys in hash order; the
// method forms of that iteration are banned in `clippy.toml`.
#![warn(clippy::iter_over_hash_type)]

pub mod als;
pub mod canon;
pub mod checkpoint;
pub mod compress;
pub mod missing;
pub mod nonneg;
pub mod nway;
pub mod ops;
pub mod parafac;
pub mod plan;
pub mod records;
pub mod store;
pub mod tucker;

pub use als::{
    parafac_als, parafac_als_with_init, tucker_als, tucker_als_with_init, AlsOptions,
    ParafacResult, TuckerResult,
};
pub use checkpoint::{
    load_parafac, load_sweep_marker, load_tucker, parafac_als_checkpointed, resume_parafac,
    resume_tucker, save_parafac, save_parafac_state, save_tucker, save_tucker_state,
    tucker_als_checkpointed,
};
pub use compress::parafac_via_compression;
pub use missing::{parafac_missing, MissingParafacResult};
pub use nonneg::{nonneg_parafac, NonnegParafacResult};
pub use plan::{comm_for, env_for, plan_for, CommSpec, Decomp};
pub use records::Ix4;
pub use store::{
    load_factor, load_parafac_state, load_tensor, load_tucker_state, persist_factor,
    persist_parafac_state, persist_tensor, persist_tucker_state,
};

/// Which HaTen2 variant executes an operation (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Straightforward MET-style port: one n-mode vector product per factor
    /// column, broadcasting the vector to every fiber.
    Naive,
    /// Decoupling the steps: n-mode vector Hadamard product + Collapse.
    Dnn,
    /// + Removing dependencies: CrossMerge / PairwiseMerge.
    Drn,
    /// + Integrating jobs (IMHP). This is "HaTen2" proper.
    Dri,
}

impl Variant {
    /// All variants in the paper's presentation order.
    pub const ALL: [Variant; 4] = [Variant::Naive, Variant::Dnn, Variant::Drn, Variant::Dri];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Naive => "HaTen2-Naive",
            Variant::Dnn => "HaTen2-DNN",
            Variant::Drn => "HaTen2-DRN",
            Variant::Dri => "HaTen2-DRI",
        }
    }

    /// Which of the paper's three ideas the variant applies, as
    /// (decoupling, dependency-removal, job-integration) — Table II.
    pub fn ideas(&self) -> (bool, bool, bool) {
        match self {
            Variant::Naive => (false, false, false),
            Variant::Dnn => (true, false, false),
            Variant::Drn => (true, true, false),
            Variant::Dri => (true, true, true),
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from HaTen2 algorithms.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// The MapReduce substrate failed (out of memory, capacity, task loss).
    MapReduce(haten2_mapreduce::MrError),
    /// Tensor-level failure (shape/index).
    Tensor(haten2_tensor::TensorError),
    /// Driver-side linear algebra failure.
    Linalg(haten2_linalg::LinalgError),
    /// Invalid decomposition parameters.
    InvalidArgument(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::MapReduce(e) => write!(f, "mapreduce: {e}"),
            CoreError::Tensor(e) => write!(f, "tensor: {e}"),
            CoreError::Linalg(e) => write!(f, "linalg: {e}"),
            CoreError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<haten2_mapreduce::MrError> for CoreError {
    fn from(e: haten2_mapreduce::MrError) -> Self {
        CoreError::MapReduce(e)
    }
}
impl From<haten2_tensor::TensorError> for CoreError {
    fn from(e: haten2_tensor::TensorError) -> Self {
        CoreError::Tensor(e)
    }
}
impl From<haten2_linalg::LinalgError> for CoreError {
    fn from(e: haten2_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl CoreError {
    /// True when the failure is a (simulated) resource exhaustion — the
    /// "o.o.m." outcome in the paper's figures.
    pub fn is_oom(&self) -> bool {
        matches!(
            self,
            CoreError::MapReduce(
                haten2_mapreduce::MrError::ReducerOom { .. }
                    | haten2_mapreduce::MrError::ClusterCapacityExceeded { .. }
            )
        )
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;
