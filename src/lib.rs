//! # HaTen2-rs — billion-scale tensor decompositions, reproduced in Rust
//!
//! A reproduction of *HaTen2: Billion-scale Tensor Decompositions* (Jeon,
//! Papalexakis, Kang, Faloutsos — ICDE 2015): scalable distributed Tucker
//! and PARAFAC decomposition on MapReduce, here executed on a hand-rolled,
//! metrics-exact MapReduce simulator.
//!
//! ## Quick start
//!
//! ```
//! use haten2::prelude::*;
//!
//! // A small sparse tensor (e.g. network logs: src-ip × dst-ip × port).
//! let x = CooTensor3::from_entries(
//!     [4, 4, 4],
//!     vec![
//!         Entry3::new(0, 1, 2, 1.0),
//!         Entry3::new(1, 2, 3, 2.0),
//!         Entry3::new(2, 0, 1, 1.5),
//!         Entry3::new(3, 3, 0, 0.5),
//!     ],
//! )
//! .unwrap();
//!
//! // A simulated 8-machine cluster.
//! let cluster = Cluster::new(ClusterConfig::with_machines(8));
//!
//! // Rank-2 PARAFAC with the full HaTen2 (DRI) algorithm.
//! let opts = AlsOptions::with_variant(Variant::Dri);
//! let result = parafac_als(&cluster, &x, 2, &opts).unwrap();
//!
//! assert_eq!(result.factors[0].rows(), 4);
//! assert!(result.fit() <= 1.0);
//! // Every MTTKRP took exactly 2 MapReduce jobs (Table IV, DRI row).
//! assert!(result.metrics.total_jobs() % 2 == 0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`haten2_linalg`]    | hand-rolled dense linear algebra (QR, Jacobi eigen, SVD, pinv, tall-skinny singular vectors) |
//! | [`haten2_tensor`]    | sparse COO tensors, reference tensor ops, matricization, I/O |
//! | [`haten2_mapreduce`] | the cluster-simulated MapReduce engine with intermediate-data accounting |
//! | [`haten2_core`]      | the HaTen2 algorithms: Naive/DNN/DRN/DRI kernels + ALS drivers + N-way |
//! | [`haten2_baseline`]  | single-machine MET-style comparator with memory budgets |
//! | [`haten2_data`]      | workload generators, KB synthesis, preprocessing, concept discovery |

#![forbid(unsafe_code)]

pub use haten2_baseline as baseline;
pub use haten2_core as core;
pub use haten2_data as data;
pub use haten2_linalg as linalg;
pub use haten2_mapreduce as mapreduce;
pub use haten2_tensor as tensor;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use haten2_core::als::{parafac_als, tucker_als, AlsOptions, ParafacResult, TuckerResult};
    pub use haten2_core::missing::parafac_missing;
    pub use haten2_core::nonneg::nonneg_parafac;
    pub use haten2_core::nway::{nway_mttkrp, nway_parafac_als, nway_tucker_als};
    pub use haten2_core::Variant;
    pub use haten2_data::kb::KnowledgeBase;
    pub use haten2_data::preprocess::{preprocess, PreprocessConfig};
    pub use haten2_data::random::{random_tensor, RandomTensorConfig};
    pub use haten2_linalg::Mat;
    pub use haten2_mapreduce::{Cluster, ClusterConfig};
    pub use haten2_tensor::{CooTensor3, DenseTensor3, DynTensor, Entry3};
}
