//! Experiment harness regenerating every table and figure of the HaTen2
//! paper's evaluation (§IV).
//!
//! Each experiment is a library function returning an [`ExpTable`] so that
//! the `haten2-exp` binary and the integration tests run the same code.
//! Scales are configurable: experiments default to a laptop-sized analogue
//! of the paper's cluster sweep (the scale mapping is documented per
//! experiment in `EXPERIMENTS.md`). Wall-clock performance is not measured
//! here: the repo's one perf harness is `benchmark/` (see `BENCHMARK.json`).
//!
//! | Paper item | Function |
//! |------------|----------|
//! | Fig. 1(a)  | [`experiments::fig1a_tucker_dims`] |
//! | Fig. 1(b)  | [`experiments::fig1b_tucker_density`] |
//! | Fig. 1(c)  | [`experiments::fig1c_tucker_core`] |
//! | Fig. 7(a)  | [`experiments::fig7a_parafac_dims`] |
//! | Fig. 7(b)  | [`experiments::fig7b_parafac_density`] |
//! | Fig. 7(c)  | [`experiments::fig7c_parafac_rank`] |
//! | Fig. 8     | [`experiments::fig8_machine_scalability`] |
//! | Table II   | [`experiments::table2_methods`] |
//! | Table III  | [`experiments::table3_tucker_costs`] |
//! | Table IV   | [`experiments::table4_parafac_costs`] |
//! | Table V    | [`experiments::table5_datasets`] |
//! | Table VI   | [`experiments::table6_parafac_concepts`] |
//! | Table VII  | [`experiments::table7_tucker_groups`] |
//! | Table VIII | [`experiments::table8_tucker_concepts`] |
//! | Lemma 3    | [`experiments::lemma3_nnz_estimate`] |

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use table::ExpTable;
