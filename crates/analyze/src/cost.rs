//! Cost verification: hold each pipeline's *derived* bounds to the
//! paper's Tables III/IV.
//!
//! The analyzer derives three quantities from a registered [`JobGraph`] —
//! max per-job intermediate records, total job instances, and passes over
//! the big input tensor — as [`SymExpr`]s, and compares each against the
//! paper's claimed expression by **extensional equivalence over the paper
//! regime**: both expressions must evaluate identically on every
//! environment of [`regime_envs`]. That sidesteps symbolic normalization
//! (the derived bound is a `max` over per-job costs; the claim is its
//! closed dominant form, and the two coincide exactly when the regime's
//! dominance conditions hold, e.g. `nnz·(Q+R) ≥ 2·nnz + J + K` for DRI).

use crate::Violation;
use haten2_core::{Decomp, Variant};
use haten2_mapreduce::{Env, JobGraph, SymExpr};

/// One row of the paper's cost table (Table III for Tucker, Table IV for
/// PARAFAC), as symbolic expressions.
#[derive(Debug, Clone)]
pub struct PaperClaim {
    /// Claimed max intermediate data (records) of any single job.
    pub max_intermediate: SymExpr,
    /// Claimed total MapReduce jobs per invocation.
    pub total_jobs: SymExpr,
    /// Claimed passes over the big input tensor per invocation.
    pub tensor_reads: SymExpr,
    /// Correspondence note where our statement refines the paper's (e.g.
    /// orientation-free `nnz + max(J, K)` for the paper's `nnz + J`).
    pub note: Option<&'static str>,
}

fn n() -> SymExpr {
    SymExpr::nnz()
}
fn ijk() -> SymExpr {
    SymExpr::dim_i() * SymExpr::dim_j() * SymExpr::dim_k()
}
fn q() -> SymExpr {
    SymExpr::rank_q()
}
fn r() -> SymExpr {
    SymExpr::rank_r()
}
fn c(v: u64) -> SymExpr {
    SymExpr::c(v)
}

/// The paper's claimed bounds for one (decomposition × variant) pipeline.
pub fn paper_claim(decomp: Decomp, variant: Variant) -> PaperClaim {
    match (decomp, variant) {
        // Table III (Tucker), with Q = |B columns|, R = |C columns|.
        (Decomp::Tucker, Variant::Naive) => PaperClaim {
            max_intermediate: n() + ijk(),
            total_jobs: q() + r(),
            tensor_reads: q(),
            note: None,
        },
        (Decomp::Tucker, Variant::Dnn) => PaperClaim {
            max_intermediate: n() * q() * r(),
            total_jobs: q() + r() + c(2),
            tensor_reads: q(),
            note: None,
        },
        (Decomp::Tucker, Variant::Drn) => PaperClaim {
            max_intermediate: n() * (q() + r()),
            total_jobs: q() + r() + c(1),
            tensor_reads: q() + r(),
            note: Some("tensor reads split Q over X and R over bin(X)"),
        },
        (Decomp::Tucker, Variant::Dri) => PaperClaim {
            max_intermediate: n() * (q() + r()),
            total_jobs: c(2),
            tensor_reads: c(1),
            note: None,
        },
        // Table IV (PARAFAC), rank R.
        (Decomp::Parafac, Variant::Naive) => PaperClaim {
            max_intermediate: n() + ijk(),
            total_jobs: c(2) * r(),
            tensor_reads: r(),
            note: None,
        },
        (Decomp::Parafac, Variant::Dnn) => PaperClaim {
            max_intermediate: n() + SymExpr::max(SymExpr::dim_j(), SymExpr::dim_k()),
            total_jobs: c(4) * r(),
            tensor_reads: r(),
            note: Some("paper writes nnz + J under its J ≥ K orientation"),
        },
        (Decomp::Parafac, Variant::Drn) => PaperClaim {
            max_intermediate: c(2) * n() * r(),
            total_jobs: c(2) * r() + c(1),
            tensor_reads: c(2) * r(),
            note: Some("tensor reads split R over X and R over bin(X)"),
        },
        (Decomp::Parafac, Variant::Dri) => PaperClaim {
            max_intermediate: c(2) * n() * r(),
            total_jobs: c(2),
            tensor_reads: c(1),
            note: None,
        },
    }
}

/// The environment grid over which claimed and derived expressions must
/// coincide: the paper's operating regime, where the tensor is sparse but
/// its nonzero count dominates its dimensions (`nnz ≥ 5·max(I,J,K)`) and
/// ranks are small (`2 ≤ Q, R ≤ 10`). Dimension triples are deliberately
/// taken in *both* orientations (J < K and J > K) so orientation-dependent
/// claims cannot pass by accident. The per-reducer memory budget `Mr`
/// spans a small and a large setting (both ≥ the `8·max(Q, R)` floor the
/// communication bounds assume — a reducer must at least hold one factor
/// row), so memory-dependent bounds are exercised at both ends without
/// leaving the bounds' validity regime.
pub fn regime_envs() -> Vec<Env> {
    let dims: [[u64; 3]; 6] = [
        [300, 400, 500],
        [300, 500, 400],
        [500, 400, 300],
        [1000, 800, 600],
        [600, 800, 1000],
        [800, 1000, 600],
    ];
    let ranks: [u64; 4] = [2, 3, 5, 10];
    let nnzs: [u64; 3] = [5_000, 20_000, 100_000];
    let reducer_memories: [u64; 2] = [4 << 10, 1 << 20];
    let mut envs = Vec::new();
    for d in dims {
        for &rank_q in &ranks {
            for &rank_r in &ranks {
                for &nnz in &nnzs {
                    for &reducer_memory in &reducer_memories {
                        envs.push(Env {
                            nnz,
                            dim_i: d[0],
                            dim_j: d[1],
                            dim_k: d[2],
                            rank_q,
                            rank_r,
                            machines: 10,
                            reducer_memory,
                        });
                    }
                }
            }
        }
    }
    envs
}

fn mismatch_env(derived: &SymExpr, claimed: &SymExpr, envs: &[Env]) -> Option<Env> {
    envs.iter()
        .find(|e| derived.eval(e) != claimed.eval(e))
        .copied()
}

/// Check one graph against its paper row; returns every violation (empty =
/// the derived bounds match the table).
pub fn check_cost(graph: &JobGraph, claim: &PaperClaim, envs: &[Env]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let derived = graph.max_intermediate_records();
    if let Some(env) = mismatch_env(&derived, &claim.max_intermediate, envs) {
        violations.push(Violation::CostMismatch {
            graph: graph.name.clone(),
            derived: derived.to_string(),
            claimed: claim.max_intermediate.to_string(),
            derived_val: derived.eval(&env),
            claimed_val: claim.max_intermediate.eval(&env),
            env,
        });
    }
    let derived = graph.total_jobs();
    if let Some(env) = mismatch_env(&derived, &claim.total_jobs, envs) {
        violations.push(Violation::JobCountMismatch {
            graph: graph.name.clone(),
            derived: derived.to_string(),
            claimed: claim.total_jobs.to_string(),
            derived_val: derived.eval(&env),
            claimed_val: claim.total_jobs.eval(&env),
            env,
        });
    }
    let derived = graph.big_input_reads();
    if let Some(env) = mismatch_env(&derived, &claim.tensor_reads, envs) {
        violations.push(Violation::TensorReadMismatch {
            graph: graph.name.clone(),
            derived: derived.to_string(),
            claimed: claim.tensor_reads.to_string(),
            derived_val: derived.eval(&env),
            claimed_val: claim.tensor_reads.eval(&env),
            env,
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_core::plan_for;

    #[test]
    fn every_registered_pipeline_matches_its_paper_row() {
        let envs = regime_envs();
        for decomp in Decomp::ALL {
            for variant in Variant::ALL {
                let g = plan_for(decomp, variant);
                let v = check_cost(&g, &paper_claim(decomp, variant), &envs);
                assert!(v.is_empty(), "{decomp} {variant}: {v:?}");
            }
        }
    }

    #[test]
    fn wrong_claim_is_caught_with_counterexample() {
        let envs = regime_envs();
        let g = plan_for(Decomp::Tucker, Variant::Dri);
        // Claim the DNN bound for the DRI pipeline: nnz·Q·R ≠ nnz·(Q+R).
        let bogus = paper_claim(Decomp::Tucker, Variant::Dnn);
        let v = check_cost(&g, &bogus, &envs);
        assert!(v.iter().any(|v| matches!(
            v,
            Violation::CostMismatch { graph, derived_val, claimed_val, .. }
                if graph == "tucker-dri" && derived_val != claimed_val
        )));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::JobCountMismatch { .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::TensorReadMismatch { .. })));
    }

    #[test]
    fn regime_covers_both_orientations() {
        let envs = regime_envs();
        assert!(envs.iter().any(|e| e.dim_j < e.dim_k));
        assert!(envs.iter().any(|e| e.dim_j > e.dim_k));
        assert!(envs.len() > 100);
    }
}
