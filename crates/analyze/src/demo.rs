//! The analyzer's known-bad plans, in one table: each a deliberately
//! defective plan, the claim it is held to, and the diagnostics the
//! analyzer must produce for it. The `--reject-demo` CLI flag runs every
//! row; `README.md` walks through the first one.

use crate::comm::{check_comm, shuffle_claim};
use crate::cost::{paper_claim, PaperClaim};
use crate::{analyze_graph, Violation};
use haten2_core::{comm_for, plan_for, CommSpec, Decomp, Variant};
use haten2_mapreduce::{Env, JobGraph, PlanJob, SymExpr};

/// The claim a known-bad plan is held to; it picks the passes that run.
pub enum Claim {
    /// A paper row (Tables III/IV): the dataflow and cost passes.
    Paper(PaperClaim),
    /// A closed-form shuffle volume and the spec whose lower bounds apply:
    /// the communication pass.
    Comm {
        /// The claimed total shuffle volume.
        shuffle: SymExpr,
        /// The spec the MTTKRP lower bounds are instantiated from.
        spec: CommSpec,
    },
}

/// One rejection scenario: a defective plan, the claim it is held to, and
/// what its rejection must report.
pub struct Rejection {
    /// Human-readable description of the injected defect.
    pub defect: &'static str,
    /// The (possibly corrupted) graph.
    pub graph: JobGraph,
    /// The claim the graph is held to.
    pub claim: Claim,
    /// The kinds of the violations the analyzer must report, in order, and
    /// no others.
    pub fires: &'static [&'static str],
    /// The offending job, dataset or graph some diagnostic must name.
    pub must_name: &'static str,
}

impl Rejection {
    /// Run the passes the claim selects over `envs`.
    pub fn run(&self, envs: &[Env]) -> Vec<Violation> {
        match &self.claim {
            Claim::Paper(claim) => analyze_graph(&self.graph, claim, envs),
            Claim::Comm { shuffle, spec } => check_comm(&self.graph, shuffle, spec, envs),
        }
    }

    /// Do `violations` reject the plan as the row demands: exactly the
    /// listed kinds, with some diagnostic naming the offender?
    pub fn rejected(&self, violations: &[Violation]) -> bool {
        violations
            .iter()
            .map(Violation::kind)
            .eq(self.fires.iter().copied())
            && violations
                .iter()
                .any(|v| v.to_string().contains(self.must_name))
    }
}

fn dri_claim(decomp: Decomp) -> Claim {
    Claim::Paper(paper_claim(decomp, Variant::Dri))
}

/// The rejection table: one-edit corruptions of the registered DRI
/// pipelines, held to their paper rows, and wrong communication
/// declarations, held to the Tucker-DRI bounds.
pub fn rejections() -> Vec<Rejection> {
    let mut out = Vec::new();

    // Dangling read: the DRI merge consumes a dataset nobody produces,
    // which also strands the IMHP output.
    let mut g = plan_for(Decomp::Tucker, Variant::Dri);
    g.name = "tucker-dri(mis-wired)".to_string();
    g.jobs[1].reads = vec!["t_typo".to_string(), "t_dprime".to_string()];
    out.push(Rejection {
        defect: "crossmerge reads 't_typo', which no job writes",
        graph: g,
        claim: dri_claim(Decomp::Tucker),
        fires: &["dangling-read", "unused-dataset"],
        must_name: "tucker-dri-crossmerge",
    });

    // Lost write: an extra pass over X clobbers T' before the merge reads
    // it.
    let mut g = plan_for(Decomp::Tucker, Variant::Dri);
    g.name = "tucker-dri(rogue-refresh)".to_string();
    g.jobs.insert(
        1,
        PlanJob::new("rogue-refresh")
            .op("imhp_job")
            .reads(["x"])
            .writes(["t_prime"])
            .emits(SymExpr::nnz(), SymExpr::c(58) * SymExpr::nnz()),
    );
    out.push(Rejection {
        defect: "'rogue-refresh' overwrites 't_prime' while the IMHP output is still unread",
        graph: g,
        claim: dri_claim(Decomp::Tucker),
        fires: &["lost-write", "job-count-mismatch", "tensor-read-mismatch"],
        must_name: "rogue-refresh",
    });

    // Extra job producing a dataset nothing consumes — and inflating the
    // job count past the paper's "2 jobs" claim for DRI.
    let mut g = plan_for(Decomp::Parafac, Variant::Dri).job(
        PlanJob::new("rogue-scan")
            .op("hadamard_vec_job")
            .reads(["y"])
            .writes(["scratch"])
            .emits(SymExpr::nnz(), SymExpr::c(49) * SymExpr::nnz()),
    );
    g.name = "parafac-dri(rogue-scan)".to_string();
    out.push(Rejection {
        defect: "extra job 'rogue-scan' writes unread 'scratch' and breaks the 2-job claim",
        graph: g,
        claim: dri_claim(Decomp::Parafac),
        fires: &["unused-dataset", "job-count-mismatch"],
        must_name: "rogue-scan",
    });

    // The merge emits every entry twice: the max intermediate data is no
    // longer the table's nnz·(Q + R).
    let mut g = plan_for(Decomp::Tucker, Variant::Dri);
    g.name = "tucker-dri(double-merge)".to_string();
    g.jobs[1].records = SymExpr::c(2) * g.jobs[1].records.clone();
    out.push(Rejection {
        defect: "crossmerge emits every entry twice, above the nnz·(Q + R) claim",
        graph: g,
        claim: dri_claim(Decomp::Tucker),
        fires: &["cost-mismatch"],
        must_name: "tucker-dri(double-merge)",
    });

    // The DRI pipeline claimed with the DRN closed form: job integration
    // is exactly what separates their shuffle volumes.
    out.push(Rejection {
        defect: "DRI pipeline claimed with the DRN closed form (pre-integration volume)",
        graph: plan_for(Decomp::Tucker, Variant::Dri),
        claim: Claim::Comm {
            shuffle: shuffle_claim(Decomp::Tucker, Variant::Drn),
            spec: comm_for(Decomp::Tucker, Variant::Dri),
        },
        fires: &["shuffle-mismatch"],
        must_name: "tucker-dri",
    });

    // A hand-written closed form that forgets the Q-fold repetition of the
    // expand stage, while staying above the nnz·w_min floor.
    let n = SymExpr::nnz;
    let g = JobGraph::new("forgotten-repeat", [])
        .big_input("x")
        .output("y")
        .job(
            PlanJob::new("expand{}")
                .repeat(SymExpr::rank_q())
                .reads(["x"])
                .writes(["t"])
                .emits(n(), SymExpr::c(57) * n()),
        )
        .job(
            PlanJob::new("merge")
                .reads(["t"])
                .writes(["y"])
                .emits(n(), SymExpr::c(49) * n()),
        );
    out.push(Rejection {
        defect: "closed form 57·nnz + 49·nnz drops the expand stage's Q-fold repeat",
        graph: g,
        claim: Claim::Comm {
            shuffle: SymExpr::c(57) * n() + SymExpr::c(49) * n(),
            spec: comm_for(Decomp::Tucker, Variant::Dri),
        },
        fires: &["shuffle-mismatch"],
        must_name: "forgotten-repeat",
    });

    // A plan declaring 1 shuffle byte per nonzero, below the nnz·w_min
    // floor any execution must pay; the claim matches the graph exactly.
    let g = JobGraph::new("under-declared-shuffle", [])
        .big_input("x")
        .output("y")
        .job(
            PlanJob::new("too-cheap")
                .reads(["x"])
                .writes(["y"])
                .emits(n(), n()),
        );
    out.push(Rejection {
        defect: "plan declares 1 shuffle byte per nonzero, below the nnz·w_min floor",
        claim: Claim::Comm {
            shuffle: g.shuffle_bytes(),
            spec: comm_for(Decomp::Tucker, Variant::Dri),
        },
        graph: g,
        fires: &["comm-bound-exceeded"],
        must_name: "under-declared-shuffle",
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::regime_envs;

    /// The plan-level violation kinds; each must have a row.
    const PLAN_KINDS: [&str; 8] = [
        "dangling-read",
        "lost-write",
        "unused-dataset",
        "cost-mismatch",
        "job-count-mismatch",
        "tensor-read-mismatch",
        "shuffle-mismatch",
        "comm-bound-exceeded",
    ];

    #[test]
    fn every_demo_plan_is_rejected_naming_the_offender() {
        let envs = regime_envs();
        for r in rejections() {
            let violations = r.run(&envs);
            assert!(
                r.rejected(&violations),
                "{}: want {:?} naming '{}', got {violations:?}",
                r.defect,
                r.fires,
                r.must_name
            );
            // Every counterexample environment really separates the two
            // sides.
            for v in &violations {
                match v {
                    Violation::CostMismatch {
                        derived_val,
                        claimed_val,
                        ..
                    }
                    | Violation::JobCountMismatch {
                        derived_val,
                        claimed_val,
                        ..
                    }
                    | Violation::TensorReadMismatch {
                        derived_val,
                        claimed_val,
                        ..
                    }
                    | Violation::ShuffleMismatch {
                        derived_val,
                        claimed_val,
                        ..
                    } => assert_ne!(derived_val, claimed_val, "{}: {v}", r.defect),
                    Violation::CommBoundExceeded {
                        shuffle_val,
                        bound_val,
                        ..
                    } => assert!(bound_val > shuffle_val, "{}: {v}", r.defect),
                    _ => {}
                }
            }
        }
    }

    fn row(graph: &str) -> Rejection {
        rejections()
            .into_iter()
            .find(|r| r.graph.name == graph)
            .unwrap_or_else(|| panic!("no demo row for '{graph}'"))
    }

    #[test]
    fn each_comm_row_fires_its_rule_exactly_once() {
        let envs = regime_envs();
        let rows: Vec<Rejection> = rejections()
            .into_iter()
            .filter(|r| matches!(r.claim, Claim::Comm { .. }))
            .collect();
        assert!(!rows.is_empty());
        for r in &rows {
            let violations = r.run(&envs);
            assert_eq!(violations.len(), 1, "{}: {violations:?}", r.defect);
            assert_eq!(r.fires, [violations[0].kind()], "{}", r.defect);
        }
    }

    #[test]
    fn forgotten_repeat_claim_fires_exactly_one_shuffle_mismatch() {
        let r = row("forgotten-repeat");
        let v = r.run(&regime_envs());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind(), "shuffle-mismatch");
    }

    /// A shuffle-mismatch row's only defect is its claim: held to the
    /// right volume, the graph passes.
    #[test]
    fn forgotten_repeat_graph_passes_under_its_own_volume() {
        let envs = regime_envs();
        let r = row("forgotten-repeat");
        assert_eq!(r.graph.jobs.len(), 2);
        let Claim::Comm { spec, .. } = &r.claim else {
            panic!("forgotten-repeat is not a communication row");
        };
        let n = SymExpr::nnz;
        let right = SymExpr::rank_q() * SymExpr::c(57) * n() + SymExpr::c(49) * n();
        let v = check_comm(&r.graph, &right, spec, &envs);
        assert!(v.is_empty(), "{v:?}");
        for r in rejections() {
            if let (Claim::Comm { spec, .. }, ["shuffle-mismatch"]) = (&r.claim, r.fires) {
                let own = check_comm(&r.graph, &r.graph.shuffle_bytes(), spec, &envs);
                assert!(own.is_empty(), "{}: {own:?}", r.defect);
            }
        }
    }

    #[test]
    fn every_plan_level_violation_kind_has_a_row() {
        let rows = rejections();
        for kind in PLAN_KINDS {
            assert!(
                rows.iter().any(|r| r.fires.contains(&kind)),
                "no rejection row fires '{kind}'"
            );
        }
    }
}
