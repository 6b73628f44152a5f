//! Deliberately malformed plans, for demonstrating (and regression-testing)
//! that the analyzer rejects them with diagnostics naming the offending
//! job or dataset. The `--reject-demo` CLI flag runs these;
//! `README.md` walks through the first one.

use crate::{analyze_graph, cost::paper_claim, cost::regime_envs, Violation};
use haten2_core::{plan_for, Decomp, Variant};
use haten2_mapreduce::{JobGraph, PlanJob, SymExpr};

/// One rejection scenario: a malformed plan plus the violation the
/// analyzer must produce for it.
pub struct Rejection {
    /// Human-readable description of the injected defect.
    pub defect: &'static str,
    /// The (possibly corrupted) graph.
    pub graph: JobGraph,
    /// The offending job or dataset some diagnostic must name.
    pub must_name: &'static str,
    /// Predicate: does this violation list constitute a correct rejection?
    pub matches: fn(&[Violation]) -> bool,
}

/// The demo scenarios, each a one-edit corruption of a real registered
/// pipeline.
pub fn rejections() -> Vec<Rejection> {
    let mut out = Vec::new();

    // 1. Dangling read: the DRI merge consumes a dataset nobody produces.
    let mut g = plan_for(Decomp::Tucker, Variant::Dri);
    g.name = "tucker-dri(mis-wired)".to_string();
    g.jobs[1].reads = vec!["t_typo".to_string(), "t_dprime".to_string()];
    out.push(Rejection {
        defect: "crossmerge reads 't_typo', which no job writes",
        graph: g,
        must_name: "tucker-dri-crossmerge",
        matches: |v| {
            v.iter().any(|v| {
                matches!(v, Violation::DanglingRead { job, dataset }
                    if job == "tucker-dri-crossmerge" && dataset == "t_typo")
            })
        },
    });

    // 2. Lost write: an extra job clobbers T' before the merge reads it.
    let mut g = plan_for(Decomp::Tucker, Variant::Dri);
    g.name = "tucker-dri(rogue-refresh)".to_string();
    g.jobs.insert(
        1,
        PlanJob::new("rogue-refresh")
            .reads(["x"])
            .writes(["t_prime"])
            .emits(SymExpr::nnz(), SymExpr::c(58) * SymExpr::nnz()),
    );
    out.push(Rejection {
        defect: "'rogue-refresh' overwrites 't_prime' while the IMHP output is still unread",
        graph: g,
        must_name: "rogue-refresh",
        matches: |v| {
            v.iter().any(|v| {
                matches!(v, Violation::LostWrite { job, dataset, prior_job }
                    if job == "rogue-refresh"
                        && dataset == "t_prime"
                        && prior_job == "tucker-dri-imhp")
            })
        },
    });

    // 3. Extra job producing a dataset nothing consumes — and inflating the
    //    job count past the paper's "2 jobs" claim for DRI.
    let mut g = plan_for(Decomp::Parafac, Variant::Dri).job(
        PlanJob::new("rogue-scan")
            .reads(["y"])
            .writes(["scratch"])
            .emits(SymExpr::nnz(), SymExpr::c(49) * SymExpr::nnz()),
    );
    g.name = "parafac-dri(rogue-scan)".to_string();
    out.push(Rejection {
        defect: "extra job 'rogue-scan' writes unread 'scratch' and breaks the 2-job claim",
        graph: g,
        must_name: "rogue-scan",
        matches: |v| {
            let unused = v.iter().any(|v| {
                matches!(v, Violation::UnusedDataset { job, dataset }
                    if job == "rogue-scan" && dataset == "scratch")
            });
            let count = v
                .iter()
                .any(|v| matches!(v, Violation::JobCountMismatch { .. }));
            unused && count
        },
    });

    out
}

/// Run every demo scenario through the full analyzer (dataflow + cost).
/// Returns, per scenario, the violations produced and whether they
/// constitute a correct rejection.
pub fn run_rejections() -> Vec<(Rejection, Vec<Violation>, bool)> {
    let envs = regime_envs();
    rejections()
        .into_iter()
        .map(|r| {
            // Every demo corrupts a DRI pipeline, so hold it to the DRI row.
            let decomp = if r.graph.name.starts_with("tucker") {
                Decomp::Tucker
            } else {
                Decomp::Parafac
            };
            let claim = paper_claim(decomp, Variant::Dri);
            let v = analyze_graph(&r.graph, &claim, &envs);
            let ok = (r.matches)(&v) && v.iter().any(|x| format!("{x}").contains(r.must_name));
            (r, v, ok)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_demo_plan_is_rejected_naming_the_offender() {
        let results = run_rejections();
        assert_eq!(results.len(), 3);
        for (r, violations, ok) in results {
            assert!(ok, "{}: got {violations:?}", r.defect);
            assert!(
                violations
                    .iter()
                    .any(|v| format!("{v}").contains(r.must_name)),
                "{}: no diagnostic names '{}': {violations:?}",
                r.defect,
                r.must_name
            );
        }
    }
}
