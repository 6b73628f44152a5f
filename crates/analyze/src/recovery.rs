//! Static recoverability: prove a plan survives `k` faults before any job
//! runs.
//!
//! The runtime fault subsystem (PR 3) recovers from dataset loss by
//! lineage re-derivation and from driver crashes by sweep checkpoints —
//! but until now only the randomized chaos sweeps *sampled* that this
//! works. This pass proves it from the plan alone. Given a [`JobGraph`],
//! the pipeline's declared [`RecoverySpec`] (which datasets carry lineage
//! recipes, what the checkpoint policy is), and a symbolic fault budget
//! `k` ([`Var::Faults`]), it certifies:
//!
//! 1. **Lineage closure** — every dataset any job reads is a durable
//!    driver input or has a covered producer chain rooted at durable
//!    inputs. A read outside that closure is
//!    [`Violation::UnrecoverableDataset`].
//! 2. **Bounded, cycle-free re-derivation** — the producer chain of every
//!    dataset is acyclic ([`Violation::LineageCycle`]) and no deeper than
//!    the runtime's recursion guard
//!    [`haten2_mapreduce::MAX_RECOVERY_DEPTH`]
//!    ([`Violation::RederivationTooDeep`]), so a recovery the static pass
//!    admits can never be aborted by the dynamic depth guard.
//! 3. **Checkpoint coverage** — when the spec declares an iterative
//!    driver, every completed ALS sweep must be covered by a checkpoint
//!    (`every == 1`), so a `kill_at_job` crash resumes without recomputing
//!    finished sweeps ([`Violation::CheckpointGap`]).
//! 4. **A symbolic worst-case recovery bound** — `k · max_ds chain(ds)`
//!    where `chain(ds)` conservatively re-derives `ds` and its whole
//!    producer chain; the report prints it next to the paper's job counts.

use crate::Violation;
use haten2_mapreduce::{dataset_base, JobGraph, RecoverySpec, SymExpr, MAX_RECOVERY_DEPTH};
use std::collections::BTreeMap;

/// The symbolic worst-case recovery cost of one certified plan.
#[derive(Debug, Clone)]
pub struct RecoveryBound {
    /// Records recomputed by the costliest single re-derivation chain: a
    /// symbolic `max` over every distinct chain, because which chain
    /// dominates depends on the sizing (chains cross as dims/ranks vary).
    pub per_fault_worst: SymExpr,
    /// Total worst-case recovery records under the fault budget:
    /// `k · per_fault_worst`.
    pub total: SymExpr,
    /// Deepest re-derivation chain any single loss can trigger (jobs
    /// re-run transitively). Always `≤` [`MAX_RECOVERY_DEPTH`] when the
    /// plan certifies.
    pub max_depth: usize,
}

/// Outcome of certifying one plan: violations (empty = certified) plus the
/// recovery bound derived for it.
#[derive(Debug, Clone)]
pub struct Certification {
    /// Graph the verdict is about.
    pub graph: String,
    /// Defects found; the plan is certified iff this is empty.
    pub violations: Vec<Violation>,
    /// Worst-case recovery bound (meaningful when certified).
    pub bound: RecoveryBound,
}

impl Certification {
    /// `true` when the plan is statically recoverable.
    pub fn certified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Chain state during the depth-first closure walk.
#[derive(Clone, Copy, PartialEq)]
enum Walk {
    InProgress,
    Done(usize),
}

/// Re-derivation depth of `ds`'s producer chain (1 for a dataset whose
/// producer reads only durable inputs), or an error naming the defect.
/// `None` depth in the memo marks "not a produced dataset". (The error is
/// boxed: `Violation` is wide and the happy path is a bare `usize`.)
fn chain_depth(
    graph: &JobGraph,
    spec: &RecoverySpec,
    ds: &str,
    memo: &mut BTreeMap<String, Walk>,
) -> Result<usize, Box<Violation>> {
    // Lineage is per dataset: losing any shard re-runs its producer.
    let ds = dataset_base(ds);
    if graph.is_input(ds) {
        return Ok(0);
    }
    match memo.get(ds) {
        Some(Walk::Done(d)) => return Ok(*d),
        Some(Walk::InProgress) => {
            return Err(Box::new(Violation::LineageCycle {
                graph: graph.name.clone(),
                dataset: ds.to_string(),
            }));
        }
        None => {}
    }
    let Some(producer) = graph.producer_job(ds) else {
        return Err(Box::new(Violation::UnrecoverableDataset {
            dataset: ds.to_string(),
            reader: String::new(),
            cause: "no producing job and not a driver input".to_string(),
        }));
    };
    if !spec.covered.contains(ds) {
        return Err(Box::new(Violation::UnrecoverableDataset {
            dataset: ds.to_string(),
            reader: producer.name.clone(),
            cause: "no lineage recipe registered for it".to_string(),
        }));
    }
    memo.insert(ds.to_string(), Walk::InProgress);
    let mut deepest = 0usize;
    for r in &producer.reads {
        deepest = deepest.max(chain_depth(graph, spec, r, memo)?);
    }
    let depth = deepest + 1;
    memo.insert(ds.to_string(), Walk::Done(depth));
    Ok(depth)
}

/// Symbolic records recomputed to re-derive `ds`: the producer's full
/// output (`count · records` — every instance of the template re-runs)
/// plus, conservatively, the chains of all its non-durable inputs. This
/// over-counts when two inputs share a chain prefix — deliberately: the
/// bound must hold for any loss interleaving, and the runtime's one-shot
/// recovery can itself cascade.
fn chain_cost(graph: &JobGraph, ds: &str) -> SymExpr {
    let Some(producer) = graph.producer_job(ds) else {
        return SymExpr::c(0);
    };
    // `1·records` reads as noise in the report, and single-instance
    // templates are the common case.
    let mut cost = match &producer.count {
        SymExpr::Const(1) => producer.records.clone(),
        c => c.clone() * producer.records.clone(),
    };
    for r in &producer.reads {
        if !graph.is_input(r) {
            cost = cost + chain_cost(graph, r);
        }
    }
    cost
}

/// Certify one plan under its declared recovery spec and the symbolic
/// fault budget `k`.
pub fn certify(graph: &JobGraph, spec: &RecoverySpec) -> Certification {
    let mut violations = Vec::new();
    let mut memo: BTreeMap<String, Walk> = BTreeMap::new();
    let mut max_depth = 0usize;
    // Distinct chain costs, deduplicated syntactically (the same dataset is
    // read by several jobs, and different datasets can share a cost shape).
    let mut chains: Vec<SymExpr> = Vec::new();
    let mut chain_shapes: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    for job in &graph.jobs {
        for ds in &job.reads {
            match chain_depth(graph, spec, ds, &mut memo) {
                Ok(depth) => {
                    max_depth = max_depth.max(depth);
                    if depth > MAX_RECOVERY_DEPTH {
                        let v = Violation::RederivationTooDeep {
                            dataset: ds.clone(),
                            depth,
                            bound: MAX_RECOVERY_DEPTH,
                        };
                        if !violations.contains(&v) {
                            violations.push(v);
                        }
                    }
                    if depth > 0 {
                        let cost = chain_cost(graph, ds);
                        if chain_shapes.insert(cost.to_string()) {
                            chains.push(cost);
                        }
                    }
                }
                Err(v) => {
                    let mut v = *v;
                    // Attribute the defect to the job whose read hits it.
                    if let Violation::UnrecoverableDataset { reader, .. } = &mut v {
                        *reader = job.name.clone();
                    }
                    if !violations.contains(&v) {
                        violations.push(v);
                    }
                }
            }
        }
    }

    // A final output is never read by a later job but can still be lost
    // before the driver consumes it; its re-derivation chain bounds
    // recovery the same way. Datasets some job reads were already walked
    // above (with better blame attribution), so only true outputs remain.
    let read_somewhere: std::collections::BTreeSet<&str> = graph
        .jobs
        .iter()
        .flat_map(|j| j.reads.iter().map(|r| dataset_base(r)))
        .collect();
    for ds in graph.produced_datasets() {
        if read_somewhere.contains(ds.as_str()) {
            continue;
        }
        match chain_depth(graph, spec, &ds, &mut memo) {
            Ok(depth) => {
                max_depth = max_depth.max(depth);
                if depth > MAX_RECOVERY_DEPTH {
                    let v = Violation::RederivationTooDeep {
                        dataset: ds.clone(),
                        depth,
                        bound: MAX_RECOVERY_DEPTH,
                    };
                    if !violations.contains(&v) {
                        violations.push(v);
                    }
                }
                if depth > 0 {
                    let cost = chain_cost(graph, &ds);
                    if chain_shapes.insert(cost.to_string()) {
                        chains.push(cost);
                    }
                }
            }
            Err(v) => {
                if !violations.contains(&*v) {
                    violations.push(*v);
                }
            }
        }
    }

    // Checkpoint coverage: an iterative driver must checkpoint every
    // completed sweep, or a crash in sweep s+1 recomputes sweep s.
    if let Some(cp) = &spec.checkpoint {
        if cp.every == 0 {
            violations.push(Violation::CheckpointGap {
                graph: graph.name.clone(),
                sweep: 1,
            });
        } else if let Some(gap) = (1..=cp.sweeps).find(|s| s % cp.every != 0) {
            violations.push(Violation::CheckpointGap {
                graph: graph.name.clone(),
                sweep: gap,
            });
        }
    }

    // No single chain is worst for every sizing — two chains cross as
    // dims/ranks vary — so the sound per-fault bound is the symbolic max
    // over all of them.
    let per_fault_worst = chains
        .into_iter()
        .reduce(SymExpr::max)
        .unwrap_or_else(|| SymExpr::c(0));
    let total = SymExpr::faults() * per_fault_worst.clone();
    Certification {
        graph: graph.name.clone(),
        violations,
        bound: RecoveryBound {
            per_fault_worst,
            total,
            max_depth,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_core::{plan_for, recovery_for, Decomp, Variant};
    use haten2_mapreduce::{Env, JobGraph, PlanJob};

    fn env() -> Env {
        Env {
            nnz: 1000,
            dim_i: 10,
            dim_j: 12,
            dim_k: 14,
            rank_q: 2,
            rank_r: 3,
            machines: 4,
            faults: 1,
            reducer_memory: 1 << 20,
        }
    }

    #[test]
    fn all_eight_pipelines_certify_under_single_fault_budget() {
        for decomp in Decomp::ALL {
            for variant in Variant::ALL {
                let g = plan_for(decomp, variant);
                let cert = certify(&g, &recovery_for(decomp, variant, 3));
                assert!(
                    cert.certified(),
                    "{decomp} {variant}: {:?}",
                    cert.violations
                );
                assert!(cert.bound.max_depth >= 1);
                assert!(cert.bound.max_depth <= haten2_mapreduce::MAX_RECOVERY_DEPTH);
                // Under one fault the bound is at least one full job re-run.
                assert!(cert.bound.total.eval(&env()) > 0);
            }
        }
    }

    #[test]
    fn lineage_gap_is_rejected_naming_the_dataset() {
        let g = plan_for(Decomp::Tucker, Variant::Dri);
        let mut spec = recovery_for(Decomp::Tucker, Variant::Dri, 0);
        spec.covered.remove("t_prime");
        let cert = certify(&g, &spec);
        assert!(!cert.certified());
        assert!(cert.violations.iter().any(|v| matches!(
            v,
            Violation::UnrecoverableDataset { dataset, .. } if dataset == "t_prime"
        )));
    }

    #[test]
    fn checkpoint_gap_is_rejected_naming_the_sweep() {
        let g = plan_for(Decomp::Parafac, Variant::Dri);
        let mut spec = recovery_for(Decomp::Parafac, Variant::Dri, 4);
        // Checkpoint only every 2nd sweep: sweep 1 is uncovered.
        spec.checkpoint = Some(haten2_mapreduce::CheckpointPolicy {
            every: 2,
            sweeps: 4,
        });
        let cert = certify(&g, &spec);
        assert!(cert.violations.iter().any(|v| matches!(
            v,
            Violation::CheckpointGap { sweep, .. } if *sweep == 1
        )));
    }

    #[test]
    fn cycle_is_detected() {
        // a reads b, b reads a — both covered, but the chain never roots.
        let g = JobGraph::new("cyclic", [])
            .job(PlanJob::new("mk-a").reads(["b"]).writes(["a"]))
            .job(PlanJob::new("mk-b").reads(["a"]).writes(["b"]));
        let spec = haten2_mapreduce::RecoverySpec::new().cover("a").cover("b");
        let cert = certify(&g, &spec);
        assert!(cert
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LineageCycle { .. })));
    }

    #[test]
    fn deep_chain_exceeding_runtime_guard_is_rejected() {
        let mut g = JobGraph::new("deep", ["d0"]);
        let mut spec = haten2_mapreduce::RecoverySpec::new();
        let depth = MAX_RECOVERY_DEPTH + 2;
        for i in 0..depth {
            let prev = format!("d{i}");
            let next = format!("d{}", i + 1);
            g = g.job(
                PlanJob::new(format!("step-{i}"))
                    .reads([prev.as_str()])
                    .writes([next.as_str()]),
            );
            spec = spec.cover(&next);
        }
        g = g.job(
            PlanJob::new("consume")
                .reads([format!("d{depth}").as_str()])
                .writes(["out"]),
        );
        spec = spec.cover("out");
        let cert = certify(&g, &spec);
        assert!(cert.violations.iter().any(|v| matches!(
            v,
            Violation::RederivationTooDeep { depth: d, bound, .. }
                if *d > *bound
        )));
    }

    #[test]
    fn bound_scales_linearly_in_fault_budget() {
        let g = plan_for(Decomp::Tucker, Variant::Drn);
        let cert = certify(&g, &recovery_for(Decomp::Tucker, Variant::Drn, 0));
        let e1 = env();
        let mut e3 = env();
        e3.faults = 3;
        assert_eq!(cert.bound.total.eval(&e3), 3 * cert.bound.total.eval(&e1));
    }
}
