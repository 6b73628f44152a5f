//! Rewrite certification: plan transforms that must preserve meaning and
//! communication budgets.
//!
//! An optimizer that rewrites a [`JobGraph`] (splitting a hot reducer,
//! fusing jobs, re-sharding a merge) can silently break everything the
//! other passes certified: dataset wiring, race-freedom under the
//! declared-dependency scheduler, and the communication volume the
//! [`crate::comm`] pass holds to its lower bound. This module makes
//! rewrites *certifiable*: a [`PlanRewrite`] transforms a graph **and
//! declares** its worst-case shuffle inflation; [`certify_rewrite`] then
//! re-checks the output from scratch —
//!
//! 1. **dataflow sanity** — the rewritten graph goes back through
//!    [`crate::dataflow::check_dataflow`]; any wiring defect (dangling
//!    read, lost write, unused dataset) rejects the rewrite;
//! 2. **race-freedom** — the rewritten graph is expanded into
//!    per-instance [`EffectModel`]s ([`plan_models`]) and run through the
//!    same pairwise rules and adversarial serializability replay as
//!    [`crate::races`];
//! 3. **volume non-inflation** — the rewritten graph's
//!    [`JobGraph::shuffle_bytes`] must stay within the rewrite's declared
//!    factor of the original on every regime environment, so a "heavy
//!    key" mitigation cannot smuggle in an asymptotic communication
//!    regression.
//!
//! The first real instance is [`HeavyKeySplit`] — the classic two-phase
//! aggregation for skewed reduce keys: the pipeline's final merge job is
//! split into `M` map-side partial-combine jobs (each shuffling `1/M` of
//! the records into a partial output shard) followed by a cheap merge of
//! the `M` partials. Two seeded mutants ([`run_rewrite_rejections`])
//! prove the certifier has teeth: a split that forgets the combine step
//! (inflating volume `M`-fold) and a split whose merge reads a typo'd
//! dataset are both rejected by name.

use crate::races::serializability_check;
use crate::{dataflow, Violation};
use haten2_mapreduce::rewrite::heavy_key_split_target;
use haten2_mapreduce::{Env, JobGraph};
use haten2_srcscan::effects::{check_model, EffectModel};

/// The rewrite rules this pass can fire, with rationale — the fixture
/// corpus in `crates/xtask/tests/fixtures/` carries one known-bad plan
/// per rule.
pub const REWRITE_RULES: &[(&str, &str)] = &[
    (
        "rewrite-volume-inflation",
        "a rewrite's output graph must keep total shuffle volume within the factor the \
         rewrite declares, on every regime environment",
    ),
    (
        "rewrite-dataflow-broken",
        "a rewrite's output graph must re-pass dataflow and race certification from \
         scratch — a transform that breaks wiring or ordering is rejected whole",
    ),
];

/// A certifiable plan transform: produces a rewritten graph and declares
/// the worst-case shuffle inflation the transform is allowed to cost.
pub trait PlanRewrite {
    /// Stable rewrite name (what a rejection reports).
    fn name(&self) -> &str;

    /// Declared worst-case shuffle inflation as a rational `(num, den)`:
    /// the certifier enforces
    /// `rewritten_bytes · den ≤ original_bytes · num` everywhere.
    fn declared_inflation(&self) -> (u64, u64);

    /// Transform the graph. Must not mutate the input.
    fn apply(&self, graph: &JobGraph) -> JobGraph;
}

/// Certificate for one rewrite applied to one graph.
#[derive(Debug, Clone)]
pub struct RewriteCert {
    /// Rewrite name.
    pub rewrite: String,
    /// Original graph name.
    pub graph: String,
    /// The rewritten graph (kept so a certified rewrite can be executed
    /// or inspected).
    pub rewritten: JobGraph,
    /// Declared inflation factor, rendered `num/den`.
    pub declared: String,
    /// Everything the re-check found (empty = certified).
    pub violations: Vec<Violation>,
}

impl RewriteCert {
    /// Certified: dataflow-sane, race-free, and within the declared
    /// volume factor.
    pub fn certified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The batch program `graph` expands to at `env`: one effect model per job
/// instance, in submission order, with exactly the `(name, reads, writes)`
/// the pipelines' submitter declares for it ([`JobGraph::expand`]). The
/// declarations stand for the effects too: the submitter hands a job the
/// shards its declared reads name and nothing else.
pub fn plan_models(graph: &JobGraph, env: &Env) -> Vec<EffectModel> {
    graph
        .expand(env)
        .into_iter()
        .map(|inst| EffectModel {
            name: inst.name,
            declared_reads: inst.reads.clone(),
            declared_writes: inst.writes.clone(),
            inferred_reads: inst.reads,
            inferred_writes: inst.writes,
        })
        .collect()
}

/// Re-check a rewrite's output graph from scratch: dataflow sanity,
/// race-freedom of the expanded instances, and shuffle-volume
/// non-inflation beyond the declared factor over `envs`.
pub fn certify_rewrite(rewrite: &dyn PlanRewrite, graph: &JobGraph, envs: &[Env]) -> RewriteCert {
    let rewritten = rewrite.apply(graph);
    let (num, den) = rewrite.declared_inflation();
    let declared = format!("{num}/{den}");
    let mut violations = Vec::new();

    // 1. Dataflow sanity of the rewritten wiring. One typo usually trips
    //    several wiring rules (the dangling read *and* the orphaned
    //    write); they describe one defect, so they aggregate into one
    //    rejection.
    let wiring: Vec<String> = dataflow::check_dataflow(&rewritten)
        .iter()
        .map(|v| v.to_string())
        .collect();
    if !wiring.is_empty() {
        violations.push(Violation::RewriteDataflowBroken {
            rewrite: rewrite.name().to_string(),
            graph: graph.name.clone(),
            cause: wiring.join("; "),
        });
    }

    // 2. Race-freedom of the expanded instances: pairwise effect rules
    //    plus the adversarial serializability replay, at every env (the
    //    instance count, hence the conflict surface, varies with M/Q/R).
    if violations.is_empty() {
        for env in envs {
            let models = plan_models(&rewritten, env);
            let mut race_causes: Vec<String> = check_model(&models)
                .iter()
                .map(|f| {
                    format!(
                        "{} between '{}' and '{}' on dataset '{}'",
                        f.rule,
                        f.job,
                        f.other.clone().unwrap_or_default(),
                        f.dataset
                    )
                })
                .collect();
            if race_causes.is_empty() {
                if let Some(v) = serializability_check(&rewritten.name, &models) {
                    race_causes.push(v.to_string());
                }
            }
            if let Some(cause) = race_causes.into_iter().next() {
                violations.push(Violation::RewriteDataflowBroken {
                    rewrite: rewrite.name().to_string(),
                    graph: graph.name.clone(),
                    cause,
                });
                break;
            }
        }
    }

    // 3. Volume non-inflation: rewritten · den ≤ original · num.
    let orig = graph.shuffle_bytes();
    let new = rewritten.shuffle_bytes();
    if let Some(env) = envs.iter().find(|e| {
        new.eval(e).saturating_mul(u128::from(den)) > orig.eval(e).saturating_mul(u128::from(num))
    }) {
        violations.push(Violation::RewriteVolumeInflation {
            rewrite: rewrite.name().to_string(),
            graph: graph.name.clone(),
            declared: declared.clone(),
            env: *env,
            original_val: orig.eval(env),
            rewritten_val: new.eval(env),
        });
    }

    RewriteCert {
        rewrite: rewrite.name().to_string(),
        graph: graph.name.clone(),
        rewritten,
        declared,
        violations,
    }
}

// ---------------------------------------------------------------------------
// HeavyKeySplit: two-phase aggregation for a skewed final merge
// ---------------------------------------------------------------------------

/// Two-phase aggregation for a skewed final reduce: split the pipeline's
/// last job (the `CrossMerge`/`PairwiseMerge` that funnels every
/// intermediate record through one reducer key space) into `M` map-side
/// partial-combine jobs — each reading the same inputs but shuffling only
/// its `1/M` hash slice into a private `…_part#i` shard — followed by a
/// merge of the `M` pre-combined partials. Declared inflation 2/1: the
/// partials cross the shuffle a second time, nothing worse.
///
/// The rewrite is legal for exactly the merge jobs the plan marks
/// commutative-associative (`PlanJob::comm_assoc`): pre-combining slices
/// in any grouping must not change the reduced output.
///
/// The transform itself lives in
/// [`haten2_mapreduce::rewrite::heavy_key_split`] and is shared with the
/// runtime: `haten2_core::plan::run_pipeline` executes the *same*
/// rewritten graph this certifier checks (gated through
/// `haten2_core::certified_rewrite_for`), so the executed graph cannot
/// drift from the certified one.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeavyKeySplit;

impl PlanRewrite for HeavyKeySplit {
    fn name(&self) -> &str {
        "heavy-key-split"
    }

    fn declared_inflation(&self) -> (u64, u64) {
        (2, 1)
    }

    fn apply(&self, graph: &JobGraph) -> JobGraph {
        haten2_mapreduce::rewrite::heavy_key_split(graph)
    }
}

// ---------------------------------------------------------------------------
// Rejection demo: seeded broken rewrites
// ---------------------------------------------------------------------------

/// Mutant of [`HeavyKeySplit`] that forgets the map-side combine: every
/// split instance shuffles the *full* record stream, inflating total
/// volume `M`-fold while still declaring 2/1.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeavyKeySplitNoCombine;

impl PlanRewrite for HeavyKeySplitNoCombine {
    fn name(&self) -> &str {
        "heavy-key-split-no-combine"
    }

    fn declared_inflation(&self) -> (u64, u64) {
        (2, 1)
    }

    fn apply(&self, graph: &JobGraph) -> JobGraph {
        let mut out = HeavyKeySplit.apply(graph);
        let Some(at) = heavy_key_split_target(graph) else {
            return out;
        };
        // Restore the pre-split per-instance cost on the split job: M
        // instances each shuffling the whole stream.
        out.jobs[at].records = graph.jobs[at].records.clone();
        out.jobs[at].bytes = graph.jobs[at].bytes.clone();
        out
    }
}

/// Mutant of [`HeavyKeySplit`] whose merge job reads a typo'd partial
/// dataset: the split output is never consumed and the merge reads a
/// dataset nothing writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeavyKeySplitTypoMerge;

impl PlanRewrite for HeavyKeySplitTypoMerge {
    fn name(&self) -> &str {
        "heavy-key-split-typo-merge"
    }

    fn declared_inflation(&self) -> (u64, u64) {
        (2, 1)
    }

    fn apply(&self, graph: &JobGraph) -> JobGraph {
        let mut out = HeavyKeySplit.apply(graph);
        let Some(at) = heavy_key_split_target(graph) else {
            return out;
        };
        out.jobs[at + 1].reads = vec![format!("{}__parts", graph.jobs[at].writes[0])];
        out
    }
}

/// Look up a rewrite (real or seeded mutant) by its stable name — how
/// the `.plan` fixture corpus selects which transform to certify.
pub fn rewrite_by_name(name: &str) -> Option<Box<dyn PlanRewrite>> {
    match name {
        "heavy-key-split" => Some(Box::new(HeavyKeySplit)),
        "heavy-key-split-no-combine" => Some(Box::new(HeavyKeySplitNoCombine)),
        "heavy-key-split-typo-merge" => Some(Box::new(HeavyKeySplitTypoMerge)),
        _ => None,
    }
}

/// One deliberately broken rewrite and what its rejection must name.
pub struct RewriteRejection {
    /// What was broken.
    pub defect: &'static str,
    /// Rewrite name the rejection must carry.
    pub rewrite: &'static str,
    /// Rule the rejection must fire.
    pub rule: &'static str,
    /// Graph the rewrite was applied to.
    pub graph: String,
    /// What the certifier reported.
    pub violations: Vec<Violation>,
    /// Did the certifier reject the mutant naming rewrite and rule?
    pub rejected: bool,
}

/// Certify the real [`HeavyKeySplit`] on `graph` (must pass), then run
/// the two seeded mutants through the certifier; each must be rejected
/// naming the rewrite and firing its rule.
pub fn run_rewrite_rejections(graph: &JobGraph, envs: &[Env]) -> Vec<RewriteRejection> {
    let mut out = Vec::new();
    let good = certify_rewrite(&HeavyKeySplit, graph, envs);
    out.push(RewriteRejection {
        defect: "baseline: two-phase aggregation with map-side combine (must certify)",
        rewrite: "heavy-key-split",
        rule: "none",
        graph: graph.name.clone(),
        rejected: good.certified(),
        violations: good.violations,
    });
    for (defect, rewrite, rule, cert) in [
        (
            "split without map-side combine: M instances each shuffle the full stream",
            "heavy-key-split-no-combine",
            "rewrite-volume-inflation",
            certify_rewrite(&HeavyKeySplitNoCombine, graph, envs),
        ),
        (
            "merge reads a typo'd partial dataset nothing writes",
            "heavy-key-split-typo-merge",
            "rewrite-dataflow-broken",
            certify_rewrite(&HeavyKeySplitTypoMerge, graph, envs),
        ),
    ] {
        let rejected = cert.violations.iter().any(|v| {
            v.kind() == rule
                && matches!(
                    v,
                    Violation::RewriteVolumeInflation { rewrite: r, .. }
                    | Violation::RewriteDataflowBroken { rewrite: r, .. } if r == rewrite
                )
        });
        out.push(RewriteRejection {
            defect,
            rewrite,
            rule,
            graph: graph.name.clone(),
            violations: cert.violations,
            rejected,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::regime_envs;
    use haten2_core::{plan_for, Decomp, Variant};

    #[test]
    fn heavy_key_split_certifies_on_every_merge_pipeline() {
        let envs = regime_envs();
        for decomp in Decomp::ALL {
            for variant in [Variant::Drn, Variant::Dri] {
                let g = plan_for(decomp, variant);
                let cert = certify_rewrite(&HeavyKeySplit, &g, &envs);
                assert!(cert.certified(), "{}: {:?}", cert.graph, cert.violations);
                // The rewrite actually did something: one job became two.
                assert_eq!(cert.rewritten.jobs.len(), g.jobs.len() + 1);
            }
        }
    }

    #[test]
    fn every_runtime_certification_record_is_certified_here() {
        // The runtime's rewrite gate (haten2_core::CERTIFIED_REWRITES /
        // certified_rewrite_for) admits exactly the (graph, rewrite) pairs
        // in that table. Each such pair must actually certify under this
        // pass on every regime environment — otherwise the runtime could
        // submit a "certified" graph the analyzer would reject.
        let envs = regime_envs();
        for &(graph_name, rewrite_name) in haten2_core::CERTIFIED_REWRITES {
            let plan = Decomp::ALL
                .iter()
                .flat_map(|&d| Variant::ALL.iter().map(move |&v| plan_for(d, v)))
                .find(|g| g.name == graph_name)
                .unwrap_or_else(|| panic!("no pipeline plan named '{graph_name}'"));
            let rw = rewrite_by_name(rewrite_name)
                .unwrap_or_else(|| panic!("no rewrite named '{rewrite_name}'"));
            let cert = certify_rewrite(rw.as_ref(), &plan, &envs);
            assert!(
                cert.certified(),
                "{rewrite_name} on {graph_name}: {:?}",
                cert.violations
            );
            // The record is not vacuous: the rewrite transforms the graph.
            assert_eq!(cert.rewritten.jobs.len(), plan.jobs.len() + 1);
        }
    }

    #[test]
    fn split_preserves_outputs_and_splits_the_merge() {
        let g = plan_for(Decomp::Tucker, Variant::Dri);
        let rw = HeavyKeySplit.apply(&g);
        assert_eq!(rw.outputs, g.outputs);
        let names: Vec<&str> = rw.jobs.iter().map(|j| j.name.as_str()).collect();
        assert!(names.contains(&"tucker-dri-crossmerge-split{}"));
        assert!(names.contains(&"tucker-dri-crossmerge-mergeparts"));
        assert!(!names.contains(&"tucker-dri-crossmerge"));
    }

    #[test]
    fn rewrite_is_identity_when_no_target_exists() {
        // tucker-naive's final writer is a per-rank (count = R) job —
        // there is no single-instance comm-assoc merge to split.
        let g = plan_for(Decomp::Tucker, Variant::Naive);
        let rw = HeavyKeySplit.apply(&g);
        assert_eq!(rw.jobs.len(), g.jobs.len());
        // Identity rewrites certify trivially.
        let cert = certify_rewrite(&HeavyKeySplit, &g, &regime_envs());
        assert!(cert.certified());
    }

    #[test]
    fn both_mutants_are_rejected_by_name_and_rule() {
        let envs = regime_envs();
        let g = plan_for(Decomp::Tucker, Variant::Dri);
        let rejections = run_rewrite_rejections(&g, &envs);
        assert_eq!(rejections.len(), 3);
        for r in &rejections {
            assert!(
                r.rejected,
                "'{}' ({}) not handled as expected: {:?}",
                r.defect, r.rewrite, r.violations
            );
        }
    }

    #[test]
    fn volume_inflating_mutant_reports_concrete_byte_counts() {
        let envs = regime_envs();
        let g = plan_for(Decomp::Parafac, Variant::Dri);
        let cert = certify_rewrite(&HeavyKeySplitNoCombine, &g, &envs);
        let v = cert
            .violations
            .iter()
            .find(|v| v.kind() == "rewrite-volume-inflation")
            .expect("mutant must inflate");
        if let Violation::RewriteVolumeInflation {
            original_val,
            rewritten_val,
            declared,
            ..
        } = v
        {
            assert!(rewritten_val > &(2 * original_val));
            assert_eq!(declared, "2/1");
        }
    }

    #[test]
    fn plan_models_substitute_shards_per_instance() {
        let g = plan_for(Decomp::Tucker, Variant::Dri);
        let rw = HeavyKeySplit.apply(&g);
        let env = haten2_core::env_for([4, 5, 6], 20, 2, 3, 4);
        let models = plan_models(&rw, &env);
        // M = 4 split instances with concrete shards + the merge reading
        // every one of them.
        let splits: Vec<&EffectModel> = models
            .iter()
            .filter(|m| m.name.starts_with("tucker-dri-crossmerge-split"))
            .collect();
        assert_eq!(splits.len(), 4);
        assert_eq!(splits[0].declared_writes, ["y__part#0"]);
        let merge = models
            .iter()
            .find(|m| m.name == "tucker-dri-crossmerge-mergeparts")
            .unwrap();
        assert_eq!(merge.declared_reads, ["y__part"]);
        assert!(check_model(&models).is_empty());
    }
}
