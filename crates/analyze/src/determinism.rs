//! Determinism (UDF-purity) pass: certify that map/reduce closures cannot
//! produce different output under re-execution or reordering.
//!
//! Hadoop's fault tolerance silently *assumes* user-defined functions are
//! pure: a re-executed task must emit the same records, a reducer must
//! tolerate its values arriving in any order (speculative execution races
//! two attempts and keeps whichever finishes first). This pass makes the
//! assumption checkable:
//!
//! * **Source scan** — every closure passed to the engine's job runners
//!   (`run_job`, `run_job_streaming`, `run_job_collect`, `run_job_written`)
//!   in the `crates/core` pipelines is scanned by
//!   [`haten2_srcscan::scan_udf_purity`] for nondeterminism sources:
//!   unordered `HashMap`/`HashSet` iteration feeding emits, wall-clock
//!   reads, thread-id dependence, and float reductions not declared
//!   commutative-associative in the plan metadata. The scan finds closures
//!   by runner *name*, so a kernel calling a runner it does not know
//!   would leave it silently: the tests hold the sites it reports to
//!   every annotated reducer and every op a registered graph can run.
//! * **Plan consistency** — every [`haten2_mapreduce::PlanJob`] whose `op`
//!   appears in [`haten2_core::COMM_ASSOC_REDUCERS`] must carry the
//!   `comm_assoc` flag and vice versa, so the annotation the scanner
//!   trusts is exactly the one the generated property tests exercise.

use crate::Violation;
use haten2_core::{is_comm_assoc_site, plan_for, Decomp, Variant};
use haten2_mapreduce::JobGraph;
use haten2_srcscan::{rs_files, scan_udf_purity, workspace_root, ReducerSite};
use std::path::{Path, PathBuf};

/// Result of the determinism pass over the workspace sources.
#[derive(Debug)]
pub struct DeterminismReport {
    /// Purity violations found (empty = all scanned UDFs are pure).
    pub violations: Vec<Violation>,
    /// Every reducer site seen, for coverage reporting.
    pub reducers: Vec<ReducerSite>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl DeterminismReport {
    /// `true` when every target file was read, no scanned closure violates
    /// a purity rule, and the plan annotations are consistent with the
    /// registry.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The library sources whose job-runner closures the pass scans: every
/// `haten2-core` pipeline module.
fn scan_targets(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    rs_files(&root.join("crates/core/src"), &mut files);
    files.sort();
    files
}

/// Run the pass on the workspace rooted at `root`: scan its sources, then
/// check every registered graph's annotations. A target file that cannot
/// be read as UTF-8 text is a violation, not a skip.
pub fn scan_workspace(root: &Path) -> DeterminismReport {
    let mut violations = Vec::new();
    let mut reducers = Vec::new();
    let mut files_scanned = 0;
    for file in scan_targets(root) {
        let text = match std::fs::read_to_string(&file) {
            Ok(text) => text,
            Err(e) => {
                violations.push(Violation::UnreadableSource {
                    file: file.display().to_string(),
                    error: e.to_string(),
                });
                continue;
            }
        };
        files_scanned += 1;
        let (findings, mut sites) = scan_udf_purity(&file, &text, &is_comm_assoc_site);
        for f in findings {
            violations.push(Violation::NondeterministicUdf {
                file: f.file.display().to_string(),
                line: f.line,
                rule: f.rule.to_string(),
                site: f.site,
                message: f.message,
            });
        }
        reducers.append(&mut sites);
    }
    for decomp in Decomp::ALL {
        for variant in Variant::ALL {
            violations.extend(check_plan_consistency(&plan_for(decomp, variant)));
        }
    }
    DeterminismReport {
        violations,
        reducers,
        files_scanned,
    }
}

/// Run the full determinism pass from the current workspace.
pub fn check_determinism() -> DeterminismReport {
    scan_workspace(&workspace_root())
}

/// The plan-consistency half: `graph`'s `comm_assoc` flags must agree
/// with the annotation registry, in both directions.
pub fn check_plan_consistency(graph: &JobGraph) -> Vec<Violation> {
    let mut violations = Vec::new();
    for job in &graph.jobs {
        let mismatch = |op: &str, detail: &str| Violation::AnnotationMismatch {
            graph: graph.name.clone(),
            job: job.name.clone(),
            op: op.to_string(),
            detail: detail.to_string(),
        };
        let Some(op) = job.op.as_deref() else {
            violations.push(mismatch(
                "<none>",
                "job declares no reducer op; the determinism pass cannot match it \
                 against the registry",
            ));
            continue;
        };
        let registered = is_comm_assoc_site(op);
        if job.comm_assoc && !registered {
            violations.push(mismatch(
                op,
                "declared comm_assoc but the reducer registry has no entry (so no \
                 property test covers the claim)",
            ));
        }
        if !job.comm_assoc && registered {
            violations.push(mismatch(
                op,
                "registry declares the reducer comm-assoc but the plan does not flag \
                 the job",
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_core::COMM_ASSOC_REDUCERS;
    use std::collections::BTreeSet;

    #[test]
    fn real_pipelines_are_clean() {
        let report = check_determinism();
        assert!(
            report.ok(),
            "determinism violations on the real tree: {:#?}",
            report.violations
        );
        // The scan must actually see the pipelines (engine pipeline layer
        // + core modules): every annotated reducer, and every op a
        // registered graph can run. A kernel that moved to a runner the
        // scanner does not know shows up here as a missing site, not as a
        // clean report.
        assert!(report.files_scanned >= 5, "{} files", report.files_scanned);
        let mut expected: BTreeSet<String> = COMM_ASSOC_REDUCERS
            .iter()
            .map(|a| a.site.to_string())
            .collect();
        for decomp in Decomp::ALL {
            for variant in Variant::ALL {
                let graph = plan_for(decomp, variant);
                expected.extend(graph.jobs.into_iter().filter_map(|job| job.op));
            }
        }
        let seen: BTreeSet<String> = report.reducers.iter().map(|r| r.site.clone()).collect();
        let missing: Vec<&String> = expected.difference(&seen).collect();
        assert!(
            missing.is_empty(),
            "reducer sites the scan no longer sees: {missing:?} (seen: {seen:?})"
        );
        // A merge reduces at two calls: over shards its map tasks map, and
        // over the map output IMHP's reduce tasks wrote (`run_job_written`,
        // a runner without a mapper). Both reducers are scanned.
        for merge in ["cross_merge_job", "pairwise_merge_job"] {
            let calls = report.reducers.iter().filter(|r| r.site == merge).count();
            assert_eq!(calls, 2, "{merge}: reducer calls scanned");
        }
    }

    #[test]
    fn every_float_reducing_site_is_annotated() {
        let report = check_determinism();
        for r in &report.reducers {
            if r.has_float_reduction {
                assert!(
                    is_comm_assoc_site(&r.site),
                    "float-reducing site '{}' ({}:{}) lacks a comm-assoc annotation",
                    r.site,
                    r.file.display(),
                    r.line
                );
            }
        }
    }

    #[test]
    fn seeded_nondeterministic_reducer_is_flagged() {
        let src = r#"
fn seeded() {
    run_job(
        c,
        JobSpec::named("seeded-bad"),
        &input,
        |k, v, emit| emit(k, v),
        |k, vals, emit| {
            let mut acc: HashMap<u64, f64> = HashMap::new();
            for v in vals { *acc.entry(v).or_insert(0.0) += 1.0; }
            for (k2, v2) in acc { emit(k2, v2); }
        },
    );
}
"#;
        let (findings, _) =
            scan_udf_purity(std::path::Path::new("seeded.rs"), src, &is_comm_assoc_site);
        assert!(findings
            .iter()
            .any(|f| f.rule == "no-unordered-iteration" && f.site == "seeded-bad"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "unannotated-float-reduction"));
    }

    #[test]
    fn unreadable_source_fails_the_report_naming_the_file() {
        let root = std::env::temp_dir().join(format!("haten2-determinism-{}", std::process::id()));
        let src = root.join("crates/core/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("latin1.rs"), b"// caf\xe9\nfn f() {}\n").unwrap();
        let report = scan_workspace(&root);
        std::fs::remove_dir_all(&root).unwrap();
        assert!(!report.ok(), "a non-UTF-8 source passed the scan");
        assert_eq!(report.files_scanned, 0);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::UnreadableSource { file, .. } if file.ends_with("latin1.rs")
            )),
            "{:?}",
            report.violations
        );
    }
}
