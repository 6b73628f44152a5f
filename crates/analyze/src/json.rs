//! Machine-readable analyzer output (`haten2-analyze --format json`).
//!
//! Hand-rolled serialization — the workspace vendors no serde — with a
//! deliberately stable schema so CI and the chaos cross-validator can
//! consume verdicts without parsing markdown:
//!
//! ```json
//! {
//!   "ok": true,
//!   "envs_checked": 288,
//!   "rows": [ {"graph": "...", "verdict": "verified", ...}, ... ],
//!   "races": [ {"graph": "...", "certified": true, ...}, ... ],
//!   "comm": [ {"graph": "...", "shuffle": "...", "bound": "...", ...}, ... ],
//!   "determinism": {"ok": true, "files_scanned": 13, "violations": []},
//!   "violations": [ {"pass": "...", "kind": "...", ...}, ... ]
//! }
//! ```
//!
//! Every violation is **one object** with a `pass` (which analyzer pass
//! produced it), a `kind` (the [`Violation`] variant name in kebab-case),
//! its variant fields, and a `display` with the human diagnostic. Fields
//! are emitted in a fixed order; additions are append-only.

use crate::report::Report;
use crate::Violation;
use haten2_mapreduce::Env;
use std::fmt::Write as _;

/// Escape `s` for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn env_json(e: &Env) -> String {
    format!(
        "{{\"nnz\":{},\"dim_i\":{},\"dim_j\":{},\"dim_k\":{},\"rank_q\":{},\"rank_r\":{},\"machines\":{},\"reducer_memory\":{}}}",
        e.nnz, e.dim_i, e.dim_j, e.dim_k, e.rank_q, e.rank_r, e.machines, e.reducer_memory
    )
}

/// Which pass a violation belongs to, for the `pass` field.
fn pass_of(v: &Violation) -> &'static str {
    match v {
        Violation::DanglingRead { .. }
        | Violation::LostWrite { .. }
        | Violation::UnusedDataset { .. } => "dataflow",
        Violation::CostMismatch { .. }
        | Violation::JobCountMismatch { .. }
        | Violation::TensorReadMismatch { .. } => "cost",
        Violation::NondeterministicUdf { .. } | Violation::AnnotationMismatch { .. } => {
            "determinism"
        }
        Violation::UndeclaredEffect { .. }
        | Violation::UnorderedConflict { .. }
        | Violation::OverDeclaredRead { .. } => "races",
        Violation::ShuffleMismatch { .. } | Violation::CommBoundExceeded { .. } => "comm",
    }
}

/// One violation as a single JSON object (the stable unit of the schema).
pub fn violation_json(v: &Violation) -> String {
    let pass = pass_of(v);
    let body = match v {
        Violation::DanglingRead { job, dataset } => format!(
            "\"kind\":\"dangling-read\",\"job\":\"{}\",\"dataset\":\"{}\"",
            esc(job),
            esc(dataset)
        ),
        Violation::LostWrite {
            job,
            dataset,
            prior_job,
        } => format!(
            "\"kind\":\"lost-write\",\"job\":\"{}\",\"dataset\":\"{}\",\"prior_job\":\"{}\"",
            esc(job),
            esc(dataset),
            esc(prior_job)
        ),
        Violation::UnusedDataset { job, dataset } => format!(
            "\"kind\":\"unused-dataset\",\"job\":\"{}\",\"dataset\":\"{}\"",
            esc(job),
            esc(dataset)
        ),
        Violation::CostMismatch {
            graph,
            derived,
            claimed,
            env,
            derived_val,
            claimed_val,
        } => format!(
            "\"kind\":\"cost-mismatch\",\"graph\":\"{}\",\"derived\":\"{}\",\"claimed\":\"{}\",\"env\":{},\"derived_val\":{},\"claimed_val\":{}",
            esc(graph), esc(derived), esc(claimed), env_json(env), derived_val, claimed_val
        ),
        Violation::JobCountMismatch {
            graph,
            derived,
            claimed,
            env,
            derived_val,
            claimed_val,
        } => format!(
            "\"kind\":\"job-count-mismatch\",\"graph\":\"{}\",\"derived\":\"{}\",\"claimed\":\"{}\",\"env\":{},\"derived_val\":{},\"claimed_val\":{}",
            esc(graph), esc(derived), esc(claimed), env_json(env), derived_val, claimed_val
        ),
        Violation::TensorReadMismatch {
            graph,
            derived,
            claimed,
            env,
            derived_val,
            claimed_val,
        } => format!(
            "\"kind\":\"tensor-read-mismatch\",\"graph\":\"{}\",\"derived\":\"{}\",\"claimed\":\"{}\",\"env\":{},\"derived_val\":{},\"claimed_val\":{}",
            esc(graph), esc(derived), esc(claimed), env_json(env), derived_val, claimed_val
        ),
        Violation::NondeterministicUdf {
            file,
            line,
            rule,
            site,
            message,
        } => format!(
            "\"kind\":\"nondeterministic-udf\",\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"site\":\"{}\",\"message\":\"{}\"",
            esc(file), line, esc(rule), esc(site), esc(message)
        ),
        Violation::AnnotationMismatch {
            graph,
            job,
            op,
            detail,
        } => format!(
            "\"kind\":\"annotation-mismatch\",\"graph\":\"{}\",\"job\":\"{}\",\"op\":\"{}\",\"detail\":\"{}\"",
            esc(graph), esc(job), esc(op), esc(detail)
        ),
        Violation::UndeclaredEffect { site, job, dataset } => format!(
            "\"kind\":\"undeclared-effect\",\"site\":\"{}\",\"job\":\"{}\",\"dataset\":\"{}\"",
            esc(site),
            esc(job),
            esc(dataset)
        ),
        Violation::UnorderedConflict {
            scope,
            job_a,
            job_b,
            dataset,
        } => format!(
            "\"kind\":\"unordered-conflict\",\"scope\":\"{}\",\"job_a\":\"{}\",\"job_b\":\"{}\",\"dataset\":\"{}\"",
            esc(scope), esc(job_a), esc(job_b), esc(dataset)
        ),
        Violation::OverDeclaredRead { site, job, dataset } => format!(
            "\"kind\":\"over-declared-read\",\"site\":\"{}\",\"job\":\"{}\",\"dataset\":\"{}\"",
            esc(site),
            esc(job),
            esc(dataset)
        ),
        Violation::ShuffleMismatch {
            graph,
            derived,
            claimed,
            env,
            derived_val,
            claimed_val,
        } => format!(
            "\"kind\":\"shuffle-mismatch\",\"graph\":\"{}\",\"derived\":\"{}\",\"claimed\":\"{}\",\"env\":{},\"derived_val\":{},\"claimed_val\":{}",
            esc(graph), esc(derived), esc(claimed), env_json(env), derived_val, claimed_val
        ),
        Violation::CommBoundExceeded {
            graph,
            shuffle,
            bound,
            env,
            shuffle_val,
            bound_val,
        } => format!(
            "\"kind\":\"comm-bound-exceeded\",\"graph\":\"{}\",\"shuffle\":\"{}\",\"bound\":\"{}\",\"env\":{},\"shuffle_val\":{},\"bound_val\":{}",
            esc(graph), esc(shuffle), esc(bound), env_json(env), shuffle_val, bound_val
        ),
    };
    format!(
        "{{\"pass\":\"{pass}\",{body},\"display\":\"{}\"}}",
        esc(&v.to_string())
    )
}

/// The full analyzer verdict as one JSON document.
pub fn full_json(report: &Report) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(out, "\"ok\":{},", report.ok());
    let _ = write!(out, "\"envs_checked\":{},", report.envs_checked);

    out.push_str("\"rows\":[");
    for (i, r) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let verdict = if r.violations.is_empty() {
            "verified"
        } else {
            "violated"
        };
        let _ = write!(
            out,
            "{{\"graph\":\"{}\",\"decomp\":\"{}\",\"variant\":\"{}\",\"max_intermediate\":\"{}\",\"total_jobs\":\"{}\",\"tensor_reads\":\"{}\",\"dominant_job\":\"{}\",\"verdict\":\"{}\"}}",
            esc(&r.graph),
            esc(&r.decomp.to_string()),
            esc(&r.variant.to_string()),
            esc(&r.claim.max_intermediate.to_string()),
            esc(&r.claim.total_jobs.to_string()),
            esc(&r.claim.tensor_reads.to_string()),
            esc(&r.dominant_job),
            verdict
        );
    }
    out.push_str("],");

    out.push_str("\"races\":[");
    for (i, r) in report.rows.iter().enumerate() {
        let c = &r.races;
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"graph\":\"{}\",\"certified\":{},\"jobs_checked\":{}}}",
            esc(&c.graph),
            c.certified(),
            c.jobs_checked
        );
    }
    out.push_str("],");

    out.push_str("\"comm\":[");
    for (i, c) in report.comm.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"graph\":\"{}\",\"shuffle\":\"{}\",\"bound_indep\":\"{}\",\"bound_dep\":\"{}\",\"bound\":\"{}\",\"gap_at_witness\":{},\"gap_bounded_in_nnz\":{},\"exact\":{}}}",
            esc(&c.graph),
            esc(&c.shuffle.to_string()),
            esc(&c.bound_indep.to_string()),
            esc(&c.bound_dep.to_string()),
            esc(&c.bound.to_string()),
            c.gap_at_witness,
            !c.gap_unbounded_in_nnz,
            c.exact
        );
    }
    out.push_str("],");

    let det = &report.determinism;
    let _ = write!(
        out,
        "\"determinism\":{{\"ok\":{},\"files_scanned\":{},\"reducers_seen\":{}}},",
        det.ok(),
        det.files_scanned,
        det.reducers.len()
    );

    out.push_str("\"violations\":[");
    for (i, v) in report.violations().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&violation_json(v));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_objects_are_wellformed() {
        let v = Violation::DanglingRead {
            job: "merge \"job\"".to_string(),
            dataset: "t_typo".to_string(),
        };
        let j = violation_json(&v);
        assert!(j.starts_with("{\"pass\":\"dataflow\""));
        assert!(j.contains("\"kind\":\"dangling-read\""));
        assert!(j.contains("\\\"job\\\""), "quotes escaped: {j}");
        assert!(j.ends_with('}'));
    }

    #[test]
    fn race_violation_objects_carry_pair_and_dataset() {
        // The races pass emits one object per finding; an unordered
        // conflict must name both jobs of the racing pair and the
        // dataset, mirroring the runtime's two-job PlanViolation and
        // DuplicateWrite messages.
        let v = Violation::UnorderedConflict {
            scope: "parafac-naive".to_string(),
            job_a: "parafac-naive-xb1".to_string(),
            job_b: "parafac-naive-tc1".to_string(),
            dataset: "t#1".to_string(),
        };
        let j = violation_json(&v);
        assert!(j.starts_with("{\"pass\":\"races\""));
        assert!(j.contains("\"kind\":\"unordered-conflict\""));
        assert!(j.contains("\"job_a\":\"parafac-naive-xb1\""));
        assert!(j.contains("\"job_b\":\"parafac-naive-tc1\""));
        assert!(j.contains("\"dataset\":\"t#1\""));
        for v in [
            Violation::UndeclaredEffect {
                site: "core/src/ops.rs:10".to_string(),
                job: "a".to_string(),
                dataset: "d#0".to_string(),
            },
            Violation::OverDeclaredRead {
                site: "core/src/ops.rs:11".to_string(),
                job: "b".to_string(),
                dataset: "d".to_string(),
            },
        ] {
            let j = violation_json(&v);
            assert!(j.starts_with("{\"pass\":\"races\""), "{j}");
            assert!(j.contains("\"site\":"), "{j}");
            assert!(j.contains("\"display\":"), "{j}");
        }
    }

    #[test]
    fn comm_violation_objects_carry_expressions_and_envs() {
        // The comm pass's objects follow the same shape as the
        // cost pass: symbolic expressions as strings, the counterexample
        // env inline, concrete values as numbers — and the `kind` field
        // always equals `Violation::kind()`.
        let env = crate::comm::witness_env();
        let vs = [
            Violation::ShuffleMismatch {
                graph: "g".to_string(),
                derived: "57·nnz".to_string(),
                claimed: "56·nnz".to_string(),
                env,
                derived_val: 57,
                claimed_val: 56,
            },
            Violation::CommBoundExceeded {
                graph: "g".to_string(),
                shuffle: "nnz".to_string(),
                bound: "max(25·nnz, nnz·(Q + R)·8 / Mr)".to_string(),
                env,
                shuffle_val: 1,
                bound_val: 25,
            },
        ];
        for v in &vs {
            let j = violation_json(v);
            assert!(
                j.contains(&format!("\"kind\":\"{}\"", v.kind())),
                "kind mismatch: {j}"
            );
            assert!(j.contains("\"display\":"), "{j}");
        }
        assert!(violation_json(&vs[0]).starts_with("{\"pass\":\"comm\""));
        assert!(violation_json(&vs[1]).contains("\"reducer_memory\":"));
    }

    #[test]
    fn comm_section_covers_every_pipeline_with_full_schema() {
        // Mirrors the races-section coverage test: one object per
        // pipeline, every schema key present.
        let report = crate::verify_paper_table();
        let doc = full_json(&report);
        assert!(doc.contains("\"comm\":["));
        assert_eq!(doc.matches("\"bound_indep\":").count(), report.comm.len());
        assert_eq!(report.comm.len(), 8);
        for c in &report.comm {
            for key in [
                "graph",
                "shuffle",
                "bound_indep",
                "bound_dep",
                "bound",
                "gap_at_witness",
                "gap_bounded_in_nnz",
                "exact",
            ] {
                assert!(
                    doc.contains(&format!("\"{key}\":")),
                    "comm schema key {key} missing"
                );
            }
            assert!(
                doc.contains(&format!("{{\"graph\":\"{}\",\"shuffle\":", c.graph)),
                "no comm object for {}",
                c.graph
            );
        }
        assert!(doc.contains("\"certified\":true"));
    }

    #[test]
    fn escaping_handles_control_chars() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn full_document_round_trips_the_clean_tree() {
        let doc = full_json(&crate::verify_paper_table());
        assert!(
            doc.starts_with("{\"ok\":true"),
            "{}",
            &doc[..60.min(doc.len())]
        );
        assert!(doc.contains("\"races\":["));
        assert!(doc.contains("\"violations\":[]"));
        // Balanced braces/brackets outside strings = structurally sound.
        let (mut depth, mut in_str, mut escp) = (0i64, false, false);
        for c in doc.chars() {
            if escp {
                escp = false;
                continue;
            }
            match c {
                '\\' if in_str => escp = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
