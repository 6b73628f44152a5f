//! Chaos smoke test: a small randomized sweep over all eight pipelines
//! must uphold the fault-transparency invariant and actually inject work.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_chaos::{run_chaos, ChaosOptions};

#[test]
fn all_eight_pipelines_are_fault_transparent() {
    let report = run_chaos(&ChaosOptions {
        seeds: 2,
        seed_base: 7,
    });
    // 2 decompositions × 4 variants × 2 seeds.
    assert_eq!(report.outcomes.len(), 16);
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "fault-transparency violations: {violations:?}"
    );
    // The invariant must not be vacuous: some schedule injected retries.
    assert!(
        report.total_retries() > 0,
        "no retries injected across 16 runs"
    );
    // Every pipeline label appears.
    for decomp in ["parafac", "tucker"] {
        for v in ["Naive", "DNN", "DRN", "DRI"] {
            let label = format!("{decomp}/HaTen2-{v}");
            assert!(
                report.outcomes.iter().any(|o| o.pipeline == label),
                "missing pipeline {label}"
            );
        }
    }
}
