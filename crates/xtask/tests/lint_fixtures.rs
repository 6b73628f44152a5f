//! The known-bad corpus: one fixture per lint, UDF-purity and plan rule,
//! each tripping its rule exactly once — so a rule that stops firing (or
//! starts double-reporting) fails here, not in review.

#![allow(clippy::unwrap_used)]

use haten2_srcscan::{scan_udf_purity, PURITY_RULES};
use std::path::PathBuf;
use xtask::{lint_file, RULES};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Fixtures exercised through the source linter (`lint_file`).
const LINT_FIXTURES: &[(&str, &str)] = &[
    ("no_raw_threads.rs", "no-raw-threads"),
    ("no_default_hasher.rs", "no-default-hasher"),
    ("no_unwrap.rs", "no-unwrap"),
    ("no_debug_macros.rs", "no-debug-macros"),
    ("shared_backoff.rs", "shared-backoff"),
    ("no_per_record_alloc.rs", "no-per-record-alloc"),
    ("no_direct_fs.rs", "no-direct-fs"),
    ("undocumented_unsafe.rs", "undocumented-unsafe"),
];

/// Fixtures exercised through the UDF-purity scanner.
const PURITY_FIXTURES: &[(&str, &str)] = &[
    ("no_unordered_iteration.rs", "no-unordered-iteration"),
    ("no_wall_clock.rs", "no-wall-clock"),
    ("no_thread_id.rs", "no-thread-id"),
    (
        "unannotated_float_reduction.rs",
        "unannotated-float-reduction",
    ),
];

/// `.plan` fixtures exercised through the communication pass
/// (`haten2_analyze::fixture`).
const PLAN_FIXTURES: &[(&str, &str)] = &[
    ("shuffle_mismatch.plan", "shuffle-mismatch"),
    ("comm_bound_exceeded.plan", "comm-bound-exceeded"),
];

#[test]
fn each_lint_fixture_fires_its_rule_exactly_once() {
    for (file, rule) in LINT_FIXTURES {
        let path = fixture(file);
        let mut findings = Vec::new();
        lint_file(&path, file, true, &mut findings);
        let fired: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert_eq!(
            findings.len(),
            1,
            "{file}: expected 1 finding, got {fired:?}"
        );
        assert_eq!(findings[0].rule, *rule, "{file}: fired {fired:?}");
    }
}

#[test]
fn each_purity_fixture_fires_its_rule_exactly_once() {
    for (file, rule) in PURITY_FIXTURES {
        let path = fixture(file);
        let raw = std::fs::read_to_string(&path).unwrap();
        // No site is commutative-associative here, so float folds must flag.
        let (findings, _) = scan_udf_purity(&path, &raw, &|_| false);
        let fired: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert_eq!(
            findings.len(),
            1,
            "{file}: expected 1 finding, got {fired:?}"
        );
        assert_eq!(findings[0].rule, *rule, "{file}: fired {fired:?}");
    }
}

#[test]
fn each_plan_fixture_fires_its_rule_exactly_once() {
    for (file, rule) in PLAN_FIXTURES {
        let path = fixture(file);
        let fx = haten2_analyze::load_plan_fixture(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            fx.expects,
            vec![rule.to_string()],
            "{file}: fixture's own 'expect' disagrees with the corpus table"
        );
        let violations = haten2_analyze::run_plan_fixture(&fx);
        let fired: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        assert_eq!(
            violations.len(),
            1,
            "{file}: expected 1 violation, got {fired:?}"
        );
        assert_eq!(violations[0].kind(), *rule, "{file}: fired {fired:?}");
    }
}

#[test]
fn purity_fixtures_go_quiet_when_the_site_is_annotated() {
    // The float-fold fixture is legal once the plan declares the reducer
    // commutative-associative — exactly the contract the generated
    // property tests then enforce.
    let path = fixture("unannotated_float_reduction.rs");
    let raw = std::fs::read_to_string(&path).unwrap();
    let (findings, reducers) = scan_udf_purity(&path, &raw, &|_| true);
    assert!(findings.is_empty(), "{findings:?}");
    assert!(reducers.iter().any(|r| r.has_float_reduction));
}

#[test]
fn every_rule_has_a_fixture() {
    let lint_covered: Vec<&str> = LINT_FIXTURES.iter().map(|(_, r)| *r).collect();
    for rule in RULES {
        assert!(
            lint_covered.contains(&rule.id),
            "lint rule '{}' has no known-bad fixture",
            rule.id
        );
    }
    assert!(lint_covered.contains(&"undocumented-unsafe"));
    let purity_covered: Vec<&str> = PURITY_FIXTURES.iter().map(|(_, r)| *r).collect();
    for (id, _) in PURITY_RULES {
        assert!(
            purity_covered.contains(id),
            "purity rule '{id}' has no known-bad fixture"
        );
    }
    let plan_covered: Vec<&str> = PLAN_FIXTURES.iter().map(|(_, r)| *r).collect();
    for (id, _) in haten2_analyze::COMM_RULES {
        assert!(
            plan_covered.contains(id),
            "communication rule '{id}' has no known-bad fixture"
        );
    }
    for (file, _) in LINT_FIXTURES
        .iter()
        .chain(PURITY_FIXTURES)
        .chain(PLAN_FIXTURES)
    {
        assert!(fixture(file).exists(), "missing fixture {file}");
    }
    // One file per rule (`undocumented-unsafe` is the one lint outside
    // `RULES`), so a deleted rule cannot leave its fixture behind.
    let rules = RULES.len() + 1 + PURITY_RULES.len() + haten2_analyze::COMM_RULES.len();
    assert_eq!(std::fs::read_dir(fixture("")).unwrap().count(), rules);
}
