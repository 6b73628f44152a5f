//! The known-bad corpus of the UDF-purity scan: one fixture per rule, each
//! tripping its rule exactly once — so a rule that stops firing (or starts
//! double-reporting) fails here, not in review.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_srcscan::{scan_udf_purity, PURITY_RULES};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

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
    let purity_covered: Vec<&str> = PURITY_FIXTURES.iter().map(|(_, r)| *r).collect();
    for (id, _) in PURITY_RULES {
        assert!(
            purity_covered.contains(id),
            "purity rule '{id}' has no known-bad fixture"
        );
    }
    for (file, _) in PURITY_FIXTURES {
        assert!(fixture(file).exists(), "missing fixture {file}");
    }
    // One file per rule, so a deleted rule cannot leave its fixture behind.
    let rules = PURITY_RULES.len();
    assert_eq!(std::fs::read_dir(fixture("")).unwrap().count(), rules);
}
