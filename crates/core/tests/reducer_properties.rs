//! Generated property tests for every reducer the plans declare
//! commutative-associative (`PlanJob::comm_assoc`, backed by
//! `COMM_ASSOC_REDUCERS`). The determinism pass allows these reducers to
//! fold floats *because* of that declaration, so each entry's fold is
//! property-checked here: over exactly-representable inputs it must be
//! invariant, bit-for-bit, under any permutation and any reassociation of
//! its value stream — precisely what Hadoop's unordered shuffle and
//! combiner splits can do to it.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::{comm_assoc_annotation, COMM_ASSOC_REDUCERS};
use proptest::prelude::*;

/// Integer-valued `f64`s: exact under addition as long as partial sums
/// stay far below 2^53, so reorderings that change *rounding* (the thing
/// the annotation rules out) cannot hide behind tolerance.
fn exact_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1_000_000i64..1_000_000, 0..40)
        .prop_map(|xs| xs.into_iter().map(|x| x as f64).collect())
}

/// Assert the registered fold at `site` is permutation- and
/// reassociation-invariant on `xs`, bit-exactly.
fn check_site(site: &str, xs: &[f64], cut: usize, rot: usize) {
    let ann = comm_assoc_annotation(site)
        .unwrap_or_else(|| panic!("site '{site}' missing from COMM_ASSOC_REDUCERS"));
    let reduce = ann.reduce;
    let base = reduce(xs);

    // Permutation: rotate then reverse — together these generate enough of
    // the symmetric group to catch order-dependent folds.
    let mut perm = xs.to_vec();
    if !perm.is_empty() {
        let r = rot % perm.len();
        perm.rotate_left(r);
    }
    perm.reverse();
    assert_eq!(
        base.to_bits(),
        reduce(&perm).to_bits(),
        "{site}: fold is order-dependent on {xs:?}"
    );

    // Reassociation: a combiner may pre-fold any prefix on the map side
    // and hand the reducer [fold(prefix), rest...].
    let c = cut.min(xs.len());
    let (a, b) = xs.split_at(c);
    let split = [reduce(a), reduce(b)];
    assert_eq!(
        base.to_bits(),
        reduce(&split).to_bits(),
        "{site}: fold is association-dependent on {xs:?} split at {c}"
    );
}

/// One generated property test per annotated reducer site. The
/// completeness test below pins this list to the registry, so adding an
/// annotation without a property test fails CI.
macro_rules! comm_assoc_properties {
    ($($name:ident => $site:expr),+ $(,)?) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            $(
                #[test]
                fn $name(xs in exact_values(), cut in 0usize..40, rot in 0usize..40) {
                    check_site($site, &xs, cut, rot);
                }
            )+
        }
        const GENERATED_SITES: &[&str] = &[$($site),+];
    };
}

comm_assoc_properties! {
    naive_ttv_fold_is_comm_assoc => "naive_ttv_job",
    collapse_fold_is_comm_assoc => "collapse_job",
    cross_merge_fold_is_comm_assoc => "cross_merge_job",
    pairwise_merge_fold_is_comm_assoc => "pairwise_merge_job",
    model_inner_product_fold_is_comm_assoc => "model_inner_product_job",
}

#[test]
fn every_registered_reducer_has_a_generated_test() {
    let mut registered: Vec<&str> = COMM_ASSOC_REDUCERS.iter().map(|a| a.site).collect();
    let mut generated: Vec<&str> = GENERATED_SITES.to_vec();
    registered.sort_unstable();
    generated.sort_unstable();
    assert_eq!(
        registered, generated,
        "COMM_ASSOC_REDUCERS and the generated property tests disagree"
    );
}

#[test]
fn negative_control_an_order_dependent_fold_fails_the_property() {
    // A fold that halves the accumulator before each add is neither
    // commutative nor associative; the harness must be able to tell.
    fn leaky(xs: &[f64]) -> f64 {
        let mut acc = 0.0;
        for x in xs {
            acc = acc * 0.5 + x;
        }
        acc
    }
    let xs = [1.0, 2.0];
    let mut rev = xs;
    rev.reverse();
    assert_ne!(leaky(&xs).to_bits(), leaky(&rev).to_bits());
}
