//! `SymExpr` edge cases: deep nesting, saturation and overflow detection
//! near `u64::MAX`, and a proptest hunt for false positives in the
//! extensional-equivalence check the analyzer's cost pass relies on.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_mapreduce::{Env, SymExpr};
use proptest::prelude::*;

fn env(nnz: u64, dims: [u64; 3], q: u64, r: u64, machines: u64) -> Env {
    Env {
        nnz,
        dim_i: dims[0],
        dim_j: dims[1],
        dim_k: dims[2],
        rank_q: q,
        rank_r: r,
        machines,
        // Varies with the other knobs so `Mr`-dependent expressions are
        // distinguishable on the probe grid (coprime-ish, never zero).
        reducer_memory: 8 * (q + r) + nnz % 97,
    }
}

/// A small, deliberately diverse probe grid (coprime sizes, degenerate
/// ones, a huge row) — the shape of net the cost pass casts.
fn probe_grid() -> Vec<Env> {
    vec![
        env(1, [1, 1, 1], 1, 1, 1),
        env(2, [3, 5, 7], 2, 3, 1),
        env(97, [11, 13, 17], 5, 7, 2),
        env(1_000, [19, 23, 29], 4, 9, 3),
        env(1_000_000, [101, 103, 107], 6, 8, 1),
        env(5, [500, 1, 400], 1, 12, 4),
        env(1 << 40, [1 << 10, 1 << 11, 1 << 12], 16, 32, 2),
    ]
}

/// splitmix64 — deterministic pseudo-random stream for expression
/// generation (the proptest shim supplies the seeds).
fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random expression of bounded depth over seven variables (`nnz`, the
/// three dimensions, both ranks and `M`). Division-free: the
/// grid-equivalence net below is calibrated for the `(+, ·, max)` fragment
/// the cost pass uses; [`gen_expr_div`] adds `/` and the `Mr` atom for the
/// communication-pass fragment.
fn gen_expr(s: &mut u64, depth: usize) -> SymExpr {
    let roll = splitmix(s);
    if depth == 0 || roll.is_multiple_of(4) {
        match splitmix(s) % 8 {
            0 => SymExpr::c(splitmix(s) % 60),
            1 => SymExpr::nnz(),
            2 => SymExpr::dim_i(),
            3 => SymExpr::dim_j(),
            4 => SymExpr::dim_k(),
            5 => SymExpr::rank_q(),
            6 => SymExpr::rank_r(),
            _ => SymExpr::machines(),
        }
    } else {
        let a = gen_expr(s, depth - 1);
        let b = gen_expr(s, depth - 1);
        match roll % 3 {
            0 => a + b,
            1 => a * b,
            _ => SymExpr::max(a, b),
        }
    }
}

/// A random expression over all variables and all four operators,
/// division included — the fragment the communication pass's gap ratios
/// live in.
fn gen_expr_div(s: &mut u64, depth: usize) -> SymExpr {
    let roll = splitmix(s);
    if depth == 0 || roll.is_multiple_of(4) {
        match splitmix(s) % 9 {
            0 => SymExpr::c(splitmix(s) % 60),
            1 => SymExpr::nnz(),
            2 => SymExpr::dim_i(),
            3 => SymExpr::dim_j(),
            4 => SymExpr::dim_k(),
            5 => SymExpr::rank_q(),
            6 => SymExpr::rank_r(),
            7 => SymExpr::machines(),
            _ => SymExpr::reducer_memory(),
        }
    } else {
        let a = gen_expr_div(s, depth - 1);
        let b = gen_expr_div(s, depth - 1);
        match roll % 4 {
            0 => a + b,
            1 => a * b,
            2 => a / b,
            _ => SymExpr::max(a, b),
        }
    }
}

/// A random environment with values across several orders of magnitude.
fn gen_env(s: &mut u64) -> Env {
    let mut pick = |max: u64| 1 + splitmix(s) % max;
    let mut e = env(
        pick(1 << 34),
        [pick(4096), pick(4096), pick(4096)],
        pick(64),
        pick(64),
        pick(8),
    );
    e.reducer_memory = pick(1 << 24);
    e
}

#[test]
fn deep_left_nested_sum_evaluates_and_prints() {
    // A 2000-deep left fold: linear recursion in eval, eval_checked, and
    // Display must all survive it.
    let depth = 2000u64;
    let mut e = SymExpr::c(0);
    for _ in 0..depth {
        e = e + SymExpr::c(1);
    }
    let probe = env(1, [1, 1, 1], 1, 1, 1);
    assert_eq!(e.eval(&probe), depth as u128);
    assert_eq!(e.eval_checked(&probe), Some(depth as u128));
    let printed = e.to_string();
    assert!(printed.len() >= 2 * depth as usize - 1);
}

#[test]
fn deep_mul_chain_saturates_instead_of_wrapping() {
    // 2^1 multiplied 200 times = 2^200 > u128::MAX: eval must pin to the
    // ceiling, eval_checked must refuse.
    let mut e = SymExpr::c(2);
    for _ in 0..200 {
        e = e * SymExpr::c(2);
    }
    let probe = env(1, [1, 1, 1], 1, 1, 1);
    assert_eq!(e.eval(&probe), u128::MAX);
    assert_eq!(e.eval_checked(&probe), None);
}

#[test]
fn overflow_detection_near_u64_max() {
    let huge = env(u64::MAX, [u64::MAX, 1, 1], 1, 1, 1);
    // nnz² = (2^64 − 1)² < 2^128: still representable, both agree.
    let sq = SymExpr::nnz() * SymExpr::nnz();
    assert_eq!(sq.eval_checked(&huge), Some((u64::MAX as u128).pow(2)));
    assert_eq!(sq.eval(&huge), (u64::MAX as u128).pow(2));
    // nnz²·I overflows u128: saturating eval pins, checked eval refuses.
    let cube = sq.clone() * SymExpr::dim_i();
    assert_eq!(cube.eval(&huge), u128::MAX);
    assert_eq!(cube.eval_checked(&huge), None);
    // Addition at the brink: MAX + MAX fits in u128 comfortably.
    let sum = SymExpr::nnz() + SymExpr::nnz();
    assert_eq!(sum.eval_checked(&huge), Some(2 * u64::MAX as u128));
    // max() never overflows on its own.
    let m = SymExpr::max(sq, SymExpr::nnz());
    assert_eq!(m.eval_checked(&huge), Some((u64::MAX as u128).pow(2)));
}

#[test]
fn zero_denominator_saturates_and_checked_eval_refuses() {
    // machines = 0 in this env, so any ratio over `M` divides by zero:
    // the saturating eval pins to the ceiling (an unbounded gap compares
    // above everything), the checked eval refuses.
    let degenerate = env(1_000, [10, 10, 10], 2, 3, 0);
    let ratio = SymExpr::nnz() / SymExpr::machines();
    assert_eq!(ratio.eval(&degenerate), u128::MAX);
    assert_eq!(ratio.eval_checked(&degenerate), None);
    // Saturation keeps max() monotone: the unbounded ratio dominates.
    let m = SymExpr::max(ratio, SymExpr::nnz());
    assert_eq!(m.eval(&degenerate), u128::MAX);
    // A zero *numerator* is fine: 0 / x = 0.
    let zero_num = SymExpr::c(0) / SymExpr::nnz();
    assert_eq!(zero_num.eval(&degenerate), 0);
    assert_eq!(zero_num.eval_checked(&degenerate), Some(0));
}

#[test]
fn equiv_on_distinguishes_reducer_memory_ratios_on_the_grid() {
    let grid = probe_grid();
    // The memory-dependent bound shape of the communication pass.
    let bound = SymExpr::nnz() * SymExpr::rank_r() * SymExpr::c(8) / SymExpr::reducer_memory();
    // Halving the memory budget is NOT extensionally equal…
    let halved = SymExpr::nnz() * SymExpr::rank_r() * SymExpr::c(8)
        / (SymExpr::reducer_memory() * SymExpr::c(2));
    assert!(!bound.equiv_on(&halved, &grid));
    // …and dropping `Mr` entirely is caught too (the grid varies it).
    let constant_mem = SymExpr::nnz() * SymExpr::rank_r() * SymExpr::c(8) / SymExpr::c(1 << 20);
    assert!(!bound.equiv_on(&constant_mem, &grid));
    // Whereas a commuted but equal numerator passes.
    let commuted = SymExpr::rank_r() * SymExpr::nnz() * SymExpr::c(8) / SymExpr::reducer_memory();
    assert!(bound.equiv_on(&commuted, &grid));
}

#[test]
fn floor_division_is_left_associative_not_regroupable() {
    // (a / b) / c == a / (b·c) for positive integers, but a / (b / c)
    // differs — the probe grid must not call them equivalent.
    let a = SymExpr::nnz();
    let b = SymExpr::rank_q();
    let c = SymExpr::rank_r();
    let grid = probe_grid();
    let left = a.clone() / b.clone() / c.clone();
    let grouped = a.clone() / (b.clone() * c.clone());
    assert!(left.equiv_on(&grouped, &grid));
    let right = a / (b / c);
    assert!(!left.equiv_on(&right, &grid));
}

#[test]
fn saturated_comparisons_stay_monotone() {
    // Saturation maps "too big" to the top instead of wrapping past a
    // smaller value — the property the passes' bound comparisons rely on.
    let huge = env(u64::MAX, [u64::MAX, u64::MAX, 1], 1, 1, 1);
    let overflowing = SymExpr::nnz() * SymExpr::nnz() * SymExpr::dim_i();
    let small = SymExpr::nnz();
    assert!(overflowing.eval(&huge) >= small.eval(&huge));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// False-positive hunt: any pair of random expressions the probe grid
    /// calls equivalent must agree on a fresh stream of random
    /// environments too. A failure here means `equiv_on`'s sample is too
    /// weak a net for the cost pass.
    #[test]
    fn grid_equivalence_implies_agreement_on_random_envs(seed in any::<u64>()) {
        let mut s = seed;
        let a = gen_expr(&mut s, 3);
        let b = gen_expr(&mut s, 3);
        let grid = probe_grid();
        if a.equiv_on(&b, &grid) {
            for _ in 0..64 {
                let e = gen_env(&mut s);
                prop_assert_eq!(
                    a.eval(&e), b.eval(&e),
                    "grid-equivalent expressions diverge: {} vs {}", a, b
                );
            }
        }
    }

    /// Ground-truth algebraic identities must always pass the grid — the
    /// check may not produce false *negatives* on genuinely equal terms.
    #[test]
    fn algebraic_identities_are_equivalent_on_the_grid(seed in any::<u64>()) {
        let mut s = seed;
        let a = gen_expr(&mut s, 2);
        let b = gen_expr(&mut s, 2);
        let grid = probe_grid();
        prop_assert!((a.clone() + b.clone()).equiv_on(&(b.clone() + a.clone()), &grid));
        prop_assert!((a.clone() * b.clone()).equiv_on(&(b.clone() * a.clone()), &grid));
        prop_assert!(SymExpr::max(a.clone(), a.clone()).equiv_on(&a, &grid));
        prop_assert!(
            SymExpr::max(a.clone(), b.clone()).equiv_on(&SymExpr::max(b, a), &grid)
        );
    }

    /// Whenever the checked evaluator accepts an expression (no overflow,
    /// no zero denominator anywhere), the saturating evaluator must agree
    /// exactly — saturation only ever changes *rejected* evaluations.
    /// Exercised over the division-inclusive fragment.
    #[test]
    fn checked_eval_agrees_with_saturating_eval(seed in any::<u64>()) {
        let mut s = seed;
        let x = gen_expr_div(&mut s, 4);
        for _ in 0..32 {
            let e = gen_env(&mut s);
            if let Some(v) = x.eval_checked(&e) {
                prop_assert_eq!(v, x.eval(&e), "checked/saturating divergence on {}", x);
            }
        }
    }

    /// Division identities: `(a·b) / b = a` exactly (integers), and a
    /// quotient never exceeds its dividend for divisors ≥ 1 — the
    /// monotonicity gap ratios rely on. Guarded by the checked evaluator
    /// so saturation can't mask a wrap.
    #[test]
    fn quotient_identities_hold_without_saturation(seed in any::<u64>()) {
        let mut s = seed;
        let a = gen_expr(&mut s, 2);
        let b = gen_expr(&mut s, 2);
        let recover = (a.clone() * b.clone()) / b.clone();
        let quotient = a.clone() / b.clone();
        for _ in 0..16 {
            let e = gen_env(&mut s);
            let bv = b.eval_checked(&e);
            if bv.is_some_and(|v| v > 0) {
                if let (Some(rec), Some(av)) = (recover.eval_checked(&e), a.eval_checked(&e)) {
                    prop_assert_eq!(rec, av, "(a·b)/b ≠ a for a = {}, b = {}", a, b);
                    if let Some(qv) = quotient.eval_checked(&e) {
                        prop_assert!(qv <= av, "a/b > a for a = {}, b = {}", a, b);
                    }
                }
            }
        }
    }

    /// `Display` → `parse` round trip over the full fragment: the parsed
    /// expression evaluates identically everywhere probed (the property
    /// the analyzer's plan-fixture loader depends on).
    #[test]
    fn parse_round_trips_eval_on_random_expressions(seed in any::<u64>()) {
        let mut s = seed;
        let x = gen_expr_div(&mut s, 3);
        let text = x.to_string();
        let parsed = SymExpr::parse(&text);
        prop_assert!(parsed.is_some(), "Display output failed to parse: {}", text);
        if let Some(p) = parsed {
            for e in probe_grid() {
                prop_assert_eq!(p.eval(&e), x.eval(&e), "round trip diverges on {}", text);
            }
            for _ in 0..8 {
                let e = gen_env(&mut s);
                prop_assert_eq!(p.eval(&e), x.eval(&e), "round trip diverges on {}", text);
            }
        }
    }

    /// Distributivity holds exactly wherever nothing saturates.
    #[test]
    fn distributivity_holds_without_saturation(seed in any::<u64>()) {
        let mut s = seed;
        let a = gen_expr(&mut s, 2);
        let b = gen_expr(&mut s, 2);
        let c = gen_expr(&mut s, 2);
        let lhs = a.clone() * (b.clone() + c.clone());
        let rhs = a.clone() * b + a * c;
        for _ in 0..16 {
            let e = gen_env(&mut s);
            if let (Some(l), Some(r)) = (lhs.eval_checked(&e), rhs.eval_checked(&e)) {
                prop_assert_eq!(l, r);
            }
        }
    }
}
