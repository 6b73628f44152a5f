//! Numerical truth for Tucker-ALS: every implementation in the repo, on a
//! tensor whose decomposition is known in closed form, against the planted
//! answer and against one another — not just against itself.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2::baseline::tucker_als_baseline;
use haten2::linalg::vecops::max_abs_diff;
use haten2::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Implementations agree on every factor and core entry to this, relative
/// to the largest entry.
const AGREE: f64 = 1e-9;
/// Distance from the planted answer, relative: the reconstruction
/// `G ×₁ A ×₂ B ×₃ C` from `X`, and the core's diagonal from the planted
/// weights.
const TRUTH: f64 = 1e-8;
/// The drivers report fit through `‖X‖² − ‖G‖²`, a difference of squares
/// that resolves a residual only to `√ε·‖X‖`; this is that floor, not a
/// second notion of truth.
const FIT_FLOOR: f64 = 1e-7;
const SWEEPS: usize = 3;
const SEED: u64 = 11;

/// The construction of the benchmark's `planted_tensor`
/// (`benchmark/src/workloads.rs`), restated: `r` disjoint dense rank-1
/// blocks of side `side`, block `c` holding `w_c · a_c ∘ b_c ∘ c_c` with
/// seeded unit vectors (entries in ±[0.5, 2)) and weights
/// `w_c = side^{3/2}·(1 − 0.005·c)`. Multilinear rank is exactly
/// `(r, r, r)` and every unfolding has exactly the singular values `w`.
///
/// Where the benchmark scatters the blocks, this interleaves them: index
/// `i < r·side` of every mode lies in block `(i + 1) mod r`, indices from
/// `r·side` up are empty. So row `j` of the true `u_j` is a structural
/// zero for every `j < r` — the input on which a sign convention that
/// reads that entry lets the engine and the baseline, whose projections
/// differ in the last bit, return opposite columns.
fn planted(dims: [u64; 3], r: usize, side: usize, seed: u64) -> (CooTensor3, Vec<f64>) {
    assert!(dims.iter().all(|&d| d as usize >= r * side));
    let mut rng = StdRng::seed_from_u64(seed);
    let vectors: Vec<Vec<Vec<f64>>> = (0..3)
        .map(|_| {
            (0..r)
                .map(|_| {
                    let v: Vec<f64> = (0..side)
                        .map(|_| {
                            let magnitude: f64 = rng.gen_range(0.5..2.0);
                            if rng.gen() {
                                magnitude
                            } else {
                                -magnitude
                            }
                        })
                        .collect();
                    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                    v.iter().map(|x| x / norm).collect()
                })
                .collect()
        })
        .collect();
    let scale = (side as f64).powf(1.5);
    let weights: Vec<f64> = (0..r).map(|c| scale * (1.0 - 0.005 * c as f64)).collect();
    // The n-th index of block c: (n·r + c − 1) mod r = c − 1, so it lies in
    // block c by the rule above.
    let at = |c: usize, n: usize| (n * r + (c + r - 1) % r) as u64;
    let mut entries = Vec::with_capacity(r * side * side * side);
    for (c, w) in weights.iter().enumerate() {
        for i in 0..side {
            for j in 0..side {
                for k in 0..side {
                    let v = w * vectors[0][c][i] * vectors[1][c][j] * vectors[2][c][k];
                    entries.push(Entry3::new(at(c, i), at(c, j), at(c, k), v));
                }
            }
        }
    }
    (CooTensor3::from_entries(dims, entries).unwrap(), weights)
}

/// What every Tucker implementation returns, in one shape.
struct Solution {
    name: String,
    fit: f64,
    factors: Vec<Mat>,
    core: DenseTensor3,
}

/// `SWEEPS` sweeps (tolerance 0, so none stops early) of the 3-way driver
/// under each variant, of the N-way driver at N = 3, and of the in-memory
/// baseline, all from [`SEED`].
fn solve_all(x: &CooTensor3, core_dims: [usize; 3]) -> Vec<Solution> {
    let cluster = Cluster::new(ClusterConfig::with_machines(4));
    let mut out: Vec<Solution> = Variant::ALL
        .iter()
        .map(|&variant| {
            let opts = AlsOptions {
                max_iters: SWEEPS,
                tol: 0.0,
                seed: SEED,
                ..AlsOptions::with_variant(variant)
            };
            let res = tucker_als(&cluster, x, core_dims, &opts).unwrap();
            Solution {
                name: format!("tucker_als {}", variant.name()),
                fit: res.fit,
                factors: res.factors.to_vec(),
                core: res.core,
            }
        })
        .collect();
    let nway = nway_tucker_als(
        &cluster,
        &DynTensor::from_coo3(x),
        &core_dims,
        SWEEPS,
        0.0,
        SEED,
    )
    .unwrap();
    let mut core = DenseTensor3::zeros(core_dims);
    for (idx, v) in nway.core.iter() {
        core.add_at(idx[0] as usize, idx[1] as usize, idx[2] as usize, v);
    }
    out.push(Solution {
        name: "nway_tucker_als".into(),
        fit: nway.fit,
        factors: nway.factors,
        core,
    });
    let base = tucker_als_baseline(x, core_dims, SWEEPS, 0.0, SEED, None).unwrap();
    out.push(Solution {
        name: "tucker_als_baseline".into(),
        fit: base.fit,
        factors: base.factors.to_vec(),
        core: base.core,
    });
    out
}

/// The solution reconstructs `x` and says so.
fn assert_exact(s: &Solution, x: &CooTensor3) {
    let [a, b, c] = &s.factors[..] else {
        panic!("{}: {} factors", s.name, s.factors.len());
    };
    let rebuilt = DenseTensor3::tucker_reconstruct(&s.core, a, b, c).unwrap();
    let dense = DenseTensor3::from_coo(x).unwrap();
    let residual = max_abs_diff(rebuilt.data(), dense.data());
    let scale = dense.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(
        residual <= TRUTH * scale,
        "{}: residual {residual:e} of {scale}",
        s.name
    );
    assert!(s.fit >= 1.0 - FIT_FLOOR, "{}: fit {}", s.name, s.fit);
}

/// Every solution equals the first, element for element.
fn assert_agree(solutions: &[Solution]) {
    let first = &solutions[0];
    let core_scale = first.core.data().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    for s in &solutions[1..] {
        for (mode, (f, g)) in first.factors.iter().zip(&s.factors).enumerate() {
            let d = max_abs_diff(f.data(), g.data());
            assert!(
                d <= AGREE,
                "{} vs {}: factor {mode} differs by {d:e}",
                first.name,
                s.name
            );
        }
        let d = max_abs_diff(first.core.data(), s.core.data());
        assert!(
            d <= AGREE * core_scale,
            "{} vs {}: core differs by {d:e} of {core_scale}",
            first.name,
            s.name
        );
    }
}

#[test]
fn every_tucker_implementation_finds_the_planted_decomposition() {
    let (r, side) = (4, 5);
    let (x, weights) = planted([24, 22, 20], r, side, 5);
    let solutions = solve_all(&x, [r; 3]);
    for s in &solutions {
        assert_exact(s, &x);
        // True singular vectors, in order, put the planted weights on the
        // core's diagonal; any other basis of the same subspaces does not.
        for (c, w) in weights.iter().enumerate() {
            let g = s.core.get(c, c, c).abs();
            assert!(
                (g - w).abs() <= TRUTH * weights[0],
                "{}: |G({c},{c},{c})| = {g}, planted {w}",
                s.name
            );
        }
        for f in &s.factors {
            assert!(f.gram().approx_eq(&Mat::identity(r), 1e-12), "{}", s.name);
        }
    }
    assert_agree(&solutions);
}

/// Inputs on which `Y₍ₙ₎` has fewer than `core_dims[n]` directions or
/// mostly empty rows, so the kernel's rank cutoff and basis completion run:
/// what they return is arbitrary, but it must be the *same* arbitrary in
/// the engine and in the baseline.
#[test]
fn degenerate_inputs_still_agree_across_implementations() {
    let (r, side) = (3, 4);
    // Core larger than the multilinear rank in every mode.
    let (x, _) = planted([14, 13, 12], r, side, 6);
    let solutions = solve_all(&x, [r + 2; 3]);
    solutions.iter().for_each(|s| assert_exact(s, &x));
    assert_agree(&solutions);

    // A mode of 400 indices of which 12 occur, and a core above the rank.
    let (x, _) = planted([400, 12, 12], r, side, 7);
    let solutions = solve_all(&x, [r + 1, r, r]);
    solutions.iter().for_each(|s| assert_exact(s, &x));
    assert_agree(&solutions);
}
