//! `leading_left_singular_vectors` against planted spectra: `Y = U Σ Vᵀ`
//! built from seeded orthonormal `U`, `V` and a chosen `Σ`, so the right
//! answer is known to rounding and the kernel is scored against it — not
//! against another routine that shares its Gram matrix.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_linalg::vecops::norm2;
use haten2_linalg::{
    leading_left_singular_vectors, sym_eigen, thin_qr, LinOp, Mat, Result, SubspaceOptions,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;

const M: usize = 2000;
const N: usize = 25;
const P: usize = 5;

/// A named spectrum of length [`N`] and the number of vectors to ask for.
struct Spectrum {
    name: &'static str,
    sigma: Vec<f64>,
    p: usize,
}

impl Spectrum {
    fn new(name: &'static str, p: usize, sigma: impl Fn(usize) -> f64) -> Self {
        Spectrum {
            name,
            sigma: (0..N).map(sigma).collect(),
            p,
        }
    }

    fn rank(&self) -> usize {
        self.sigma.iter().filter(|&&s| s > 0.0).count()
    }
}

fn spectra() -> Vec<Spectrum> {
    let tail = |from: f64, i: usize| from * 0.9f64.powi((i - P) as i32);
    vec![
        Spectrum::new("separated", P, |i| {
            if i < P {
                0.5f64.powi(i as i32)
            } else {
                tail(0.5f64.powi(P as i32), i)
            }
        }),
        // Five values 0.5 % apart, σ₆ 1 % under σ₅: the blocked subspace
        // iteration this kernel replaced gained a factor 0.98 a step here,
        // hit its 200-iteration cap and returned a subspace 1.3·10⁻² off
        // (on this very input; 2.2·10⁻³ on the 8000-row probe) as `Ok`.
        Spectrum::new("clustered", P, |i| {
            if i < P {
                1.0 - 0.005 * i as f64
            } else {
                tail(0.99 * (1.0 - 0.005 * (P - 1) as f64), i)
            }
        }),
        Spectrum::new("geometric", P, |i| 0.9f64.powi(i as i32)),
        Spectrum::new("rank below p", P, |i| {
            if i < P - 2 {
                1.0 / (1.0 + i as f64)
            } else {
                0.0
            }
        }),
        Spectrum::new("p = n", N, |i| 1.0 / (1.0 + i as f64)),
    ]
}

/// `Y = U Σ Vᵀ` and its planted left vectors `U` (all [`N`] of them).
fn planted(sigma: &[f64], seed: u64) -> (Mat, Mat) {
    let mut rng = StdRng::seed_from_u64(seed);
    let u = thin_qr(&Mat::random(M, N, &mut rng)).unwrap();
    let v = thin_qr(&Mat::random(N, N, &mut rng)).unwrap();
    let mut us = u.clone();
    for i in 0..M {
        for (x, s) in us.row_mut(i).iter_mut().zip(sigma) {
            *x *= s;
        }
    }
    (us.matmul(&v.transpose()).unwrap(), u)
}

fn leading_columns(a: &Mat, k: usize) -> Mat {
    let mut out = Mat::zeros(a.rows(), k);
    for i in 0..a.rows() {
        out.row_mut(i).copy_from_slice(&a.row(i)[..k]);
    }
    out
}

/// `‖(I − T Tᵀ)·U‖₂`, the sine of the largest angle by which `span(U)`
/// leaves `span(T)`. Taken from the residual itself: `√(1 − cos²θ)` would
/// floor at 10⁻⁷.
fn leaves(u: &Mat, t: &Mat) -> f64 {
    let inside = t.matmul(&t.transpose().matmul(u).unwrap()).unwrap();
    let residual = u.sub(&inside).unwrap();
    sym_eigen(&residual.gram()).unwrap().values[0]
        .max(0.0)
        .sqrt()
}

/// `‖Yᵀ u_j‖` for every column of `u`.
fn captured(y: &Mat, u: &Mat) -> Vec<f64> {
    let ytu = y.apply_transpose(u).unwrap();
    (0..u.cols()).map(|j| norm2(&ytu.col(j))).collect()
}

#[test]
fn planted_spectra_are_recovered_in_order() {
    for s in spectra() {
        let (y, u_true) = planted(&s.sigma, 41);
        let u = leading_left_singular_vectors(&y, s.p, &SubspaceOptions::default()).unwrap();
        assert_eq!(u.shape(), (M, s.p), "{}", s.name);

        let defect = u.gram().sub(&Mat::identity(s.p)).unwrap().max_abs();
        assert!(defect <= 1e-12, "{}: ‖UᵀU − I‖ = {defect:e}", s.name);

        // The planted leading vectors and span(U) contain one another as
        // far as the rank allows.
        let k = s.p.min(s.rank());
        let truth = leading_columns(&u_true, k);
        let err = if k < s.p {
            leaves(&truth, &u)
        } else {
            leaves(&u, &truth)
        };
        assert!(err <= 1e-9, "{}: subspace error {err:e}", s.name);

        let got = captured(&y, &u);
        let energy: f64 = got.iter().map(|c| c * c).sum();
        let planted_energy: f64 = s.sigma[..k].iter().map(|x| x * x).sum();
        assert!(
            (energy - planted_energy).abs() <= 1e-10 * planted_energy,
            "{}: ‖YᵀU‖² = {energy}, planted {planted_energy}",
            s.name
        );
        // Column j is the j-th singular vector, not just a basis vector.
        for (j, (&c, &sigma)) in got.iter().zip(&s.sigma).enumerate() {
            assert!(
                (c - sigma).abs() <= 1e-9 * s.sigma[0],
                "{}: ‖Yᵀu_{j}‖ = {c}, σ_{j} = {sigma}",
                s.name
            );
        }
        assert!(
            got.windows(2).all(|w| w[1] <= w[0] + 1e-12 * s.sigma[0]),
            "{}: columns out of order: {got:?}",
            s.name
        );
    }
}

#[test]
fn rank_deficient_result_ignores_the_last_bit_of_the_input() {
    let s = spectra().into_iter().find(|s| s.rank() < s.p).unwrap();
    let (y, _) = planted(&s.sigma, 42);
    let mut nudged = y.clone();
    let entry = nudged.get(17, 3);
    nudged.set(17, 3, f64::from_bits(entry.to_bits() + 1));
    assert_ne!(y, nudged);

    let opts = SubspaceOptions::default();
    let u = leading_left_singular_vectors(&y, s.p, &opts).unwrap();
    let v = leading_left_singular_vectors(&nudged, s.p, &opts).unwrap();
    assert!(u.approx_eq(&v, 1e-9), "{:e}", u.sub(&v).unwrap().max_abs());
    // The completion draws on the seed; the range does not (up to sign).
    let other = leading_left_singular_vectors(&y, s.p, &SubspaceOptions { seed: 7 }).unwrap();
    assert!(!u.approx_eq(&other, 1e-3));
    let cross = u.transpose().matmul(&other).unwrap();
    for j in 0..s.rank() {
        assert!((cross.get(j, j).abs() - 1.0).abs() <= 1e-12, "column {j}");
    }
}

/// Singular vectors with disjoint supports, row `j` lying in the support of
/// a vector other than `u_j`: entry `(j, j)` of the true answer is exactly
/// zero and of the computed `Y·v_j` is rounding noise. A sign convention
/// that reads that entry (Householder's) lets the last bit of `Y` flip
/// whole columns.
#[test]
fn structural_zeros_do_not_decide_signs() {
    let (m, blocks) = (60, P);
    let mut rng = StdRng::seed_from_u64(45);
    let mut u_true = Mat::zeros(m, blocks);
    for i in 0..m {
        u_true.set(i, (i + 1) % blocks, 0.5 + rng.gen::<f64>());
    }
    u_true.normalize_columns();
    let v = thin_qr(&Mat::random(N, blocks, &mut rng)).unwrap();
    let mut us = u_true.clone();
    for i in 0..m {
        for (c, x) in us.row_mut(i).iter_mut().enumerate() {
            *x *= 1.0 - 0.005 * c as f64;
        }
    }
    let y = us.matmul(&v.transpose()).unwrap();

    let opts = SubspaceOptions::default();
    let u = leading_left_singular_vectors(&y, blocks, &opts).unwrap();
    assert!(leaves(&u, &u_true) <= 1e-12);
    for trial in 0..8 {
        // The same matrix as another summation order would have left it.
        let mut rng = StdRng::seed_from_u64(trial);
        let mut jittered = y.clone();
        for x in jittered.data_mut() {
            *x *= 1.0 + f64::EPSILON * f64::from(rng.gen_range(-1..=1));
        }
        let w = leading_left_singular_vectors(&jittered, blocks, &opts).unwrap();
        assert!(
            u.approx_eq(&w, 1e-9),
            "trial {trial}: {:e}",
            u.sub(&w).unwrap().max_abs()
        );
    }
}

/// Counts the kernel's walks over the operator.
struct Counting<'a> {
    inner: &'a Mat,
    gram: Cell<usize>,
    apply: Cell<usize>,
    apply_transpose: Cell<usize>,
}

fn bump(c: &Cell<usize>) {
    c.set(c.get() + 1);
}

impl LinOp for Counting<'_> {
    fn nrows(&self) -> usize {
        self.inner.rows()
    }
    fn ncols(&self) -> usize {
        self.inner.cols()
    }
    fn apply(&self, x: &Mat) -> Result<Mat> {
        bump(&self.apply);
        self.inner.apply(x)
    }
    fn apply_transpose(&self, x: &Mat) -> Result<Mat> {
        bump(&self.apply_transpose);
        self.inner.apply_transpose(x)
    }
    fn gram(&self) -> Result<Mat> {
        bump(&self.gram);
        LinOp::gram(self.inner)
    }
}

/// The work is a function of the shape, never of the spectrum: what a
/// benchmark workload's spectrum looks like cannot change how long its
/// sweep takes.
#[test]
fn operator_passes_do_not_depend_on_the_spectrum() {
    let counts: Vec<[usize; 3]> = spectra()
        .iter()
        .map(|s| {
            let (y, _) = planted(&s.sigma, 43);
            let op = Counting {
                inner: &y,
                gram: Cell::new(0),
                apply: Cell::new(0),
                apply_transpose: Cell::new(0),
            };
            leading_left_singular_vectors(&op, s.p, &SubspaceOptions::default()).unwrap();
            [op.gram.get(), op.apply.get(), op.apply_transpose.get()]
        })
        .collect();
    assert!(counts.iter().all(|c| *c == counts[0]), "{counts:?}");
    assert!(counts[0].iter().sum::<usize>() <= 3, "{counts:?}");
}

/// An operator that supplies only the two products.
struct ProductsOnly<'a>(&'a Mat);

impl LinOp for ProductsOnly<'_> {
    fn nrows(&self) -> usize {
        self.0.rows()
    }
    fn ncols(&self) -> usize {
        self.0.cols()
    }
    fn apply(&self, x: &Mat) -> Result<Mat> {
        self.0.apply(x)
    }
    fn apply_transpose(&self, x: &Mat) -> Result<Mat> {
        self.0.apply_transpose(x)
    }
}

#[test]
fn default_gram_is_the_gram() {
    let (y, _) = planted(&spectra()[2].sigma, 44);
    let g = ProductsOnly(&y).gram().unwrap();
    assert!(g.approx_eq(&Mat::gram(&y), 1e-12));
    let opts = SubspaceOptions::default();
    let through_products = leading_left_singular_vectors(&ProductsOnly(&y), P, &opts).unwrap();
    let direct = leading_left_singular_vectors(&y, P, &opts).unwrap();
    assert!(through_products.approx_eq(&direct, 1e-12));
}
