//! Property-based tests for the linear-algebra kernels.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_linalg::{householder_qr, pinv, svd_small, sym_eigen, Mat};
use proptest::prelude::*;

/// Strategy: a rows×cols matrix with entries in [-10, 10].
fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data).unwrap())
}

fn dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..8, 1usize..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative((m, n) in dims(), k in 1usize..6, p in 1usize..6, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(m, n, &mut rng);
        let b = Mat::random(n, k, &mut rng);
        let c = Mat::random(k, p, &mut rng);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-6 * (1.0 + lhs.max_abs())));
    }

    #[test]
    fn transpose_involution(a in dims().prop_flat_map(|(m, n)| mat_strategy(m, n))) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_reverses_matmul((m, n) in dims(), k in 1usize..6, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(m, n, &mut rng);
        let b = Mat::random(n, k, &mut rng);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9 * (1.0 + lhs.max_abs())));
    }

    #[test]
    fn qr_reconstructs(m in 2usize..12, n in 1usize..6, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        prop_assume!(m >= n);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(m, n, &mut rng);
        let qr = householder_qr(&a).unwrap();
        let recon = qr.q.matmul(&qr.r).unwrap();
        prop_assert!(recon.approx_eq(&a, 1e-8));
        // Q orthonormal.
        prop_assert!(qr.q.gram().approx_eq(&Mat::identity(n), 1e-8));
        // R upper triangular.
        for i in 0..n {
            for j in 0..i {
                prop_assert!(qr.r.get(i, j).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sym_eigen_reconstructs(n in 1usize..8, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Mat::random(n, n, &mut rng);
        let a = b.add(&b.transpose()).unwrap();
        let e = sym_eigen(&a).unwrap();
        let mut d = Mat::zeros(n, n);
        for i in 0..n { d.set(i, i, e.values[i]); }
        let recon = e.vectors.matmul(&d).unwrap().matmul(&e.vectors.transpose()).unwrap();
        prop_assert!(recon.approx_eq(&a, 1e-7 * (1.0 + a.max_abs())));
    }

    #[test]
    fn svd_values_match_gram_eigenvalues(m in 2usize..10, n in 1usize..6, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(m, n, &mut rng);
        let svd = svd_small(&a).unwrap();
        let e = sym_eigen(&a.gram()).unwrap();
        let k = n.min(m);
        for i in 0..k {
            let sv2 = svd.s[i] * svd.s[i];
            prop_assert!((sv2 - e.values[i].max(0.0)).abs() < 1e-6 * (1.0 + e.values[0].abs()));
        }
    }

    #[test]
    fn pinv_penrose_1(m in 1usize..8, n in 1usize..8, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(m, n, &mut rng);
        let p = pinv(&a).unwrap();
        // A A† A = A (first Penrose condition).
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        prop_assert!(apa.approx_eq(&a, 1e-6 * (1.0 + a.max_abs())));
    }

    #[test]
    fn normalize_columns_makes_unit_norms(m in 1usize..10, n in 1usize..6, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Mat::random(m, n, &mut rng);
        let norms = a.normalize_columns();
        for (j, &nj) in norms.iter().enumerate() {
            if nj > 0.0 {
                let cn: f64 = (0..m).map(|i| a.get(i, j).powi(2)).sum::<f64>().sqrt();
                prop_assert!((cn - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn khatri_rao_shape_and_values(i in 1usize..5, j in 1usize..5, r in 1usize..4, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(i, r, &mut rng);
        let b = Mat::random(j, r, &mut rng);
        let kr = a.khatri_rao(&b).unwrap();
        prop_assert_eq!(kr.shape(), (i * j, r));
        for ii in 0..i {
            for jj in 0..j {
                for rr in 0..r {
                    let expect = a.get(ii, rr) * b.get(jj, rr);
                    prop_assert!((kr.get(ii * j + jj, rr) - expect).abs() < 1e-15);
                }
            }
        }
    }
}
