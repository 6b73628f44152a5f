//! Edge-case tests for the linear-algebra kernels: degenerate shapes,
//! repeated eigenvalues, near-singularity, and boundary subspace sizes.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_linalg::{
    householder_qr, leading_left_singular_vectors, pinv, solve_spd, svd_small, sym_eigen, thin_qr,
    Mat, SubspaceOptions,
};

#[test]
fn one_by_one_everything() {
    let a = Mat::from_rows(&[vec![4.0]]).unwrap();
    let qr = householder_qr(&a).unwrap();
    assert!((qr.q.get(0, 0).abs() - 1.0).abs() < 1e-12);
    let e = sym_eigen(&a).unwrap();
    assert!((e.values[0] - 4.0).abs() < 1e-12);
    let s = svd_small(&a).unwrap();
    assert!((s.s[0] - 4.0).abs() < 1e-12);
    let p = pinv(&a).unwrap();
    assert!((p.get(0, 0) - 0.25).abs() < 1e-12);
    assert_eq!(solve_spd(&a, &[8.0]).unwrap(), vec![2.0]);
}

#[test]
fn repeated_eigenvalues_still_orthonormal() {
    // 2·I has a doubly-degenerate eigenvalue; any orthonormal basis works.
    let a = {
        let mut m = Mat::identity(4);
        m.scale_inplace(2.0);
        m
    };
    let e = sym_eigen(&a).unwrap();
    assert!(e.values.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    assert!(e.vectors.gram().approx_eq(&Mat::identity(4), 1e-10));
}

#[test]
fn qr_of_zero_matrix() {
    let a = Mat::zeros(4, 2);
    let qr = householder_qr(&a).unwrap();
    // R must be zero; QR must reconstruct the zero matrix.
    assert!(qr.r.approx_eq(&Mat::zeros(2, 2), 1e-15));
    assert!(qr.q.matmul(&qr.r).unwrap().approx_eq(&a, 1e-15));
}

#[test]
fn svd_of_row_and_column_vectors() {
    let col = Mat::from_rows(&[vec![3.0], vec![4.0]]).unwrap();
    let s = svd_small(&col).unwrap();
    assert!((s.s[0] - 5.0).abs() < 1e-10);
    let row = col.transpose();
    let s = svd_small(&row).unwrap();
    assert!((s.s[0] - 5.0).abs() < 1e-10);
}

#[test]
fn pinv_of_near_singular_is_bounded() {
    // Condition number ~1e14: the rank cutoff must clamp the inverse.
    let a = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, 1e-14]]).unwrap();
    let p = pinv(&a).unwrap();
    // The tiny singular value is treated as zero: no 1e14 blow-up.
    assert!(p.max_abs() < 1e13, "pinv exploded: {}", p.max_abs());
    // First Penrose condition still holds on the well-conditioned part.
    let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
    assert!((apa.get(0, 0) - 1.0).abs() < 1e-10);
}

#[test]
fn subspace_full_width_p_equals_n() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1);
    let a = Mat::random(10, 4, &mut rng);
    let u = leading_left_singular_vectors(&a, 4, &SubspaceOptions::default()).unwrap();
    assert_eq!(u.shape(), (10, 4));
    assert!(u.gram().approx_eq(&Mat::identity(4), 1e-8));
}

#[test]
fn subspace_on_rank_deficient_operator() {
    // Rank-1 matrix, ask for 1 vector: must recover the range direction.
    let mut a = Mat::zeros(6, 3);
    for i in 0..6 {
        for j in 0..3 {
            a.set(i, j, (i + 1) as f64 * (j + 1) as f64);
        }
    }
    let u = leading_left_singular_vectors(&a, 1, &SubspaceOptions::default()).unwrap();
    // The range of a rank-1 matrix is spanned by its first column direction.
    let mut col = a.col(0);
    haten2_linalg::vecops::normalize(&mut col);
    let dot: f64 = (0..6).map(|i| u.get(i, 0) * col[i]).sum();
    assert!((dot.abs() - 1.0).abs() < 1e-8, "dot = {dot}");
}

#[test]
fn thin_qr_of_orthonormal_input_is_stable() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2);
    let q0 = thin_qr(&Mat::random(12, 3, &mut rng)).unwrap();
    let q1 = thin_qr(&q0).unwrap();
    // Re-orthonormalizing an orthonormal block keeps the subspace: |Q0ᵀQ1|
    // has singular values 1.
    let c = q0.transpose().matmul(&q1).unwrap();
    let s = svd_small(&c).unwrap();
    assert!(s.s.iter().all(|&v| (v - 1.0).abs() < 1e-9));
}

#[test]
fn solve_spd_1e_scale_invariance() {
    // Scaling the system must scale the solution linearly.
    let a = Mat::from_rows(&[vec![2.0, 0.5], vec![0.5, 3.0]]).unwrap();
    let x1 = solve_spd(&a, &[1.0, 1.0]).unwrap();
    let x2 = solve_spd(&a, &[10.0, 10.0]).unwrap();
    for (a, b) in x1.iter().zip(&x2) {
        assert!((10.0 * a - b).abs() < 1e-10);
    }
}

#[test]
fn normalize_columns_handles_tiny_values() {
    // 1e-150 squares to 1e-300 — near the underflow edge but representable.
    let mut m = Mat::from_rows(&[vec![1e-150], vec![1e-150]]).unwrap();
    let norms = m.normalize_columns();
    assert!(norms[0] > 0.0);
    let n: f64 = (0..2).map(|i| m.get(i, 0).powi(2)).sum::<f64>().sqrt();
    assert!((n - 1.0).abs() < 1e-9);
    // Below the underflow edge the squared norm vanishes: the column is
    // left untouched (documented zero-column behaviour), not NaN-ed.
    let mut z = Mat::from_rows(&[vec![1e-300]]).unwrap();
    let zn = z.normalize_columns();
    assert_eq!(zn[0], 0.0);
    assert_eq!(z.get(0, 0), 1e-300);
    assert!(z.get(0, 0).is_finite());
}
