//! Singular value decomposition for small/medium matrices.
//!
//! Built on the Gram-matrix eigendecomposition: for `a ∈ ℝ^{m×n}` with small
//! `min(m, n)`, eigendecompose the smaller Gram matrix and recover the other
//! side's singular vectors by multiplication. Accuracy degrades as σ²
//! squares the condition number, which is acceptable here — this routine
//! serves the pseudoinverse of tiny Gram matrices with an explicit rank
//! cutoff. It returns *all* `min(m, n)` vectors of a dense matrix, scaled
//! by `Σ⁻¹`; Tucker's factor update wants the leading `p` of an abstract
//! operator, orthonormal to rounding, and uses
//! [`crate::subspace::leading_left_singular_vectors`] — the same Gram
//! route, finished with a QR instead.

use crate::eigen::sym_eigen;
use crate::{Mat, Result};

/// Thin SVD: `a = u * diag(s) * vᵀ` with `u ∈ ℝ^{m×k}`, `v ∈ ℝ^{n×k}`,
/// `k = min(m, n)`, singular values descending.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns).
    pub u: Mat,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors (columns).
    pub v: Mat,
}

/// Thin SVD via eigendecomposition of the smaller Gram matrix.
pub fn svd_small(a: &Mat) -> Result<Svd> {
    let (m, n) = a.shape();
    let k = m.min(n);
    if k == 0 {
        return Ok(Svd {
            u: Mat::zeros(m, 0),
            s: vec![],
            v: Mat::zeros(n, 0),
        });
    }
    if n <= m {
        // Eigendecompose AᵀA (n×n).
        let g = a.gram();
        let e = sym_eigen(&g)?;
        let s: Vec<f64> = e.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let v = e.vectors; // n×n
                           // U = A V Σ⁻¹ for nonzero σ; zero columns for null directions.
        let av = a.matmul(&v)?;
        let mut u = Mat::zeros(m, n);
        for (j, &sj) in s.iter().enumerate() {
            if sj > 0.0 {
                let inv = 1.0 / sj;
                for i in 0..m {
                    u.set(i, j, av.get(i, j) * inv);
                }
            }
        }
        Ok(Svd { u, s, v })
    } else {
        // m < n: decompose the transpose and swap U and V.
        let t = svd_small(&a.transpose())?;
        Ok(Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        })
    }
}

impl Svd {
    /// Reconstruct `u * diag(s) * vᵀ`.
    pub fn reconstruct(&self) -> Result<Mat> {
        let k = self.s.len();
        let mut us = self.u.clone();
        for j in 0..k {
            for i in 0..us.rows() {
                let v = us.get(i, j) * self.s[j];
                us.set(i, j, v);
            }
        }
        us.matmul(&self.v.transpose())
    }

    /// Numerical rank with relative tolerance `rtol` (relative to the
    /// largest singular value).
    pub fn rank(&self, rtol: f64) -> usize {
        let smax = self.s.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.s.iter().filter(|&&s| s > rtol * smax).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn svd_reconstructs_tall() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Mat::random(7, 3, &mut rng);
        let svd = svd_small(&a).unwrap();
        assert!(svd.reconstruct().unwrap().approx_eq(&a, 1e-8));
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn svd_reconstructs_wide() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Mat::random(3, 9, &mut rng);
        let svd = svd_small(&a).unwrap();
        assert_eq!(svd.u.shape(), (3, 3));
        assert_eq!(svd.v.shape(), (9, 3));
        assert!(svd.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn singular_values_of_diagonal() {
        let a = Mat::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]).unwrap();
        let svd = svd_small(&a).unwrap();
        assert!((svd.s[0] - 4.0).abs() < 1e-10);
        assert!((svd.s[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn rank_of_rank_one() {
        // Outer product -> rank 1.
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let svd = svd_small(&a).unwrap();
        assert_eq!(svd.rank(1e-9), 1);
    }

    #[test]
    fn left_vectors_orthonormal_on_nonnull_space() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = Mat::random(10, 4, &mut rng);
        let svd = svd_small(&a).unwrap();
        assert!(svd.u.gram().approx_eq(&Mat::identity(4), 1e-8));
    }

    #[test]
    fn zero_matrix() {
        let a = Mat::zeros(3, 2);
        let svd = svd_small(&a).unwrap();
        assert!(svd.s.iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank(1e-12), 0);
    }

    #[test]
    fn empty_dims() {
        let a = Mat::zeros(0, 3);
        let svd = svd_small(&a).unwrap();
        assert!(svd.s.is_empty());
    }
}
