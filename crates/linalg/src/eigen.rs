//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The Jacobi method is slow (O(n³) per sweep) but extremely robust and
//! simple, which makes it the right tool for the small symmetric matrices
//! HaTen2 needs: the `R×R` Hadamard Gram matrix `CᵀC * BᵀB` of PARAFAC-ALS
//! (R ≤ 80 in the paper's sweeps) and the `(QR)×(QR)` Gram matrices `YᵀY`
//! behind every SVD here — [`crate::svd`]'s small ones and, through
//! [`crate::subspace`], the large-I singular vectors of Tucker-ALS, whose
//! tall side never enters this solver. At `n = QR` the `O(n³)` sweeps cost
//! 0.2 ms (n = 25), 14–20 ms (n = 100, a 10×10×10 core), 0.35 s (n = 225)
//! and 2.2 s (n = 400) on the development host (EXPERIMENTS.md).

use crate::{LinalgError, Mat, Result};

/// Eigendecomposition of a symmetric matrix: `a = v * diag(values) * vᵀ`.
///
/// Eigenvalues are sorted in *descending* order; `vectors` holds the
/// corresponding eigenvectors as columns.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Matrix whose columns are the eigenvectors (same order as `values`).
    pub vectors: Mat,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// `a` must be square; symmetry is assumed (only the given entries are read
/// symmetrically — pass a truly symmetric matrix). Converges when the
/// off-diagonal Frobenius mass falls below `1e-14 * ‖a‖`.
pub fn sym_eigen(a: &Mat) -> Result<SymEigen> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch(format!(
            "sym_eigen: matrix is {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    if n == 0 {
        return Ok(SymEigen {
            values: vec![],
            vectors: Mat::zeros(0, 0),
        });
    }

    let mut m = a.clone();
    let mut v = Mat::identity(n);
    let scale = a.fro_norm().max(1e-300);
    let tol = 1e-14 * scale;
    let max_sweeps = 64;

    for sweep in 0..max_sweeps {
        // Off-diagonal mass.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() <= tol {
            return Ok(sorted(m, v, n));
        }
        if sweep == max_sweeps - 1 {
            break;
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Rotation angle (Golub & Van Loan 8.4).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update rows/columns p and q of M.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    Err(LinalgError::NonConvergence {
        routine: "sym_eigen",
        iterations: 64,
    })
}

fn sorted(m: Mat, v: Mat, n: usize) -> SymEigen {
    let mut idx: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    idx.sort_by(|&a, &b| diag[b].total_cmp(&diag[a]));
    let values: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
    let mut vectors = Mat::zeros(n, n);
    for (newcol, &oldcol) in idx.iter().enumerate() {
        for r in 0..n {
            vectors.set(r, newcol, v.get(r, oldcol));
        }
    }
    SymEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn reconstruct(e: &SymEigen) -> Mat {
        let n = e.values.len();
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            d.set(i, i, e.values[i]);
        }
        e.vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap()
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let mut a = Mat::zeros(3, 3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 5.0);
        a.set(2, 2, 3.0);
        let e = sym_eigen(&a).unwrap();
        assert_eq!(e.values, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] -> eigenvalues 3 and 1.
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        assert!(reconstruct(&e).approx_eq(&a, 1e-12));
    }

    #[test]
    fn random_symmetric_reconstructs() {
        let mut rng = StdRng::seed_from_u64(42);
        let b = Mat::random(6, 6, &mut rng);
        let a = b.add(&b.transpose()).unwrap();
        let e = sym_eigen(&a).unwrap();
        assert!(reconstruct(&e).approx_eq(&a, 1e-9));
        // Eigenvectors orthonormal.
        assert!(e.vectors.gram().approx_eq(&Mat::identity(6), 1e-10));
        // Sorted descending.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn psd_gram_has_nonnegative_eigenvalues() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Mat::random(10, 4, &mut rng);
        let g = b.gram();
        let e = sym_eigen(&g).unwrap();
        assert!(e.values.iter().all(|&v| v > -1e-10));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(sym_eigen(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrix_ok() {
        let e = sym_eigen(&Mat::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }
}
