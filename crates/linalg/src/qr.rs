//! Householder QR decomposition.
//!
//! Used by Tucker-ALS to orthonormalize `Y·V_p` (the last step of
//! [`crate::subspace`]) and its random initial factors, and as a general
//! building block. Only the *thin* form
//! (`Q ∈ ℝ^{m×n}`, `R ∈ ℝ^{n×n}` for `m ≥ n`) is ever needed here.

use crate::{LinalgError, Mat, Result};

/// Result of a QR decomposition: `a = q * r` with `q` having orthonormal
/// columns and `r` upper-triangular.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Orthonormal factor (thin: `m × n`).
    pub q: Mat,
    /// Upper-triangular factor (`n × n`).
    pub r: Mat,
}

/// Thin QR via Householder reflections. Requires `m ≥ n`.
pub fn householder_qr(a: &Mat) -> Result<Qr> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::InvalidArgument(format!(
            "householder_qr requires rows >= cols, got {m}x{n}"
        )));
    }
    // Work on a copy that will become R (in its top n×n block).
    let mut r = a.clone();
    // Store Householder vectors to apply to the identity later.
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);

    for k in 0..n {
        // Build the Householder vector for column k, rows k..m.
        let mut v: Vec<f64> = (k..m).map(|i| r.get(i, k)).collect();
        let alpha = {
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if v[0] >= 0.0 {
                -norm
            } else {
                norm
            }
        };
        if alpha == 0.0 {
            // Column already zero below the diagonal; nothing to reflect.
            vs.push(vec![0.0; m - k]);
            continue;
        }
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            vs.push(vec![0.0; m - k]);
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀv) to R[k.., k..].
        for j in k..n {
            let mut s = 0.0;
            for (t, vi) in v.iter().enumerate() {
                s += vi * r.get(k + t, j);
            }
            let f = 2.0 * s / vnorm2;
            for (t, vi) in v.iter().enumerate() {
                let cur = r.get(k + t, j);
                r.set(k + t, j, cur - f * vi);
            }
        }
        vs.push(v);
    }

    // Accumulate Q = H_0 H_1 ... H_{n-1} applied to the thin identity.
    let mut q = Mat::zeros(m, n);
    for j in 0..n {
        q.set(j, j, 1.0);
    }
    for k in (0..n).rev() {
        let v = &vs[k];
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        for j in 0..n {
            let mut s = 0.0;
            for (t, vi) in v.iter().enumerate() {
                s += vi * q.get(k + t, j);
            }
            let f = 2.0 * s / vnorm2;
            for (t, vi) in v.iter().enumerate() {
                let cur = q.get(k + t, j);
                q.set(k + t, j, cur - f * vi);
            }
        }
    }

    // Zero R's strictly-lower part and truncate to n×n.
    let mut r_out = Mat::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            r_out.set(i, j, r.get(i, j));
        }
    }
    Ok(Qr { q, r: r_out })
}

/// Convenience wrapper returning only the orthonormal factor.
pub fn thin_qr(a: &Mat) -> Result<Mat> {
    Ok(householder_qr(a)?.q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn assert_orthonormal(q: &Mat, tol: f64) {
        let g = q.gram();
        let id = Mat::identity(q.cols());
        assert!(g.approx_eq(&id, tol), "QᵀQ not identity:\n{g}");
    }

    #[test]
    fn qr_reconstructs_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Mat::random(8, 4, &mut rng);
        let Qr { q, r } = householder_qr(&a).unwrap();
        assert_orthonormal(&q, 1e-10);
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_square_matrix() {
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let Qr { q, r } = householder_qr(&a).unwrap();
        assert_orthonormal(&q, 1e-12);
        assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-12));
        // R upper triangular
        assert_eq!(r.get(1, 0), 0.0);
    }

    #[test]
    fn qr_rank_deficient_still_orthonormal_r_reconstructs() {
        // Second column is 2x the first.
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let Qr { q, r } = householder_qr(&a).unwrap();
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_rejects_wide_matrices() {
        let a = Mat::zeros(2, 3);
        assert!(householder_qr(&a).is_err());
    }

    #[test]
    fn qr_identity_is_identity() {
        let a = Mat::identity(3);
        let Qr { q, r } = householder_qr(&a).unwrap();
        // Q and R equal identity up to sign conventions; QR must reconstruct.
        assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-12));
        assert_orthonormal(&q, 1e-12);
    }
}
