//! Leading left singular vectors of a tall-skinny operator, by the Gram
//! route.
//!
//! Tucker-ALS (Algorithm 2 of the paper) needs the `P` leading left singular
//! vectors of a matricized tensor `Y₍₁₎ ∈ ℝ^{I×QR}` where `I` can be in the
//! millions but `P`, `Q`, `R` are small. Forming `Y Yᵀ` (I×I) is the
//! intermediate-data explosion this paper is about avoiding; the *other*
//! Gram, `YᵀY`, is only `QR × QR`. So the kernel works on the small side
//! (Chakaravarthy et al., arXiv:1707.05594): one pass over `Y` accumulates
//! `G = YᵀY`, the Jacobi solver of [`crate::eigen`] gives its leading
//! eigenvectors `V_p` (the right singular vectors), and a second pass
//! recovers `U = orth(Y·V_p)`. Nothing iterates on the tall side, so the
//! cost does not depend on the spectrum. The operator is abstracted as
//! [`LinOp`] so callers can plug in sparse matricized tensors without
//! densifying them.

use crate::eigen::sym_eigen;
use crate::qr::thin_qr;
use crate::{LinalgError, Mat, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An abstract `m × n` linear operator supporting products with blocks of
/// vectors. Implemented by dense [`Mat`] here and by sparse matricized
/// tensors in `haten2-tensor`.
pub trait LinOp {
    /// Row count `m`.
    fn nrows(&self) -> usize;
    /// Column count `n`.
    fn ncols(&self) -> usize;
    /// `self * x` for a block `x ∈ ℝ^{n×k}` → `ℝ^{m×k}`.
    fn apply(&self, x: &Mat) -> Result<Mat>;
    /// `selfᵀ * x` for a block `x ∈ ℝ^{m×k}` → `ℝ^{n×k}`.
    fn apply_transpose(&self, x: &Mat) -> Result<Mat>;
    /// The `n × n` Gram matrix `selfᵀ * self`. The default goes through a
    /// dense `m × n` copy of the operator; implementors override it with
    /// one pass that never holds more than the `n × n` result.
    fn gram(&self) -> Result<Mat> {
        self.apply_transpose(&self.apply(&Mat::identity(self.ncols()))?)
    }
}

impl LinOp for Mat {
    fn nrows(&self) -> usize {
        self.rows()
    }
    fn ncols(&self) -> usize {
        self.cols()
    }
    fn apply(&self, x: &Mat) -> Result<Mat> {
        self.matmul(x)
    }
    fn apply_transpose(&self, x: &Mat) -> Result<Mat> {
        // (AᵀX) computed without materializing Aᵀ: (XᵀA)ᵀ.
        Ok(x.transpose().matmul(self)?.transpose())
    }
    fn gram(&self) -> Result<Mat> {
        Ok(Mat::gram(self))
    }
}

/// Options for [`leading_left_singular_vectors`].
#[derive(Debug, Clone)]
pub struct SubspaceOptions {
    /// RNG seed for the random direction that fixes each vector's sign and
    /// for the columns that complete the basis when the operator's numerical
    /// rank is below the number of vectors requested.
    pub seed: u64,
}

impl Default for SubspaceOptions {
    fn default() -> Self {
        SubspaceOptions { seed: 0x5eed }
    }
}

/// Compute the `p` leading left singular vectors of an operator `a` as an
/// `m × p` matrix with orthonormal columns, in descending-σ order.
///
/// Direct, two passes over `a`: `G = aᵀa` ([`LinOp::gram`]), its
/// eigendecomposition `G = V Λ Vᵀ` ([`sym_eigen`]), then
/// `U = orth(a·V_p)` by Householder QR. Orthogonalising `a·V_p` instead of
/// scaling it by `Σ⁻¹` keeps `UᵀU = I` to rounding even though the Gram
/// squares the condition number. Cost: `O(nnz(a)·n + n³·sweeps + m·p²)`
/// with `sweeps` the Jacobi sweep count (capped at 64) — the `n³` term
/// is 0.2 ms at `n = 25`, 14–20 ms at `n = 100`, 0.35 s at `n = 225` and
/// 2.2 s at `n = 400`, where it is nine tenths of the call.
///
/// Numerical rank: an eigenvalue `λ_j ≤ max(m, n)·ε·λ₁` is rounding noise
/// of the Gram accumulation (each entry of `G` is a sum of up to `m`
/// products), and `a·v_j` for such a `j` is a noise vector whose direction
/// changes with the last bit of `a`. Those columns are replaced by uniform
/// random columns drawn from `opts.seed` before the QR, which
/// orthogonalises them against the range found so far: the result is still
/// `m × p` orthonormal, contains the numerical range of `a`, and is
/// continuous in `a` at rounding scale. Singular values below
/// `σ₁·√(max(m, n)·ε)` are therefore not resolved — the price of the Gram
/// route.
///
/// Signs: every column is oriented to have a positive inner product with
/// one random direction in `ℝᵐ` drawn from `opts.seed`. With distinct
/// singular values the result is therefore a function of `a·aᵀ`, `p` and
/// the seed alone — the same for any reordering or re-signing of `a`'s
/// columns, and stable under perturbations of `a` at rounding scale.
///
/// A [`LinalgError::NonConvergence`] from the eigensolver propagates; there
/// is no approximate fallback.
pub fn leading_left_singular_vectors<O: LinOp + ?Sized>(
    a: &O,
    p: usize,
    opts: &SubspaceOptions,
) -> Result<Mat> {
    let (m, n) = (a.nrows(), a.ncols());
    if p == 0 {
        return Ok(Mat::zeros(m, 0));
    }
    if p > m || p > n {
        return Err(LinalgError::InvalidArgument(format!(
            "requested {p} singular vectors of a {m}x{n} operator"
        )));
    }

    let eig = sym_eigen(&a.gram()?)?;
    let cutoff = m.max(n) as f64 * f64::EPSILON * eig.values[0];
    let rank = eig.values[..p].iter().take_while(|&&l| l > cutoff).count();

    // V_p with its noise columns zeroed, so A·V_p = [U Σ, 0]; the zero
    // columns are then drawn at random and the QR makes a basis of it all.
    let mut v = Mat::zeros(n, p);
    for i in 0..n {
        v.row_mut(i)[..rank].copy_from_slice(&eig.vectors.row(i)[..rank]);
    }
    let mut block = a.apply(&v)?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let fill = Mat::random(m, p - rank, &mut rng);
    for i in 0..m {
        block.row_mut(i)[rank..].copy_from_slice(fill.row(i));
    }
    let mut u = thin_qr(&block)?;

    // What reaches here is each column up to sign: the eigensolver's
    // rotation order picks the sign of `v_j`, and Householder reads that of
    // `u_j` off one entry of its working column — rounding noise wherever a
    // singular vector has a structural zero. Orient every column along one
    // seeded random direction instead; no structured input is orthogonal
    // to that.
    let along = Mat::random(1, m, &mut rng).matmul(&u)?;
    for j in (0..p).filter(|&j| along.get(0, j) < 0.0) {
        for i in 0..m {
            u.set(i, j, -u.get(i, j));
        }
    }
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::svd_small;
    use rand::Rng;

    /// Subspace angle check: columns of `u` span the same space as `v`.
    fn same_subspace(u: &Mat, v: &Mat, tol: f64) -> bool {
        // ‖UᵀV‖ singular values all ≈ 1.
        let c = u.transpose().matmul(v).unwrap();
        let svd = svd_small(&c).unwrap();
        svd.s.iter().all(|&s| (s - 1.0).abs() < tol)
    }

    #[test]
    fn recovers_leading_subspace_of_random_tall_matrix() {
        let mut rng = StdRng::seed_from_u64(99);
        // Build a matrix with a strong rank-3 signal plus noise.
        let u_true = thin_qr(&Mat::random(50, 3, &mut rng)).unwrap();
        let v_true = thin_qr(&Mat::random(8, 3, &mut rng)).unwrap();
        let mut a = Mat::zeros(50, 8);
        let sig = [100.0, 50.0, 25.0];
        for (k, &s) in sig.iter().enumerate() {
            for i in 0..50 {
                for j in 0..8 {
                    a.add_at(i, j, s * u_true.get(i, k) * v_true.get(j, k));
                }
            }
        }
        // Small noise.
        for i in 0..50 {
            for j in 0..8 {
                a.add_at(i, j, 0.01 * rng.gen::<f64>());
            }
        }
        let u = leading_left_singular_vectors(&a, 3, &SubspaceOptions::default()).unwrap();
        assert!(same_subspace(&u, &u_true, 1e-3));
    }

    #[test]
    fn matches_svd_small_on_dense() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Mat::random(20, 6, &mut rng);
        let svd = svd_small(&a).unwrap();
        let mut u_ref = Mat::zeros(20, 2);
        for j in 0..2 {
            for i in 0..20 {
                u_ref.set(i, j, svd.u.get(i, j));
            }
        }
        let u = leading_left_singular_vectors(&a, 2, &SubspaceOptions::default()).unwrap();
        assert!(same_subspace(&u, &u_ref, 1e-6));
    }

    #[test]
    fn orthonormal_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Mat::random(30, 10, &mut rng);
        let u = leading_left_singular_vectors(&a, 4, &SubspaceOptions::default()).unwrap();
        assert!(u.gram().approx_eq(&Mat::identity(4), 1e-9));
    }

    #[test]
    fn p_zero_is_empty() {
        let a = Mat::identity(4);
        let u = leading_left_singular_vectors(&a, 0, &SubspaceOptions::default()).unwrap();
        assert_eq!(u.shape(), (4, 0));
    }

    #[test]
    fn rejects_oversized_p() {
        let a = Mat::identity(3);
        assert!(leading_left_singular_vectors(&a, 4, &SubspaceOptions::default()).is_err());
    }
}
