//! Row-major dense matrix type and core operations.

use crate::{LinalgError, Result};
use rand::Rng;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// This is the workhorse type for factor matrices (`A ∈ ℝ^{I×R}`), Gram
/// matrices, and core-tensor matricizations. It deliberately exposes its
/// backing storage (`data`) for hot loops elsewhere in the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major data vector. `data.len()` must equal
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "from_vec: {} elements for a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Mat { rows, cols, data })
    }

    /// Build from nested rows; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch(
                    "from_rows: ragged rows".to_string(),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Mat {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Matrix with i.i.d. entries drawn uniformly from `(0, 1)`.
    ///
    /// This matches the random initialization of the factor matrices in
    /// PARAFAC-ALS / Tucker-ALS.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen::<f64>()).collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Add `v` to element `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Backing row-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Dense matrix product `self * other`.
    pub fn matmul(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "matmul: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            mul_row(self.row(i), other, out.row_mut(i));
        }
        Ok(out)
    }

    /// `self ← self * other` in `self`'s own storage, for a square `other`
    /// as wide as `self`. Each row is multiplied into one `cols`-wide
    /// temporary by [`Mat::matmul`]'s loop and copied back, so the result
    /// is `self.matmul(other)` bit for bit.
    pub fn matmul_in_place(&mut self, other: &Mat) -> Result<()> {
        if other.rows != self.cols || other.cols != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matmul_in_place: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut row = vec![0.0; self.cols];
        for i in 0..self.rows {
            row.fill(0.0);
            mul_row(self.row(i), other, &mut row);
            self.row_mut(i).copy_from_slice(&row);
        }
        Ok(())
    }

    /// Make `self` the `rows × cols` zero matrix in the storage it has,
    /// which grows only when it is too small.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Gram matrix `selfᵀ * self` (`cols × cols`), exploiting symmetry.
    pub fn gram(&self) -> Mat {
        let n = self.cols;
        let mut g = Mat::zeros(n, n);
        for i in 0..self.rows {
            let row = self.row(i);
            for (a, &ra) in row.iter().enumerate() {
                if ra == 0.0 {
                    continue;
                }
                for (b, &rb) in row.iter().enumerate().skip(a) {
                    g.data[a * n + b] += ra * rb;
                }
            }
        }
        for a in 0..n {
            for b in 0..a {
                g.data[a * n + b] = g.data[b * n + a];
            }
        }
        g
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec: {}x{} * len-{}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Mat) -> Result<Mat> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch(format!(
                "hadamard: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Mat) -> Result<Mat> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch(format!(
                "add: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Mat) -> Result<Mat> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch(format!(
                "sub: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiply every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Khatri–Rao product (column-wise Kronecker): for `self ∈ ℝ^{I×R}` and
    /// `other ∈ ℝ^{J×R}`, the result is `ℝ^{IJ×R}` with
    /// `result[(i*J + j), r] = self[i,r] * other[j,r]`.
    ///
    /// HaTen2 avoids ever materializing this (it is the "intermediate data
    /// explosion" of PARAFAC); the dense version lives here as the reference
    /// semantics for tests.
    pub fn khatri_rao(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "khatri_rao: {} vs {} columns",
                self.cols, other.cols
            )));
        }
        let (i_dim, j_dim, r_dim) = (self.rows, other.rows, self.cols);
        let mut out = Mat::zeros(i_dim * j_dim, r_dim);
        for i in 0..i_dim {
            for j in 0..j_dim {
                let dst = i * j_dim + j;
                for r in 0..r_dim {
                    out.set(dst, r, self.get(i, r) * other.get(j, r));
                }
            }
        }
        Ok(out)
    }

    /// Kronecker product: `self ∈ ℝ^{m×n}`, `other ∈ ℝ^{p×q}` →
    /// `ℝ^{mp×nq}`.
    pub fn kronecker(&self, other: &Mat) -> Mat {
        let (m, n) = self.shape();
        let (p, q) = other.shape();
        let mut out = Mat::zeros(m * p, n * q);
        for i in 0..m {
            for j in 0..n {
                let a = self.get(i, j);
                if a == 0.0 {
                    continue;
                }
                for k in 0..p {
                    for l in 0..q {
                        out.set(i * p + k, j * q + l, a * other.get(k, l));
                    }
                }
            }
        }
        out
    }

    /// Normalize each column to unit 2-norm; returns the original norms
    /// (the `λ` vector of PARAFAC-ALS). Zero columns are left untouched and
    /// report norm 0.
    pub fn normalize_columns(&mut self) -> Vec<f64> {
        let mut norms = vec![0.0; self.cols];
        #[allow(
            clippy::needless_range_loop,
            reason = "`j` indexes a column of `self` and `norms` alike"
        )]
        for j in 0..self.cols {
            let mut s = 0.0;
            for i in 0..self.rows {
                let v = self.get(i, j);
                s += v * v;
            }
            let n = s.sqrt();
            norms[j] = n;
            if n > 0.0 {
                for i in 0..self.rows {
                    let v = self.get(i, j) / n;
                    self.set(i, j, v);
                }
            }
        }
        norms
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// True when every corresponding element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// `out += a * other` for one row `a` of a left factor: the i-k-j loop
/// order streams through `other`'s rows, cache friendly for row-major
/// storage, and skips a zero `a[k]`.
fn mul_row(a: &[f64], other: &Mat, out: &mut [f64]) {
    for (k, &aik) in a.iter().enumerate() {
        if aik == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(other.row(k)) {
            *o += aik * b;
        }
    }
}

impl std::fmt::Display for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&v| v == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Mat::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Mat::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Mat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn matmul_in_place_is_matmul_bit_for_bit() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let bits = |m: &Mat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Tall and rectangular, with zero entries `matmul` skips (a zero
        // row, zero columns, a -0.0), then 1x1.
        let mut tall = Mat::random(7, 3, &mut rng);
        for j in 0..3 {
            tall.set(2, j, 0.0);
        }
        tall.set(4, 1, -0.0);
        tall.set(5, 0, 0.0);
        let mut square = Mat::random(3, 3, &mut rng);
        square.scale_inplace(-1.5);
        square.set(1, 2, 0.0);
        let cases = [
            (tall, square),
            (
                Mat::from_rows(&[vec![0.1]]).unwrap(),
                Mat::from_rows(&[vec![3.0]]).unwrap(),
            ),
            (
                Mat::from_rows(&[vec![0.0]]).unwrap(),
                Mat::from_rows(&[vec![-2.0]]).unwrap(),
            ),
        ];
        for (n, (a, b)) in cases.into_iter().enumerate() {
            let want = a.matmul(&b).unwrap();
            let mut got = a.clone();
            let storage = got.data().as_ptr();
            got.matmul_in_place(&b).unwrap();
            assert_eq!(got.shape(), want.shape(), "case {n}");
            assert_eq!(bits(&got), bits(&want), "case {n}");
            assert_eq!(
                got.data().as_ptr(),
                storage,
                "case {n}: updated where it lies"
            );
        }
        // `other` must be square and as wide as `self`.
        for other in [Mat::zeros(2, 2), Mat::zeros(3, 2), Mat::zeros(2, 3)] {
            let mut a = Mat::zeros(4, 3);
            assert!(matches!(
                a.matmul_in_place(&other),
                Err(LinalgError::DimensionMismatch(_))
            ));
            assert_eq!(
                a,
                Mat::zeros(4, 3),
                "a refused product leaves `self` as it was"
            );
        }
    }

    #[test]
    fn reset_zeros_reuses_storage_large_enough() {
        let mut m = Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let storage = m.data().as_ptr();
        m.reset_zeros(3, 2);
        assert_eq!(m, Mat::zeros(3, 2));
        assert_eq!(m.data().as_ptr(), storage);
        m.reset_zeros(1, 1);
        assert_eq!(m, Mat::zeros(1, 1));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn matvec_known() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn hadamard_and_add_sub() {
        let a = Mat::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Mat::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.hadamard(&b).unwrap().row(0), &[3.0, 8.0]);
        assert_eq!(a.add(&b).unwrap().row(0), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[2.0, 2.0]);
    }

    #[test]
    fn khatri_rao_known() {
        // A = [1;2] (2x1), B = [3;4] (2x1) -> A ⊙ B = [3;4;6;8]
        let a = Mat::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = Mat::from_rows(&[vec![3.0], vec![4.0]]).unwrap();
        let kr = a.khatri_rao(&b).unwrap();
        assert_eq!(kr.shape(), (4, 1));
        assert_eq!(kr.col(0), vec![3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn kronecker_known() {
        let a = Mat::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Mat::from_rows(&[vec![0.0, 3.0], vec![4.0, 5.0]]).unwrap();
        let k = a.kronecker(&b);
        assert_eq!(k.shape(), (2, 4));
        assert_eq!(k.row(0), &[0.0, 3.0, 0.0, 6.0]);
        assert_eq!(k.row(1), &[4.0, 5.0, 8.0, 10.0]);
    }

    #[test]
    fn khatri_rao_equals_kronecker_columns() {
        // For single columns, Khatri-Rao and Kronecker coincide.
        let a = Mat::from_rows(&[vec![1.0], vec![-2.0], vec![0.5]]).unwrap();
        let b = Mat::from_rows(&[vec![2.0], vec![3.0]]).unwrap();
        let kr = a.khatri_rao(&b).unwrap();
        let kron = a.kronecker(&b);
        assert!(kr.approx_eq(&kron, 1e-15));
    }

    #[test]
    fn normalize_columns_returns_norms() {
        let mut a = Mat::from_rows(&[vec![3.0, 0.0], vec![4.0, 0.0]]).unwrap();
        let norms = a.normalize_columns();
        assert!((norms[0] - 5.0).abs() < 1e-12);
        assert_eq!(norms[1], 0.0);
        assert!((a.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((a.get(1, 0) - 0.8).abs() < 1e-12);
        // Zero column untouched
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn fro_norm_known() {
        let a = Mat::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_in_unit_interval() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1 << 40);
        let m = Mat::random(4, 4, &mut rng);
        assert!(m.data().iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
