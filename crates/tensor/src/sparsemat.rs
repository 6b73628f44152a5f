//! Sparse matrices as sorted triples, used for matricized tensors.
//!
//! The Tucker-ALS factor update needs the leading left singular vectors of
//! `Y₍₁₎`, a tall sparse matrix with few columns. [`SparseMat`] implements
//! [`haten2_linalg::LinOp`] so the singular-vector kernel can take its
//! small Gram matrix `YᵀY` and multiply by it without densifying —
//! mirroring how HaTen2 never materializes dense intermediates.

use crate::{Result, TensorError};
use haten2_linalg::{LinOp, LinalgError, Mat};

/// A sparse `rows × cols` matrix stored as triples sorted row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMat {
    rows: u64,
    cols: u64,
    /// Sorted by (row, col); duplicates merged.
    triples: Vec<(u64, u64, f64)>,
}

impl SparseMat {
    /// Build from unsorted triples; duplicates are summed, zeros dropped.
    pub fn from_triples(rows: u64, cols: u64, mut triples: Vec<(u64, u64, f64)>) -> Result<Self> {
        for &(r, c, _) in &triples {
            if r >= rows || c >= cols {
                return Err(TensorError::IndexOutOfBounds {
                    index: format!("({r}, {c})"),
                    dims: format!("[{rows}, {cols}]"),
                });
            }
        }
        triples.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(u64, u64, f64)> = Vec::with_capacity(triples.len());
        for (r, c, v) in triples {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);
        Ok(SparseMat {
            rows,
            cols,
            triples: merged,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.triples.len()
    }

    /// Stored triples, sorted by `(row, col)`.
    #[inline]
    pub fn triples(&self) -> &[(u64, u64, f64)] {
        &self.triples
    }

    /// Dense copy (small matrices / tests only).
    pub fn to_dense(&self) -> Result<Mat> {
        let (r, c) = (self.rows as usize, self.cols as usize);
        let mut m = Mat::zeros(r, c);
        for &(i, j, v) in &self.triples {
            m.add_at(i as usize, j as usize, v);
        }
        Ok(m)
    }
}

impl LinOp for SparseMat {
    fn nrows(&self) -> usize {
        self.rows as usize
    }

    fn ncols(&self) -> usize {
        self.cols as usize
    }

    /// `S * X` for dense `X ∈ ℝ^{cols×k}`.
    fn apply(&self, x: &Mat) -> haten2_linalg::Result<Mat> {
        if x.rows() != self.cols as usize {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse apply: {}x{} * {}x{}",
                self.rows,
                self.cols,
                x.rows(),
                x.cols()
            )));
        }
        let mut out = Mat::zeros(self.rows as usize, x.cols());
        for &(r, c, v) in &self.triples {
            let src = x.row(c as usize);
            let dst = out.row_mut(r as usize);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += v * s;
            }
        }
        Ok(out)
    }

    /// `Sᵀ * X` for dense `X ∈ ℝ^{rows×k}`.
    fn apply_transpose(&self, x: &Mat) -> haten2_linalg::Result<Mat> {
        if x.rows() != self.rows as usize {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse applyᵀ: {}x{} ᵀ * {}x{}",
                self.rows,
                self.cols,
                x.rows(),
                x.cols()
            )));
        }
        let mut out = Mat::zeros(self.cols as usize, x.cols());
        for &(r, c, v) in &self.triples {
            let src = x.row(r as usize);
            let dst = out.row_mut(c as usize);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += v * s;
            }
        }
        Ok(out)
    }

    /// `SᵀS` as a dense `cols × cols` matrix, by one pass of outer products
    /// of the sparse rows: `O(Σ_rows nnz(row)²) ≤ O(nnz · cols)`.
    fn gram(&self) -> haten2_linalg::Result<Mat> {
        let n = self.cols as usize;
        let mut g = Mat::zeros(n, n);
        // Columns ascend within a row, so this fills the upper triangle.
        for row in self.triples.chunk_by(|a, b| a.0 == b.0) {
            for (at, &(_, ca, va)) in row.iter().enumerate() {
                let dst = g.row_mut(ca as usize);
                for &(_, cb, vb) in &row[at..] {
                    dst[cb as usize] += va * vb;
                }
            }
        }
        for a in 0..n {
            for b in 0..a {
                let upper = g.get(b, a);
                g.set(a, b, upper);
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_linalg::leading_left_singular_vectors;
    use haten2_linalg::SubspaceOptions;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn from_triples_merges_and_drops_zero() {
        let m = SparseMat::from_triples(
            3,
            3,
            vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0), (2, 2, 0.0)],
        )
        .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.triples()[0], (0, 0, 3.0));
    }

    #[test]
    fn bounds_checked() {
        assert!(SparseMat::from_triples(2, 2, vec![(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn apply_matches_dense() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut triples = Vec::new();
        for _ in 0..30 {
            triples.push((
                rng.gen_range(0..10u64),
                rng.gen_range(0..6u64),
                rng.gen::<f64>(),
            ));
        }
        let s = SparseMat::from_triples(10, 6, triples).unwrap();
        let d = s.to_dense().unwrap();
        let x = Mat::random(6, 3, &mut rng);
        let sparse_out = s.apply(&x).unwrap();
        let dense_out = d.matmul(&x).unwrap();
        assert!(sparse_out.approx_eq(&dense_out, 1e-12));
    }

    #[test]
    fn apply_transpose_matches_dense() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut triples = Vec::new();
        for _ in 0..25 {
            triples.push((
                rng.gen_range(0..8u64),
                rng.gen_range(0..5u64),
                rng.gen::<f64>(),
            ));
        }
        let s = SparseMat::from_triples(8, 5, triples).unwrap();
        let d = s.to_dense().unwrap();
        let x = Mat::random(8, 2, &mut rng);
        let sparse_out = s.apply_transpose(&x).unwrap();
        let dense_out = d.transpose().matmul(&x).unwrap();
        assert!(sparse_out.approx_eq(&dense_out, 1e-12));
    }

    #[test]
    fn gram_matches_dense_gram() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut triples = Vec::new();
        for _ in 0..40 {
            triples.push((
                rng.gen_range(0..12u64),
                rng.gen_range(0..4u64),
                rng.gen::<f64>(),
            ));
        }
        let s = SparseMat::from_triples(12, 4, triples).unwrap();
        let g = s.gram().unwrap();
        let d = s.to_dense().unwrap().gram();
        assert!(g.approx_eq(&d, 1e-12));
    }

    #[test]
    fn singular_vectors_of_sparse_operator() {
        // The whole point: extract singular vectors without densifying,
        // and get the ones the dense route gets.
        let mut rng = StdRng::seed_from_u64(11);
        let mut triples = Vec::new();
        for r in 0..40u64 {
            for _ in 0..3 {
                triples.push((r, rng.gen_range(0..6u64), rng.gen::<f64>() + 0.1));
            }
        }
        let s = SparseMat::from_triples(40, 6, triples).unwrap();
        let opts = SubspaceOptions::default();
        let u = leading_left_singular_vectors(&s, 2, &opts).unwrap();
        assert_eq!(u.shape(), (40, 2));
        assert!(u.gram().approx_eq(&Mat::identity(2), 1e-12));
        let dense = leading_left_singular_vectors(&s.to_dense().unwrap(), 2, &opts).unwrap();
        assert!(u.approx_eq(&dense, 1e-12));
    }

    #[test]
    fn apply_dim_mismatch() {
        let s = SparseMat::from_triples(2, 3, vec![(0, 0, 1.0)]).unwrap();
        assert!(s.apply(&Mat::zeros(2, 1)).is_err());
        assert!(s.apply_transpose(&Mat::zeros(3, 1)).is_err());
    }
}
