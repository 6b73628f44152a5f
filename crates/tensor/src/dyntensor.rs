//! N-way sparse tensors in coordinate format.
//!
//! The paper generalizes PARAFAC/Tucker and all HaTen2 operations to N-way
//! tensors; `DynTensor` is the order-generic representation. Indices are
//! stored flattened (`nnz × order` in one `Vec<u64>`) to avoid per-entry
//! allocations.

use crate::{CooTensor3, Result, SparseMat, TensorError};
use std::collections::HashMap;

/// An N-way sparse tensor `X ∈ ℝ^{I₁×…×I_N}`.
///
/// ```
/// use haten2_tensor::DynTensor;
///
/// // A 4-way (src-ip, dst-ip, port, hour) log tensor.
/// let mut t = DynTensor::new(vec![10, 10, 5, 24]);
/// t.push(&[3, 7, 0, 13], 2.0).unwrap();
/// t.push(&[3, 7, 0, 13], 1.0).unwrap(); // duplicate coordinate
/// let t = t.coalesce();
/// assert_eq!(t.nnz(), 1);
/// assert_eq!(t.get(&[3, 7, 0, 13]), 3.0);
/// // Collapse the hour mode (paper Definition 2): order drops to 3.
/// let daily = t.collapse(3).unwrap();
/// assert_eq!(daily.order(), 3);
/// assert_eq!(daily.get(&[3, 7, 0]), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynTensor {
    dims: Vec<u64>,
    /// Flattened indices: entry `e` occupies `indices[e*order .. (e+1)*order]`.
    indices: Vec<u64>,
    values: Vec<f64>,
}

impl DynTensor {
    /// Empty tensor with the given dimensions (order = `dims.len()`).
    pub fn new(dims: Vec<u64>) -> Self {
        DynTensor {
            dims,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Tensor order (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Dimensions.
    #[inline]
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Append an entry. Zero values are dropped; indices are bounds-checked.
    pub fn push(&mut self, idx: &[u64], v: f64) -> Result<()> {
        if idx.len() != self.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "push: {}-way index into order-{} tensor",
                idx.len(),
                self.order()
            )));
        }
        for (d, (&i, &dim)) in idx.iter().zip(&self.dims).enumerate() {
            if i >= dim {
                let _ = d;
                return Err(TensorError::IndexOutOfBounds {
                    index: format!("{idx:?}"),
                    dims: format!("{:?}", self.dims),
                });
            }
        }
        if v != 0.0 {
            self.indices.extend_from_slice(idx);
            self.values.push(v);
        }
        Ok(())
    }

    /// Index slice of entry `e`.
    #[inline]
    #[allow(
        clippy::should_implement_trait,
        reason = "returns entry `e`'s index slice, not an `Index` impl's element"
    )]
    pub fn index(&self, e: usize) -> &[u64] {
        let n = self.order();
        &self.indices[e * n..(e + 1) * n]
    }

    /// Value of entry `e`.
    #[inline]
    pub fn value(&self, e: usize) -> f64 {
        self.values[e]
    }

    /// Iterate `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], f64)> + '_ {
        (0..self.nnz()).map(move |e| (self.index(e), self.value(e)))
    }

    /// Merge duplicate coordinates (summing values) and drop zeros.
    pub fn coalesce(&self) -> DynTensor {
        let n = self.order();
        let mut map: HashMap<Vec<u64>, f64> = HashMap::with_capacity(self.nnz());
        for e in 0..self.nnz() {
            *map.entry(self.index(e).to_vec()).or_insert(0.0) += self.values[e];
        }
        let mut keys: Vec<Vec<u64>> = map.keys().cloned().collect();
        keys.sort();
        let mut out = DynTensor::new(self.dims.clone());
        for k in keys {
            let v = map[&k];
            if v != 0.0 {
                out.indices.extend_from_slice(&k);
                out.values.push(v);
            }
        }
        debug_assert_eq!(out.indices.len(), out.values.len() * n);
        out
    }

    /// `bin(X)`: all nonzeros become 1.
    pub fn bin(&self) -> DynTensor {
        DynTensor {
            dims: self.dims.clone(),
            indices: self.indices.clone(),
            values: vec![1.0; self.values.len()],
        }
    }

    /// Point lookup (O(nnz); tests only).
    pub fn get(&self, idx: &[u64]) -> f64 {
        (0..self.nnz())
            .filter(|&e| self.index(e) == idx)
            .map(|e| self.values[e])
            .sum()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Convert a 3-way `DynTensor` into a [`CooTensor3`].
    pub fn to_coo3(&self) -> Result<CooTensor3> {
        if self.order() != 3 {
            return Err(TensorError::ShapeMismatch(format!(
                "to_coo3 on order-{} tensor",
                self.order()
            )));
        }
        let dims = [self.dims[0], self.dims[1], self.dims[2]];
        let entries = (0..self.nnz())
            .map(|e| {
                let ix = self.index(e);
                crate::Entry3::new(ix[0], ix[1], ix[2], self.values[e])
            })
            .collect();
        CooTensor3::from_entries(dims, entries)
    }

    /// Lift a [`CooTensor3`] into the order-generic representation.
    pub fn from_coo3(t: &CooTensor3) -> DynTensor {
        let d = t.dims();
        let mut out = DynTensor::new(vec![d[0], d[1], d[2]]);
        for e in t.entries() {
            out.indices.extend_from_slice(&[e.i, e.j, e.k]);
            out.values.push(e.v);
        }
        out
    }

    /// n-mode vector Hadamard product `X *̄ₙ v` (paper Definition 1):
    /// multiply each entry by `v[iₙ]`. Shape is unchanged.
    pub fn mode_hadamard_vec(&self, mode: usize, v: &[f64]) -> Result<DynTensor> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        if v.len() != self.dims[mode] as usize {
            return Err(TensorError::ShapeMismatch(format!(
                "mode_hadamard_vec: vector length {} vs dim {}",
                v.len(),
                self.dims[mode]
            )));
        }
        let mut out = DynTensor::new(self.dims.clone());
        for e in 0..self.nnz() {
            let idx = self.index(e);
            let nv = self.values[e] * v[idx[mode] as usize];
            if nv != 0.0 {
                out.indices.extend_from_slice(idx);
                out.values.push(nv);
            }
        }
        Ok(out)
    }

    /// `Collapse(X)ₙ` (paper Definition 2): sum out mode `n`. The result has
    /// order `N-1`.
    pub fn collapse(&self, mode: usize) -> Result<DynTensor> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let new_dims: Vec<u64> = self
            .dims
            .iter()
            .enumerate()
            .filter(|&(d, _)| d != mode)
            .map(|(_, &v)| v)
            .collect();
        let mut acc = DynTensor::new(new_dims);
        let mut key = Vec::with_capacity(self.order() - 1);
        for e in 0..self.nnz() {
            key.clear();
            for (d, &i) in self.index(e).iter().enumerate() {
                if d != mode {
                    key.push(i);
                }
            }
            acc.indices.extend_from_slice(&key);
            acc.values.push(self.values[e]);
        }
        Ok(acc.coalesce())
    }

    /// Mode-`n` matricization as a sparse matrix: rows indexed by mode `n`,
    /// columns by the mixed-radix combination of the remaining modes (in
    /// ascending mode order, first mode fastest) — the N-way analogue of
    /// [`CooTensor3::matricize`].
    pub fn matricize(&self, mode: usize) -> Result<SparseMat> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let rows = self.dims[mode];
        let other: Vec<usize> = (0..self.order()).filter(|&m| m != mode).collect();
        let cols: u64 = other
            .iter()
            .try_fold(1u64, |acc, &m| acc.checked_mul(self.dims[m].max(1)))
            .ok_or_else(|| {
                TensorError::ShapeMismatch(format!(
                    "matricize mode {mode}: column count overflows u64 for dims {:?}",
                    self.dims
                ))
            })?;
        let mut triples = Vec::with_capacity(self.nnz());
        for e in 0..self.nnz() {
            let idx = self.index(e);
            let mut col = 0u64;
            let mut stride = 1u64;
            for &m in &other {
                col += idx[m] * stride;
                stride *= self.dims[m].max(1);
            }
            triples.push((idx[mode], col, self.values[e]));
        }
        SparseMat::from_triples(rows, cols, triples)
    }

    /// n-mode **matrix** Hadamard product `X *ₙ U` (paper Definition 5)
    /// with `U ∈ ℝ^{Q×Iₙ}` supplied row-major as a slice of rows. The result
    /// has order `N+1`: dims `I₁×…×I_N×Q` where
    /// `(X *ₙ U)[i₁..i_N, q] = X[i₁..i_N] · U[q, iₙ]`.
    pub fn mode_hadamard_mat(&self, mode: usize, u_rows: &[Vec<f64>]) -> Result<DynTensor> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let q_dim = u_rows.len();
        for row in u_rows {
            if row.len() != self.dims[mode] as usize {
                return Err(TensorError::ShapeMismatch(format!(
                    "mode_hadamard_mat: row length {} vs dim {}",
                    row.len(),
                    self.dims[mode]
                )));
            }
        }
        let mut dims = self.dims.clone();
        dims.push(q_dim as u64);
        let mut out = DynTensor::new(dims);
        let mut key = Vec::with_capacity(self.order() + 1);
        for e in 0..self.nnz() {
            let idx = self.index(e);
            let v = self.values[e];
            for (q, row) in u_rows.iter().enumerate() {
                let nv = v * row[idx[mode] as usize];
                if nv != 0.0 {
                    key.clear();
                    key.extend_from_slice(idx);
                    key.push(q as u64);
                    out.indices.extend_from_slice(&key);
                    out.values.push(nv);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Entry3;

    fn sample4() -> DynTensor {
        let mut t = DynTensor::new(vec![2, 2, 2, 2]);
        t.push(&[0, 0, 0, 0], 1.0).unwrap();
        t.push(&[1, 1, 0, 1], 2.0).unwrap();
        t.push(&[1, 0, 1, 1], 3.0).unwrap();
        t
    }

    #[test]
    fn push_validates() {
        let mut t = DynTensor::new(vec![2, 2]);
        assert!(t.push(&[0], 1.0).is_err());
        assert!(t.push(&[2, 0], 1.0).is_err());
        assert!(t.push(&[1, 1], 1.0).is_ok());
        t.push(&[0, 0], 0.0).unwrap();
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn coalesce_merges() {
        let mut t = DynTensor::new(vec![2, 2]);
        t.push(&[0, 1], 1.0).unwrap();
        t.push(&[0, 1], 2.0).unwrap();
        t.push(&[1, 0], -1.0).unwrap();
        t.push(&[1, 0], 1.0).unwrap();
        let c = t.coalesce();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(&[0, 1]), 3.0);
    }

    #[test]
    fn coo3_roundtrip() {
        let coo = CooTensor3::from_entries(
            [2, 3, 2],
            vec![Entry3::new(0, 1, 1, 2.0), Entry3::new(1, 2, 0, -1.0)],
        )
        .unwrap();
        let dynt = DynTensor::from_coo3(&coo);
        assert_eq!(dynt.order(), 3);
        let back = dynt.to_coo3().unwrap();
        assert_eq!(back, coo);
    }

    #[test]
    fn to_coo3_rejects_other_orders() {
        assert!(sample4().to_coo3().is_err());
    }

    #[test]
    fn mode_hadamard_vec_multiplies() {
        let t = sample4();
        let r = t.mode_hadamard_vec(1, &[10.0, 100.0]).unwrap();
        assert_eq!(r.get(&[0, 0, 0, 0]), 10.0);
        assert_eq!(r.get(&[1, 1, 0, 1]), 200.0);
        assert_eq!(r.get(&[1, 0, 1, 1]), 30.0);
    }

    #[test]
    fn mode_hadamard_vec_drops_zeroed() {
        let t = sample4();
        let r = t.mode_hadamard_vec(0, &[0.0, 1.0]).unwrap();
        assert_eq!(r.nnz(), 2); // entry at i=0 is annihilated
    }

    #[test]
    fn collapse_sums_mode() {
        let t = sample4();
        let c = t.collapse(3).unwrap();
        assert_eq!(c.order(), 3);
        assert_eq!(c.get(&[0, 0, 0]), 1.0);
        assert_eq!(c.get(&[1, 1, 0]), 2.0);
        assert_eq!(c.get(&[1, 0, 1]), 3.0);
        // Collapsing a mode where two entries share remaining coords sums them.
        let mut u = DynTensor::new(vec![2, 2]);
        u.push(&[0, 0], 1.0).unwrap();
        u.push(&[1, 0], 2.0).unwrap();
        let c = u.collapse(0).unwrap();
        assert_eq!(c.order(), 1);
        assert_eq!(c.get(&[0]), 3.0);
    }

    #[test]
    fn mode_hadamard_mat_extends_order() {
        let mut t = DynTensor::new(vec![2, 2]);
        t.push(&[0, 1], 2.0).unwrap();
        // U is 3x2 (Q=3 rows over the mode-1 dimension).
        let u = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![0.0, 0.0]];
        let r = t.mode_hadamard_mat(1, &u).unwrap();
        assert_eq!(r.order(), 3);
        assert_eq!(r.dims(), &[2, 2, 3]);
        assert_eq!(r.get(&[0, 1, 0]), 20.0);
        assert_eq!(r.get(&[0, 1, 1]), 40.0);
        assert_eq!(r.get(&[0, 1, 2]), 0.0);
        assert_eq!(r.nnz(), 2);
    }

    #[test]
    fn mode_hadamard_mat_matches_repeated_vec() {
        // Definition 5: (X *ₙ U)_{..q} = X *̄ₙ u_q.
        let t = sample4();
        let u = vec![vec![3.0, -1.0], vec![0.5, 2.0]];
        let m = t.mode_hadamard_mat(2, &u).unwrap();
        for (q, row) in u.iter().enumerate() {
            let v = t.mode_hadamard_vec(2, row).unwrap();
            for e in 0..v.nnz() {
                let mut idx = v.index(e).to_vec();
                idx.push(q as u64);
                assert_eq!(m.get(&idx), v.value(e));
            }
        }
    }

    #[test]
    fn bin_and_norm() {
        let t = sample4();
        let b = t.bin();
        assert_eq!(b.get(&[1, 0, 1, 1]), 1.0);
        assert!((t.fro_norm() - (1.0f64 + 4.0 + 9.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn invalid_modes_rejected() {
        let t = sample4();
        assert!(t.collapse(4).is_err());
        assert!(t.mode_hadamard_vec(4, &[1.0]).is_err());
        assert!(t.mode_hadamard_mat(4, &[vec![1.0]]).is_err());
        assert!(t.matricize(4).is_err());
    }

    #[test]
    fn matricize_matches_coo3_convention() {
        // For 3-way tensors the DynTensor matricization must agree with
        // CooTensor3::matricize.
        let coo = CooTensor3::from_entries(
            [2, 3, 4],
            vec![
                Entry3::new(1, 2, 3, 5.0),
                Entry3::new(0, 1, 0, -1.0),
                Entry3::new(1, 0, 2, 2.5),
            ],
        )
        .unwrap();
        let dynt = DynTensor::from_coo3(&coo);
        for mode in 0..3 {
            let a = coo.matricize(mode).unwrap();
            let b = dynt.matricize(mode).unwrap();
            assert_eq!(a, b, "mode {mode}");
        }
    }

    #[test]
    fn matricize_4way_shape_and_mass() {
        let t = sample4();
        let m = t.matricize(1).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 8);
        assert_eq!(m.nnz(), t.nnz());
        let mass: f64 = m.triples().iter().map(|&(_, _, v)| v * v).sum();
        assert!((mass.sqrt() - t.fro_norm()).abs() < 1e-12);
    }
}
