//! Three-way sparse tensors in coordinate (COO) format.

use crate::{Result, SparseMat, TensorError};
use std::collections::HashMap;

/// One nonzero of a 3-way tensor: `X(i, j, k) = v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry3 {
    /// Mode-1 index.
    pub i: u64,
    /// Mode-2 index.
    pub j: u64,
    /// Mode-3 index.
    pub k: u64,
    /// Value.
    pub v: f64,
}

impl Entry3 {
    /// Construct an entry.
    pub fn new(i: u64, j: u64, k: u64, v: f64) -> Self {
        Entry3 { i, j, k, v }
    }

    /// Index along `mode` (0, 1 or 2).
    #[inline]
    pub fn index(&self, mode: usize) -> u64 {
        match mode {
            0 => self.i,
            1 => self.j,
            2 => self.k,
            _ => panic!("mode {mode} out of range for 3-way entry"),
        }
    }
}

/// Counting ranks a mode whose extent is below this many counters per
/// entry; a wider one is ranked by comparison. The engine ranks its
/// shuffle buckets by the same rule (`haten2_mapreduce::arena`), measured
/// there: past it, the counters outgrow the records they rank.
pub const COUNTING_SPAN_PER_ENTRY: u64 = 16;

/// Sort `entries`, every index within `dims`, stably by `(i, j, k)`: by
/// three stable counting passes — `k`, then `j`, then `i` — when every
/// extent is narrow for their number, by comparison otherwise. Entries of
/// one coordinate keep their order either way.
fn sort_coordinates(entries: &mut Vec<Entry3>, dims: [u64; 3]) {
    if !counts(entries.len(), dims) {
        entries.sort_by_key(|e| (e.i, e.j, e.k));
        return;
    }
    let mut scratch = Vec::new();
    counting_pass(entries, &mut scratch, dims[2], |e| e.k);
    counting_pass(&scratch, entries, dims[1], |e| e.j);
    counting_pass(entries, &mut scratch, dims[0], |e| e.i);
    *entries = scratch;
}

/// Whether `len` entries within `dims` are ranked by counting: every
/// extent is narrow for their number.
fn counts(len: usize, dims: [u64; 3]) -> bool {
    let most = (len as u64).saturating_mul(COUNTING_SPAN_PER_ENTRY);
    dims.iter().all(|&extent| extent < most)
}

/// `src` into `dst` stably by `key`, every key below `extent`: one counter
/// per key turned into its first position, then each entry to its key's
/// next free one.
fn counting_pass(src: &[Entry3], dst: &mut Vec<Entry3>, extent: u64, key: impl Fn(&Entry3) -> u64) {
    let mut next = vec![0usize; extent as usize];
    for e in src {
        next[key(e) as usize] += 1;
    }
    let mut sum = 0;
    for c in &mut next {
        (sum, *c) = (sum + *c, sum);
    }
    dst.clear();
    dst.resize(src.len(), Entry3::new(0, 0, 0, 0.0));
    for e in src {
        let slot = &mut next[key(e) as usize];
        dst[*slot] = *e;
        *slot += 1;
    }
}

/// A 3-way sparse tensor `X ∈ ℝ^{I×J×K}` stored as a coordinate list.
///
/// Invariants: every stored entry is within bounds and has a nonzero value;
/// duplicate coordinates are merged by [`CooTensor3::from_entries`].
///
/// ```
/// use haten2_tensor::{CooTensor3, Entry3};
///
/// let x = CooTensor3::from_entries(
///     [3, 3, 3],
///     vec![Entry3::new(0, 1, 2, 2.0), Entry3::new(2, 0, 1, -1.0)],
/// )
/// .unwrap();
/// assert_eq!(x.nnz(), 2);
/// assert_eq!(x.get(0, 1, 2), 2.0);
/// assert!((x.fro_norm() - 5.0f64.sqrt()).abs() < 1e-12);
/// // bin(X) (paper Table I): all nonzeros become 1.
/// assert_eq!(x.bin().get(2, 0, 1), 1.0);
/// // Mode-0 matricization X(1) is I x (J*K).
/// let m = x.matricize(0).unwrap();
/// assert_eq!((m.rows(), m.cols()), (3, 9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor3 {
    dims: [u64; 3],
    entries: Vec<Entry3>,
}

impl CooTensor3 {
    /// An empty tensor of the given dimensions.
    pub fn new(dims: [u64; 3]) -> Self {
        CooTensor3 {
            dims,
            entries: Vec::new(),
        }
    }

    /// Build from a list of entries. Out-of-bounds entries are rejected,
    /// exact-zero values are dropped, and duplicate coordinates are summed.
    pub fn from_entries(dims: [u64; 3], entries: Vec<Entry3>) -> Result<Self> {
        let mut map: HashMap<(u64, u64, u64), f64> = HashMap::with_capacity(entries.len());
        for e in &entries {
            if e.i >= dims[0] || e.j >= dims[1] || e.k >= dims[2] {
                return Err(TensorError::IndexOutOfBounds {
                    index: format!("({}, {}, {})", e.i, e.j, e.k),
                    dims: format!("{dims:?}"),
                });
            }
            *map.entry((e.i, e.j, e.k)).or_insert(0.0) += e.v;
        }
        let mut merged: Vec<Entry3> = map
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|((i, j, k), v)| Entry3 { i, j, k, v })
            .collect();
        merged.sort_by_key(|e| (e.i, e.j, e.k));
        Ok(CooTensor3 {
            dims,
            entries: merged,
        })
    }

    /// Push a single entry without deduplication. The caller promises the
    /// coordinate is fresh; used by generators that sample distinct indices.
    pub fn push_unchecked(&mut self, e: Entry3) {
        debug_assert!(e.i < self.dims[0] && e.j < self.dims[1] && e.k < self.dims[2]);
        if e.v != 0.0 {
            self.entries.push(e);
        }
    }

    /// Tensor dimensions `[I, J, K]`.
    #[inline]
    pub fn dims(&self) -> [u64; 3] {
        self.dims
    }

    /// `nnz(X)` — number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Density `nnz / (I·J·K)`.
    pub fn density(&self) -> f64 {
        let total = self.dims[0] as f64 * self.dims[1] as f64 * self.dims[2] as f64;
        if total == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / total
        }
    }

    /// Stored entries, sorted by `(i, j, k)` when constructed through
    /// [`CooTensor3::from_entries`].
    #[inline]
    pub fn entries(&self) -> &[Entry3] {
        &self.entries
    }

    /// `bin(X)`: every nonzero becomes 1 (paper Table I).
    pub fn bin(&self) -> CooTensor3 {
        CooTensor3 {
            dims: self.dims,
            entries: self
                .entries
                .iter()
                .map(|e| Entry3 { v: 1.0, ..*e })
                .collect(),
        }
    }

    /// Point lookup; O(nnz) scan — use only in tests/small tensors.
    pub fn get(&self, i: u64, j: u64, k: u64) -> f64 {
        self.entries
            .iter()
            .find(|e| e.i == i && e.j == j && e.k == k)
            .map_or(0.0, |e| e.v)
    }

    /// Frobenius norm `‖X‖`.
    pub fn fro_norm(&self) -> f64 {
        self.entries.iter().map(|e| e.v * e.v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn fro_norm_sq(&self) -> f64 {
        self.entries.iter().map(|e| e.v * e.v).sum::<f64>()
    }

    /// Mode-`n` matricization `X₍ₙ₎` as a sparse matrix.
    ///
    /// Follows Kolda's convention: for mode 0 the result is
    /// `I × (J·K)` with column index `j + k·J`; cyclically for the other
    /// modes.
    pub fn matricize(&self, mode: usize) -> Result<SparseMat> {
        if mode > 2 {
            return Err(TensorError::InvalidMode { mode, order: 3 });
        }
        let [i_d, j_d, k_d] = self.dims;
        let cols = match mode {
            0 => j_d.checked_mul(k_d),
            1 => i_d.checked_mul(k_d),
            _ => i_d.checked_mul(j_d),
        }
        .ok_or_else(|| {
            TensorError::ShapeMismatch(format!(
                "matricize mode {mode}: column count overflows u64 for dims {:?}",
                self.dims
            ))
        })?;
        let rows = match mode {
            0 => i_d,
            1 => j_d,
            _ => k_d,
        };
        let mut triples = Vec::with_capacity(self.nnz());
        for e in &self.entries {
            let (r, c) = match mode {
                0 => (e.i, e.j + e.k * j_d),
                1 => (e.j, e.i + e.k * i_d),
                _ => (e.k, e.i + e.j * i_d),
            };
            triples.push((r, c, e.v));
        }
        SparseMat::from_triples(rows, cols, triples)
    }

    /// Iterate over nonzero index triples — `idx(X)` in the paper.
    pub fn idx(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.entries.iter().map(|e| (e.i, e.j, e.k))
    }

    /// Number of distinct indices appearing along `mode`.
    pub fn distinct_along(&self, mode: usize) -> usize {
        let mut seen: Vec<u64> = self.entries.iter().map(|e| e.index(mode)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Scale every value by `s`.
    pub fn scale(&mut self, s: f64) {
        for e in &mut self.entries {
            e.v *= s;
        }
    }

    /// Inner product `⟨X, Y⟩` of two same-shaped sparse tensors.
    pub fn inner(&self, other: &CooTensor3) -> Result<f64> {
        if self.dims != other.dims {
            return Err(TensorError::ShapeMismatch(format!(
                "inner: {:?} vs {:?}",
                self.dims, other.dims
            )));
        }
        // Hash the smaller side.
        let (small, large) = if self.nnz() <= other.nnz() {
            (self, other)
        } else {
            (other, self)
        };
        let map: HashMap<(u64, u64, u64), f64> = small
            .entries
            .iter()
            .map(|e| ((e.i, e.j, e.k), e.v))
            .collect();
        Ok(large
            .entries
            .iter()
            .filter_map(|e| map.get(&(e.i, e.j, e.k)).map(|v| v * e.v))
            .sum())
    }

    /// Approximate in-memory footprint in bytes (for memory-budget
    /// accounting in the baseline and the MapReduce cost model).
    pub fn approx_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry3>()
    }

    /// Permute modes: output mode `p` takes input mode `perm[p]`.
    /// `perm` must be a permutation of `{0, 1, 2}`.
    ///
    /// The result is the tensor [`CooTensor3::from_entries`] builds from the
    /// permuted entries, entry for entry and bit for bit, without hashing
    /// every coordinate to get there: the entries are stably sorted — by
    /// counting when every extent is narrow for their number
    /// ([`COUNTING_SPAN_PER_ENTRY`]) — and coordinates left coinciding by
    /// [`CooTensor3::push_unchecked`] are summed in stored order, the order
    /// `from_entries` adds them in.
    pub fn permute(&self, perm: [usize; 3]) -> Result<CooTensor3> {
        let mut seen = [false; 3];
        for &p in &perm {
            if p > 2 || seen[p] {
                return Err(TensorError::ShapeMismatch(format!(
                    "permute: {perm:?} is not a permutation of modes"
                )));
            }
            seen[p] = true;
        }
        let d = self.dims;
        let dims = [d[perm[0]], d[perm[1]], d[perm[2]]];
        let mut entries = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let (i, j, k) = (e.index(perm[0]), e.index(perm[1]), e.index(perm[2]));
            if i >= dims[0] || j >= dims[1] || k >= dims[2] {
                return Err(TensorError::IndexOutOfBounds {
                    index: format!("({i}, {j}, {k})"),
                    dims: format!("{dims:?}"),
                });
            }
            entries.push(Entry3::new(i, j, k, e.v));
        }
        sort_coordinates(&mut entries, dims);
        // Fold each run of equal coordinates into its first entry, in
        // place, then drop what summed to zero. (`from_entries` starts
        // each sum from `0.0`, which differs only for a `-0.0` that is
        // dropped either way.)
        entries.dedup_by(|e, kept| {
            let same = (e.i, e.j, e.k) == (kept.i, kept.j, kept.k);
            if same {
                kept.v += e.v;
            }
            same
        });
        entries.retain(|e| e.v != 0.0);
        Ok(CooTensor3 { dims, entries })
    }

    /// Elementwise sum of two same-shaped sparse tensors.
    pub fn add(&self, other: &CooTensor3) -> Result<CooTensor3> {
        if self.dims != other.dims {
            return Err(TensorError::ShapeMismatch(format!(
                "add: {:?} vs {:?}",
                self.dims, other.dims
            )));
        }
        let mut entries = self.entries.clone();
        entries.extend_from_slice(&other.entries);
        CooTensor3::from_entries(self.dims, entries)
    }

    /// Elementwise difference `self − other`.
    pub fn sub(&self, other: &CooTensor3) -> Result<CooTensor3> {
        let mut neg = other.clone();
        neg.scale(-1.0);
        self.add(&neg)
    }

    /// Number of nonzeros in each mode-`n` slice, as `(index, count)` pairs
    /// sorted by index — `nnz(X_{i::})` in the paper's notation for
    /// `mode = 0`.
    pub fn slice_nnz(&self, mode: usize) -> Result<Vec<(u64, usize)>> {
        if mode > 2 {
            return Err(TensorError::InvalidMode { mode, order: 3 });
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for e in &self.entries {
            *counts.entry(e.index(mode)).or_insert(0) += 1;
        }
        let mut out: Vec<(u64, usize)> = counts.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }

    /// The heaviest mode-`n` slice: `(index, nonzero count)`; `None` on an
    /// empty tensor. A proxy for reduce-side skew in the merge jobs.
    pub fn heaviest_slice(&self, mode: usize) -> Result<Option<(u64, usize)>> {
        Ok(self.slice_nnz(mode)?.into_iter().max_by_key(|&(_, c)| c))
    }

    /// Group the entries by their mode-`n` index: returns
    /// `(index, entries-of-that-slice)` pairs sorted by index. This is the
    /// access pattern of MET (slice-at-a-time Tucker) and of the merge
    /// reducers (one target-mode slice per key group).
    pub fn slices(&self, mode: usize) -> Result<Vec<(u64, Vec<Entry3>)>> {
        if mode > 2 {
            return Err(TensorError::InvalidMode { mode, order: 3 });
        }
        let mut sorted: Vec<Entry3> = self.entries.clone();
        sorted.sort_by_key(|e| e.index(mode));
        let mut out: Vec<(u64, Vec<Entry3>)> = Vec::new();
        for e in sorted {
            let idx = e.index(mode);
            match out.last_mut() {
                Some((last_idx, group)) if *last_idx == idx => group.push(e),
                _ => out.push((idx, vec![e])),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooTensor3 {
        CooTensor3::from_entries(
            [2, 3, 2],
            vec![
                Entry3::new(0, 0, 0, 1.0),
                Entry3::new(0, 2, 1, 2.0),
                Entry3::new(1, 1, 0, -3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_entries_dedups_and_sorts() {
        let t = CooTensor3::from_entries(
            [2, 2, 2],
            vec![
                Entry3::new(1, 1, 1, 2.0),
                Entry3::new(0, 0, 0, 1.0),
                Entry3::new(1, 1, 1, 3.0),
            ],
        )
        .unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.entries()[0].v, 1.0);
        assert_eq!(t.get(1, 1, 1), 5.0);
    }

    #[test]
    fn from_entries_drops_cancelled() {
        let t = CooTensor3::from_entries(
            [1, 1, 1],
            vec![Entry3::new(0, 0, 0, 1.0), Entry3::new(0, 0, 0, -1.0)],
        )
        .unwrap();
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn from_entries_bounds_check() {
        let r = CooTensor3::from_entries([2, 2, 2], vec![Entry3::new(2, 0, 0, 1.0)]);
        assert!(matches!(r, Err(TensorError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn bin_converts_to_ones() {
        let t = small();
        let b = t.bin();
        assert!(b.entries().iter().all(|e| e.v == 1.0));
        assert_eq!(b.nnz(), t.nnz());
    }

    #[test]
    fn density_and_norms() {
        let t = small();
        assert!((t.density() - 3.0 / 12.0).abs() < 1e-15);
        assert!((t.fro_norm() - (1.0f64 + 4.0 + 9.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn matricize_mode0_layout() {
        let t = small();
        let m = t.matricize(0).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 6);
        // (0,2,1) -> row 0, col 2 + 1*3 = 5
        assert!(m.triples().contains(&(0, 5, 2.0)));
        // (1,1,0) -> row 1, col 1
        assert!(m.triples().contains(&(1, 1, -3.0)));
    }

    #[test]
    fn matricize_all_modes_preserve_nnz() {
        let t = small();
        for mode in 0..3 {
            assert_eq!(t.matricize(mode).unwrap().triples().len(), t.nnz());
        }
        assert!(t.matricize(3).is_err());
    }

    #[test]
    fn inner_product() {
        let t = small();
        assert!((t.inner(&t).unwrap() - t.fro_norm_sq()).abs() < 1e-12);
        let b = t.bin();
        // <X, bin(X)> = sum of values
        let s: f64 = t.entries().iter().map(|e| e.v).sum();
        assert!((t.inner(&b).unwrap() - s).abs() < 1e-12);
    }

    #[test]
    fn inner_shape_mismatch() {
        let t = small();
        let u = CooTensor3::new([1, 1, 1]);
        assert!(t.inner(&u).is_err());
    }

    #[test]
    fn distinct_along_modes() {
        let t = small();
        assert_eq!(t.distinct_along(0), 2);
        assert_eq!(t.distinct_along(1), 3);
        assert_eq!(t.distinct_along(2), 2);
    }

    #[test]
    fn scale_applies() {
        let mut t = small();
        t.scale(2.0);
        assert_eq!(t.get(0, 0, 0), 2.0);
    }

    #[test]
    fn permute_roundtrip_and_validation() {
        let t = small();
        let p = t.permute([2, 0, 1]).unwrap();
        assert_eq!(p.dims(), [2, 2, 3]);
        assert_eq!(p.get(1, 0, 2), 2.0); // (0,2,1) -> (k,i,j) = (1,0,2)
                                         // Inverse permutation restores.
        let back = p.permute([1, 2, 0]).unwrap();
        assert_eq!(back, t);
        assert!(t.permute([0, 0, 1]).is_err());
        assert!(t.permute([0, 1, 5]).is_err());
    }

    #[test]
    fn permute_is_the_from_entries_route_entry_for_entry() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let bits = |t: &CooTensor3| -> Vec<(u64, u64, u64, u64)> {
            let entries = t.entries().iter();
            entries.map(|e| (e.i, e.j, e.k, e.v.to_bits())).collect()
        };
        for case in 0..60 {
            // Small dims, so `push_unchecked` leaves coinciding
            // coordinates; values on a coarse grid, so some of those sum
            // to exactly zero, others round differently in another order.
            let dims = [
                rng.gen_range(1..5),
                rng.gen_range(1..6),
                rng.gen_range(1..4),
            ];
            let mut t = CooTensor3::new(dims);
            for _ in 0..rng.gen_range(0..120) {
                let v = match rng.gen_range(0..4) {
                    0 => f64::from(rng.gen_range(-2i32..3)),
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0f64) / 3.0,
                };
                let (i, j, k) = (
                    rng.gen_range(0..dims[0]),
                    rng.gen_range(0..dims[1]),
                    rng.gen_range(0..dims[2]),
                );
                t.push_unchecked(Entry3::new(i, j, k, v));
            }
            for perm in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let mapped = t.entries().iter().map(|e| {
                    Entry3::new(e.index(perm[0]), e.index(perm[1]), e.index(perm[2]), e.v)
                });
                let d = t.dims();
                let want = CooTensor3::from_entries(
                    [d[perm[0]], d[perm[1]], d[perm[2]]],
                    mapped.collect(),
                )
                .unwrap();
                let got = t.permute(perm).unwrap();
                assert_eq!(got.dims(), want.dims(), "case {case} {perm:?}");
                assert_eq!(bits(&got), bits(&want), "case {case} {perm:?}");
            }
        }
        // The cases above must have exercised both folds.
        let mut dup = CooTensor3::new([2, 2, 2]);
        for v in [1.5, -1.5, 2.0, 0.25] {
            dup.push_unchecked(Entry3::new(1, 0, 1, v));
        }
        dup.push_unchecked(Entry3::new(0, 1, 0, 4.0));
        dup.push_unchecked(Entry3::new(0, 1, 0, -4.0));
        let p = dup.permute([2, 1, 0]).unwrap();
        assert_eq!(p.entries(), [Entry3::new(1, 0, 1, 2.25)]);
    }

    /// `permute` as it stood before it ranked by counting: a stable
    /// comparison sort, then the duplicates folded into a second `Vec`.
    fn permute_by_comparison(t: &CooTensor3, perm: [usize; 3]) -> CooTensor3 {
        let d = t.dims;
        let dims = [d[perm[0]], d[perm[1]], d[perm[2]]];
        let mut entries: Vec<Entry3> = t
            .entries
            .iter()
            .map(|e| Entry3::new(e.index(perm[0]), e.index(perm[1]), e.index(perm[2]), e.v))
            .collect();
        entries.sort_by_key(|e| (e.i, e.j, e.k));
        let mut merged: Vec<Entry3> = Vec::with_capacity(entries.len());
        for e in entries {
            match merged.last_mut() {
                Some(last) if (last.i, last.j, last.k) == (e.i, e.j, e.k) => last.v += e.v,
                _ => merged.push(e),
            }
        }
        merged.retain(|e| e.v != 0.0);
        CooTensor3 {
            dims,
            entries: merged,
        }
    }

    /// Values that cancel in pairs, round differently summed in another
    /// order, or are a signed zero.
    const DRAWN: [f64; 8] = [1.0, -1.0, 0.1, -0.1, 1.0 / 3.0, 2.5, -2.5, -0.0];

    const PERMS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Counting and the comparison fallback both give the comparison
        /// sort's tensor, bit for bit: its order, duplicates summed in
        /// arrival order, zero sums dropped. Small extents make coinciding
        /// coordinates; `wide` (3: none) gives one mode an extent past the
        /// counting cutoff, its indices still colliding.
        #[test]
        fn permute_equals_the_comparison_sort(
            extents in proptest::collection::vec(1u64..6, 3),
            wide in 0usize..4,
            perm in 0usize..6,
            raw in proptest::collection::vec((0u64..64, 0u64..64, 0u64..64, 0usize..DRAWN.len()), 0..80),
        ) {
            let wide_extent = (raw.len() as u64 + 1) * COUNTING_SPAN_PER_ENTRY + 7;
            let mut dims = [extents[0], extents[1], extents[2]];
            if wide < 3 {
                dims[wide] = wide_extent;
            }
            let index = |mode: usize, r: u64| match mode == wide {
                true => (r % 4) * (wide_extent / 4),
                false => r % dims[mode],
            };
            let mut t = CooTensor3::new(dims);
            for &(i, j, k, x) in &raw {
                t.push_unchecked(Entry3::new(index(0, i), index(1, j), index(2, k), DRAWN[x]));
            }
            let bits = |t: &CooTensor3| -> Vec<(u64, u64, u64, u64)> {
                t.entries.iter().map(|e| (e.i, e.j, e.k, e.v.to_bits())).collect()
            };
            let want = permute_by_comparison(&t, PERMS[perm]);
            let got = t.permute(PERMS[perm]).expect("a permutation of in-bounds entries");
            proptest::prop_assert_eq!(got.dims, want.dims);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn permute_counts_when_every_extent_is_narrow() {
        assert!(counts(40, [639, 1, 639]));
        assert!(!counts(40, [639, 640, 1]));
        assert!(!counts(0, [1, 1, 1]));
        assert!(!counts(usize::MAX, [u64::MAX, 1, 1]));
        // 40 entries: extents up to 639 count, one of 640 compares. Both
        // give the comparison sort's tensor.
        for extent in [639, 640] {
            let mut t = CooTensor3::new([639, 5, extent]);
            for n in 0..40u64 {
                let (i, k) = ((n * 37) % 639, (n * 53) % 639);
                t.push_unchecked(Entry3::new(i, n % 5, k, 1.0 + n as f64));
            }
            for perm in PERMS {
                let want = permute_by_comparison(&t, perm);
                assert_eq!(t.permute(perm).unwrap(), want, "{extent} {perm:?}");
            }
        }
    }

    #[test]
    fn permute_rejects_a_stored_entry_outside_the_dims() {
        // `push_unchecked` only debug-asserts its bounds; a tensor built
        // past them in a release build is refused as `from_entries` would.
        let t = CooTensor3 {
            dims: [2, 2, 2],
            entries: vec![Entry3::new(0, 5, 0, 1.0)],
        };
        assert!(matches!(
            t.permute([1, 0, 2]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn add_and_sub() {
        let t = small();
        let sum = t.add(&t).unwrap();
        assert_eq!(sum.get(0, 0, 0), 2.0);
        assert_eq!(sum.nnz(), t.nnz());
        let zero = t.sub(&t).unwrap();
        assert_eq!(zero.nnz(), 0);
        let other = CooTensor3::new([9, 9, 9]);
        assert!(t.add(&other).is_err());
    }

    #[test]
    fn slices_group_and_cover() {
        let t = small();
        let s0 = t.slices(0).unwrap();
        assert_eq!(s0.len(), 2);
        assert_eq!(s0[0].0, 0);
        assert_eq!(s0[0].1.len(), 2);
        assert_eq!(s0[1].0, 1);
        // Every entry appears in exactly one slice group.
        let total: usize = s0.iter().map(|(_, g)| g.len()).sum();
        assert_eq!(total, t.nnz());
        assert!(t.slices(5).is_err());
    }

    #[test]
    fn slice_nnz_counts() {
        let t = small();
        // entries: (0,0,0), (0,2,1), (1,1,0)
        let s0 = t.slice_nnz(0).unwrap();
        assert_eq!(s0, vec![(0, 2), (1, 1)]);
        assert_eq!(t.heaviest_slice(0).unwrap(), Some((0, 2)));
        assert_eq!(t.heaviest_slice(1).unwrap().unwrap().1, 1);
        assert!(t.slice_nnz(3).is_err());
        assert_eq!(CooTensor3::new([1, 1, 1]).heaviest_slice(0).unwrap(), None);
    }

    #[test]
    fn push_unchecked_skips_zero() {
        let mut t = CooTensor3::new([2, 2, 2]);
        t.push_unchecked(Entry3::new(0, 0, 0, 0.0));
        assert_eq!(t.nnz(), 0);
        t.push_unchecked(Entry3::new(0, 0, 0, 1.5));
        assert_eq!(t.nnz(), 1);
    }
}
