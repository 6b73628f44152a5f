//! Mode canonicalization.
//!
//! Both [`crate::tucker::project`] and [`crate::parafac::mttkrp`] are
//! defined for an arbitrary target mode, but the distributed kernels are
//! written once for the canonical orientation: the target mode first, then
//! the remaining two modes in ascending original order. `canonicalize`
//! permutes a tensor into that orientation; `CanonicalRecords` builds
//! the records the kernels read in it, in one pass, into storage a caller
//! keeps across modes. The kernel outputs (`Y(x₀, q, r)` / `M(x₀, r)`)
//! are already in caller coordinates because slot 0 *is* the target mode.

use crate::records::{tensor_records_into, Ix4};
use haten2_tensor::coo3::{canonical_form, CountingScratch};
use haten2_tensor::{CooTensor3, Entry3};
use std::borrow::Cow;

/// Canonical position → original mode for target mode `target`.
fn permutation(target: usize) -> [usize; 3] {
    assert!(target < 3, "target mode must be 0, 1 or 2");
    let others: Vec<usize> = (0..3).filter(|&m| m != target).collect();
    [target, others[0], others[1]]
}

/// Permute `t` so that `target` becomes mode 0 and the other two modes
/// follow in ascending original order. Returns the permuted tensor and the
/// permutation `perm` (canonical position → original mode). Target mode 0
/// moves nothing, so `t` itself is returned, borrowed.
pub fn canonicalize(t: &CooTensor3, target: usize) -> (Cow<'_, CooTensor3>, [usize; 3]) {
    let perm = permutation(target);
    if perm == [0, 1, 2] {
        return (Cow::Borrowed(t), perm);
    }
    let canon = t.permute(perm).expect("permutation preserves bounds");
    (Cow::Owned(canon), perm)
}

/// The dims of a tensor of dims `dims` in the canonical orientation of
/// target mode `target`.
pub(crate) fn canonical_dims(dims: [u64; 3], target: usize) -> [u64; 3] {
    permutation(target).map(|m| dims[m])
}

/// One tensor's records in the canonical orientation of a target mode,
/// rebuilt for each mode in the storage the mode before left, with the
/// counting scratch that builds them. A PARAFAC-ALS call keeps one for all
/// its sweeps: after its first mode, the records of every mode are written
/// where the last mode's lay.
#[derive(Debug, Default)]
pub(crate) struct CanonicalRecords {
    records: Vec<(Ix4, f64)>,
    scratch: CountingScratch<(Ix4, f64)>,
}

impl CanonicalRecords {
    /// The canonical dims of `t` for target mode `target`, and its records
    /// in that orientation: `tensor_records(&canonicalize(t, target).0)`,
    /// record for record and bit for bit, built in one pass. Target mode 0
    /// reads the entries as they are stored; the other two permute each
    /// entry straight into its record, then sort, fold and drop zeros as
    /// [`CooTensor3::permute`] does ([`canonical_form`]).
    pub(crate) fn build(&mut self, t: &CooTensor3, target: usize) -> ([u64; 3], &[(Ix4, f64)]) {
        let perm = permutation(target);
        let dims = canonical_dims(t.dims(), target);
        if target == 0 {
            tensor_records_into(t, &mut self.records);
        } else {
            let permuted = |e: &Entry3| {
                (
                    (e.index(perm[0]), e.index(perm[1]), e.index(perm[2]), 0),
                    e.v,
                )
            };
            canonical_form(
                t.entries(),
                permuted,
                dims,
                |&((i, j, k, _), _)| (i, j, k),
                |(_, v)| v,
                &mut self.records,
                &mut self.scratch,
            );
        }
        (dims, &self.records)
    }
}

/// [`CanonicalRecords::build`] into fresh storage, for a caller that
/// builds one mode.
pub(crate) fn canonical_records(t: &CooTensor3, target: usize) -> ([u64; 3], Vec<(Ix4, f64)>) {
    let mut canon = CanonicalRecords::default();
    let (dims, _) = canon.build(t, target);
    (dims, canon.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::tensor_records;
    use haten2_tensor::coo3::COUNTING_SPAN_PER_ENTRY;

    fn sample() -> CooTensor3 {
        CooTensor3::from_entries(
            [2, 3, 4],
            vec![Entry3::new(1, 2, 3, 5.0), Entry3::new(0, 1, 0, -1.0)],
        )
        .unwrap()
    }

    #[test]
    fn target_zero_is_identity() {
        let t = sample();
        let (c, perm) = canonicalize(&t, 0);
        assert_eq!(perm, [0, 1, 2]);
        assert!(matches!(c, Cow::Borrowed(_)), "the identity is not copied");
        assert_eq!(*c, t);
    }

    #[test]
    fn target_one_swaps() {
        let t = sample();
        let (c, perm) = canonicalize(&t, 1);
        assert_eq!(perm, [1, 0, 2]);
        assert_eq!(c.dims(), [3, 2, 4]);
        assert_eq!(c.get(2, 1, 3), 5.0);
        assert_eq!(c.get(1, 0, 0), -1.0);
    }

    #[test]
    fn target_two_rotates() {
        let t = sample();
        let (c, perm) = canonicalize(&t, 2);
        assert_eq!(perm, [2, 0, 1]);
        assert_eq!(c.dims(), [4, 2, 3]);
        assert_eq!(c.get(3, 1, 2), 5.0);
    }

    #[test]
    fn norm_preserved() {
        let t = sample();
        for m in 0..3 {
            let (c, _) = canonicalize(&t, m);
            assert!((c.fro_norm() - t.fro_norm()).abs() < 1e-12);
            assert_eq!(c.nnz(), t.nnz());
        }
    }

    /// `entries` stored as they come: repeats kept, in this order.
    fn stored(dims: [u64; 3], entries: &[(u64, u64, u64, f64)]) -> CooTensor3 {
        let mut t = CooTensor3::new(dims);
        for &(i, j, k, v) in entries {
            t.push_unchecked(Entry3::new(i, j, k, v));
        }
        t
    }

    /// Repeats that round differently summed in another order, a pair
    /// that cancels, a coordinate whose only value is tiny, as stored.
    const REPEATS: [(u64, u64, u64, f64); 8] = [
        (2, 1, 0, 0.1),
        (0, 3, 4, 1.0),
        (2, 1, 0, 0.2),
        (1, 1, 1, 2.0),
        (2, 1, 0, 0.3),
        (0, 3, 4, -1.0),
        (1, 0, 2, -1e-200),
        (1, 1, 1, 1.0 / 3.0),
    ];

    /// The tensors the records are checked on: [`REPEATS`] unsorted and
    /// sorted, stored `-0.0`s, no entry, and a mode too wide to count.
    fn cases() -> [(&'static str, CooTensor3); 5] {
        let unsorted = stored([3, 4, 5], &REPEATS);
        let mut sorted_entries = REPEATS;
        sorted_entries.sort_by_key(|&(i, j, k, _)| (i, j, k));
        let sorted = stored([3, 4, 5], &sorted_entries);
        // Scaled by 1e-200, -1e-200 underflows to a stored -0.0: alone at
        // (1, 0, 2), and first of a run at (2, 1, 0).
        let mut signed_zero = stored([3, 4, 5], &[(2, 1, 0, -1e-200), (2, 1, 0, 0.5)]);
        signed_zero.push_unchecked(Entry3::new(1, 0, 2, -1e-200));
        signed_zero.push_unchecked(Entry3::new(0, 2, 1, 3.0));
        signed_zero.scale(1e-200);
        let minus_zero = (-0.0f64).to_bits();
        let zeros = signed_zero
            .entries()
            .iter()
            .filter(|e| e.v.to_bits() == minus_zero);
        assert_eq!(zeros.count(), 2, "the scaled tensor stores two -0.0");
        // Mode 1 is too wide to count for 9 entries: the comparison sort.
        let wide_extent = 9 * COUNTING_SPAN_PER_ENTRY + 1;
        let wide_entries: Vec<(u64, u64, u64, f64)> = (0..9u64)
            .map(|n| (n % 2, (n * 97) % 3 * 50, n % 3, 1.0 + n as f64))
            .collect();
        let wide = stored([2, wide_extent, 3], &wide_entries);
        [
            ("unsorted repeats", unsorted),
            ("sorted repeats", sorted),
            ("signed zero", signed_zero),
            ("empty", CooTensor3::new([2, 3, 4])),
            ("wide", wide),
        ]
    }

    fn bits(records: &[(Ix4, f64)]) -> Vec<(Ix4, u64)> {
        records.iter().map(|&(ix, v)| (ix, v.to_bits())).collect()
    }

    #[test]
    fn canonical_records_are_the_canonical_tensor_s_records_bit_for_bit() {
        for (label, t) in cases() {
            for mode in 0..3 {
                let (dims, got) = canonical_records(&t, mode);
                let (want, _) = canonicalize(&t, mode);
                assert_eq!(dims, want.dims(), "{label}, mode {mode}");
                let want = tensor_records(&want);
                assert_eq!(bits(&got), bits(&want), "{label}, mode {mode}");
            }
        }
        // Mode 0 is read as stored; the others fold and drop.
        let t = stored([3, 4, 5], &REPEATS);
        assert_eq!(canonical_records(&t, 0).1.len(), 8);
        assert_eq!(canonical_records(&t, 1).1.len(), 3);
    }

    #[test]
    fn every_mode_is_built_where_mode_zero_s_records_lie() {
        // One buffer through modes 0, 1 and 2 holds each mode's fresh
        // records bit for bit, and after mode 0 it never moves.
        for (label, t) in cases() {
            let mut canon = CanonicalRecords::default();
            let mut storage = None;
            for mode in 0..3 {
                let (dims, got) = canon.build(&t, mode);
                let (want_dims, want) = canonical_records(&t, mode);
                assert_eq!(dims, want_dims, "{label}, mode {mode}");
                assert_eq!(bits(got), bits(&want), "{label}, mode {mode}");
                let at = *storage.get_or_insert(got.as_ptr());
                assert_eq!(got.as_ptr(), at, "{label}, mode {mode}: reallocated");
            }
        }
    }
}
