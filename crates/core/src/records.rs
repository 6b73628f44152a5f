//! Record types flowing through HaTen2's MapReduce jobs.
//!
//! All intermediate tensors are carried as `(Ix4, f64)` records: a 4-slot
//! index tuple plus a value. 3-way tensors leave slot 3 at 0; the Hadamard
//! expansions `T' = X *ₙ Bᵀ` and `T'' = bin(X) *ₙ Cᵀ` use slot 3 for the
//! factor-column index `q`/`r` — exactly the 4-way tensors of Lemmas 1–2.

use haten2_mapreduce::EstimateSize;
use haten2_tensor::CooTensor3;

/// Four-slot index tuple `(i, j, k, q)`.
pub type Ix4 = (u64, u64, u64, u64);

/// Input record for Hadamard / naive n-mode product jobs: a tensor entry or
/// one element of the multiplying vector.
#[derive(Debug, Clone, PartialEq)]
pub enum TvRec {
    /// Tensor entry.
    Ent(Ix4, f64),
    /// Vector element `(index, coefficient)`.
    Coef(u64, f64),
}

impl EstimateSize for TvRec {
    fn est_bytes(&self) -> usize {
        1 + match self {
            TvRec::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            TvRec::Coef(i, v) => i.est_bytes() + v.est_bytes(),
        }
    }
}

/// Input record for the integrated `IMHP(X, B, C)` job: a tensor entry or a
/// full factor-matrix row for one of the two join sides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImhpRec {
    /// Tensor entry.
    Ent(Ix4, f64),
    /// Factor row: `side` 0 joins on the mode-1 index with a row of `Bᵀ`
    /// (length Q), `side` 1 joins on the mode-2 index with a row of `Cᵀ`
    /// (length R).
    Row(u8, u64, Vec<f64>),
}

impl EstimateSize for ImhpRec {
    fn est_bytes(&self) -> usize {
        1 + match self {
            ImhpRec::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            ImhpRec::Row(s, i, row) => s.est_bytes() + i.est_bytes() + row.est_bytes(),
        }
    }
}

/// Intermediate value for Hadamard-style joins keyed on one tensor mode.
#[derive(Debug, Clone, PartialEq)]
pub enum HadVal {
    /// Tensor entry routed to this join key.
    Ent(Ix4, f64),
    /// The vector coefficient for this join key.
    Coef(f64),
}

impl EstimateSize for HadVal {
    fn est_bytes(&self) -> usize {
        1 + match self {
            HadVal::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            HadVal::Coef(v) => v.est_bytes(),
        }
    }
}

/// Intermediate value for the naive broadcast join keyed on a fiber.
#[derive(Debug, Clone, PartialEq)]
pub enum NaiveVal {
    /// Tensor entry: `(contract-mode index, value)`.
    Ent(u64, f64),
    /// Broadcast vector element: `(contract-mode index, coefficient)`.
    Coef(u64, f64),
}

impl EstimateSize for NaiveVal {
    fn est_bytes(&self) -> usize {
        1 + match self {
            NaiveVal::Ent(i, v) | NaiveVal::Coef(i, v) => i.est_bytes() + v.est_bytes(),
        }
    }
}

/// Intermediate value for IMHP joins: entry or factor row.
#[derive(Debug, Clone, PartialEq)]
pub enum ImhpVal {
    /// Tensor entry routed to this join key.
    Ent(Ix4, f64),
    /// Factor row for this join key.
    Row(Vec<f64>),
}

impl EstimateSize for ImhpVal {
    fn est_bytes(&self) -> usize {
        1 + match self {
            ImhpVal::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            ImhpVal::Row(row) => row.est_bytes(),
        }
    }
}

/// Merge-side value: one expanded entry from `T'` (`side` 0, slot-3 = q) or
/// `T''` (`side` 1, slot-3 = r), carrying `(j, k, slot3, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeVal {
    /// 0 = `T'` (B side), 1 = `T''` (C side).
    pub side: u8,
    /// Target-mode index (the merge key).
    pub i: u64,
    /// Mode-1 index.
    pub j: u64,
    /// Mode-2 index.
    pub k: u64,
    /// Factor-column index (q or r).
    pub d: u64,
    /// Value.
    pub v: f64,
}

impl EstimateSize for MergeVal {
    fn est_bytes(&self) -> usize {
        // side + j + k + d + v; the i index travels in the shuffle key, so it
        // is not double-counted here.
        1 + 8 + 8 + 8 + 8
    }
}

/// Convert a canonical 3-way tensor into `(Ix4, f64)` records (slot 3 = 0).
pub fn tensor_records(t: &CooTensor3) -> Vec<(Ix4, f64)> {
    t.entries()
        .iter()
        .map(|e| ((e.i, e.j, e.k, 0), e.v))
        .collect()
}

/// Total records across the shards of one dataset.
pub(crate) fn shards_len(shards: &[&[(Ix4, f64)]]) -> usize {
    shards.iter().map(|shard| shard.len()).sum()
}

/// Wrap tensor records (the shards of one dataset, in order) plus one
/// vector as [`TvRec`] job input.
pub fn tv_input(entries: &[&[(Ix4, f64)]], v: &[f64]) -> Vec<((), TvRec)> {
    let mut input: Vec<((), TvRec)> = Vec::with_capacity(shards_len(entries) + v.len());
    input.extend(
        entries
            .iter()
            .flat_map(|shard| shard.iter())
            .map(|&(ix, val)| ((), TvRec::Ent(ix, val))),
    );
    input.extend(
        v.iter()
            .enumerate()
            .filter(|(_, &c)| c != 0.0)
            .map(|(i, &c)| ((), TvRec::Coef(i as u64, c))),
    );
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_tensor::Entry3;

    #[test]
    fn record_sizes_positive() {
        assert!(TvRec::Ent((0, 0, 0, 0), 1.0).est_bytes() >= 40);
        assert!(TvRec::Coef(0, 1.0).est_bytes() >= 17);
        assert!(ImhpRec::Row(0, 1, vec![1.0; 10]).est_bytes() >= 80);
        assert_eq!(
            MergeVal {
                side: 0,
                i: 0,
                j: 0,
                k: 0,
                d: 0,
                v: 0.0
            }
            .est_bytes(),
            33
        );
    }

    #[test]
    fn tensor_records_roundtrip() {
        let t = CooTensor3::from_entries(
            [2, 2, 2],
            vec![Entry3::new(0, 1, 0, 2.0), Entry3::new(1, 0, 1, 3.0)],
        )
        .unwrap();
        let recs = tensor_records(&t);
        assert_eq!(recs.len(), 2);
        assert!(recs.contains(&((0, 1, 0, 0), 2.0)));
    }

    #[test]
    fn tv_input_skips_zero_coefs() {
        let input = tv_input(&[&[((0, 0, 0, 0), 1.0)]], &[0.0, 2.0, 0.0]);
        assert_eq!(input.len(), 2);
        assert!(matches!(input[1].1, TvRec::Coef(1, c) if c == 2.0));
    }
}
