//! Record types flowing through HaTen2's MapReduce jobs.
//!
//! All intermediate tensors are carried as `(Ix4, f64)` records: a 4-slot
//! index tuple plus a value. 3-way tensors leave slot 3 at 0; the Hadamard
//! expansions `T' = X *ₙ Bᵀ` and `T'' = bin(X) *ₙ Cᵀ` use slot 3 for the
//! factor-column index `q`/`r` — exactly the 4-way tensors of Lemmas 1–2.
//! An order-N tensor uses the same records: slot 0 is the target-mode
//! index and slots 1–2 label the nonzero (`(j, k)` at N = 3, the entry's
//! ordinal above it — see [`crate::ops`]), so no record is wider than this
//! whatever the order.

use crate::{CoreError, Result};
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

/// Input record for the integrated `IMHP(X, B, C, …)` job: a tensor entry
/// or a full factor-matrix row for one of the join sides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImhpRec {
    /// Tensor entry.
    Ent(Ix4, f64),
    /// Factor row `(side, index, row)`: side `s` joins on the index of the
    /// `s`-th non-target mode with a row of that mode's factor — at two
    /// sides, `Bᵀ` (length Q) on the mode-1 index and `Cᵀ` (length R) on
    /// the mode-2 index.
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

impl HadVal {
    /// The tensor entry, if this is one.
    #[must_use]
    pub fn entry(self) -> Option<(Ix4, f64)> {
        match self {
            HadVal::Ent(ix, v) => Some((ix, v)),
            HadVal::Coef(_) => None,
        }
    }
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

impl ImhpVal {
    /// The tensor entry, if this is one.
    #[must_use]
    pub fn entry(self) -> Option<(Ix4, f64)> {
        match self {
            ImhpVal::Ent(ix, v) => Some((ix, v)),
            ImhpVal::Row(_) => None,
        }
    }
}

impl EstimateSize for ImhpVal {
    fn est_bytes(&self) -> usize {
        1 + match self {
            ImhpVal::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            ImhpVal::Row(row) => row.est_bytes(),
        }
    }
}

/// Merge-side value: one expanded entry from `T'` (`side` 0, slot-3 = q),
/// `T''` (`side` 1, slot-3 = r) or a further `bin(X)` side, carrying
/// `(j, k, slot3, value)`. The target-mode index is the record's key, in
/// the map input and in the shuffle alike, and is not repeated here.
///
/// `(j, k)` is a join label: the merges compare it for equality, to pair a
/// value with the other sides' values of the same nonzero, and never read
/// it as an index. Any injective label of the nonzero will do.
///
/// Laid out as the three 8-byte words `j`, `k`, `v`, then the `u32`
/// column `d` beside the `side` byte: 32 bytes in memory, priced at 33
/// (`FIXED_BYTES`, the width the cost model and every byte counter use).
/// A column index never exceeds the rank or a core size, and the fronts
/// refuse either above `u32::MAX` before a job runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeVal {
    /// First half of the nonzero's label (the mode-1 index at N = 3).
    pub j: u64,
    /// Second half of the label (the mode-2 index at N = 3).
    pub k: u64,
    /// Value.
    pub v: f64,
    /// Factor-column index (q or r).
    pub d: u32,
    /// The join side: 0 = `T'` (carries `X`'s values), 1 = `T''`, ….
    pub side: u8,
}

impl EstimateSize for MergeVal {
    // side + j + k + d + v, the column priced at the 8 bytes it has on the
    // wire. Declared fixed so the two largest jobs' input splits and reduce
    // groups are sized in O(1), not record by record.
    const FIXED_BYTES: Option<usize> = Some(1 + 8 + 8 + 8 + 8);

    fn est_bytes(&self) -> usize {
        1 + 8 + 8 + 8 + 8
    }
}

/// Refuse a factor-column count — a rank, a core size — above `u32::MAX`,
/// the widest a [`MergeVal`] column index holds. Every kernel front checks
/// its counts with this before it submits a job.
pub(crate) fn check_columns(what: &str, columns: usize) -> Result<()> {
    if u32::try_from(columns).is_err() {
        return Err(CoreError::InvalidArgument(format!(
            "{what} {columns} is above u32::MAX, the widest merge column index"
        )));
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_tensor::Entry3;

    #[test]
    fn record_sizes_positive() {
        assert!(TvRec::Ent((0, 0, 0, 0), 1.0).est_bytes() >= 40);
        assert!(TvRec::Coef(0, 1.0).est_bytes() >= 17);
        assert!(ImhpRec::Row(0, 1, vec![1.0; 10]).est_bytes() >= 80);
        let merge = MergeVal {
            side: 0,
            j: 0,
            k: 0,
            d: 0,
            v: 0.0,
        };
        assert_eq!(merge.est_bytes(), 33);
        assert_eq!(MergeVal::FIXED_BYTES, Some(33));
        // The key rides beside the value in every shuffle bucket; the
        // value does not carry a second copy of it, and its column index
        // is a `u32` beside the side byte.
        assert_eq!(std::mem::size_of::<MergeVal>(), 32);
        // Never wider in memory than on the wire.
        assert!(std::mem::size_of::<MergeVal>() <= MergeVal::FIXED_BYTES.unwrap());
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
}
