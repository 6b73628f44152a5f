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
/// or a factor-matrix row for one of the join sides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImhpRec {
    /// Tensor entry.
    Ent(Ix4, f64),
    /// Factor row `(side, index, width)`: side `s` joins on the index of
    /// the `s`-th non-target mode with row `index` of that mode's factor,
    /// `width` values wide — at two sides, a row of `B` (length Q) on the
    /// mode-1 index and one of `C` (length R) on the mode-2 index. The
    /// record names the row and the reducer reads it where the factor
    /// lies; it is priced as the `Vec<f64>` of the row's values.
    Row(u8, u64, usize),
}

impl EstimateSize for ImhpRec {
    fn est_bytes(&self) -> usize {
        1 + match self {
            ImhpRec::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            ImhpRec::Row(s, i, width) => s.est_bytes() + i.est_bytes() + row_bytes(*width),
        }
    }
}

/// What a factor row of `width` values weighs on the wire: the `Vec<f64>`
/// the row travels as, whether a record carries it or names it.
fn row_bytes(width: usize) -> usize {
    Vec::<f64>::new().est_bytes() + width * 0.0f64.est_bytes()
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
    /// Factor row for this join key, `width` values wide: the reducer
    /// reads the key's row of the factor it joins. Priced as the
    /// `Vec<f64>` of the row's values.
    Row(usize),
}

impl ImhpVal {
    /// The tensor entry, if this is one.
    #[must_use]
    pub fn entry(self) -> Option<(Ix4, f64)> {
        match self {
            ImhpVal::Ent(ix, v) => Some((ix, v)),
            ImhpVal::Row(..) => None,
        }
    }
}

impl EstimateSize for ImhpVal {
    fn est_bytes(&self) -> usize {
        1 + match self {
            ImhpVal::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            ImhpVal::Row(width) => row_bytes(*width),
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
/// Laid out as the value beside one tag word that packs, high to low, the
/// label `(j, k)`, the column `d` and the `side`, each field as wide as a
/// [`MergeLayout`] says: 16 bytes in memory, 24 with its key in a shuffle
/// bucket. Priced at 33 (`FIXED_BYTES`, the paper's `(side, j, k, d, v)`
/// record, which the cost model and every byte counter use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeVal {
    /// Value.
    pub v: f64,
    /// `(j, k, d, side)`, packed by the call's [`MergeLayout`].
    pub tag: u64,
}

impl EstimateSize for MergeVal {
    // side + j + k + d + v, each index priced at the 8 bytes it has on the
    // wire. Declared fixed so the two largest jobs' input splits and reduce
    // groups are sized in O(1), not record by record.
    const FIXED_BYTES: Option<usize> = Some(1 + 8 + 8 + 8 + 8);

    fn est_bytes(&self) -> usize {
        1 + 8 + 8 + 8 + 8
    }
}

/// How one kernel call packs a [`MergeVal`]'s tag: the bit widths of the
/// label halves `j` and `k`, the column `d` and the `side`, each the bit
/// count of the largest value its extent holds. The fronts build one from
/// the call's extents before a job runs: at N = 3 the canonical dims of
/// slots 1 and 2, at N > 3 `(nnz, 1)` (the entry's ordinal and 0); the
/// widest factor-column count; the side count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeLayout {
    /// The lowest bit of each field in the tag — side, column, `k`, `j`.
    at: [u32; 4],
    /// Each field's low-bit mask, in the same order.
    mask: [u64; 4],
}

/// Bits of the largest value below `extent`: 0 for an extent of 0 or 1.
fn bits_below(extent: u64) -> u32 {
    u64::BITS - extent.saturating_sub(1).leading_zeros()
}

impl MergeLayout {
    /// The layout for labels `(j, k)` below `labels`, `columns` factor
    /// columns and `sides` join sides. Refused with `InvalidArgument`, so
    /// before any job runs: a column count above `u32::MAX` (`what` names
    /// it), more than 256 sides, or extents whose widths sum past the
    /// tag's 64 bits.
    pub fn new(what: &str, labels: [u64; 2], columns: usize, sides: usize) -> Result<Self> {
        let refuse = |detail: String| Err(CoreError::InvalidArgument(detail));
        let Ok(columns) = u32::try_from(columns) else {
            return refuse(format!(
                "{what} {columns} is above u32::MAX, the widest merge column index"
            ));
        };
        if sides > 256 {
            return refuse(format!("{sides} join sides: a merge side is a u8"));
        }
        let widths = [
            bits_below(sides as u64),
            bits_below(u64::from(columns)),
            bits_below(labels[1]),
            bits_below(labels[0]),
        ];
        let total: u32 = widths.iter().sum();
        if total > u64::BITS {
            return refuse(format!(
                "labels {} x {}, {columns} columns and {sides} sides need {total} bits, \
                 past the 64 of a merge record's tag",
                labels[0], labels[1]
            ));
        }
        let mut at = [0; 4];
        for f in 1..4 {
            at[f] = at[f - 1] + widths[f - 1];
        }
        Ok(MergeLayout {
            at,
            mask: widths.map(|w| u64::MAX.checked_shr(u64::BITS - w).unwrap_or(0)),
        })
    }

    /// The layout of a 3-way kernel call over canonical dims `dims` whose
    /// two factors are `columns` wide: labels `(j, k)` below the dims of
    /// slots 1 and 2, the wider factor's columns, two sides.
    pub(crate) fn three_way(what: &str, dims: [u64; 3], columns: [usize; 2]) -> Result<Self> {
        Self::new(what, [dims[1], dims[2]], columns[0].max(columns[1]), 2)
    }

    /// The tag of `(j, k, d)` on side `side`. A field wider than its width
    /// is a bug in the front that built the layout, and panics.
    #[inline]
    pub fn pack(&self, side: u8, j: u64, k: u64, d: u64) -> u64 {
        let fields = [u64::from(side), d, k, j];
        let past = (0..4).fold(0, |past, f| past | (fields[f] & !self.mask[f]));
        if past != 0 {
            self.misfit(side, j, k, d);
        }
        // A field is shifted 64 places only when it is 0 bits wide, so 0.
        (0..4).fold(0, |tag, f| tag | fields[f].wrapping_shl(self.at[f]))
    }

    #[cold]
    fn misfit(&self, side: u8, j: u64, k: u64, d: u64) -> ! {
        if d > u64::from(u32::MAX) {
            panic!("merge side {side}: column {d} does not fit a u32 column index");
        }
        panic!("merge side {side}: (j {j}, k {k}, column {d}) does not fit {self:?}")
    }

    /// `(side, j, k, d)` of `tag`.
    pub fn unpack(&self, tag: u64) -> (u8, u64, u64, u64) {
        let field = |f: usize| tag.checked_shr(self.at[f]).unwrap_or(0) & self.mask[f];
        (self.side(tag), field(3), field(2), field(1))
    }

    /// The label `(j, k)` of `tag` as one word.
    #[inline]
    pub fn label(&self, tag: u64) -> u64 {
        // At most 8 side and 32 column bits lie below it.
        tag >> self.at[2]
    }

    /// The column `d` of `tag`.
    #[inline]
    pub fn column(&self, tag: u64) -> u64 {
        (tag >> self.at[1]) & self.mask[1]
    }

    /// The side of `tag`.
    #[inline]
    pub fn side(&self, tag: u64) -> u8 {
        (tag & self.mask[0]) as u8
    }
}

/// Refuse a 3-way target mode other than 0, 1 or 2.
pub(crate) fn check_mode(mode: usize) -> Result<()> {
    if mode > 2 {
        return Err(CoreError::InvalidArgument(format!(
            "mode {mode} out of range"
        )));
    }
    Ok(())
}

/// Convert a canonical 3-way tensor into `(Ix4, f64)` records (slot 3 = 0).
pub fn tensor_records(t: &CooTensor3) -> Vec<(Ix4, f64)> {
    let mut records = Vec::new();
    tensor_records_into(t, &mut records);
    records
}

/// [`tensor_records`] written over `records`, in the storage it has.
pub(crate) fn tensor_records_into(t: &CooTensor3, records: &mut Vec<(Ix4, f64)>) {
    records.clear();
    records.extend(t.entries().iter().map(|e| ((e.i, e.j, e.k, 0), e.v)));
}

/// Total records across the shards of one dataset.
pub(crate) fn shards_len(shards: &[&[(Ix4, f64)]]) -> usize {
    shards.iter().map(|shard| shard.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_tensor::Entry3;
    use proptest::prelude::*;

    #[test]
    fn record_sizes_positive() {
        assert!(TvRec::Ent((0, 0, 0, 0), 1.0).est_bytes() >= 40);
        assert!(TvRec::Coef(0, 1.0).est_bytes() >= 17);
        assert!(ImhpRec::Row(0, 1, 10).est_bytes() >= 80);
        let merge = MergeVal { v: 0.0, tag: 0 };
        assert_eq!(merge.est_bytes(), 33);
        assert_eq!(MergeVal::FIXED_BYTES, Some(33));
        // The key rides beside the value in every shuffle bucket; the
        // value does not carry a second copy of it, and its label, column
        // and side share one word.
        assert_eq!(std::mem::size_of::<MergeVal>(), 16);
        // Never wider in memory than on the wire.
        assert!(std::mem::size_of::<MergeVal>() <= MergeVal::FIXED_BYTES.unwrap());
    }

    #[test]
    fn a_row_named_by_index_and_width_prices_as_its_values() {
        // What a factor row record weighed when it carried the row.
        for width in [1, 5, 10, 64] {
            let row = vec![0.5; width];
            let (side, idx) = (1u8, 7u64);
            let carried = 1 + side.est_bytes() + idx.est_bytes() + row.est_bytes();
            assert_eq!(
                ImhpRec::Row(side, idx, width).est_bytes(),
                carried,
                "{width}"
            );
            assert_eq!(
                ImhpVal::Row(width).est_bytes(),
                1 + row.est_bytes(),
                "{width}"
            );
        }
    }

    /// Extents whose widths sum to at most 64 bits, half of them to
    /// exactly 64: `(j, k)` label extents, a column count and a side count.
    fn extents() -> impl Strategy<Value = ([u64; 2], usize, usize)> {
        let widths = (0u32..=8, 0u32..=32).prop_flat_map(|(s, d)| {
            let left = 64 - s - d;
            (0..=left).prop_flat_map(move |j| {
                let k = (0..=left - j, any::<bool>());
                k.prop_map(move |(k, exact)| [s, d, j, if exact { left - j } else { k }])
            })
        });
        widths.prop_flat_map(|[s, d, j, k]| {
            // Every extent in `2^(w-1) + 1 ..= 2^w` needs exactly `w` bits;
            // at 64 bits the top is `u64::MAX`.
            let extent = |w: u32| {
                let lo = if w == 0 { 1 } else { (1u64 << (w - 1)) + 1 };
                lo..=1u64.checked_shl(w).unwrap_or(u64::MAX)
            };
            let columns = extent(d).prop_map(|e| e.min(u64::from(u32::MAX)) as usize);
            (
                extent(j),
                extent(k),
                columns,
                extent(s).prop_map(|e| e as usize),
            )
                .prop_map(|(j, k, columns, sides)| ([j, k], columns, sides))
        })
    }

    proptest! {
        /// Pack then unpack gives every field back, at random extents up to
        /// the widest that fit the 64-bit tag exactly; the label, column
        /// and side read by shift and mask agree with the whole unpack.
        #[test]
        fn merge_layout_round_trips_every_field(
            (labels, columns, sides) in extents(),
            picks in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ) {
            let layout = MergeLayout::new("rank", labels, columns, sides).unwrap();
            // The largest value of each field, and a random one below it.
            let pick = |x: u64, extent: u64| match extent {
                0 | 1 => 0,
                e => if x.is_multiple_of(4) { e - 1 } else { x % e },
            };
            let j = pick(picks.0, labels[0]);
            let k = pick(picks.1, labels[1]);
            let d = pick(picks.2, columns as u64);
            let side = pick(picks.3, sides as u64) as u8;
            let tag = layout.pack(side, j, k, d);
            prop_assert_eq!(layout.unpack(tag), (side, j, k, d));
            prop_assert_eq!(layout.column(tag), d);
            prop_assert_eq!(layout.side(tag), side);
            let other = layout.pack(side, j, k ^ u64::from(labels[1] > 1), d);
            prop_assert_eq!(layout.label(tag) == layout.label(other), labels[1] <= 1);
        }
    }

    #[test]
    fn merge_layout_refuses_extents_one_bit_past_64() {
        // 23 M x 23 M labels (Freebase's entity modes), rank 10, two
        // sides: 25 + 25 + 4 + 1 = 55 bits.
        let freebase = MergeLayout::new("rank", [23_000_000; 2], 10, 2).unwrap();
        assert_eq!(freebase.at, [0, 1, 5, 30]);
        // Exactly 64 bits packs, 65 is refused.
        let full = [1u64 << 31, 1 << 31];
        MergeLayout::new("rank", full, 1 << 1, 2).unwrap();
        let past = MergeLayout::new("rank", full, 1 << 2, 2);
        assert!(
            matches!(&past, Err(CoreError::InvalidArgument(m)) if m.contains("65 bits")),
            "{past:?}"
        );
        let wide = MergeLayout::new("rank", [1, 1], u32::MAX as usize + 1, 2);
        assert!(
            matches!(&wide, Err(CoreError::InvalidArgument(m)) if m.contains("u32::MAX")),
            "{wide:?}"
        );
        // A side is a `u8` in IMHP's records: 256 sides fit, 257 do not.
        MergeLayout::new("rank", [1, 1], 1, 256).unwrap();
        assert!(MergeLayout::new("rank", [1, 1], 1, 257).is_err());
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
