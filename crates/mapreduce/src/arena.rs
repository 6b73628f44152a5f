//! Columnar (SoA) record buffers for the engine's hot data path.
//!
//! The seed engine pushed owned `(K, V)` tuples into per-partition
//! `Vec<(K, V)>` buckets, sorted those tuples (moving `size_of::<(K, V)>()`
//! bytes per swap), and re-materialized every reduce group as an owned
//! `Vec<V>`. This module replaces all three with columnar storage:
//!
//! * [`ColumnBuffer`] — keys and values in two contiguous arenas. Map
//!   emit appends to both columns ([`MapOutput::emit`] takes a key and a
//!   value, never an owned tuple); nothing else in the engine's map and
//!   shuffle path pushes per-record tuples.
//! * Sorting computes each record's `u32` destination over the key column
//!   ([`sort_destinations`]) and moves both columns there in place with
//!   cycle-following swaps ([`apply_destinations`]) — the ranking never
//!   moves a value, and the move loop is O(n) swaps. A key type with an
//!   integer image ([`EstimateSize::ORDER_IMAGE`]) is ranked by counting
//!   when the bucket's key span is narrow for its length; any other
//!   bucket by a comparison sort ([`sort_permutation`]).
//! * [`MapOutput`] — one task's map output: a [`ColumnBuffer`] per reduce
//!   partition, filled through the job's partitioner. Map tasks fill one
//!   each; a [`Collect`] may fill them for the next job.
//! * [`ColumnRun`] — a sealed, immutable sorted run. The shuffle moves
//!   these wholesale; reducers open them as [`RunCursor`]s and stream
//!   each key group through [`GroupValues`] without materializing it.
//! * [`Collect`] — where a reduce task writes what its reducer emits. The
//!   row-major `Vec<(K, V)>` callers of [`crate::job::run_job`] expect is
//!   one collector; a job whose output feeds another job supplies its own,
//!   and writes the next job's input shards, or the next job's map output,
//!   directly.
//! * Columns of 128 KiB or more are not the allocator's. They come from
//!   and go back to the cluster's column recycler ([`crate::recycle`]): a
//!   hinted bucket and the sort scratch take the best fit on its shelf,
//!   and a full bucket (unhinted, or filled by a [`Collect`] for the next
//!   job) grows into one. Sealing trims each bucket to its length and
//!   hands back the scratch. A reduce task hands back both columns of
//!   every run it drained ([`RunCursor::into_columns`]; the values stream
//!   out of a `VecDeque`, so their column comes back whole).
//!
//! Byte accounting is column-wise: `slice_est_bytes(keys) +
//! slice_est_bytes(vals)` equals the seed's tuple-wise sum exactly
//! (tuple estimates are component sums, see [`crate::size`]), so metrics
//! stay bit-identical to the reference executor.

use crate::job::{Combiner, Partitioner};
use crate::recycle;
use crate::size::{slice_est_bytes, EstimateSize};
use crate::RECORD_FRAMING_BYTES as FRAMING_BYTES;
use std::collections::VecDeque;
use std::hash::Hash;

/// A growable pair of key/value columns — the SoA replacement for
/// `Vec<(K, V)>` in the map-emit and shuffle paths.
pub(crate) struct ColumnBuffer<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K: Send + 'static, V: Send + 'static> ColumnBuffer<K, V> {
    /// Empty buffer with both columns pre-sized to `cap`, recycled where
    /// they take part ([`recycle::with_capacity`]).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        ColumnBuffer {
            keys: recycle::with_capacity(cap),
            vals: recycle::with_capacity(cap),
        }
    }

    /// Append one record. The only per-record append in the hot path. A
    /// full column grows through [`recycle::grow`].
    #[inline]
    pub(crate) fn push(&mut self, key: K, val: V) {
        if self.keys.len() == self.keys.capacity() {
            recycle::grow(&mut self.keys);
        }
        if self.vals.len() == self.vals.capacity() {
            recycle::grow(&mut self.vals);
        }
        self.keys.push(key);
        self.vals.push(val);
    }
}

impl<K, V> ColumnBuffer<K, V> {
    /// Empty buffer with no reservation.
    pub(crate) fn new() -> Self {
        ColumnBuffer {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<K, V> Default for ColumnBuffer<K, V> {
    fn default() -> Self {
        ColumnBuffer::new()
    }
}

impl<K, V> ColumnBuffer<K, V> {
    /// Records stored.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the buffer holds no records.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Where a reduce task writes its records — the engine's counterpart of
/// Hadoop's `RecordWriter`. Every reduce task owns one collector, created
/// by [`Collect::for_partitions`]; each record its reducer emits is handed
/// over after the engine has counted and sized it, in emission order. A
/// job returns its collectors one per partition, in partition order
/// ([`crate::job::run_job_collect`]). A collector that stores records the
/// way the next job reads them makes the hand-off copy-free; one that
/// applies the next job's map function and fills its [`MapOutput`] runs
/// that map inside this job's reduce tasks
/// ([`crate::job::run_job_written`]).
pub trait Collect<K, V>: Default + Send {
    /// A reduce task's collector on a cluster that shuffles into
    /// `partitions` reduce partitions — the fan-out a collector filling
    /// the next job's [`MapOutput`] cuts its buckets for. `Default` unless
    /// overridden.
    fn for_partitions(partitions: usize) -> Self {
        let _ = partitions;
        Self::default()
    }

    /// Take ownership of one emitted record.
    fn collect(&mut self, key: K, val: V);
}

/// Row-major output, used only at the API boundary where callers expect
/// `(key, value)` pairs: one tuple push per *output* record, never on the
/// map-emit or shuffle path.
impl<K: Send, V: Send> Collect<K, V> for Vec<(K, V)> {
    #[inline]
    fn collect(&mut self, key: K, val: V) {
        self.push((key, val));
    }
}

impl<K: EstimateSize, V: EstimateSize> ColumnBuffer<K, V> {
    /// Estimated wire bytes of the buffered records, framing included.
    /// Column-wise but numerically identical to the seed's tuple-wise sum.
    pub(crate) fn est_bytes(&self) -> usize {
        slice_est_bytes(&self.keys) + slice_est_bytes(&self.vals) + self.len() * FRAMING_BYTES
    }
}

impl<K: Ord + EstimateSize, V> ColumnBuffer<K, V> {
    /// Stable sort by key: every record's destination is ranked over the
    /// key column ([`sort_destinations`] — by counting when the key type
    /// has an integer image of narrow span, by comparison otherwise), then
    /// both columns move there in place. Emission order within equal keys
    /// is preserved, so both rankings yield the same order.
    pub(crate) fn sort_stable(&mut self) {
        // Already-sorted detection first: a stable sort of sorted input is
        // the identity, and hash-partitioned buckets routinely hold a
        // single distinct key (low-cardinality jobs), so this O(n) scan
        // saves the ranking's scratch on the hottest small-job path.
        if self.keys.is_sorted() {
            return;
        }
        let mut dest = sort_destinations(&self.keys);
        apply_destinations(&mut dest, &mut self.keys, &mut self.vals);
        recycle::give(dest);
    }
}

impl<K: Clone + Ord + Send + 'static, V: Send + 'static> ColumnBuffer<K, V> {
    /// Apply a map-side combiner to each key group of the (sorted) buffer.
    /// Same contract as the seed's `combine_bucket`: values reach the
    /// combiner in emission order; output stays key-sorted.
    pub(crate) fn combine(&mut self, combiner: Combiner<'_, K, V>) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        let mut vals_it = old_vals.into_iter();
        let mut start = 0usize;
        while start < old_keys.len() {
            let mut end = start + 1;
            while end < old_keys.len() && old_keys[end] == old_keys[start] {
                end += 1;
            }
            let group: Vec<V> = vals_it.by_ref().take(end - start).collect();
            for v in combiner(&old_keys[start], group) {
                self.push(old_keys[start].clone(), v);
            }
            start = end;
        }
    }
}

impl<K: EstimateSize, V: EstimateSize> ColumnBuffer<K, V> {
    /// Seal into an immutable sorted run carrying precomputed wire bytes,
    /// each column trimmed to its length ([`recycle::trim`]).
    pub(crate) fn seal(mut self, bytes: usize) -> ColumnRun<K, V> {
        recycle::trim(&mut self.keys);
        recycle::trim(&mut self.vals);
        ColumnRun {
            keys: self.keys,
            vals: self.vals,
            bytes,
        }
    }
}

/// One task's map output: a key/value column bucket per reduce partition,
/// filled through the job's partitioner. A job's map tasks fill one each;
/// a [`Collect`] can fill them for the next job, so that job's map
/// function runs in the reduce tasks that produce its input and the job
/// starts at its shuffle ([`crate::job::run_job_written`]).
///
/// The partition of the last record is memoised: a key equal to the last
/// key of the bucket written last goes to that bucket unhashed. A mapper
/// that emits a key's records back to back (IMHP's writer emits a
/// nonzero's `R` columns under one merge key) hashes each run of them once.
pub struct MapOutput<K, V> {
    buckets: Vec<ColumnBuffer<K, V>>,
    partitioner: Partitioner,
    /// The bucket the last record went to.
    last: usize,
    /// Records presented to the map function that filled this output
    /// outside a job ([`MapOutput::count_input`]).
    inputs: usize,
}

impl<K, V> MapOutput<K, V> {
    /// Empty buckets for `partitions` reduce partitions (at least one).
    #[must_use]
    pub fn new(partitions: usize) -> Self {
        MapOutput::from_buckets(partitions, |_| ColumnBuffer::new())
    }

    fn from_buckets(partitions: usize, bucket: impl FnMut(usize) -> ColumnBuffer<K, V>) -> Self {
        let partitioner = Partitioner::new(partitions);
        MapOutput {
            buckets: (0..partitioner.partitions()).map(bucket).collect(),
            partitioner,
            last: 0,
            inputs: 0,
        }
    }

    /// Reduce partitions the buckets are cut for.
    pub(crate) fn partitions(&self) -> usize {
        self.buckets.len()
    }

    /// Count one record presented to the map function that fills this
    /// output outside a job: the consuming job's map input.
    #[inline]
    pub fn count_input(&mut self) {
        self.inputs += 1;
    }

    /// Records counted by [`MapOutput::count_input`].
    pub(crate) fn inputs(&self) -> usize {
        self.inputs
    }

    /// Whether nothing was emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(ColumnBuffer::is_empty)
    }

    /// The records emitted, partition by partition, each partition's in
    /// emission order.
    pub fn records(&self) -> impl Iterator<Item = (&K, &V)> {
        self.buckets.iter().flat_map(|b| b.keys.iter().zip(&b.vals))
    }
}

impl<K: Send + 'static, V: Send + 'static> MapOutput<K, V> {
    /// Empty buckets with both columns of each pre-sized to `cap`.
    pub(crate) fn with_bucket_capacity(partitions: usize, cap: usize) -> Self {
        MapOutput::from_buckets(partitions, |_| ColumnBuffer::with_capacity(cap))
    }
}

impl<K: Hash + PartialEq + Send + 'static, V: Send + 'static> MapOutput<K, V> {
    /// Append one record to its partition's bucket.
    #[inline]
    pub fn emit(&mut self, key: K, val: V) {
        let p = match self.buckets[self.last].keys.last() {
            Some(last) if *last == key => self.last,
            _ => self.partitioner.partition_of(&key),
        };
        self.last = p;
        self.buckets[p].push(key, val);
    }
}

/// A task's map output as the shuffle takes it: sealed `(partition, run)`
/// pairs in partition order, plus the records and wire bytes emitted.
pub(crate) struct Sealed<K, V> {
    /// **Non-empty cells only**: a tiny job on a wide cluster touches a
    /// handful of its `tasks × reducers` cells, and shuffling the empty
    /// ones was a measurable per-job constant.
    pub(crate) runs: Vec<(u32, ColumnRun<K, V>)>,
    /// Records emitted, before any combiner.
    pub(crate) records: usize,
    /// Their wire bytes, framing included: the paper's intermediate data.
    pub(crate) bytes: usize,
}

impl<K: Clone + Ord + EstimateSize + Send + 'static, V: EstimateSize + Send + 'static>
    MapOutput<K, V>
{
    /// Sort each non-empty bucket by key — stably, so emission order
    /// survives within equal keys and reducers merge instead of
    /// re-sorting — apply `combiner`, and seal the buckets into runs. The
    /// buckets are left empty, ready to be filled again.
    pub(crate) fn seal(&mut self, combiner: Option<Combiner<'_, K, V>>) -> Sealed<K, V> {
        let mut sealed = Sealed {
            runs: Vec::new(),
            records: 0,
            bytes: 0,
        };
        for (p, slot) in (0u32..).zip(&mut self.buckets) {
            if slot.is_empty() {
                continue;
            }
            let mut bucket = std::mem::take(slot);
            // Batch-sized: O(1) for fixed-size record types.
            let bytes = bucket.est_bytes();
            sealed.records += bucket.len();
            sealed.bytes += bytes;
            bucket.sort_stable();
            let bytes = match combiner {
                Some(combiner) => {
                    bucket.combine(combiner);
                    bucket.est_bytes()
                }
                None => bytes,
            };
            sealed.runs.push((p, bucket.seal(bytes)));
        }
        sealed
    }
}

/// One map task's sealed output for one partition: columnar records sorted
/// by key, plus their aggregate wire size. The shuffle moves these
/// wholesale — two `Vec` moves per (task × partition), never per record.
pub(crate) struct ColumnRun<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
    bytes: usize,
}

impl<K, V> ColumnRun<K, V> {
    /// Records in the run.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Precomputed wire bytes (framing included).
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Open the run for the reduce-side streaming merge.
    pub(crate) fn into_cursor(self) -> RunCursor<K, V> {
        RunCursor::from_columns(self.keys, self.vals)
    }
}

/// Counting ranks a bucket whose key span is below this many counters per
/// record; a wider one is ranked by comparison. Measured on 8 – 62 500-
/// record buckets of random `u64` keys with the benchmark's pinned mmap
/// threshold (EXPERIMENTS.md, "The DRI merge at integer speed"): counting
/// beat comparison at every length up to a ratio of 16, and from 32 on
/// lost on the shortest and the longest buckets, where its counter array
/// outgrows the records it ranks.
const COUNTING_SPAN_PER_RECORD: u64 = 16;

/// Whether a bucket of `len` records whose key images span `span`
/// (max − min) is ranked by counting rather than by comparison.
fn counts(len: usize, span: u64) -> bool {
    span < (len as u64).saturating_mul(COUNTING_SPAN_PER_RECORD)
}

/// Every record's rank in the stable key order: record `i` goes to
/// `dest[i]`, the inverse of [`sort_permutation`]'s permutation. A key
/// type with an [`EstimateSize::ORDER_IMAGE`] whose span is narrow for
/// the bucket's length is ranked by counting; any other by comparison.
pub(crate) fn sort_destinations<K: Ord + EstimateSize>(keys: &[K]) -> Vec<u32> {
    debug_assert!(keys.len() <= u32::MAX as usize);
    if let Some(image) = K::ORDER_IMAGE {
        let mut images = keys.iter().map(image);
        if let Some(first) = images.next() {
            let (min, max) = images.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x)));
            let span = max - min;
            if counts(keys.len(), span) {
                return counting_destinations(keys, image, min, span);
            }
        }
    }
    let perm = sort_permutation(keys);
    let dest = invert(&perm);
    recycle::give(perm);
    dest
}

/// Counting sort over the images `min ..= min + span`: one counter per
/// value turned into each value's first destination, and a record's
/// destination is its value's next free slot, so records of one key keep
/// their order.
fn counting_destinations<K>(keys: &[K], image: fn(&K) -> u64, min: u64, span: u64) -> Vec<u32> {
    let counter = |k: &K| (image(k) - min) as usize;
    let mut next = recycle::zeroed(span as usize + 1);
    for k in keys {
        next[counter(k)] += 1;
    }
    let mut sum = 0;
    for c in &mut next {
        (sum, *c) = (sum + *c, sum);
    }
    let mut dest = recycle::with_capacity(keys.len());
    dest.extend(keys.iter().map(|k| {
        let slot = &mut next[counter(k)];
        *slot += 1;
        *slot - 1
    }));
    recycle::give(next);
    dest
}

/// Stable sort permutation over `keys`: `perm[rank]` is the index of the
/// record holding that rank. `u32` indices halve the bytes moved per sort
/// compared to shuffling 16–24-byte record tuples.
pub(crate) fn sort_permutation<K: Ord>(keys: &[K]) -> Vec<u32> {
    debug_assert!(keys.len() <= u32::MAX as usize);
    let mut perm = recycle::with_capacity(keys.len());
    perm.extend(0..keys.len() as u32);
    // Stable, so emission order survives within equal keys.
    perm.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    perm
}

/// A permutation's destinations: `dest[perm[rank]] = rank`.
fn invert(perm: &[u32]) -> Vec<u32> {
    let mut dest = recycle::zeroed(perm.len());
    for (rank, &source) in (0u32..).zip(perm) {
        dest[source as usize] = rank;
    }
    dest
}

/// Move both columns in place so that record `i` lands at `dest[i]`,
/// using O(n) cycle-following swaps and no per-record allocation.
/// Consumes `dest` as scratch.
pub(crate) fn apply_destinations<K, V>(dest: &mut [u32], keys: &mut [K], vals: &mut [V]) {
    debug_assert_eq!(dest.len(), keys.len());
    debug_assert_eq!(dest.len(), vals.len());
    for i in 0..dest.len() {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            keys.swap(i, j);
            vals.swap(i, j);
            dest.swap(i, j);
        }
    }
}

/// A read cursor over one sorted [`ColumnRun`]: keys stay addressable as a
/// slice (for group prefix counting) while values stream out by move. The
/// values are a `VecDeque` over the run's value column, so a drained
/// cursor gives its column back ([`RunCursor::into_columns`]).
pub(crate) struct RunCursor<K, V> {
    keys: Vec<K>,
    pos: usize,
    vals: VecDeque<V>,
}

impl<K, V> RunCursor<K, V> {
    pub(crate) fn from_columns(keys: Vec<K>, vals: Vec<V>) -> Self {
        debug_assert_eq!(keys.len(), vals.len());
        RunCursor {
            keys,
            pos: 0,
            vals: VecDeque::from(vals),
        }
    }

    /// The run's two columns, emptied, for [`recycle::give`].
    pub(crate) fn into_columns(self) -> (Vec<K>, Vec<V>) {
        let (mut keys, mut vals) = (self.keys, self.vals);
        keys.clear();
        vals.clear();
        (keys, Vec::from(vals))
    }

    /// The key at the cursor, if any records remain.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<&K> {
        self.keys.get(self.pos)
    }

    /// Keys at and after the cursor — the unconsumed suffix.
    #[inline]
    pub(crate) fn pending_keys(&self) -> &[K] {
        &self.keys[self.pos..]
    }

    /// Values at and after the cursor, parallel to [`RunCursor::pending_keys`].
    #[inline]
    pub(crate) fn pending_vals(&self) -> &[V] {
        // Built from a `Vec` and only ever popped at the front, the deque
        // stays in one piece.
        self.vals.as_slices().0
    }

    /// Advance past the current record, yielding its value by move.
    #[inline]
    fn next_val(&mut self) -> V {
        self.pos += 1;
        self.vals.pop_front().expect("cursor columns in lockstep")
    }
}

/// Streaming iterator over one key group's values during the reduce-side
/// k-way merge. Yields values in run (= map task) order — the exact order
/// the seed engine materialized into its per-group `Vec` — **without ever
/// holding the whole group**: each `next()` moves one value out of its
/// run cursor. The merge sizes each group before streaming it, so the
/// iterator is driven by those per-run prefix counts rather than
/// re-comparing keys on every value. [`crate::job::run_job_streaming`]
/// reducers consume this directly; the classic `Vec`-based
/// [`crate::job::run_job`] collects it once, at the engine boundary.
pub struct GroupValues<'a, K, V> {
    cursors: &'a mut [RunCursor<K, V>],
    key: &'a K,
    /// `counts[i]` = how many of this group's values run `i` holds.
    counts: &'a [u32],
    run: usize,
    /// Values left to yield from `cursors[run]` before moving on.
    left: u32,
    remaining: usize,
}

impl<'a, K: Ord, V> GroupValues<'a, K, V> {
    pub(crate) fn new(
        cursors: &'a mut [RunCursor<K, V>],
        key: &'a K,
        counts: &'a [u32],
        remaining: usize,
    ) -> Self {
        debug_assert_eq!(
            counts.iter().map(|&c| c as usize).sum::<usize>(),
            remaining,
            "group counts must sum to the group size"
        );
        GroupValues {
            cursors,
            key,
            counts,
            run: 0,
            left: counts.first().copied().unwrap_or(0),
            remaining,
        }
    }

    /// The group's key.
    pub fn key(&self) -> &K {
        self.key
    }

    /// Values not yet yielded.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the group is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl<K: Ord, V> Iterator for GroupValues<'_, K, V> {
    type Item = V;

    #[inline]
    fn next(&mut self) -> Option<V> {
        if self.remaining == 0 {
            return None;
        }
        while self.left == 0 {
            self.run += 1;
            self.left = self.counts[self.run];
        }
        self.left -= 1;
        self.remaining -= 1;
        Some(self.cursors[self.run].next_val())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K: Ord, V> ExactSizeIterator for GroupValues<'_, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn permutation_sort_matches_tuple_sort_and_is_stable() {
        // Duplicate keys with distinguishable values: stability visible.
        let mut buf: ColumnBuffer<u64, (u64, u64)> = ColumnBuffer::new();
        let records = [(3u64, 0u64), (1, 1), (3, 2), (2, 3), (1, 4), (3, 5)];
        for (k, i) in records {
            buf.push(k, (k, i));
        }
        buf.sort_stable();
        let sorted: Vec<_> = buf.keys.into_iter().zip(buf.vals).collect();
        let mut expect: Vec<(u64, (u64, u64))> =
            records.iter().map(|&(k, i)| (k, (k, i))).collect();
        expect.sort_by_key(|a| a.0);
        assert_eq!(sorted, expect);
    }

    #[test]
    fn apply_permutation_handles_rotations_and_identity() {
        for perm_spec in [
            vec![0u32, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![1, 2, 3, 0],
            vec![3, 0, 1, 2],
            vec![2, 0, 3, 1],
        ] {
            let mut keys = vec![10u64, 11, 12, 13];
            let mut vals = vec!["a", "b", "c", "d"];
            apply_destinations(&mut invert(&perm_spec), &mut keys, &mut vals);
            let expect_keys: Vec<u64> = perm_spec.iter().map(|&p| 10 + p as u64).collect();
            let expect_vals: Vec<&str> = perm_spec
                .iter()
                .map(|&p| ["a", "b", "c", "d"][p as usize])
                .collect();
            assert_eq!(keys, expect_keys, "perm {perm_spec:?}");
            assert_eq!(vals, expect_vals, "perm {perm_spec:?}");
        }
    }

    #[test]
    fn est_bytes_matches_tuple_accounting() {
        let mut buf: ColumnBuffer<u64, f64> = ColumnBuffer::new();
        let tuples = vec![(1u64, 2.0f64), (3, 4.0), (5, 6.0)];
        for &(k, v) in &tuples {
            buf.push(k, v);
        }
        let tuple_bytes = slice_est_bytes(&tuples) + tuples.len() * FRAMING_BYTES;
        assert_eq!(buf.est_bytes(), tuple_bytes);

        // Variable-size values take the per-record path on both sides.
        let mut var: ColumnBuffer<u64, String> = ColumnBuffer::new();
        let var_tuples = vec![(1u64, "ab".to_string()), (2, "cdef".to_string())];
        for (k, v) in &var_tuples {
            var.push(*k, v.clone());
        }
        let var_bytes = slice_est_bytes(&var_tuples) + var_tuples.len() * FRAMING_BYTES;
        assert_eq!(var.est_bytes(), var_bytes);
    }

    #[test]
    fn combine_matches_seed_semantics() {
        // Sum-combiner over sorted duplicates; key cloned per output row.
        let mut buf: ColumnBuffer<u64, u64> = ColumnBuffer::new();
        for (k, v) in [(1u64, 1u64), (1, 2), (2, 5), (3, 1), (3, 1), (3, 1)] {
            buf.push(k, v);
        }
        let combiner: Combiner<'_, u64, u64> = &|_, vals| vec![vals.iter().sum::<u64>()];
        buf.combine(combiner);
        let out: Vec<_> = buf.keys.into_iter().zip(buf.vals).collect();
        assert_eq!(out, vec![(1, 3), (2, 5), (3, 3)]);
    }

    #[test]
    fn group_values_streams_in_run_order() {
        let runs = [
            (vec![1u64, 1, 2], vec![10u64, 11, 20]),
            (vec![1u64, 3], vec![12u64, 30]),
            (vec![2u64], vec![21u64]),
        ];
        let mut cursors: Vec<RunCursor<u64, u64>> = runs
            .into_iter()
            .map(|(k, v)| RunCursor::from_columns(k, v))
            .collect();

        let key = 1u64;
        let mut group = GroupValues::new(&mut cursors, &key, &[2, 1, 0], 3);
        assert_eq!(group.len(), 3);
        assert_eq!(group.by_ref().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert!(group.is_empty());

        let key = 2u64;
        let group = GroupValues::new(&mut cursors, &key, &[1, 0, 1], 2);
        assert_eq!(group.collect::<Vec<_>>(), vec![20, 21]);

        let key = 3u64;
        let group = GroupValues::new(&mut cursors, &key, &[0, 1, 0], 1);
        assert_eq!(group.collect::<Vec<_>>(), vec![30]);
        assert!(cursors.iter().all(|c| c.peek_key().is_none()));
    }

    #[test]
    fn cursor_gives_back_both_columns() {
        let keys = vec![1u64, 1, 2];
        let vals: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let buffers = (keys.as_ptr(), vals.as_ptr());
        let mut cursors = [RunCursor::from_columns(keys, vals)];
        let key = 1u64;
        let group = GroupValues::new(&mut cursors, &key, &[2], 2);
        assert_eq!(group.collect::<Vec<_>>(), ["a", "b"]);
        // "c" is left in the cursor; giving the columns back drops it.
        let [cursor] = cursors;
        let (keys, vals) = cursor.into_columns();
        assert!(keys.is_empty() && vals.is_empty());
        assert_eq!((keys.as_ptr(), vals.as_ptr()), buffers);
        assert_eq!((keys.capacity(), vals.capacity()), (3, 3));
    }

    #[test]
    fn keys_without_an_image_sort_by_comparison() {
        let records = [((1u8, 9u64), 0), ((0, 9), 1), ((1, 2), 2), ((0, 9), 3)];
        let mut buf: ColumnBuffer<(u8, u64), u32> = ColumnBuffer::new();
        for (k, i) in records {
            buf.push(k, i);
        }
        buf.sort_stable();
        assert_eq!(buf.keys, [(0, 9), (0, 9), (1, 2), (1, 9)]);
        assert_eq!(buf.vals, [1, 3, 2, 0]);
    }

    #[test]
    fn counting_cutoff() {
        let narrow = COUNTING_SPAN_PER_RECORD;
        assert!(counts(1, 0));
        assert!(counts(10, 10 * narrow - 1));
        assert!(!counts(10, 10 * narrow));
        assert!(!counts(u32::MAX as usize, u64::MAX));
    }

    /// The dispatcher's ranking of `keys`, and counting's forced whenever
    /// its counters fit, equal the comparison sort's. A destination vector
    /// fixes where each of several equal keys goes, so equality is
    /// stability too.
    fn assert_rankings_match(keys: &[u64]) {
        let want = invert(&sort_permutation(keys));
        assert_eq!(sort_destinations(keys), want, "dispatch on {keys:?}");
        let image = u64::ORDER_IMAGE.expect("u64 has an order image");
        if let (Some(&min), Some(&max)) = (keys.iter().min(), keys.iter().max()) {
            let span = max - min;
            if span <= 1 << 16 {
                let counted = counting_destinations(keys, image, min, span);
                assert_eq!(counted, want, "counting on {keys:?}");
            }
        }
    }

    /// A `len`-record column over `lo ..= lo + span`, shaped: all equal,
    /// ascending, descending (both with repeats) or in `raw`'s order. Past
    /// the all-equal shape the range's top is always present.
    fn column(len: usize, lo: u64, span: u64, shape: u8, raw: &[u64]) -> Vec<u64> {
        let step = |i: usize| match (i, span) {
            (0, _) => span,
            (_, u64::MAX) => raw[i],
            _ => raw[i] % (span + 1),
        };
        let mut keys: Vec<u64> = match shape {
            0 => vec![lo; len],
            _ => (0..len).map(|i| lo.wrapping_add(step(i))).collect(),
        };
        match shape {
            1 => keys.sort_unstable(),
            2 => keys.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {}
        }
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        /// Short and longer lengths, spans from one value through the
        /// counting cutoff to the whole of `u64` (at the bottom of the
        /// range or touching `u64::MAX`), and every shape.
        #[test]
        fn integer_rankings_equal_the_comparison_sort(
            pick in 0usize..8,
            free in 0usize..600,
            span_pick in 0usize..9,
            shape in 0u8..4,
            at_top in any::<bool>(),
            raw in vec(any::<u64>(), 600),
        ) {
            let len = [0, 1, 2, 15, 16, 256, free, free][pick];
            let narrow = (len as u64).max(1) * COUNTING_SPAN_PER_RECORD;
            let span = [0, 1, 37, narrow - 1, narrow, narrow + 1, 1 << 33, 1 << 40,
                u64::MAX][span_pick];
            let lo = if at_top { u64::MAX - span } else { 0 };
            assert_rankings_match(&column(len, lo, span, shape, &raw));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn integer_rankings_equal_the_comparison_sort_at_1e5_records() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let raw: Vec<u64> = (0..100_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let dense = 1_000;
        let wide = 1 << 30;
        for (lo, span) in [(0, dense), (u64::MAX - wide, wide), (0, u64::MAX)] {
            for shape in 0..4 {
                assert_rankings_match(&column(raw.len(), lo, span, shape, &raw));
            }
        }
    }
}
