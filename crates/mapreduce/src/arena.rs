//! Columnar (SoA) record buffers for the engine's hot data path.
//!
//! The seed engine pushed owned `(K, V)` tuples into per-partition
//! `Vec<(K, V)>` buckets, sorted those tuples (moving `size_of::<(K, V)>()`
//! bytes per swap), and re-materialized every reduce group as an owned
//! `Vec<V>`. This module replaces all three with columnar storage:
//!
//! * `ColumnBuffer` — keys and values in two contiguous arenas. Map
//!   emit appends to both columns ([`MapOutput::emit`] takes a key and a
//!   value, never an owned tuple); nothing else in the engine's map and
//!   shuffle path pushes per-record tuples.
//! * Sorting is out of place, in one pass: both columns move into a spare
//!   pair the sealing task owns, which the bucket then keeps, and the
//!   bucket's emptied columns become the spare for the next bucket. A key
//!   type with an integer image ([`EstimateSize::ORDER_IMAGE`]) is sorted
//!   by counting when the bucket's key span is narrow for its length:
//!   each record goes straight to its key's next free slot
//!   (`counting_scatter`). Any other bucket is sorted by comparison: the
//!   records are gathered in the order of a `u32` permutation
//!   (`sort_permutation`). The moves themselves are `crate::fill`'s.
//! * [`MapOutput`] — one task's map output: a `ColumnBuffer` per reduce
//!   partition, filled through the job's partitioner. Map tasks fill one
//!   each; a [`Collect`] may fill them for the next job.
//! * `ColumnRun` — a sealed, immutable sorted run. The shuffle moves
//!   these wholesale; reducers open them as `RunCursor`s and stream
//!   each key group through [`GroupValues`] without materializing it. A
//!   join reducer whose small side comes last reads it first
//!   ([`GroupValues::peek_last`]) and streams the rest.
//! * [`Collect`] — where a reduce task writes what its reducer emits. The
//!   collectors:
//!   - `Vec<(K, V)>`, the row-major output callers of
//!     [`crate::job::run_job`] expect;
//!   - [`Chunks`], the same records in chunks that each stay below the
//!     recycler's threshold, for a job whose output the next job reads as
//!     shards: no output buffer is ever mapped fresh;
//!   - a job's own, which writes the next job's input shards, or the
//!     next job's map output, directly.
//! * Columns of 128 KiB or more are not the allocator's. They come from
//!   and go back to the cluster's column recycler (the private `recycle`
//!   module): a hinted bucket, a seal's spare pair and the sort scratch
//!   take the best fit on its shelf, and a full bucket (unhinted, or
//!   filled by a [`Collect`] for the next job) grows into one. Sealing
//!   trims each sorted bucket to its length and hands back the last
//!   spare and the sort scratch. A reduce task hands back both columns
//!   of every run it drained (the values stream out of a `VecDeque`, so
//!   their column comes back whole).
//!
//! Byte accounting is column-wise: `slice_est_bytes(keys) +
//! slice_est_bytes(vals)` equals the seed's tuple-wise sum exactly
//! (tuple estimates are component sums, see [`crate::size`]), so metrics
//! stay bit-identical to the reference executor.

use crate::job::{Combiner, Partitioner};
use crate::size::{slice_est_bytes, EstimateSize};
use crate::RECORD_FRAMING_BYTES as FRAMING_BYTES;
use crate::{fill, recycle};
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

/// Row-major output in chunks, for a job whose output the next job reads
/// as shards: the records in emission order, in `Vec`s that each stay
/// below the column recycler's threshold, so none is ever a fresh `mmap`
/// faulted in a page at a time. The first chunk grows from empty as a
/// `Vec` does, so a small partition holds no more than a `Vec` would; a
/// full chunk is closed and the next one is allocated whole. The chunk
/// length follows from the threshold and the record size alone.
pub struct Chunks<K, V> {
    full: Vec<Vec<(K, V)>>,
    open: Vec<(K, V)>,
}

impl<K, V> Default for Chunks<K, V> {
    fn default() -> Self {
        Chunks {
            full: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl<K, V> Chunks<K, V> {
    /// Records a chunk holds at most.
    #[must_use]
    pub fn chunk_len() -> usize {
        recycle::below_threshold::<(K, V)>()
    }

    /// The chunks, in emission order: none when nothing was collected,
    /// and only the last one short of [`Chunks::chunk_len`].
    #[must_use]
    pub fn into_chunks(self) -> Vec<Vec<(K, V)>> {
        let mut chunks = self.full;
        if !self.open.is_empty() {
            chunks.push(self.open);
        }
        chunks
    }

    /// Make room for one more record in the full open chunk: double it
    /// as `Vec` does, up to the chunk length, else close it.
    #[cold]
    fn make_room(&mut self) {
        let (capacity, most) = (self.open.capacity(), Self::chunk_len());
        if capacity.saturating_mul(2) <= most {
            self.open.reserve(1);
        } else if capacity < most {
            self.open.reserve_exact(most - capacity);
        } else {
            let next = Vec::with_capacity(most);
            self.full.push(std::mem::replace(&mut self.open, next));
        }
    }
}

impl<K: Send, V: Send> Collect<K, V> for Chunks<K, V> {
    #[inline]
    fn collect(&mut self, key: K, val: V) {
        if self.open.len() == self.open.capacity() {
            self.make_room();
        }
        self.open.push((key, val));
    }
}

impl<K: EstimateSize, V: EstimateSize> ColumnBuffer<K, V> {
    /// Estimated wire bytes of the buffered records, framing included.
    /// Column-wise but numerically identical to the seed's tuple-wise sum.
    pub(crate) fn est_bytes(&self) -> usize {
        slice_est_bytes(&self.keys) + slice_est_bytes(&self.vals) + self.len() * FRAMING_BYTES
    }
}

impl<K: Ord + EstimateSize + Send + 'static, V: Send + 'static> ColumnBuffer<K, V> {
    /// Stable sort by key, out of place: the records move in one pass into
    /// `spare`, an empty pair, which then becomes this buffer, and this
    /// buffer's emptied columns become `spare`. A key type with an integer
    /// image of narrow span is sorted by counting (each record goes
    /// straight to its key's next free slot), any other by comparison (the
    /// records are gathered in [`sort_permutation`]'s order). Emission
    /// order within equal keys is preserved, so both yield the same order.
    pub(crate) fn sort_stable(&mut self, spare: &mut Self) {
        // Already-sorted detection first: a stable sort of sorted input is
        // the identity, and hash-partitioned buckets routinely hold a
        // single distinct key (low-cardinality jobs), so this O(n) scan
        // saves the move and its scratch on the hottest small-job path.
        if self.keys.is_sorted() {
            return;
        }
        assert_rankable(self.len());
        spare.make_room(self.len());
        let from = (&mut self.keys, &mut self.vals);
        let into = (&mut spare.keys, &mut spare.vals);
        match counting_span(from.0) {
            Some((image, min, span)) => counting_scatter(from, into, image, min, span),
            None => {
                let perm = sort_permutation(from.0);
                fill::gather(from, into, &perm);
                recycle::give(perm);
            }
        }
        std::mem::swap(self, spare);
    }

    /// Make room for `len` records in both (empty) columns: a column too
    /// short goes back to the recycler for one that holds them.
    fn make_room(&mut self, len: usize) {
        if self.keys.capacity() < len {
            recycle::give(std::mem::take(&mut self.keys));
            self.keys = recycle::with_capacity(len);
        }
        if self.vals.capacity() < len {
            recycle::give(std::mem::take(&mut self.vals));
            self.vals = recycle::with_capacity(len);
        }
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
    /// buckets are left empty, ready to be filled again. One spare column
    /// pair serves every bucket's sort: each bucket leaves its emptied
    /// columns for the next, and the last one's go back to the recycler.
    pub(crate) fn seal(&mut self, combiner: Option<Combiner<'_, K, V>>) -> Sealed<K, V> {
        let mut sealed = Sealed {
            runs: Vec::new(),
            records: 0,
            bytes: 0,
        };
        let mut spare = ColumnBuffer::new();
        for (p, slot) in (0u32..).zip(&mut self.buckets) {
            if slot.is_empty() {
                continue;
            }
            let mut bucket = std::mem::take(slot);
            // Batch-sized: O(1) for fixed-size record types.
            let bytes = bucket.est_bytes();
            sealed.records += bucket.len();
            sealed.bytes += bytes;
            bucket.sort_stable(&mut spare);
            let bytes = match combiner {
                Some(combiner) => {
                    bucket.combine(combiner);
                    bucket.est_bytes()
                }
                None => bytes,
            };
            sealed.runs.push((p, bucket.seal(bytes)));
        }
        recycle::give(spare.keys);
        recycle::give(spare.vals);
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

/// Panic unless a bucket of `len` records can be ranked: ranks and
/// counters are `u32`, to halve the scratch a sort moves, and a longer
/// bucket would wrap them.
fn assert_rankable(len: usize) {
    assert!(
        u32::try_from(len).is_ok(),
        "a bucket of {len} records is too long to rank in u32"
    );
}

/// A key type's order-preserving integer image ([`EstimateSize::ORDER_IMAGE`]).
type Image<K> = fn(&K) -> u64;

/// The order image, minimum and span (max − min) of `keys` when they are
/// sorted by counting: their type has an image and the span is narrow for
/// their number ([`counts`]).
fn counting_span<K: EstimateSize>(keys: &[K]) -> Option<(Image<K>, u64, u64)> {
    let image = K::ORDER_IMAGE?;
    let mut images = keys.iter().map(image);
    let first = images.next()?;
    let (min, max) = images.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x)));
    let span = max - min;
    counts(keys.len(), span).then_some((image, min, span))
}

/// Counting sort over the images `min ..= min + span`, from the column
/// pair `from` into the empty pair `into`: one counter per value turned
/// into each value's first slot, and a record goes to its value's next
/// free slot, so records of one key keep their order.
fn counting_scatter<K, V>(
    from: fill::Columns<'_, K, V>,
    into: fill::Columns<'_, K, V>,
    image: Image<K>,
    min: u64,
    span: u64,
) {
    let counter = |k: &K| (image(k) - min) as usize;
    let mut next = recycle::zeroed(span as usize + 1);
    for k in from.0.iter() {
        next[counter(k)] += 1;
    }
    let mut sum = 0;
    for c in &mut next {
        (sum, *c) = (sum + *c, sum);
    }
    fill::scatter(from, into, |k| {
        let slot = &mut next[counter(k)];
        *slot += 1;
        *slot as usize - 1
    });
    recycle::give(next);
}

/// Stable sort permutation over `keys`: `perm[rank]` is the index of the
/// record holding that rank. `u32` indices halve the bytes moved per sort
/// compared to shuffling 16–24-byte record tuples; [`assert_rankable`]
/// has checked that `keys` fit them.
fn sort_permutation<K: Ord>(keys: &[K]) -> Vec<u32> {
    let mut perm = recycle::with_capacity(keys.len());
    perm.extend(0..keys.len() as u32);
    // Stable, so emission order survives within equal keys.
    perm.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    perm
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

    /// The group's last value, by reference, before or during iteration;
    /// `None` once the group is drained. A join reducer whose small side
    /// is presented after the records it joins reads it here, then
    /// streams the records without holding the group.
    pub fn peek_last(&self) -> Option<&V> {
        if self.remaining == 0 {
            return None;
        }
        // The last run holding any of the group: the current one, of
        // which `left` values remain, or a later one not yet touched.
        let last = self.counts.iter().rposition(|&c| c > 0)?;
        let held = if last == self.run {
            self.left
        } else {
            self.counts[last]
        };
        self.cursors[last].pending_vals().get(held as usize - 1)
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `records` sorted by [`ColumnBuffer::sort_stable`], as `(key, value)`
    /// pairs.
    fn sorted<K, V>(records: impl IntoIterator<Item = (K, V)>) -> Vec<(K, V)>
    where
        K: Ord + EstimateSize + Send + 'static,
        V: Send + 'static,
    {
        let mut buf = ColumnBuffer::new();
        for (k, v) in records {
            buf.push(k, v);
        }
        buf.sort_stable(&mut ColumnBuffer::new());
        buf.keys.into_iter().zip(buf.vals).collect()
    }

    #[test]
    fn permutation_sort_matches_tuple_sort_and_is_stable() {
        // Duplicate keys with distinguishable values: stability visible.
        let records = [(3u64, 0u64), (1, 1), (3, 2), (2, 3), (1, 4), (3, 5)];
        let mut expect: Vec<(u64, (u64, u64))> =
            records.iter().map(|&(k, i)| (k, (k, i))).collect();
        expect.sort_by_key(|a| a.0);
        assert_eq!(sorted(records.map(|(k, i)| (k, (k, i)))), expect);
    }

    /// A value that counts its drops in `DROPS`.
    struct Counted {
        at: usize,
    }

    /// Drops of [`Counted`] so far; only the test below makes one.
    static DROPS: AtomicUsize = AtomicUsize::new(0);

    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sorting moves records and drops none, on the counting path (a
    /// narrow `u64` span) and the comparison path (a wide one, and a key
    /// without an image); dropping the sorted buffer and the spare it
    /// left drops each record once. The spare is the bucket's old pair.
    #[test]
    fn arena_sort_moves_each_record_and_drops_it_once_on_both_paths() {
        let keys: [u64; 7] = [5, 2, 5, 0, 2, 7, 1];
        let drops = || DROPS.load(Ordering::Relaxed);
        for wide in [1, 1 << 40] {
            let mut buf = ColumnBuffer::new();
            for (at, &k) in keys.iter().enumerate() {
                buf.push(k * wide, Counted { at });
            }
            let old = buf.keys.as_ptr();
            let mut spare = ColumnBuffer::new();
            let before = drops();
            buf.sort_stable(&mut spare);
            assert_eq!(drops(), before, "moved, not dropped");
            let order: Vec<usize> = buf.vals.iter().map(|v| v.at).collect();
            assert_eq!(order, [3, 6, 1, 4, 0, 2, 5], "span factor {wide}");
            assert!(spare.is_empty() && spare.keys.as_ptr() == old);
            drop((buf, spare));
            assert_eq!(drops(), before + keys.len());
        }
        let records = keys.iter().enumerate().map(|(at, &k)| {
            let key = (u8::from(k > 2), k.to_string());
            (key, Counted { at })
        });
        let before = drops();
        let pairs = sorted(records);
        assert_eq!(drops(), before, "moved, not dropped");
        let order: Vec<usize> = pairs.iter().map(|(_, v)| v.at).collect();
        assert_eq!(order, [3, 6, 1, 4, 0, 2, 5]);
        drop(pairs);
        assert_eq!(drops(), before + keys.len());
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

    /// Collect `n` records `(i, 2i)` into both collectors.
    fn collected(n: u64) -> (Chunks<u64, u64>, Vec<(u64, u64)>) {
        let (mut chunks, mut vec) = (Chunks::default(), Vec::new());
        for i in 0..n {
            chunks.collect(i, 2 * i);
            vec.collect(i, 2 * i);
        }
        (chunks, vec)
    }

    #[test]
    fn arena_chunks_stay_under_the_threshold_and_concatenate_to_the_vec() {
        let most = Chunks::<u64, u64>::chunk_len();
        assert_eq!(most, recycle::below_threshold::<(u64, u64)>());
        for n in [most - 1, most, most + 1, 2 * most, 5 * most / 2] {
            let (chunks, vec) = collected(n as u64);
            let chunks = chunks.into_chunks();
            assert_eq!(chunks.len(), n.div_ceil(most), "{n} records");
            for chunk in &chunks {
                assert!(!recycle::takes_part::<(u64, u64)>(chunk.capacity()));
            }
            assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == most));
            assert_eq!(chunks.concat(), vec, "{n} records");
        }
    }

    #[test]
    fn arena_chunks_of_a_small_partition_allocate_no_more_than_a_vec() {
        let most = Chunks::<u64, u64>::chunk_len();
        for n in [0, 1, 3, 4, 5, 9, 100, 1000, most / 2 + 1] {
            let (chunks, vec) = collected(n as u64);
            let chunks = chunks.into_chunks();
            let capacity: usize = chunks.iter().map(Vec::capacity).sum();
            assert!(
                capacity <= vec.capacity(),
                "{n}: {capacity} > {}",
                vec.capacity()
            );
            assert_eq!(chunks.len(), usize::from(n > 0));
            assert_eq!(chunks.concat(), vec);
        }
    }

    /// A job whose partitions outgrow a chunk writes each as several
    /// chunks, in order: partition by partition, they are the `Vec`
    /// collector's output.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn arena_chunks_of_a_job_concatenate_to_the_vec_collector() {
        use crate::job::{run_job_collect, JobSpec};
        use crate::{Cluster, ClusterConfig};
        let cluster = Cluster::new(ClusterConfig::with_machines(2));
        let most = Chunks::<u64, u64>::chunk_len() as u64;
        let input: Vec<(u64, u64)> = (0..3 * most).map(|i| (i % 7, i)).collect();
        let map = |k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(*k, *v);
        let reduce =
            |k: &u64, vals: &mut GroupValues<'_, u64, u64>, emit: &mut dyn FnMut(u64, u64)| {
                vals.for_each(|v| emit(*k, v));
            };
        let chunked: Vec<Chunks<u64, u64>> = run_job_collect(
            &cluster,
            JobSpec::named("chunks"),
            input.as_slice(),
            map,
            reduce,
        )
        .expect("job runs");
        let whole: Vec<Vec<(u64, u64)>> = run_job_collect(
            &cluster,
            JobSpec::named("vec"),
            input.as_slice(),
            map,
            reduce,
        )
        .expect("job runs");
        assert_eq!(chunked.len(), whole.len());
        let mut several = 0;
        for (chunks, partition) in chunked.into_iter().zip(whole) {
            let chunks = chunks.into_chunks();
            several += usize::from(chunks.len() > 1);
            assert_eq!(chunks.len(), partition.len().div_ceil(most as usize));
            assert_eq!(chunks.concat(), partition);
        }
        assert!(several > 0, "no partition outgrew a chunk");
    }

    /// Cursors over `runs` of `(records of key 0, records of key 1)`, the
    /// values numbered in run order, and the values of key 0 in order.
    fn split_runs(runs: &[(usize, usize)]) -> (Vec<RunCursor<u64, u64>>, Vec<u64>) {
        let mut next = 0u64;
        let mut group = Vec::new();
        let cursors = runs
            .iter()
            .map(|&(held, after)| {
                let keys: Vec<u64> = (0..held + after).map(|r| u64::from(r >= held)).collect();
                let vals: Vec<u64> = (next..next + keys.len() as u64).collect();
                group.extend_from_slice(&vals[..held]);
                next += keys.len() as u64;
                RunCursor::from_columns(keys, vals)
            })
            .collect();
        (cursors, group)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// Before and at every step of iteration, `peek_last` is the last
        /// value `collect` would yield, whichever runs hold the group
        /// (runs holding none of it included); `None` once drained.
        #[test]
        fn arena_peek_last_is_the_last_value_of_the_group(
            runs in vec((0usize..4, 0usize..3), 1..6),
        ) {
            let (mut cursors, want) = split_runs(&runs);
            let counts: Vec<u32> = runs.iter().map(|&(held, _)| held as u32).collect();
            let mut group = GroupValues::new(&mut cursors, &0, &counts, want.len());
            for at in 0..want.len() {
                prop_assert_eq!(group.peek_last(), want.last());
                prop_assert_eq!(group.next(), Some(want[at]));
            }
            prop_assert_eq!(group.peek_last(), None);
            prop_assert_eq!(group.next(), None);
            prop_assert_eq!(group.peek_last(), None);
        }
    }

    /// The engine's merged groups and the reference executor's one-cursor
    /// groups peek the same last value their reducers then collect.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn arena_peek_last_in_the_engine_and_the_reference_executor() {
        use crate::job::{run_job_streaming, JobSpec};
        use crate::reference::run_job_reference_streaming;
        use crate::{Cluster, ClusterConfig};
        let input: Vec<(u64, u64)> = (0..500).map(|i| (i * i % 13, i)).collect();
        let map = |k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(*k, *v);
        let reduce =
            |k: &u64, vals: &mut GroupValues<'_, u64, u64>, emit: &mut dyn FnMut(u64, u64)| {
                let last = vals.peek_last().copied();
                let first = vals.next();
                assert_eq!(
                    vals.peek_last().copied(),
                    last.filter(|_| !GroupValues::is_empty(vals))
                );
                let rest: Vec<u64> = vals.collect();
                assert_eq!(rest.last().or(first.as_ref()).copied(), last);
                emit(*k, last.expect("a group holds a value"));
            };
        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        let engine = run_job_streaming(&cluster, JobSpec::named("peek"), &input, map, reduce);
        let reference =
            run_job_reference_streaming(&cluster, JobSpec::named("peek"), &input, map, reduce);
        assert_eq!(
            engine.expect("engine runs"),
            reference.expect("reference runs")
        );
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
        let want = [((0, 9), 1), ((0, 9), 3), ((1, 2), 2), ((1, 9), 0)];
        assert_eq!(sorted::<(u8, u64), u32>(records), want);
    }

    /// Buckets sealed in one call share one spare pair: a bucket's sorted
    /// columns are the previous bucket's emptied ones.
    #[test]
    fn arena_seal_hands_each_bucket_the_previous_one_s_columns() {
        let mut out: MapOutput<u64, u64> = MapOutput::new(4);
        for i in (0..400u64).rev() {
            out.emit(i, i);
        }
        let before: Vec<*const u64> = out.buckets.iter().map(|b| b.keys.as_ptr()).collect();
        let runs = out.seal(None).runs;
        assert_eq!(runs.len(), 4);
        for (n, (p, run)) in runs.iter().enumerate() {
            assert_eq!(*p as usize, n);
            assert!(run.keys.is_sorted() && run.keys.len() == run.vals.len());
            assert!(run.keys.iter().zip(&run.vals).all(|(k, v)| k == v));
            if n > 0 {
                assert_eq!(run.keys.as_ptr(), before[n - 1], "bucket {n}");
            }
        }
    }

    #[test]
    fn arena_buckets_rank_up_to_u32_max_records() {
        assert_rankable(0);
        assert_rankable(u32::MAX as usize);
        let past = u32::MAX as usize + 1;
        let message = std::panic::catch_unwind(|| assert_rankable(past))
            .expect_err("a longer bucket panics")
            .downcast::<String>()
            .expect("a formatted message");
        assert!(message.contains(&past.to_string()), "{message}");
    }

    #[test]
    fn counting_cutoff() {
        let narrow = COUNTING_SPAN_PER_RECORD;
        assert!(counts(1, 0));
        assert!(counts(10, 10 * narrow - 1));
        assert!(!counts(10, 10 * narrow));
        assert!(!counts(u32::MAX as usize, u64::MAX));
        // `CooTensor3::permute` ranks coordinates by the same rule.
        assert_eq!(narrow, haten2_tensor::coo3::COUNTING_SPAN_PER_ENTRY);
    }

    /// What [`ColumnBuffer::sort_stable`] leaves in the columns of a
    /// bucket of `keys`, each value stamped with its record's position,
    /// equals `slice::sort_by_key`'s stable order — and so do the counting
    /// scatter, forced whenever its counters fit, and the comparison
    /// gather, always forced. Equal keys are told apart by their stamps,
    /// so equality is stability too.
    fn assert_rankings_match(keys: &[u64]) {
        let mut want: Vec<(u64, u32)> = keys.iter().copied().zip(0..).collect();
        want.sort_by_key(|r| r.0);
        let stamped = keys.iter().copied().zip(0u32..);
        assert_eq!(sorted(stamped), want, "sort_stable on {keys:?}");
        let perm = sort_permutation(keys);
        let gathered = moved(keys, |from, into| fill::gather(from, into, &perm));
        assert_eq!(gathered, want, "comparison on {keys:?}");
        let image = u64::ORDER_IMAGE.expect("u64 has an order image");
        if let (Some(&min), Some(&max)) = (keys.iter().min(), keys.iter().max()) {
            let span = max - min;
            if span <= 1 << 16 {
                let counted = moved(keys, |from, into| {
                    counting_scatter(from, into, image, min, span);
                });
                assert_eq!(counted, want, "counting on {keys:?}");
            }
        }
    }

    /// `keys`, their values stamped with their positions, moved by `sort`
    /// into an empty column pair, as `(key, stamp)` pairs. `sort` must
    /// leave the source empty.
    fn moved(
        keys: &[u64],
        sort: impl FnOnce(fill::Columns<'_, u64, u32>, fill::Columns<'_, u64, u32>),
    ) -> Vec<(u64, u32)> {
        let (mut keys, mut stamps) = (keys.to_vec(), (0..keys.len() as u32).collect());
        let (mut into_keys, mut into_stamps) = (Vec::new(), Vec::new());
        sort((&mut keys, &mut stamps), (&mut into_keys, &mut into_stamps));
        assert!(keys.is_empty() && stamps.is_empty());
        into_keys.into_iter().zip(into_stamps).collect()
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
