//! The distributed operations of HaTen2, as MapReduce jobs.
//!
//! Every function here submits exactly one MapReduce job (the unit the
//! paper's job counts are stated in) and returns its output as `(Ix4, f64)`
//! records in the canonical orientation of [`crate::canon`], as its reduce
//! tasks wrote them ([`Partitions`]):
//!
//! * [`naive_ttv_job`] — the broadcast n-mode vector product of
//!   HaTen2-Naive (§III-B1). Intermediate data `nnz + |v|·(fibers)`.
//! * [`hadamard_vec_job`] — `X *̄ₙ v` (Definition 1), the multiply half of
//!   Hadamard-and-Merge (§III-B2). Intermediate data `nnz + |v|`.
//! * [`collapse_job`] — `Collapse(·)ₙ` (Definition 2), the add half.
//! * [`imhp_job`] — the integrated n-mode **matrix** Hadamard products
//!   `IMHP(X, B, C, …)` of HaTen2-DRI (§III-B4): computes `T' = X *₁ Bᵀ`,
//!   `T'' = bin(X) *₂ Cᵀ` and every further `bin(X)` expansion in a single
//!   job, reading `X` once, and writes them as the merge's map output. Its
//!   sides are the factors themselves, untransposed: a factor row's
//!   record names the row, and the reducer reads it in place.
//! * [`cross_merge_job`] — `CrossMerge(T', T'', …)₍₀₎` (Definition 3/Lemma 1).
//! * [`pairwise_merge_job`] — `PairwiseMerge(T', T'', …)₍₀₎` (Definition
//!   4/Lemma 2).
//!
//! Mode positions refer to slots of [`Ix4`]; 3-way tensors keep slot 3 = 0,
//! and the Hadamard expansions write the factor-column index into slot 3.
//!
//! The paper states IMHP and the two merges once, for N-way tensors, and so
//! do these three: they take `S = N − 1` *join sides*, one per non-target
//! mode. A record is `((i, a, b, d), v)` whatever `S` is — `i` the
//! target-mode index, `d` the factor column — because once IMHP has joined
//! an entry with its factor rows nobody reads its non-target indices as
//! indices again: the merges only pair a side's value with the other
//! sides' values *of the same nonzero*, so slots 1–2 are a label of the
//! nonzero, compared for equality and nothing else. The 3-way pipelines
//! label a nonzero `(j, k)` and IMHP's mapper joins side `s` on slot
//! `1 + s` ([`join_on_slots`]); [`crate::nway`] labels it `(e, 0)`, its
//! ordinal in the [`haten2_tensor::DynTensor`], and hands the mapper the
//! index slice to read `S` join indices from. At `S = 2` every extra-side
//! loop below runs zero times.
//!
//! These are the kernels [`crate::plan`] attaches to the templates of the
//! eight pipeline graphs; its one submitter is the only caller outside
//! tests. Every function takes a [`JobSite`] — a
//! [`haten2_mapreduce::JobCtx`] when the submitter runs it inside a
//! scheduled [`haten2_mapreduce::Batch`], or a [`Cluster`] directly (unit
//! tests, ad hoc runs). Inside a batch the scheduler derives map-emit
//! hints from the plan IR's symbolic emit expressions
//! ([`haten2_mapreduce::JobGraph::emit_hint`]), so the sizing cannot drift
//! from the cost model; a [`JobSpec::with_map_emit_hint`] call overrides
//! the derivation. [`crate::nway`] runs the kernels on the bare cluster,
//! where there is no graph and no hint: its shuffle buckets start empty and
//! grow.
//!
//! A tensor-valued input is a [`Shards`] list: the slices a dataset was
//! written in, in shard order, borrowed from whoever produced them. Every
//! kernel reads them where they lie, through one [`MapInput`] (`Feed`)
//! that builds each input record on the stack — no kernel copies a
//! dataset to make its job's input. A factor is read where it lies too:
//! the per-column kernels take one of its columns as a slice (a row of
//! the factor's transpose, which the submitter makes once per call), and
//! the joins with factor rows — IMHP, the model inner product — present
//! each row as a record of its index and width, priced as the row's
//! values, and their reducers read the row out of the factor they were
//! handed.
//!
//! The one exception to reading in place is the largest
//! intermediate, the paper's `nnz·(Q+R)` expansion: [`imhp_job`]'s reduce
//! tasks run the merge's map function as they write `T'` and `T''`, into
//! the merge's partitioned map output ([`WrittenSide`]), and the merge
//! takes that output and starts at its shuffle ([`MergeInput::Written`]).
//! A record of the expansion is written once, where the merge's reducer
//! will read it.
//!
//! Nor does a kernel concatenate what its job wrote: each reduce task
//! writes its partition in chunks that stay below the engine's mmap
//! threshold ([`Chunks`]), the kernel returns every partition's chunks in
//! partition order, and a reader takes them as the dataset's shards, the
//! way a Hadoop job reads its predecessor's part files where they lie.
//!
//! The join reducers (the Hadamard product, IMHP, the model inner
//! product) hold nothing per group either: their small side — a vector
//! coefficient or a factor row — is presented after the entries, so it is
//! the last value of its group. They peek it
//! ([`haten2_mapreduce::GroupValues::peek_last`]) and stream the entries
//! past it, and a small-side value anywhere else is a panic
//! (`SMALL_SIDE_NOT_LAST`).
//!
//! [`JobSite`]: haten2_mapreduce::JobSite
//! [`Cluster`]: haten2_mapreduce::Cluster

use crate::records::{
    shards_len, HadVal, ImhpRec, ImhpVal, Ix4, MergeLayout, MergeVal, NaiveVal, TvRec,
};
use haten2_linalg::Mat;
use haten2_mapreduce::{
    run_job_collect, run_job_collect_with, run_job_written, Chunks, Collect, EstimateSize, JobSite,
    JobSpec, MapInput, MapOutput, MrError, Result,
};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Tensor records in the canonical `(Ix4, f64)` form.
pub type TensorRecords = Vec<(Ix4, f64)>;

/// A job's output as its reduce tasks left it: each reduce partition as
/// one or more chunks ([`Chunks`]), partitions in partition order and an
/// empty partition as none. Read as shards, it is the dataset the
/// concatenation would be; [`haten2_mapreduce::concat_partitions`] makes
/// that concatenation where one `Vec` is wanted.
pub type Partitions = Vec<TensorRecords>;

/// What a tensor-valued job's reduce task writes its partition into.
type Chunked = Chunks<Ix4, f64>;

/// A tensor-valued job's [`Partitions`]: every reduce task's chunks,
/// partition by partition.
fn partitions(collected: Vec<Chunked>) -> Partitions {
    collected
        .into_iter()
        .flat_map(Chunks::into_chunks)
        .collect()
}

/// What a join reducer says when its small side is not the last value of
/// its group.
const SMALL_SIDE_NOT_LAST: &str =
    "a small-side value before the last one: the feed must present the small side last";

/// The entries of a join group, as `(ix, v)` in order: every value but the
/// small side, which the feed presents last and the reducer has peeked
/// when the group `held` one. A small-side value among them (one `entry`
/// refuses) panics, naming the group.
fn join_entries<V>(
    group: (&'static str, impl fmt::Debug),
    vals: impl ExactSizeIterator<Item = V>,
    held: bool,
    entry: fn(V) -> Option<(Ix4, f64)>,
) -> impl Iterator<Item = (Ix4, f64)> {
    let entries = vals.len() - usize::from(held);
    vals.take(entries).map(move |v| match entry(v) {
        Some(entry) => entry,
        None => panic!("{} group {:?}: {SMALL_SIDE_NOT_LAST}", group.0, group.1),
    })
}

/// One shard of a dataset: the records one task wrote, where it left them.
type Shard<'a> = &'a [(Ix4, f64)];

/// One dataset as a job reads it: its shards, in shard order.
pub type Shards<'a> = &'a [Shard<'a>];

/// The one way a kernel feeds its job: tensor datasets read where their
/// producers left them, then the job's small side.
///
/// `parts` are the shards of the datasets read, in presentation order,
/// each under the tag of its dataset. A stored `(Ix4, f64)` is presented
/// to the mapper as the record `wrap(tag, ix, v)`, built on the stack and
/// priced at `record_bytes` — the wire size of the record *presented*,
/// which is what `map_input_bytes` has always charged. `tail` follows: the
/// factor rows or vector coefficients the job joins against, each made as
/// it is presented ([`Tail`]).
struct Feed<'a, W, T> {
    parts: Vec<(u8, Shard<'a>)>,
    /// Records in `parts`.
    in_place: usize,
    record_bytes: usize,
    wrap: W,
    tail: T,
}

/// The records a [`Feed`] presents after its shards, the `n`-th made by
/// `record(n)` when it is presented.
trait Tail {
    type Record;

    fn len(&self) -> usize;

    fn record(&self, n: usize) -> Self::Record;
}

/// A tail held as a list: vector coefficients, or none at all.
impl<R: Clone> Tail for Vec<R> {
    type Record = R;

    fn len(&self) -> usize {
        self.len()
    }

    fn record(&self, n: usize) -> R {
        self[n].clone()
    }
}

/// A [`Feed`] whose tail is held as a list of `(K, V)` records.
type ListedFeed<'a, K, V, W> = Feed<'a, W, Vec<(K, V)>>;

/// The factor rows the join sides of an IMHP-style job read, side 0 first
/// and each side's rows in order, made from the factors' shapes: `(rows,
/// width)` per side. A row's record names it by its index and width, and
/// the reducer reads the row where the factor lies.
struct FactorRows(Vec<(usize, usize)>);

impl FactorRows {
    fn of(sides: &[&Mat]) -> Self {
        FactorRows(sides.iter().map(|f| (f.rows(), f.cols())).collect())
    }
}

impl Tail for FactorRows {
    type Record = ((), ImhpRec);

    fn len(&self) -> usize {
        self.0.iter().map(|&(rows, _)| rows).sum()
    }

    fn record(&self, n: usize) -> ((), ImhpRec) {
        let mut row = n;
        for (side, &(rows, width)) in (0u8..).zip(&self.0) {
            if row < rows {
                return ((), ImhpRec::Row(side, row as u64, width));
            }
            row -= rows;
        }
        panic!("factor row {n} of {}", self.len())
    }
}

impl<'a, K, V, W: Fn(u8, &Ix4, f64) -> (K, V), T: Tail<Record = (K, V)>> Feed<'a, W, T> {
    /// `datasets` in presentation order, each `(tag, shards)`.
    fn new(datasets: &[(u8, &[Shard<'a>])], record_bytes: usize, wrap: W, tail: T) -> Self {
        let parts: Vec<_> = datasets
            .iter()
            .flat_map(|&(tag, shards)| shards.iter().map(move |&shard| (tag, shard)))
            .collect();
        Feed {
            in_place: parts.iter().map(|(_, shard)| shard.len()).sum(),
            parts,
            record_bytes,
            wrap,
            tail,
        }
    }
}

impl<K, V, W, T> MapInput for Feed<'_, W, T>
where
    K: EstimateSize + Sync,
    V: EstimateSize + Sync,
    W: Fn(u8, &Ix4, f64) -> (K, V) + Sync,
    T: Tail<Record = (K, V)> + Sync,
{
    type Key = K;
    type Val = V;

    fn len(&self) -> usize {
        self.in_place + self.tail.len()
    }

    fn est_bytes(&self, range: Range<usize>) -> usize {
        let in_place = range.end.min(self.in_place).saturating_sub(range.start);
        let tail_at = |record: usize| record.saturating_sub(self.in_place);
        let tail = tail_at(range.start)..tail_at(range.end);
        let tail_bytes: usize = tail.map(|n| self.tail.record(n).est_bytes()).sum();
        in_place * self.record_bytes + tail_bytes
    }

    #[inline]
    fn for_each<F: FnMut(&K, &V)>(&self, range: Range<usize>, mut f: F) {
        // Records still to skip, then still to present, as the walk moves
        // through the shards and on into the tail.
        let (mut skip, mut left) = (range.start, range.len());
        for &(tag, shard) in &self.parts {
            if left == 0 {
                return;
            }
            if skip >= shard.len() {
                skip -= shard.len();
                continue;
            }
            let take = left.min(shard.len() - skip);
            for (ix, v) in &shard[skip..skip + take] {
                let (key, val) = (self.wrap)(tag, ix, *v);
                f(&key, &val);
            }
            left -= take;
            skip = 0;
        }
        for n in skip..skip + left {
            let (key, val) = self.tail.record(n);
            f(&key, &val);
        }
    }
}

/// A dataset as its own job input: every record presented as it is stored.
fn stored_feed<'a>(
    entries: Shards<'a>,
) -> ListedFeed<'a, Ix4, f64, impl Fn(u8, &Ix4, f64) -> (Ix4, f64) + Sync> {
    let record_bytes = <(Ix4, f64)>::FIXED_BYTES.expect("a tensor record is fixed-size");
    Feed::new(
        &[(0, entries)],
        record_bytes,
        |_, ix, v| (*ix, v),
        Vec::new(),
    )
}

/// The input of a Hadamard / naive n-mode product job: the tensor entries
/// in place as [`TvRec::Ent`], then the nonzero elements of the vector.
fn tv_feed<'a>(
    entries: Shards<'a>,
    v: &[f64],
) -> ListedFeed<'a, (), TvRec, impl Fn(u8, &Ix4, f64) -> ((), TvRec) + Sync> {
    let coefs = v.iter().enumerate().filter(|(_, &c)| c != 0.0);
    Feed::new(
        &[(0, entries)],
        TvRec::Ent((0, 0, 0, 0), 0.0).est_bytes(),
        |_, ix, val| ((), TvRec::Ent(*ix, val)),
        coefs
            .map(|(i, &c)| ((), TvRec::Coef(i as u64, c)))
            .collect(),
    )
}

/// The input of a job joining tensor entries with factor rows: the
/// entries in place as [`ImhpRec::Ent`], each priced at `entry_bytes`, then
/// the `rows`.
fn rows_feed<'a>(
    entries: Shards<'a>,
    entry_bytes: usize,
    rows: FactorRows,
) -> Feed<'a, impl Fn(u8, &Ix4, f64) -> ((), ImhpRec) + Sync, FactorRows> {
    Feed::new(
        &[(0, entries)],
        entry_bytes,
        |_, ix, v| ((), ImhpRec::Ent(*ix, v)),
        rows,
    )
}

/// Wire size of a 3-way tensor entry as a job joining it with factor rows
/// reads it.
fn ent3_bytes() -> usize {
    ImhpRec::Ent((0, 0, 0, 0), 0.0).est_bytes()
}

#[inline]
fn slot(ix: &Ix4, pos: usize) -> u64 {
    match pos {
        0 => ix.0,
        1 => ix.1,
        2 => ix.2,
        3 => ix.3,
        _ => panic!("slot {pos} out of range"),
    }
}

#[inline]
pub(crate) fn with_slot(mut ix: Ix4, pos: usize, v: u64) -> Ix4 {
    match pos {
        0 => ix.0 = v,
        1 => ix.1 = v,
        2 => ix.2 = v,
        3 => ix.3 = v,
        _ => panic!("slot {pos} out of range"),
    }
    ix
}

/// n-mode vector Hadamard product `X *̄ₚₒₛ v` (Definition 1) as one job.
///
/// Joins tensor entries with vector elements on slot `join_pos`; each entry
/// is multiplied by its coefficient. When `tag_slot3` is set, the output
/// entries carry that value in slot 3 — this is how the per-column jobs of
/// DNN/DRN assemble the 4-way tensors `T'`/`T''` of Lemmas 1–2.
pub fn hadamard_vec_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    join_pos: usize,
    v: &[f64],
    tag_slot3: Option<u64>,
) -> Result<Partitions> {
    let input = tv_feed(entries, v);
    let out = run_job_collect(
        site,
        JobSpec::named(name.to_string()),
        &input,
        move |_, rec: &TvRec, emit| match rec {
            TvRec::Ent(ix, val) => emit(slot(ix, join_pos), HadVal::Ent(*ix, *val)),
            TvRec::Coef(i, c) => emit(*i, HadVal::Coef(*c)),
        },
        // The coefficient is presented after the entries, so it is the
        // last value of its group: peeked, and the entries streamed.
        move |i, vals, emit| {
            let coef = match vals.peek_last() {
                Some(&HadVal::Coef(c)) => Some(c),
                _ => None,
            };
            let group = ("Hadamard", i);
            for (ix, val) in join_entries(group, vals, coef.is_some(), HadVal::entry) {
                let Some(c) = coef else { continue };
                let out_ix = match tag_slot3 {
                    Some(t) => with_slot(ix, 3, t),
                    None => ix,
                };
                let prod = val * c;
                if prod != 0.0 {
                    emit(out_ix, prod);
                }
            }
        },
    )?;
    Ok(partitions(out))
}

/// `Collapse(X)ₚₒₛ` (Definition 2) as one job: zero out slot `drop_pos` and
/// sum coinciding entries. `use_combiner` enables map-side pre-aggregation
/// (an ablation knob — the paper's accounting assumes no combiner).
///
/// The reducer streams: summing a key group needs one pass and no state
/// beyond the accumulator, so the engine's merge never materializes the
/// group's values — the collapse of a dense fiber costs O(1) reducer
/// memory on the host regardless of fiber length.
pub fn collapse_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    drop_pos: usize,
    use_combiner: bool,
) -> Result<Partitions> {
    let input = stored_feed(entries);
    let combiner = |_: &Ix4, vals: Vec<f64>| vec![vals.iter().sum::<f64>()];
    let spec = if use_combiner {
        JobSpec::named(name.to_string()).with_combiner(&combiner)
    } else {
        JobSpec::named(name.to_string())
    };
    let out = run_job_collect(
        site,
        spec,
        &input,
        move |ix: &Ix4, val: &f64, emit| emit(with_slot(*ix, drop_pos, 0), *val),
        |ix, vals, emit| {
            let s: f64 = vals.sum::<f64>();
            if s != 0.0 {
                emit(*ix, s);
            }
        },
    )?;
    Ok(partitions(out))
}

/// The naive broadcast n-mode vector product (§III-B1): contract slot
/// `contract_pos` against `v`, shuffling the **entire vector to every
/// fiber** of the remaining modes, exactly as HaTen2-Naive does. `dims`
/// are the 4-slot dimensions of `entries` (slot 3 = 1 for 3-way tensors).
///
/// Intermediate data is `nnz + |v| · Π(other dims)` — `nnz(X) + IJK` in the
/// paper's Table III/IV — so before running, the cost is estimated against
/// the cluster capacity and the job aborts with
/// [`MrError::ClusterCapacityExceeded`] when it cannot fit (the paper's
/// "o.o.m."). This pre-check is what lets the simulation *report* the
/// failure the paper observed without materializing petabytes.
pub fn naive_ttv_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    dims: [u64; 4],
    contract_pos: usize,
    v: &[f64],
) -> Result<Partitions> {
    // Feasibility pre-check against cluster capacity.
    let fibers: u128 = (0..4)
        .filter(|&p| p != contract_pos)
        .map(|p| dims[p].max(1) as u128)
        .product();
    let broadcast_records = fibers.saturating_mul(v.len() as u128);
    let est_record_bytes = (NaiveVal::Coef(0, 0.0).est_bytes() + 24 + 8) as u128;
    let est_bytes = broadcast_records
        .saturating_add(shards_len(entries) as u128)
        .saturating_mul(est_record_bytes);
    if let Some(cap) = site.cluster().config().cluster_capacity_bytes {
        if est_bytes > cap as u128 {
            return Err(MrError::ClusterCapacityExceeded {
                job: name.to_string(),
                intermediate_bytes: est_bytes.min(usize::MAX as u128) as usize,
                capacity_bytes: cap,
            });
        }
    }

    let input = tv_feed(entries, v);
    // Enumerate the cross product of the non-contracted dims for broadcast.
    let other_pos: Vec<usize> = (0..4).filter(|&p| p != contract_pos).collect();
    let other_dims: Vec<u64> = other_pos.iter().map(|&p| dims[p].max(1)).collect();

    let out = run_job_collect(
        site,
        JobSpec::named(name.to_string()),
        &input,
        |_, rec: &TvRec, emit| match rec {
            TvRec::Ent(ix, val) => {
                let key = with_slot(*ix, contract_pos, 0);
                emit(key, NaiveVal::Ent(slot(ix, contract_pos), *val));
            }
            TvRec::Coef(i, c) => {
                // Broadcast this vector element to every fiber.
                for a in 0..other_dims[0] {
                    for b in 0..other_dims[1] {
                        for d in 0..other_dims[2] {
                            let mut key = (0, 0, 0, 0);
                            key = with_slot(key, other_pos[0], a);
                            key = with_slot(key, other_pos[1], b);
                            key = with_slot(key, other_pos[2], d);
                            emit(key, NaiveVal::Coef(*i, *c));
                        }
                    }
                }
            }
        },
        |key, vals, emit| {
            let vals: Vec<NaiveVal> = vals.collect();
            let mut coefs: HashMap<u64, f64> = HashMap::new();
            for v in &vals {
                if let NaiveVal::Coef(i, c) = v {
                    coefs.insert(*i, *c);
                }
            }
            let mut dot = 0.0;
            let mut any = false;
            for v in &vals {
                if let NaiveVal::Ent(i, val) = v {
                    any = true;
                    if let Some(c) = coefs.get(i) {
                        dot += val * c;
                    }
                }
            }
            if any && dot != 0.0 {
                emit(*key, dot);
            }
        },
    )?;
    Ok(partitions(out))
}

/// The merge's map function: an expanded record `((i, a, b, d), v)` of
/// side `side`, keyed by its target-mode index `i`, its label, column and
/// side packed by `layout`. The fronts build the layout from the call's
/// extents, so a field wider than the layout says panics.
#[inline]
fn merge_record(layout: &MergeLayout, side: u8, &(i, j, k, d): &Ix4, v: f64) -> (u64, MergeVal) {
    let tag = layout.pack(side, j, k, d);
    (i, MergeVal { v, tag })
}

/// What a merge's map input is priced at per record: the [`MergeVal`]
/// alone, as the key-less `((), MergeVal)` input record always was.
fn merge_record_bytes() -> usize {
    MergeVal::FIXED_BYTES.expect("MergeVal is fixed-size")
}

/// IMHP's record writer: runs the merge's map ([`merge_record`]) on every
/// record the reducer emits, packing with the call's `layout`, and writes
/// the result straight into that side's [`MapOutput`], cut for the
/// merge's partitions. What the engine counts and sizes is still the
/// `((side, ix), v)` record the reducer emitted. [`imhp_job`] makes one
/// per reduce task, with its layout.
struct MergeWriter {
    partitions: usize,
    layout: MergeLayout,
    sides: Vec<MapOutput<u64, MergeVal>>,
}

/// [`Collect`] asks for `Default`, but a writer without the call's layout
/// and partition count would pack nothing right: only [`imhp_job`]'s
/// collector factory builds one.
impl Default for MergeWriter {
    fn default() -> Self {
        unreachable!("a MergeWriter is built only by imhp_job's collector factory")
    }
}

impl Collect<(u8, Ix4), f64> for MergeWriter {
    #[inline]
    fn collect(&mut self, (side, ix): (u8, Ix4), v: f64) {
        let s = usize::from(side);
        if s >= self.sides.len() {
            let partitions = self.partitions;
            self.sides.resize_with(s + 1, || MapOutput::new(partitions));
        }
        let (i, val) = merge_record(&self.layout, side, &ix, v);
        let out = &mut self.sides[s];
        out.count_input();
        out.emit(i, val);
    }
}

/// One expanded side as [`imhp_job`]'s reduce tasks wrote it: already the
/// merge's map output, every record mapped by `merge_record` and
/// bucketed by the merge's partitioner, one [`MapOutput`] per reduce task
/// that wrote any, in partition order, with the layout its records are
/// packed in. A merge takes it by ownership ([`MergeInput::Written`]).
pub struct WrittenSide {
    parts: Vec<MapOutput<u64, MergeVal>>,
    layout: MergeLayout,
}

impl WrittenSide {
    /// The side's records as `((i, a, b, d), v)`: reduce task by reduce
    /// task, each task's partition by partition, in emission order.
    /// Restricted to one target index `i`, that is the order a merge
    /// reads them in.
    pub fn records(&self) -> TensorRecords {
        let mapped = self.parts.iter().flat_map(MapOutput::records);
        let unpack = |(&i, v): (&u64, &MergeVal)| {
            let (_, j, k, d) = self.layout.unpack(v.tag);
            ((i, j, k, d), v.v)
        };
        mapped.map(unpack).collect()
    }
}

/// Where the 3-way pipelines keep the index an entry joins side `side` on:
/// slot `1 + side` of the record itself. The `join` of every [`imhp_job`]
/// over `(i, j, k, 0)` records.
#[inline]
pub fn join_on_slots(side: usize, ix: &Ix4) -> u64 {
    slot(ix, 1 + side)
}

/// The integrated n-mode matrix Hadamard products `IMHP(X, B, C, …)`
/// (§III-B4) as **one** job over `S = sides.len()` join sides: returns the
/// `S` expanded datasets, side 0 first, where
/// `T'[i,a,b,q] = X[i,a,b]·B[join(0), q]` carries the values of `X` and
/// every later side `T''[i,a,b,r] = C[join(s), r]` is defined on the
/// support of `X` (the `bin(X)` sides of Lemmas 1–2). `sides[s]` is the
/// factor of side `s` itself, untransposed, `d_s × c_s`; `join(s, ix)` is
/// the index the entry stored under `ix` joins side `s` on
/// ([`join_on_slots`] for `(i, j, k, 0)` records). Slots 0–2 of an entry
/// pass through untouched.
///
/// `X` is read once: the map input is `nnz + Σ d_s` records, an entry of
/// the order-`S + 1` tensor priced as the `(S + 2)`-slot record the
/// expansions make of it. A factor row travels by name: its record
/// carries the row's index and width ([`ImhpRec::Row`]), priced as the
/// row's values, and the reducer reads the row where it lies in
/// `sides[s]`.
///
/// The expansions are written once, as the merge will read them: the
/// job's reduce tasks run the merge's map function on every record they
/// emit, packing it by `layout`, and bucket it by the merge's partitioner
/// ([`WrittenSide`]), so `T'` and `T''` never exist as shards and the
/// merge starts at its shuffle. The job's metrics are those of writing
/// the records: what the engine counts and sizes is each record the
/// reducer emits.
pub fn imhp_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    sides: &[&Mat],
    join: impl Fn(usize, &Ix4) -> u64 + Sync,
    layout: MergeLayout,
) -> Result<Vec<WrittenSide>> {
    let n_sides = sides.len();
    // One more index slot per side beyond the 3-way record's two.
    let entry_bytes = ent3_bytes() + 8 * n_sides - 8 * 2;
    let input = rows_feed(entries, entry_bytes, FactorRows::of(sides));

    let out: Vec<MergeWriter> = run_job_collect_with(
        site,
        JobSpec::named(name.to_string()),
        &input,
        |_, rec: &ImhpRec, emit| match rec {
            ImhpRec::Ent(ix, v) => {
                for s in 0..n_sides {
                    emit((s as u8, join(s, ix)), ImhpVal::Ent(*ix, *v));
                }
            }
            ImhpRec::Row(side, idx, width) => emit((*side, *idx), ImhpVal::Row(*width)),
        },
        // The factor row is presented after the entries, so it is the last
        // value of its group: peeked, read where the factor lies, and the
        // entries streamed past it.
        |key, vals, emit| {
            let (side, idx) = *key;
            let row = match vals.peek_last() {
                Some(ImhpVal::Row(_)) => Some(sides[usize::from(side)].row(idx as usize)),
                _ => None,
            };
            for (ix, val) in join_entries(("IMHP", key), vals, row.is_some(), ImhpVal::entry) {
                let Some(row) = row else { continue };
                for (d, &coef) in row.iter().enumerate() {
                    if coef == 0.0 {
                        continue;
                    }
                    let out_ix = with_slot(ix, 3, d as u64);
                    // T' carries X·B; every other side only its factor
                    // (the bin(X) sides).
                    let out_v = if side == 0 { val * coef } else { coef };
                    emit((side, out_ix), out_v);
                }
            }
        },
        |partitions| MergeWriter {
            partitions,
            layout,
            sides: Vec::new(),
        },
    )?;
    // Per reduce task, per side → per side, per reduce task.
    let mut written: Vec<Vec<MapOutput<u64, MergeVal>>> =
        (0..n_sides).map(|_| Vec::new()).collect();
    for writer in out {
        for (side, part) in written.iter_mut().zip(writer.sides) {
            if !part.is_empty() {
                side.push(part);
            }
        }
    }
    let side = |parts| WrittenSide { parts, layout };
    Ok(written.into_iter().map(side).collect())
}

/// What a merge reads: the expanded datasets, side 0 (`T'`) first.
pub enum MergeInput<'a> {
    /// Shards of `((i, a, b, d), v)` records, borrowed where they were
    /// written, which the merge's own map tasks map (`merge_feed`).
    /// DRN's per-column Hadamard jobs write these.
    Shards(&'a [Shards<'a>]),
    /// The sides [`imhp_job`] wrote, already mapped and partitioned: the
    /// merge takes them and starts at its shuffle.
    Written(Vec<WrittenSide>),
}

impl MergeInput<'_> {
    fn sides(&self) -> usize {
        match self {
            MergeInput::Shards(sides) => sides.len(),
            MergeInput::Written(sides) => sides.len(),
        }
    }
}

/// The shard input of a merge job: the expanded datasets in **descending**
/// side order — `T''` first, then `T'`, at two sides — each stored
/// `((i, a, b, d), v)` presented in place as [`merge_record`] maps it by
/// `layout` and priced at [`merge_record_bytes`].
///
/// The order is the contract the merge reducers rest on. A key group's
/// values reach a reducer in input order restricted to the key (the
/// engine's `(map task, emission)` order), so every group arrives last
/// side first and the reducer can fill its lookup table from that side,
/// narrow it by each side after and probe it with side 0 as they stream
/// past. This is the reduce-side join's secondary-sort idiom, with the
/// engine's value order standing in for the sort. [`descending`] keeps
/// the same order for the written input.
fn merge_feed<'a>(
    sides: &[Shards<'a>],
    layout: MergeLayout,
) -> ListedFeed<'a, u64, MergeVal, impl Fn(u8, &Ix4, f64) -> (u64, MergeVal) + Sync> {
    let tagged = sides
        .iter()
        .enumerate()
        .map(|(s, &dataset)| (s as u8, dataset));
    let descending: Vec<(u8, Shards<'a>)> = tagged.rev().collect();
    let map = move |side, ix: &Ix4, v| merge_record(&layout, side, ix, v);
    Feed::new(&descending, merge_record_bytes(), map, Vec::new())
}

/// The written input of a merge job, in [`merge_feed`]'s order: the last
/// side first, each side's reduce tasks in partition order. A key's
/// values sit in one bucket of each map output, in emission order, so a
/// group reaches the reducer exactly as over the same records as shards.
/// Every side must be packed in the merge's `layout`.
fn descending(sides: Vec<WrittenSide>, layout: MergeLayout) -> Vec<MapOutput<u64, MergeVal>> {
    let by_side = sides.into_iter().rev();
    let parts = |side: WrittenSide| {
        assert_eq!(
            side.layout, layout,
            "a written side packed in another layout"
        );
        side.parts
    };
    by_side.flat_map(parts).collect()
}

/// What a merge reducer says when its group is not in descending side
/// order.
const SIDES_OUT_OF_ORDER: &str =
    "a T'' value after a T' value: the merge input must present T'' first";

/// The one hasher of the merge folds' lookup table: FxHash's
/// rotate-xor-multiply step over whole words. Deterministic, unlike
/// `RandomState`, and one multiply for the one-word label the folds look
/// up. The table is only probed, never iterated, so its order
/// cannot reach an emit.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A merge group's nonzeros: each label gets a slot, numbered in the
/// order the last side first holds it, and the folds keep what they know
/// of a nonzero in dense per-slot cells. A label is looked up once per run
/// of its values: IMHP emits a nonzero's columns consecutively, so the
/// label looked up last sits in front of the table — a cache, never an
/// assumption; interleaved labels only cost probes.
struct Slots {
    table: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    last: Option<(u64, Option<u32>)>,
}

impl Slots {
    fn with_capacity(labels: usize) -> Self {
        Slots {
            table: HashMap::with_capacity_and_hasher(labels, Default::default()),
            last: None,
        }
    }

    /// Slots handed out.
    fn len(&self) -> usize {
        self.table.len()
    }

    /// The slot of `label`, a new one when the label has none yet.
    fn insert(&mut self, label: u64) -> u32 {
        if let Some((last, Some(slot))) = self.last {
            if last == label {
                return slot;
            }
        }
        let next = self.table.len() as u32;
        let slot = *self.table.entry(label).or_insert(next);
        self.last = Some((label, Some(slot)));
        slot
    }

    /// The slot of `label`, if the last side holds the label.
    fn get(&mut self, label: u64) -> Option<u32> {
        match self.last {
            Some((last, slot)) if last == label => slot,
            _ => {
                let slot = self.table.get(&label).copied();
                self.last = Some((label, slot));
                slot
            }
        }
    }
}

/// What a CrossMerge group has joined so far: per slot, a `(columns,
/// product)` partner for every way of picking one value of the nonzero
/// from each side folded, in arrival order, stored slot after slot.
struct Partners {
    /// Slot `s`'s partners are `pairs[starts[s]..starts[s + 1]]`.
    starts: Vec<usize>,
    pairs: Vec<(u64, f64)>,
}

impl Partners {
    /// `pairs`, staged in arrival order under the slots `slot_of`, grouped
    /// by slot with their order within a slot kept: a counting sort by
    /// slot.
    fn group(slot_of: &[u32], pairs: Vec<(u64, f64)>, slots: usize) -> Self {
        let mut starts = vec![0usize; slots + 1];
        for &s in slot_of {
            starts[s as usize + 1] += 1;
        }
        for s in 0..slots {
            starts[s + 1] += starts[s];
        }
        let mut next = starts.clone();
        let mut grouped = vec![(0, 0.0); pairs.len()];
        for (&s, pair) in slot_of.iter().zip(pairs) {
            grouped[next[s as usize]] = pair;
            next[s as usize] += 1;
        }
        Partners {
            starts,
            pairs: grouped,
        }
    }

    /// The partners of `slot`.
    fn of(&self, slot: u32) -> &[(u64, f64)] {
        &self.pairs[self.starts[slot as usize]..self.starts[slot as usize + 1]]
    }
}

/// One CrossMerge reduce group over `widths.len()` sides, streamed: the
/// last side's values become each nonzero's `(columns, product)` partners,
/// each side after extends them by its own columns (a nonzero the side
/// does not hold is dropped), and each side-0 value adds its products
/// with what is left. Duplicate values of a cell stay separate partners.
/// `columns` is the row-major index of `(q₂ … q_S)` in `widths[1..]`, so
/// the slice's `Y(i, q₁, columns)` accumulates in a dense `widths[0] × Π
/// widths[1..]` array — as dense as the output is for dense factors — and
/// leaves it in index order, whatever order its cells were touched in.
/// Every `+=` chain runs in the order the values arrive, so the sums are
/// those of the dataset order. `layout` unpacks each value's tag.
fn cross_merge_fold(
    i: u64,
    widths: &[u64],
    layout: &MergeLayout,
    vals: impl ExactSizeIterator<Item = MergeVal>,
    emit: &mut dyn FnMut(Ix4, f64),
) {
    let last = (widths.len() - 1) as u8;
    let columns: u64 = widths[1..].iter().product();
    let mut acc = vec![0.0; (widths[0] * columns) as usize];
    let per_nonzero = widths.len() * widths[usize::from(last)] as usize;
    let mut slots = Slots::with_capacity(vals.len() / per_nonzero.max(1));
    let mut vals = vals.peekable();
    let (side_of, label, column) = (
        |v: &MergeVal| layout.side(v.tag),
        |v: &MergeVal| layout.label(v.tag),
        |v: &MergeVal| layout.column(v.tag),
    );
    if last == 0 {
        // An order-2 tensor has one side and nothing to join it with.
        for v in vals.by_ref() {
            acc[column(&v) as usize] += v.v;
        }
    }
    let (mut slot_of, mut pairs) = (Vec::new(), Vec::new());
    while let Some(v) = vals.next_if(|v| side_of(v) == last) {
        slot_of.push(slots.insert(label(&v)));
        pairs.push((column(&v), v.v));
    }
    let mut partners = Partners::group(&slot_of, pairs, slots.len());
    for side in (1..last).rev() {
        let stride: u64 = widths[usize::from(side) + 1..].iter().product();
        slot_of.clear();
        let mut pairs = Vec::new();
        while let Some(v) = vals.next_if(|v| side_of(v) == side) {
            let Some(slot) = slots.get(label(&v)) else {
                continue;
            };
            for &(cols, w) in partners.of(slot) {
                slot_of.push(slot);
                pairs.push((column(&v) * stride + cols, v.v * w));
            }
        }
        partners = Partners::group(&slot_of, pairs, slots.len());
    }
    for v in vals {
        assert!(
            side_of(&v) == 0,
            "CrossMerge group {i}: {SIDES_OUT_OF_ORDER}"
        );
        let Some(slot) = slots.get(label(&v)) else {
            continue;
        };
        let later = partners.of(slot);
        if later.is_empty() {
            continue;
        }
        let row = &mut acc[(column(&v) * columns) as usize..][..columns as usize];
        for &(cols, w) in later {
            row[cols as usize] += v.v * w;
        }
    }
    for (cell, y) in (0u64..).zip(acc) {
        if y != 0.0 {
            emit((i, cell / columns, cell % columns, 0u64), y);
        }
    }
}

/// Column `d` of a PairwiseMerge value as an index into a `rank`-wide row.
fn rank_column(d: u64, rank: usize) -> usize {
    let d = d as usize;
    assert!(
        d < rank,
        "PairwiseMerge column {d} is not below the rank {rank}"
    );
    d
}

/// A PairwiseMerge group's running products, `rank` dense cells per slot:
/// cell `(slot, d)` holds the sum of what arrived for `(label, d)`, and
/// whether anything did.
struct Cells {
    rank: usize,
    sums: Vec<f64>,
    held: Vec<bool>,
}

impl Cells {
    /// `slots` slots of empty cells.
    fn new(rank: usize, slots: usize) -> Self {
        Cells {
            rank,
            sums: vec![0.0; slots * rank],
            held: vec![false; slots * rank],
        }
    }

    fn cell(&self, slot: u32, d: u64) -> usize {
        slot as usize * self.rank + rank_column(d, self.rank)
    }

    /// Add `x` to cell `(slot, d)`, growing the cells to hold `slot`. A
    /// cell starts at `0.0`, so its first value lands as `0.0 + x` and a
    /// duplicate `(label, d)` sums in arrival order.
    fn add(&mut self, slot: u32, d: u64, x: f64) {
        let cell = self.cell(slot, d);
        if cell >= self.sums.len() {
            let len = (slot as usize + 1) * self.rank;
            self.sums.resize(len, 0.0);
            self.held.resize(len, false);
        }
        self.sums[cell] += x;
        self.held[cell] = true;
    }

    /// Cell `(slot, d)`, if anything arrived for it.
    fn get(&self, slot: u32, d: u64) -> Option<f64> {
        let cell = self.cell(slot, d);
        self.held[cell].then(|| self.sums[cell])
    }
}

/// One PairwiseMerge reduce group over `sides` sides of `rank` columns,
/// streamed like [`cross_merge_fold`]: the last side fills each nonzero's
/// `rank` cells (duplicates of a cell summed), each side after rebuilds
/// them as the running product over the cells it also holds, and each
/// side-0 value adds its product into the group's dense `rank`-wide
/// accumulator.
fn pairwise_merge_fold(
    i: u64,
    sides: usize,
    rank: u64,
    layout: &MergeLayout,
    vals: impl ExactSizeIterator<Item = MergeVal>,
    emit: &mut dyn FnMut(Ix4, f64),
) {
    let last = sides - 1;
    let rank = rank as usize;
    let mut slots = Slots::with_capacity(vals.len() / (sides * rank).max(1));
    let mut vals = vals.peekable();
    let mut acc = vec![0.0; rank];
    let (side_of, label, column) = (
        |v: &MergeVal| usize::from(layout.side(v.tag)),
        |v: &MergeVal| layout.label(v.tag),
        |v: &MergeVal| layout.column(v.tag),
    );
    if last == 0 {
        // An order-2 tensor has one side and nothing to join it with.
        for v in vals.by_ref() {
            acc[rank_column(column(&v), rank)] += v.v;
        }
    }
    let mut cells = Cells::new(rank, 0);
    while let Some(v) = vals.next_if(|v| side_of(v) == last) {
        cells.add(slots.insert(label(&v)), column(&v), v.v);
    }
    for side in (1..last).rev() {
        let mut joined = Cells::new(rank, slots.len());
        while let Some(v) = vals.next_if(|v| side_of(v) == side) {
            let Some(slot) = slots.get(label(&v)) else {
                continue;
            };
            if let Some(w) = cells.get(slot, column(&v)) {
                joined.add(slot, column(&v), v.v * w);
            }
        }
        cells = joined;
    }
    for v in vals {
        assert!(
            side_of(&v) == 0,
            "PairwiseMerge group {i}: {SIDES_OUT_OF_ORDER}"
        );
        let Some(slot) = slots.get(label(&v)) else {
            continue;
        };
        if let Some(w) = cells.get(slot, column(&v)) {
            acc[column(&v) as usize] += v.v * w;
        }
    }
    for (r, y) in (0u64..).zip(acc) {
        if y != 0.0 {
            emit((i, r, 0u64, 0u64), y);
        }
    }
}

/// `CrossMerge(T', T'', …)₍₀₎` (Definition 3) as one job over the expanded
/// datasets `input`, side 0 (`T'`) first: produces
/// `Y(i, q₁ … q_S) = Σ_{nonzeros of slice i} Π_s T⁽ˢ⁾(i, ·, q_s)` as
/// records `((i, q₁, columns, 0), y)`, `columns` the row-major index of
/// `(q₂ … q_S)` in `widths[1..]` — `((i, q, r, 0), y)` at two sides.
/// `widths[s]` is the column count of side `s`'s factor.
///
/// Keys on the target-mode index `i`, so the shuffle volume is
/// `nnz·(Q+R)` — the Table III cost of HaTen2-DRN/DRI. Shards are read in
/// place (`merge_feed`), packed by `layout`; written sides are taken and
/// reduced from where IMHP's reduce tasks bucketed them (`descending`),
/// and must have been packed by the same `layout`. Both inputs make the
/// same job: same output bits, same metrics.
pub fn cross_merge_job(
    site: &impl JobSite,
    name: &str,
    input: MergeInput<'_>,
    widths: &[u64],
    layout: MergeLayout,
) -> Result<Partitions> {
    assert_eq!(input.sides(), widths.len(), "one column count per side");
    let spec = JobSpec::named(name.to_string());
    let out = match input {
        MergeInput::Shards(sides) => run_job_collect(
            site,
            spec,
            &merge_feed(sides, layout),
            |i: &u64, rec: &MergeVal, emit| emit(*i, *rec),
            |i, vals, emit| cross_merge_fold(*i, widths, &layout, vals, emit),
        )?,
        MergeInput::Written(sides) => run_job_written(
            site,
            spec,
            descending(sides, layout),
            merge_record_bytes(),
            |i, vals, emit| cross_merge_fold(*i, widths, &layout, vals, emit),
        )?,
    };
    Ok(partitions(out))
}

/// `PairwiseMerge(T', T'', …)₍₀₎` (Definition 4) as one job over the
/// expanded datasets `input`, side 0 (`T'`) first: produces
/// `Y(i, r) = Σ_{nonzeros of slice i} Π_s T⁽ˢ⁾(i, ·, r)` as records
/// `((i, r, 0, 0), y)`. `rank` is the column count `R` every side's factor
/// shares, as [`cross_merge_job`] is told its widths: each reduce group
/// accumulates in an `R`-wide array, and a column index at or past `rank`
/// is refused. Shuffle volume `2·nnz·R` at two sides — the Table IV cost
/// of HaTen2-PARAFAC-DRN/DRI. Reads its inputs, packed by `layout`, as
/// [`cross_merge_job`] does.
pub fn pairwise_merge_job(
    site: &impl JobSite,
    name: &str,
    input: MergeInput<'_>,
    rank: u64,
    layout: MergeLayout,
) -> Result<Partitions> {
    let sides = input.sides();
    let spec = JobSpec::named(name.to_string());
    let out = match input {
        MergeInput::Shards(shards) => run_job_collect(
            site,
            spec,
            &merge_feed(shards, layout),
            |i: &u64, rec: &MergeVal, emit| emit(*i, *rec),
            |i, vals, emit| pairwise_merge_fold(*i, sides, rank, &layout, vals, emit),
        )?,
        MergeInput::Written(written) => run_job_written(
            site,
            spec,
            descending(written, layout),
            merge_record_bytes(),
            |i, vals, emit| pairwise_merge_fold(*i, sides, rank, &layout, vals, emit),
        )?,
    };
    Ok(partitions(out))
}

/// Distributed model inner product `⟨X, X̂⟩` for a PARAFAC model
/// `X̂ = Σ_r λ_r a_r ∘ b_r ∘ c_r`, as one MapReduce job.
///
/// The Hadoop implementation evaluates the fit on the cluster; mirroring
/// that, the tensor slices and the factor-A rows are joined reduce-side on
/// the mode-0 index (shuffle `nnz + I` records), while the B/C factors ride
/// along as the job's broadcast small side (captured state, the map-side
/// join idiom). Returns the scalar `Σ X(i,j,k)·X̂(i,j,k)`.
pub fn model_inner_product_job(
    site: &impl JobSite,
    name: &str,
    x: &TensorRecords,
    factors: [&Mat; 3],
    lambda: &[f64],
) -> Result<f64> {
    let (a, b, c) = (factors[0], factors[1], factors[2]);
    let rank = a.cols();
    let x = [x.as_slice()];
    let input = rows_feed(&x, ent3_bytes(), FactorRows::of(&[a]));
    let out: Vec<Vec<(u8, f64)>> = run_job_collect(
        site,
        JobSpec::named(name.to_string()),
        &input,
        |_, rec: &ImhpRec, emit| match rec {
            ImhpRec::Ent(ix, v) => emit(ix.0, ImhpVal::Ent(*ix, *v)),
            ImhpRec::Row(_, i, width) => emit(*i, ImhpVal::Row(*width)),
        },
        // A's row comes last, as in IMHP: peeked, read where A lies, and
        // the slice streamed.
        move |i, vals, emit| {
            let a_row = match vals.peek_last() {
                Some(ImhpVal::Row(_)) => Some(a.row(*i as usize)),
                _ => None,
            };
            let (group, held) = (("model inner product", i), a_row.is_some());
            let mut partial = 0.0;
            for (ix, val) in join_entries(group, vals, held, ImhpVal::entry) {
                let Some(a_row) = a_row else { continue };
                let mut model = 0.0;
                for r in 0..rank {
                    model +=
                        lambda[r] * a_row[r] * b.get(ix.1 as usize, r) * c.get(ix.2 as usize, r);
                }
                partial += val * model;
            }
            if partial != 0.0 {
                emit(0u8, partial);
            }
        },
    )?;
    Ok(out.into_iter().flatten().map(|(_, v)| v).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn presented<I: MapInput>(input: &I, range: Range<usize>) -> Vec<(I::Key, I::Val)>
    where
        I::Key: Clone,
        I::Val: Clone,
    {
        let mut seen = Vec::new();
        input.for_each(range, |k, v| seen.push((k.clone(), v.clone())));
        seen
    }

    #[test]
    fn tv_feed_skips_zero_coefs() {
        let input = tv_feed(&[&[((0, 0, 0, 0), 1.0)]], &[0.0, 2.0, 0.0]);
        assert_eq!(input.len(), 2);
        let records = presented(&input, 0..2);
        assert_eq!(records[0].1, TvRec::Ent((0, 0, 0, 0), 1.0));
        assert_eq!(records[1].1, TvRec::Coef(1, 2.0));
    }

    #[test]
    fn feed_presents_and_prices_any_range_like_the_concatenation() {
        // Two datasets in shards of uneven length (one empty), then a tail
        // of variable-size records: every range must present and price
        // exactly what the materialised `Vec` of the same records would.
        let a: Vec<(Ix4, f64)> = (0..5).map(|n| ((n, 1, 2, 3), n as f64)).collect();
        let b: Vec<(Ix4, f64)> = (0..4).map(|n| ((n, 4, 5, 6), -(n as f64))).collect();
        let a_shards: [&[(Ix4, f64)]; 3] = [&a[..2], &[], &a[2..]];
        let b_shards: [&[(Ix4, f64)]; 2] = [&b[..3], &b[3..]];
        let wrap = |side: u8, ix: &Ix4, _: f64| ((), ImhpRec::Row(side, ix.0, 1));
        let tail: Vec<((), ImhpRec)> = (0..3)
            .map(|n| ((), ImhpRec::Row(9, n, 2 * n as usize)))
            .collect();
        let record_bytes = wrap(0, &(0, 0, 0, 0), 0.0).1.est_bytes();
        let feed = Feed::new(
            &[(1, &b_shards), (0, &a_shards)],
            record_bytes,
            wrap,
            tail.clone(),
        );

        let mut flat: Vec<((), ImhpRec)> = Vec::new();
        flat.extend(b.iter().map(|(ix, v)| wrap(1, ix, *v)));
        flat.extend(a.iter().map(|(ix, v)| wrap(0, ix, *v)));
        flat.extend(tail);
        assert_eq!(feed.len(), flat.len());
        for start in 0..=flat.len() {
            for end in start..=flat.len() {
                assert_eq!(
                    presented(&feed, start..end),
                    flat[start..end],
                    "{start}..{end}"
                );
                assert_eq!(
                    feed.est_bytes(start..end),
                    MapInput::est_bytes(flat.as_slice(), start..end),
                    "{start}..{end}"
                );
            }
        }
    }

    #[test]
    fn factor_rows_present_and_price_each_side_s_rows_in_order() {
        // Three sides, one without rows: the tail made from their shapes
        // presents and prices every range as the listed rows would.
        let sides = [Mat::zeros(3, 2), Mat::zeros(0, 5), Mat::zeros(2, 1)];
        let sides: Vec<&Mat> = sides.iter().collect();
        let listed: Vec<((), ImhpRec)> = (0u8..)
            .zip(&sides)
            .flat_map(|(s, f)| {
                (0..f.rows()).map(move |i| ((), ImhpRec::Row(s, i as u64, f.cols())))
            })
            .collect();
        assert_eq!(listed.len(), 5);
        let entries: [(Ix4, f64); 2] = [((0, 1, 2, 0), 1.0), ((1, 0, 0, 0), -2.0)];
        let shards: [&[(Ix4, f64)]; 1] = [&entries];
        let made = rows_feed(&shards, ent3_bytes(), FactorRows::of(&sides));
        let wrap = |_, ix: &Ix4, v| ((), ImhpRec::Ent(*ix, v));
        let held = Feed::new(&[(0, &shards)], ent3_bytes(), wrap, listed);
        assert_eq!(made.len(), held.len());
        for start in 0..=held.len() {
            for end in start..=held.len() {
                assert_eq!(presented(&made, start..end), presented(&held, start..end));
                assert_eq!(made.est_bytes(start..end), held.est_bytes(start..end));
            }
        }
    }

    /// The layout of the fold tests: labels below 16 x 16, 16 columns
    /// (wider than any fold's rank, so the folds' own checks are what
    /// refuse a column), up to four sides.
    fn layout() -> MergeLayout {
        MergeLayout::new("test", [16, 16], 16, 4).unwrap()
    }

    fn merge_val(side: u8, (j, k, d): (u64, u64, u64), v: f64) -> MergeVal {
        merge_record(&layout(), side, &(7, j, k, d), v).1
    }

    #[test]
    fn merge_record_holds_a_column_up_to_u32_max() {
        let top = u64::from(u32::MAX);
        let layout = MergeLayout::new("rank", [4, 4], u32::MAX as usize, 2).unwrap();
        let (i, val) = merge_record(&layout, 1, &(5, 2, 3, top), 0.5);
        assert_eq!(i, 5);
        assert_eq!((layout.unpack(val.tag), val.v), ((1, 2, 3, top), 0.5));
    }

    #[test]
    #[should_panic(expected = "merge side 1: column 4294967296 does not fit a u32 column index")]
    fn merge_record_refuses_a_column_past_u32_max() {
        let layout = MergeLayout::new("rank", [4, 4], u32::MAX as usize, 2).unwrap();
        merge_record(&layout, 1, &(5, 2, 3, u64::from(u32::MAX) + 1), 0.5);
    }

    /// A fold over `sides` sides of `width` columns each.
    type Fold = fn(u64, usize, u64, std::vec::IntoIter<MergeVal>, &mut dyn FnMut(Ix4, f64));
    const FOLDS: [Fold; 2] = [
        |i, sides, width, vals, emit| {
            cross_merge_fold(i, &vec![width; sides], &layout(), vals, emit)
        },
        |i, sides, width, vals, emit| pairwise_merge_fold(i, sides, width, &layout(), vals, emit),
    ];

    fn fold_sides(fold: Fold, sides: usize, width: u64, vals: Vec<MergeVal>) -> Vec<(Ix4, f64)> {
        let mut out = Vec::new();
        fold(7, sides, width, vals.into_iter(), &mut |ix, y| {
            out.push((ix, y))
        });
        out
    }

    fn fold(fold: Fold, vals: Vec<MergeVal>) -> Vec<(Ix4, f64)> {
        fold_sides(fold, 2, 1, vals)
    }

    #[test]
    fn merge_folds_join_a_dprime_then_prime_stream() {
        let group = vec![
            merge_val(1, (2, 3, 0), 0.5),
            merge_val(1, (2, 4, 0), 0.25),
            merge_val(0, (2, 3, 0), 4.0),
            merge_val(0, (2, 4, 0), 8.0),
            merge_val(0, (9, 9, 0), 1.0),
        ];
        assert_eq!(fold(FOLDS[0], group.clone()), [((7, 0, 0, 0), 4.0)]);
        assert_eq!(fold(FOLDS[1], group), [((7, 0, 0, 0), 4.0)]);
    }

    #[test]
    fn a_merge_group_with_one_side_emits_nothing() {
        for f in FOLDS {
            for side in [0, 1] {
                let one_sided = (0..4).map(|n| merge_val(side, (n, n, 0), 1.0)).collect();
                assert_eq!(fold(f, one_sided), []);
            }
            assert_eq!(fold(f, Vec::new()), []);
        }
    }

    #[test]
    fn merge_folds_join_every_side_of_a_nonzero() {
        // Four sides of two columns each; nonzero (1, 0) is on every side,
        // (2, 0) is missing from side 2, (3, 0) from side 0.
        let mut group = Vec::new();
        for side in (0..4u8).rev() {
            for label in 1..=3u64 {
                if (label, side) == (2, 2) || (label, side) == (3, 0) {
                    continue;
                }
                for d in 0..2u64 {
                    let v = f64::from(side + 2) + d as f64 * 0.5;
                    group.push(merge_val(side, (label, 0, d), v));
                }
            }
        }
        // side s, column d carries s + 2 + d/2.
        let val = |side: u64, d: u64| (side + 2) as f64 + d as f64 * 0.5;
        let pairwise = fold_sides(FOLDS[1], 4, 2, group.clone());
        let want: Vec<(Ix4, f64)> = (0..2)
            .map(|d| ((7, d, 0, 0), (0..4).map(|s| val(s, d)).product()))
            .collect();
        assert_eq!(pairwise, want);
        let cross = fold_sides(FOLDS[0], 4, 2, group);
        assert_eq!(cross.len(), 16);
        for ((i, q0, cols, zero), y) in cross {
            assert_eq!((i, zero), (7, 0));
            // Row-major over sides 1..4: side 1 is the slowest digit.
            let q = [q0, cols >> 2, (cols >> 1) & 1, cols & 1];
            let want: f64 = (0..4).map(|s| val(s, q[s as usize])).product();
            assert_eq!(y, want, "{q:?}");
        }
    }

    #[test]
    fn a_lone_side_is_its_own_merge() {
        let group = vec![
            merge_val(0, (1, 0, 0), 2.0),
            merge_val(0, (2, 0, 0), 3.0),
            merge_val(0, (2, 0, 1), 0.5),
        ];
        let want = [((7, 0, 0, 0), 5.0), ((7, 1, 0, 0), 0.5)];
        assert_eq!(fold_sides(FOLDS[0], 1, 2, group.clone()), want);
        assert_eq!(fold_sides(FOLDS[1], 1, 2, group), want);
    }

    #[test]
    #[should_panic(
        expected = "CrossMerge group 7: a T'' value after a T' value: the merge input must present T'' first"
    )]
    fn cross_merge_refuses_a_prime_before_dprime_stream() {
        let vals = vec![merge_val(0, (1, 1, 0), 1.0), merge_val(1, (1, 1, 0), 1.0)];
        fold(FOLDS[0], vals);
    }

    #[test]
    #[should_panic(
        expected = "PairwiseMerge group 7: a T'' value after a T' value: the merge input must present T'' first"
    )]
    fn pairwise_merge_refuses_a_prime_before_dprime_stream() {
        // Out of order only after a well-formed prefix.
        let vals = vec![
            merge_val(1, (1, 1, 0), 1.0),
            merge_val(0, (1, 1, 0), 1.0),
            merge_val(1, (2, 2, 0), 1.0),
        ];
        fold(FOLDS[1], vals);
    }

    #[test]
    fn join_entries_stream_every_value_but_the_small_side() {
        let ent = |n: u64| ((n, 0, 0, 0), n as f64);
        let vals = vec![
            HadVal::Ent(ent(1).0, 1.0),
            HadVal::Ent(ent(2).0, 2.0),
            HadVal::Coef(0.5),
        ];
        let held = join_entries(
            ("Hadamard", 3),
            vals.clone().into_iter(),
            true,
            HadVal::entry,
        );
        assert_eq!(held.collect::<Vec<_>>(), [ent(1), ent(2)]);
        let rows = vec![ImhpVal::Ent(ent(4).0, 4.0)];
        let none = join_entries(("IMHP", (1, 3)), rows.into_iter(), false, ImhpVal::entry);
        assert_eq!(none.collect::<Vec<_>>(), [ent(4)]);
        assert_eq!(
            join_entries(
                ("IMHP", 0),
                Vec::<ImhpVal>::new().into_iter(),
                false,
                ImhpVal::entry
            )
            .count(),
            0
        );
    }

    #[test]
    #[should_panic(
        expected = "Hadamard group 3: a small-side value before the last one: the feed must present the small side last"
    )]
    fn hadamard_refuses_a_coefficient_before_an_entry() {
        let vals = [
            HadVal::Coef(0.5),
            HadVal::Ent((1, 0, 0, 0), 1.0),
            HadVal::Coef(0.5),
        ];
        join_entries(("Hadamard", 3), vals.into_iter(), true, HadVal::entry).for_each(drop);
    }

    #[test]
    #[should_panic(expected = "IMHP group (1, 3): a small-side value before the last one")]
    fn imhp_refuses_a_factor_row_before_an_entry() {
        let vals = [ImhpVal::Row(1), ImhpVal::Ent((1, 0, 0, 0), 1.0)];
        join_entries(
            ("IMHP", (1u8, 3u64)),
            vals.into_iter(),
            false,
            ImhpVal::entry,
        )
        .for_each(drop);
    }

    #[test]
    #[should_panic(expected = "PairwiseMerge column 2 is not below the rank 2")]
    fn pairwise_merge_refuses_a_column_at_the_rank_on_a_lone_side() {
        let vals = vec![merge_val(0, (1, 1, 0), 1.0), merge_val(0, (1, 1, 2), 1.0)];
        fold_sides(FOLDS[1], 1, 2, vals);
    }

    #[test]
    #[should_panic(expected = "PairwiseMerge column 2 is not below the rank 2")]
    fn pairwise_merge_refuses_a_column_at_the_rank_on_two_sides() {
        let vals = vec![merge_val(1, (1, 1, 2), 1.0), merge_val(0, (1, 1, 2), 1.0)];
        fold_sides(FOLDS[1], 2, 2, vals);
    }

    /// The folds as they stood before the slot tables, kept as the oracle
    /// of the ones above: a SipHash `label → [(columns, product)]` table
    /// for CrossMerge, a `(label, d) → v` table and a `BTreeMap`
    /// accumulator for PairwiseMerge.
    mod reference {
        use super::super::SIDES_OUT_OF_ORDER;
        use crate::records::{Ix4, MergeVal};
        use std::collections::{BTreeMap, HashMap};

        /// A merge value's fields, unpacked by the fold tests' layout.
        struct Unpacked {
            side: u8,
            j: u64,
            k: u64,
            d: u64,
            v: f64,
        }

        fn unpacked(vals: impl Iterator<Item = MergeVal>) -> impl Iterator<Item = Unpacked> {
            let layout = super::layout();
            vals.map(move |val| {
                let (side, j, k, d) = layout.unpack(val.tag);
                Unpacked {
                    side,
                    j,
                    k,
                    d,
                    v: val.v,
                }
            })
        }

        pub fn cross_merge_fold(
            i: u64,
            widths: &[u64],
            vals: impl Iterator<Item = MergeVal>,
            emit: &mut dyn FnMut(Ix4, f64),
        ) {
            let last = (widths.len() - 1) as u8;
            let mut vals = unpacked(vals).peekable();
            let columns: u64 = widths[1..].iter().product();
            let mut acc = vec![0.0; (widths[0] * columns) as usize];
            if last == 0 {
                for v in vals.by_ref() {
                    acc[v.d as usize] += v.v;
                }
            }
            let mut table: HashMap<(u64, u64), Vec<(u64, f64)>> = HashMap::new();
            while let Some(v) = vals.next_if(|v| v.side == last) {
                table.entry((v.j, v.k)).or_default().push((v.d, v.v));
            }
            for side in (1..last).rev() {
                let stride: u64 = widths[usize::from(side) + 1..].iter().product();
                let mut joined: HashMap<(u64, u64), Vec<(u64, f64)>> = HashMap::new();
                while let Some(v) = vals.next_if(|v| v.side == side) {
                    if let Some(later) = table.get(&(v.j, v.k)) {
                        let extended = later
                            .iter()
                            .map(|&(cols, w)| (v.d * stride + cols, v.v * w));
                        joined.entry((v.j, v.k)).or_default().extend(extended);
                    }
                }
                table = joined;
            }
            for v in vals {
                assert!(v.side == 0, "CrossMerge group {i}: {SIDES_OUT_OF_ORDER}");
                if let Some(partners) = table.get(&(v.j, v.k)) {
                    let row = &mut acc[(v.d * columns) as usize..][..columns as usize];
                    for &(cols, w) in partners {
                        row[cols as usize] += v.v * w;
                    }
                }
            }
            for (cell, y) in (0u64..).zip(acc) {
                if y != 0.0 {
                    emit((i, cell / columns, cell % columns, 0u64), y);
                }
            }
        }

        pub fn pairwise_merge_fold(
            i: u64,
            sides: usize,
            vals: impl Iterator<Item = MergeVal>,
            emit: &mut dyn FnMut(Ix4, f64),
        ) {
            let last = sides - 1;
            let mut table: HashMap<(u64, u64, u64), f64> = HashMap::new();
            let mut vals = unpacked(vals).peekable();
            let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
            if last == 0 {
                for v in vals.by_ref() {
                    *acc.entry(v.d).or_insert(0.0) += v.v;
                }
            }
            while let Some(v) = vals.next_if(|v| usize::from(v.side) == last) {
                *table.entry((v.j, v.k, v.d)).or_insert(0.0) += v.v;
            }
            for side in (1..last).rev() {
                let mut joined: HashMap<(u64, u64, u64), f64> = HashMap::new();
                while let Some(v) = vals.next_if(|v| usize::from(v.side) == side) {
                    if let Some(&w) = table.get(&(v.j, v.k, v.d)) {
                        *joined.entry((v.j, v.k, v.d)).or_insert(0.0) += v.v * w;
                    }
                }
                table = joined;
            }
            for v in vals {
                assert!(v.side == 0, "PairwiseMerge group {i}: {SIDES_OUT_OF_ORDER}");
                if let Some(&w) = table.get(&(v.j, v.k, v.d)) {
                    *acc.entry(v.d).or_insert(0.0) += v.v * w;
                }
            }
            for (r, y) in acc {
                if y != 0.0 {
                    emit((i, r, 0u64, 0u64), y);
                }
            }
        }
    }

    /// Emits as `(index, value bits)`: bit-equality, `NaN`s and `±0.0`
    /// included.
    fn bits_of(fold: impl FnOnce(&mut dyn FnMut(Ix4, f64))) -> Vec<(Ix4, u64)> {
        let mut out = Vec::new();
        fold(&mut |ix, y| out.push((ix, y.to_bits())));
        out
    }

    /// Values the oracle test draws: signed zeros, exact and inexact
    /// magnitudes, and the non-finite values that tell a missing cell
    /// (skipped) from a zero one (`∞ · 0 = NaN`).
    const DRAWN: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        -2.5,
        0.1,
        3.0e-3,
        7.25,
        -1.0e10,
        f64::INFINITY,
        f64::NAN,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both folds equal their reference on arbitrary descending-side
        /// streams of one to three sides: labels from a small set, so they
        /// interleave and repeat within a side, duplicated `(label, d)`
        /// cells, columns one side holds and another does not, and every
        /// value of [`DRAWN`]. Emits are compared bit for bit, in order.
        #[test]
        fn merge_folds_equal_their_reference(
            widths in vec(1u64..4, 1..=3),
            side_vals in vec(vec((0u64..4, 0u64..2, 0u64..4, 0usize..DRAWN.len()), 0..14), 3),
        ) {
            let mut stream = Vec::new();
            for side in (0..widths.len()).rev() {
                for &(j, k, d, x) in &side_vals[side] {
                    let d = d % widths[side];
                    stream.push(merge_val(side as u8, (j, k, d), DRAWN[x]));
                }
            }
            let sides = widths.len();
            let layout = layout();
            let cross = bits_of(|emit| {
                cross_merge_fold(7, &widths, &layout, stream.clone().into_iter(), emit)
            });
            let cross_ref = bits_of(|emit| {
                reference::cross_merge_fold(7, &widths, stream.clone().into_iter(), emit)
            });
            prop_assert_eq!(cross, cross_ref);
            let rank = *widths.iter().max().expect("at least one side");
            let pairwise = bits_of(|emit| {
                pairwise_merge_fold(7, sides, rank, &layout, stream.clone().into_iter(), emit)
            });
            let pairwise_ref = bits_of(|emit| {
                reference::pairwise_merge_fold(7, sides, stream.clone().into_iter(), emit)
            });
            prop_assert_eq!(pairwise, pairwise_ref);
        }
    }
}
