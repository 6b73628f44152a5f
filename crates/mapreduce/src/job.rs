//! The MapReduce job executor.
//!
//! [`run_job`] executes one job with real thread parallelism and full
//! dataflow semantics: map tasks over input splits, an optional map-side
//! combiner, hash partitioning, a shuffle of pre-sorted runs, a reduce-side
//! k-way merge group-by, and reduce tasks per partition. Every mapper
//! emission is counted and sized — the "intermediate data" of the paper's
//! cost analysis.
//!
//! Execution layout: tasks run on the [`crate::pool::WorkerPool`] owned by
//! the [`Cluster`] (spawned once, reused by every job). Each map task
//! writes its output straight into per-partition columnar buffers
//! ([`MapOutput`] — separate key and value arenas, no
//! per-record tuple allocation), sorts each bucket by ranking every
//! record's `u32` destination (by counting for an integer key of narrow
//! span, by comparison otherwise), and hands the buckets to the shuffle as whole
//! sealed `ColumnRun`s — the shuffle moves column `Vec`s, never
//! records, and its byte accounting is aggregated per bucket rather than
//! per record. Reducers merge their partition's sorted runs instead of
//! re-sorting, streaming each key group through [`GroupValues`] so a group
//! is never materialized unless the reducer's API shape requires it
//! ([`run_job`]'s classic `Vec<VM>` signature collects at the boundary;
//! [`run_job_streaming`] and [`run_job_collect`] never do).
//!
//! **The two ends of a job** are traits, as they are on Hadoop. A map task
//! reads its records through a [`MapInput`] (`InputFormat`): a slice of
//! `(key, value)` pairs is one, and so is any view that builds each record
//! on the stack from data laid out otherwise — the input also prices its
//! own records, so `map_input_bytes` is a property of the records
//! presented, not of the memory behind them. A reduce task writes what its
//! reducer emits into a [`Collect`] (`RecordWriter`) it owns, after the
//! engine has counted and sized the record. [`run_job_collect`] is the
//! general entry over both and returns the collectors one per partition;
//! [`run_job`] and [`run_job_streaming`] are that executor with a slice
//! input and the row-major `Vec` collector, flattened in partition order.
//! A job whose collectors hold records the way the next job's input reads
//! them hands its output over without copying a record. A job whose
//! collectors apply the next job's map function and fill its
//! [`MapOutput`] goes one step further: the next job starts at its shuffle
//! ([`run_job_written`]), the way a Spark stage runs a narrow map in the
//! task that produced its input. Both entries are one executor split at
//! the shuffle.
//!
//! **Order contract.** Output is in partition order, each partition's key
//! groups in key order. A key group's values reach the reducer in
//! (map task, emission) order; map tasks split the input into contiguous
//! ranges, so that is *input order restricted to the key*. Reduce-side
//! joins may rely on it the way Hadoop jobs rely on a secondary sort: an
//! input that presents one dataset before another delivers every group
//! with that dataset's values first. Ties are resolved by map-task index,
//! so results and metrics are bit-identical across runs and thread counts.
//!
//! Metric accounting is batched and thread-local throughout: map and
//! reduce tasks accumulate their counters in task-owned results that are
//! folded into [`JobMetrics`] in task order after each phase — no shared
//! counter is touched per record.

use crate::arena::{ColumnRun, RunCursor, Sealed};
use crate::cluster::{Cluster, CostModel};
use crate::fault::JobFaultSchedule;
use crate::metrics::JobMetrics;
use crate::recycle::{self, JobColumns};
use crate::size::{slice_est_bytes, EstimateSize};
use crate::MrError;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use crate::arena::{Chunks, Collect, GroupValues, MapOutput};

/// Per-record framing overhead (key length + value length prefixes), bytes.
/// Public because the static plan analyzer reconstructs the engine's byte
/// accounting symbolically and must charge the same framing per record.
pub const RECORD_FRAMING_BYTES: usize = 8;
use RECORD_FRAMING_BYTES as FRAMING_BYTES;

/// A map-side combiner: receives one key's values from a single map task
/// and returns the (smaller) combined value list.
pub type Combiner<'a, KM, VM> = &'a (dyn Fn(&KM, Vec<VM>) -> Vec<VM> + Sync);

/// Where a job runs: directly on a [`Cluster`] (record-immediately,
/// strictly sequential semantics) or inside a scheduler batch through a
/// [`crate::sched::JobCtx`] (per-submission fault keying, deferred
/// submission-order commit).
///
/// Abstracting the site as a trait — rather than giving the scheduler its
/// own entry point — keeps `run_job(site, spec, input, mapper, reducer)` a
/// plain function call with identical argument positions at every driver
/// site, whether or not it runs in a batch.
pub trait JobSite {
    /// The cluster the job executes on.
    fn cluster(&self) -> &Cluster;

    /// Submission index keying this job's fault schedule
    /// ([`crate::fault::FaultPlan::schedule`]). For a bare [`Cluster`]
    /// this is the number of jobs already recorded; a scheduler batch
    /// pre-assigns indices at submission so fault replay is independent
    /// of completion order.
    fn job_index(&self) -> usize;

    /// The plan-derived `map_emit_hint` for the named job, when the site
    /// knows the job's [`crate::plan::JobGraph`]. Only consulted when the
    /// [`JobSpec`] carries no explicit override.
    fn derived_emit_hint(&self, name: &str) -> Option<usize>;

    /// Validate that this site may run a job named `name` now. Scheduler
    /// contexts enforce that the job was declared at submission and runs
    /// exactly once.
    fn before_run(&self, name: &str) -> crate::Result<()>;

    /// Deliver the finished job's metrics: record immediately (bare
    /// cluster) or stash for submission-order commit (scheduler batch).
    fn commit_metrics(&self, metrics: JobMetrics);

    /// How many pool executors this job's internal task broadcasts may
    /// use, given the cluster's configured `threads`. A bare [`Cluster`]
    /// grants all of them. A DAG batch divides the pool between the jobs
    /// that share this job's *dependency depth* — the ones that can be in
    /// flight together — so a job alone at its depth (every job of a
    /// chain, the merge of a fan-in) keeps the whole pool, while the jobs
    /// of a level at least `threads` wide run their tasks inline with zero
    /// queue traffic. Recorded as [`JobMetrics::task_executors`]. Purely a
    /// performance decision: task results are independent of executor
    /// count by construction.
    fn task_parallelism(&self, threads: usize) -> usize {
        threads
    }
}

impl JobSite for Cluster {
    fn cluster(&self) -> &Cluster {
        self
    }

    fn job_index(&self) -> usize {
        self.jobs_run()
    }

    fn derived_emit_hint(&self, _name: &str) -> Option<usize> {
        None
    }

    fn before_run(&self, _name: &str) -> crate::Result<()> {
        Ok(())
    }

    fn commit_metrics(&self, metrics: JobMetrics) {
        self.record(metrics);
    }
}

/// Declarative description of one job.
pub struct JobSpec<'a, KM, VM> {
    /// Job name for metrics.
    pub name: String,
    /// Optional map-side combiner: receives one key's values from a single
    /// map task and returns the (smaller) combined value list.
    pub combiner: Option<Combiner<'a, KM, VM>>,
    /// Expected mapper emissions per input record, when known. Purely a
    /// performance hint: map tasks pre-size their partition buckets from
    /// it. Has no effect on results or metrics.
    pub map_emit_hint: Option<usize>,
}

impl<'a, KM, VM> JobSpec<'a, KM, VM> {
    /// A job with no combiner.
    pub fn named(name: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            combiner: None,
            map_emit_hint: None,
        }
    }

    /// Attach a combiner.
    pub fn with_combiner(mut self, combiner: Combiner<'a, KM, VM>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Declare the expected number of mapper emissions per input record
    /// (e.g. 2 for a mapper that always emits twice), letting map tasks
    /// allocate their output buckets once.
    pub fn with_map_emit_hint(mut self, per_record: usize) -> Self {
        self.map_emit_hint = Some(per_record);
        self
    }
}

/// FNV-1a. The partitioner only needs a stable, well-mixed hash, not a
/// keyed SipHash — and it runs once per emitted record, which made
/// `DefaultHasher` construction and finalization a measurable per-record
/// cost in the seed engine.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Hash-partitioner for one job, with the reduction `hash % partitions`
/// strength-reduced to multiplications (Lemire's fastmod, widened to
/// 64-bit operands over a 128-bit intermediate). The divisor is fixed for
/// a whole job while the reduction runs once per emitted record, where
/// the 64-bit division was a measurable per-record cost. The result is
/// *exactly* `hash % partitions` for every input — partition placement,
/// output order, and metrics are unchanged (asserted over edge cases and
/// random draws in `fastmod_matches_division`).
pub(crate) struct Partitioner {
    partitions: u64,
    /// `floor(2^128 / partitions) + 1`; zero when `partitions == 1`
    /// (everything lands in partition 0).
    magic: u128,
}

impl Partitioner {
    pub(crate) fn new(partitions: usize) -> Self {
        let d = partitions.max(1) as u64;
        Partitioner {
            partitions: d,
            magic: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    /// Partitions keys are spread over.
    pub(crate) fn partitions(&self) -> usize {
        self.partitions as usize
    }

    #[inline]
    pub(crate) fn partition_of<K: Hash>(&self, key: &K) -> usize {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        key.hash(&mut h);
        self.rem(h.finish()) as usize
    }

    /// `x % self.partitions` via two widening multiplications.
    #[inline]
    fn rem(&self, x: u64) -> u64 {
        let lowbits = self.magic.wrapping_mul(u128::from(x));
        // mulhi(lowbits, d) = (lowbits * d) >> 128, in 128-bit pieces:
        // lowbits = hi·2^64 + lo, so the product >> 128 is
        // (hi·d + (lo·d >> 64)) >> 64. Both terms fit u128.
        let lo = lowbits & u128::from(u64::MAX);
        let hi = lowbits >> 64;
        let d = u128::from(self.partitions);
        ((hi * d + ((lo * d) >> 64)) >> 64) as u64
    }
}

pub(crate) fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    Partitioner::new(partitions).partition_of(key)
}

/// The reduce partition `key` is shuffled to among `slices` (clamped to at
/// least 1): the *same* FNV-1a hash + modulus the shuffle `Partitioner`
/// uses, so a caller can build inputs whose keys land on chosen partitions.
#[must_use]
pub fn key_slice<K: Hash>(key: &K, slices: usize) -> usize {
    partition_of(key, slices)
}

/// Where a map task reads its records — the engine's counterpart of
/// Hadoop's `InputFormat`. The engine splits `0..len()` into contiguous
/// ranges, one per map task, and asks the input to price and to present
/// each range; a scheduled failed attempt presents its range again.
///
/// A slice of `(key, value)` pairs is the plain implementation. A view
/// that builds each record on the stack from data stored otherwise (the
/// shards an earlier job's reducers wrote, say) spares the job a copy of
/// its input — which is why the input prices its own records: wire bytes
/// belong to the record presented, not to the memory behind it.
pub trait MapInput: Sync {
    /// Key type of the records presented.
    type Key;
    /// Value type of the records presented.
    type Val;

    /// Records in the input.
    fn len(&self) -> usize;

    /// Whether the input holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated wire bytes of the records in `range`, framing excluded.
    fn est_bytes(&self, range: Range<usize>) -> usize;

    /// Present the records in `range`, in order. Generic over the closure
    /// so the per-record call is monomorphised into the map loop.
    fn for_each<F: FnMut(&Self::Key, &Self::Val)>(&self, range: Range<usize>, f: F);
}

impl<KI: Sync + EstimateSize, VI: Sync + EstimateSize> MapInput for [(KI, VI)] {
    type Key = KI;
    type Val = VI;

    fn len(&self) -> usize {
        <[(KI, VI)]>::len(self)
    }

    /// O(1) for fixed-size record types, per `slice_est_bytes`.
    fn est_bytes(&self, range: Range<usize>) -> usize {
        slice_est_bytes(&self[range])
    }

    #[inline]
    fn for_each<F: FnMut(&KI, &VI)>(&self, range: Range<usize>, mut f: F) {
        for (k, v) in &self[range] {
            f(k, v);
        }
    }
}

/// The reduce output of a row-major job as callers of [`run_job`] expect
/// it: the partitions' records in partition order. A lone non-empty
/// partition is moved; otherwise the records are appended into one
/// exactly-sized `Vec`.
pub fn concat_partitions<T>(mut partitions: Vec<Vec<T>>) -> Vec<T> {
    let mut non_empty = partitions.iter_mut().filter(|p| !p.is_empty());
    match (non_empty.next(), non_empty.next()) {
        (None, _) => Vec::new(),
        (Some(only), None) => std::mem::take(only),
        _ => {
            let mut all = Vec::with_capacity(partitions.iter().map(Vec::len).sum());
            for mut partition in partitions {
                all.append(&mut partition);
            }
            all
        }
    }
}

/// Execute one MapReduce job on `site` (a [`Cluster`] for sequential
/// record-immediately execution, or a [`crate::sched::JobCtx`] inside a
/// scheduler batch).
///
/// * `input` — the input split, as `(key, value)` records.
/// * `mapper` — called per input record with an `emit(key, value)` sink.
/// * `reducer` — called per intermediate key with all its values (combined
///   across map tasks) and an `emit(key, value)` sink.
///
/// Returns the reduce output, in partition order with each key group's
/// values ordered by (map task, emission order) — deterministic across
/// runs and across `threads` settings. Metrics (including simulated
/// cluster time) are recorded on the `cluster` and also derivable from the
/// returned metrics snapshot.
///
/// Each key group is handed to `reducer` as one owned `Vec<VM>`; reducers
/// that fold their group in a single forward pass should prefer
/// [`run_job_streaming`], which skips that materialization entirely.
///
/// ```
/// use haten2_mapreduce::{run_job, Cluster, ClusterConfig, JobSpec};
///
/// let cluster = Cluster::new(ClusterConfig::with_machines(4));
/// let docs = vec![(0u64, "a b a".to_string()), (1, "b c".to_string())];
/// let mut counts = run_job(
///     &cluster,
///     JobSpec::named("word-count"),
///     &docs,
///     |_, text: &String, emit| {
///         for w in text.split_whitespace() {
///             emit(w.to_string(), 1u64);
///         }
///     },
///     |word, ones, emit| emit(word.clone(), ones.iter().sum::<u64>()),
/// )
/// .unwrap();
/// counts.sort();
/// assert_eq!(counts, vec![
///     ("a".to_string(), 2),
///     ("b".to_string(), 2),
///     ("c".to_string(), 1),
/// ]);
/// // The paper's "intermediate data" is the mapper output, counted exactly:
/// assert_eq!(cluster.metrics().jobs[0].map_output_records, 5);
/// ```
pub fn run_job<KI, VI, KM, VM, KO, VO, M, R>(
    site: &impl JobSite,
    spec: JobSpec<'_, KM, VM>,
    input: &[(KI, VI)],
    mapper: M,
    reducer: R,
) -> crate::Result<Vec<(KO, VO)>>
where
    KI: Sync + EstimateSize,
    VI: Sync + EstimateSize,
    KM: Clone + Ord + Hash + Send + EstimateSize + 'static,
    VM: Send + EstimateSize + 'static,
    KO: Send + EstimateSize,
    VO: Send + EstimateSize,
    M: Fn(&KI, &VI, &mut dyn FnMut(KM, VM)) + Sync,
    R: Fn(&KM, Vec<VM>, &mut dyn FnMut(KO, VO)) + Sync,
{
    // The streamed group as an owned `Vec`, sized exactly once.
    let collecting =
        |key: &KM, values: &mut GroupValues<'_, KM, VM>, emit: &mut dyn FnMut(KO, VO)| {
            let mut vals = Vec::with_capacity(values.len());
            vals.extend(values);
            reducer(key, vals, emit)
        };
    let reduce = (collecting, <Vec<(KO, VO)>>::for_partitions);
    run_job_inner(site, spec, input, mapper, reduce, concat_partitions)
}

/// Like [`run_job`], but each key group's values are *streamed* to the
/// reducer through a [`GroupValues`] iterator instead of being collected
/// into an owned `Vec` first — the group is never materialized, so a
/// skewed key whose group dwarfs the average costs its wire bytes once
/// (in the runs) instead of twice. Semantics are otherwise identical:
/// same output order, same metrics, same failure rules, and the
/// per-group memory *accounting* (`max_group_bytes`, the OOM budget)
/// still charges the full group so the paper's o.o.m. behaviour is
/// unchanged.
///
/// Values arrive in run (= map task, then emission) order — exactly the
/// order [`run_job`] presents in its `Vec`. Unconsumed values are drained
/// automatically when the reducer returns.
///
/// ```
/// use haten2_mapreduce::{run_job_streaming, Cluster, ClusterConfig, JobSpec};
///
/// let cluster = Cluster::new(ClusterConfig::with_machines(4));
/// let input = vec![(0u64, 1.0f64), (0, 2.0), (1, 3.0)];
/// let mut sums = run_job_streaming(
///     &cluster,
///     JobSpec::named("sum"),
///     &input,
///     |k, v: &f64, emit| emit(*k, *v),
///     |k, vals, emit| emit(*k, vals.sum::<f64>()),
/// )
/// .unwrap();
/// sums.sort_by(|a, b| a.0.cmp(&b.0));
/// assert_eq!(sums, vec![(0, 3.0), (1, 3.0)]);
/// ```
pub fn run_job_streaming<KI, VI, KM, VM, KO, VO, M, R>(
    site: &impl JobSite,
    spec: JobSpec<'_, KM, VM>,
    input: &[(KI, VI)],
    mapper: M,
    reducer: R,
) -> crate::Result<Vec<(KO, VO)>>
where
    KI: Sync + EstimateSize,
    VI: Sync + EstimateSize,
    KM: Clone + Ord + Hash + Send + EstimateSize + 'static,
    VM: Send + EstimateSize + 'static,
    KO: Send + EstimateSize,
    VO: Send + EstimateSize,
    M: Fn(&KI, &VI, &mut dyn FnMut(KM, VM)) + Sync,
    R: Fn(&KM, &mut GroupValues<'_, KM, VM>, &mut dyn FnMut(KO, VO)) + Sync,
{
    let reduce = (reducer, <Vec<(KO, VO)>>::for_partitions);
    run_job_inner(site, spec, input, mapper, reduce, concat_partitions)
}

/// The general entry: [`run_job_streaming`] over any [`MapInput`], with
/// each reduce task writing into its own [`Collect`]. Returns the
/// collectors, one per reduce partition in partition order — for the
/// `Vec<(KO, VO)>` collector, [`concat_partitions`] of the result is
/// exactly what [`run_job_streaming`] returns for the same records.
/// Semantics, metrics and failure rules are those of the other two entry
/// points: all three are one executor.
///
/// This is what lets one job's reducers write the shards the next job's
/// mappers read in place. Below, a job splits its output by parity as it
/// is written, and a second job sums the even half without anything in
/// between having copied a record:
///
/// ```
/// use haten2_mapreduce::{
///     run_job_collect, Cluster, ClusterConfig, Collect, JobSpec, MapInput,
/// };
/// use std::ops::Range;
///
/// #[derive(Default)]
/// struct ByParity([Vec<u64>; 2]);
/// impl Collect<u64, u64> for ByParity {
///     fn collect(&mut self, key: u64, val: u64) {
///         self.0[(key % 2) as usize].push(val);
///     }
/// }
///
/// /// The even halves of every partition, read where the reducers left them.
/// struct Evens<'a>(&'a [ByParity]);
/// impl MapInput for Evens<'_> {
///     type Key = ();
///     type Val = u64;
///     fn len(&self) -> usize {
///         self.0.iter().map(|p| p.0[0].len()).sum()
///     }
///     fn est_bytes(&self, range: Range<usize>) -> usize {
///         8 * range.len()
///     }
///     fn for_each<F: FnMut(&(), &u64)>(&self, range: Range<usize>, mut f: F) {
///         let records = self.0.iter().flat_map(|p| &p.0[0]);
///         records.skip(range.start).take(range.len()).for_each(|v| f(&(), v));
///     }
/// }
///
/// let cluster = Cluster::new(ClusterConfig::with_machines(3));
/// let input: Vec<(u64, u64)> = (0..10).map(|k| (k, 10 * k)).collect();
/// let written: Vec<ByParity> = run_job_collect(
///     &cluster,
///     JobSpec::named("split"),
///     input.as_slice(),
///     |k, v, emit| emit(*k, *v),
///     |k, vals, emit| emit(*k, vals.sum::<u64>()),
/// )
/// .unwrap();
/// let sums: Vec<Vec<((), u64)>> = run_job_collect(
///     &cluster,
///     JobSpec::named("sum-evens"),
///     &Evens(&written),
///     |_, v, emit| emit((), *v),
///     |_, vals, emit| emit((), vals.sum::<u64>()),
/// )
/// .unwrap();
/// assert_eq!(sums.concat(), vec![((), 0 + 20 + 40 + 60 + 80)]);
/// assert_eq!(cluster.metrics().jobs[1].map_input_records, 5);
/// ```
pub fn run_job_collect<I, KM, VM, KO, VO, M, R, C>(
    site: &impl JobSite,
    spec: JobSpec<'_, KM, VM>,
    input: &I,
    mapper: M,
    reducer: R,
) -> crate::Result<Vec<C>>
where
    I: MapInput + ?Sized,
    KM: Clone + Ord + Hash + Send + EstimateSize + 'static,
    VM: Send + EstimateSize + 'static,
    KO: EstimateSize,
    VO: EstimateSize,
    M: Fn(&I::Key, &I::Val, &mut dyn FnMut(KM, VM)) + Sync,
    R: Fn(&KM, &mut GroupValues<'_, KM, VM>, &mut dyn FnMut(KO, VO)) + Sync,
    C: Collect<KO, VO>,
{
    run_job_collect_with(site, spec, input, mapper, reducer, C::for_partitions)
}

/// [`run_job_collect`] with each reduce task's collector made by
/// `collector(partitions)` instead of [`Collect::for_partitions`]: for a
/// collector that needs state of the call, such as the layout a record
/// writer packs the next job's map output in. Same job, same metrics.
pub fn run_job_collect_with<I, KM, VM, KO, VO, M, R, C>(
    site: &impl JobSite,
    spec: JobSpec<'_, KM, VM>,
    input: &I,
    mapper: M,
    reducer: R,
    collector: impl Fn(usize) -> C + Sync,
) -> crate::Result<Vec<C>>
where
    I: MapInput + ?Sized,
    KM: Clone + Ord + Hash + Send + EstimateSize + 'static,
    VM: Send + EstimateSize + 'static,
    KO: EstimateSize,
    VO: EstimateSize,
    M: Fn(&I::Key, &I::Val, &mut dyn FnMut(KM, VM)) + Sync,
    R: Fn(&KM, &mut GroupValues<'_, KM, VM>, &mut dyn FnMut(KO, VO)) + Sync,
    C: Collect<KO, VO>,
{
    let reduce = (reducer, collector);
    run_job_inner(site, spec, input, mapper, reduce, |partitions| partitions)
}

/// The one executor. Each reduce task runs `reducer` into the collector
/// `collector` makes for the job's partition count, and `assemble` turns
/// the per-partition collectors into the caller's output inside the job's
/// timed section, so `assemble_s` and the job's wall time cover it.
fn run_job_inner<I, KM, VM, KO, VO, M, R, C, T>(
    site: &impl JobSite,
    spec: JobSpec<'_, KM, VM>,
    input: &I,
    mapper: M,
    (reducer, collector): (R, impl Fn(usize) -> C + Sync),
    assemble: impl FnOnce(Vec<C>) -> T,
) -> crate::Result<T>
where
    I: MapInput + ?Sized,
    KM: Clone + Ord + Hash + Send + EstimateSize + 'static,
    VM: Send + EstimateSize + 'static,
    KO: EstimateSize,
    VO: EstimateSize,
    M: Fn(&I::Key, &I::Val, &mut dyn FnMut(KM, VM)) + Sync,
    R: Fn(&KM, &mut GroupValues<'_, KM, VM>, &mut dyn FnMut(KO, VO)) + Sync,
    C: Collect<KO, VO>,
{
    let job = Started::new(site, spec.name, input.len())?;
    let emit_hint = spec
        .map_emit_hint
        .or_else(|| site.derived_emit_hint(&job.name));
    let (num_reducers, splits) = (job.num_reducers, job.splits);

    // ---- Map phase -------------------------------------------------------
    // A task's buckets: either a hint-capacity output (its column
    // reservations, from the cluster's recycler where they reach its
    // threshold, are the point of the emit hint) or the executor's reused
    // scratch output. Sealing `mem::take`s the filled cells, so
    // after a task the scratch holds empty zero-capacity buffers again —
    // reuse saves the per-task construction and drop of a
    // `num_reducers`-sized vector, a measurable constant for tiny jobs on
    // wide clusters, and nothing else: the data-carrying columns are
    // moved into the shuffle either way.
    let run_map_task = |t: usize, scratch: &mut Option<MapOutput<KM, VM>>| {
        let split = splits.range(t);
        let bucket_capacity = emit_hint.map_or(0, |per_record| {
            (split.len() * per_record).div_ceil(num_reducers)
        });
        // Pre-sizing only pays off past Vec's first growth steps; for tiny
        // expected buckets an eager allocation per (task × partition) costs
        // more than the reallocations it avoids.
        let mut sized;
        let out = if bucket_capacity >= 8 {
            sized = MapOutput::with_bucket_capacity(num_reducers, bucket_capacity);
            &mut sized
        } else {
            scratch.get_or_insert_with(|| MapOutput::new(num_reducers))
        };
        // Batch input accounting: the input prices its own records
        // (O(1) for fixed-size record types).
        let input_bytes = input.est_bytes(split.clone()) + split.len() * FRAMING_BYTES;
        {
            let mut emit = |k: KM, v: VM| out.emit(k, v);
            input.for_each(split.clone(), |k, v| mapper(k, v, &mut emit));
        }
        ((split.len(), input_bytes), out.seal(spec.combiner))
    };
    let sched = &job.sched;
    let tasks = run_tasks(&job, splits.tasks, |t, scratch| {
        // Scheduled task failures: each failed attempt runs the mapper
        // and discards its output (wasted work), then the task retries.
        if let Some(s) = sched {
            for _ in 0..s.map[t].failed_attempts {
                drop(run_map_task(t, scratch));
            }
        }
        run_map_task(t, scratch)
    });
    let (inputs, outputs) = tasks.into_iter().unzip();
    finish(job, inputs, outputs, (reducer, collector), assemble)
}

/// Reduce map output that was written before the job started: the job
/// starts at its shuffle. `written` holds the outputs of the tasks that
/// ran the job's map function — the reduce tasks of an earlier job, whose
/// [`Collect`] filled them — in the order their records are the job's
/// input. Semantics, metrics and failure rules are [`run_job_collect`]'s
/// over that input with the same map function: every output's buckets are
/// sorted stably and sealed into runs (the map phase), and a key group's
/// values reach the reducer in (output, emission) order.
///
/// The map input is metered as if the job had read it: each record
/// counted by [`MapOutput::count_input`] is priced at `input_record_bytes`
/// plus framing, and fault accounting charges the contiguous splits the
/// job's map tasks would have read. Outputs cut for another partition
/// count than the cluster's are a [`MrError::PlanViolation`].
///
/// ```
/// use haten2_mapreduce::{
///     run_job_collect, run_job_written, Cluster, ClusterConfig, Collect, JobSpec, MapOutput,
/// };
///
/// /// A record writer that runs the next job's map, `(k, v) → (k % 3, v)`.
/// struct ByResidue(MapOutput<u64, u64>);
/// impl Default for ByResidue {
///     fn default() -> Self {
///         ByResidue(MapOutput::new(1))
///     }
/// }
/// impl Collect<u64, u64> for ByResidue {
///     fn for_partitions(partitions: usize) -> Self {
///         ByResidue(MapOutput::new(partitions))
///     }
///     fn collect(&mut self, key: u64, val: u64) {
///         self.0.count_input();
///         self.0.emit(key % 3, val);
///     }
/// }
///
/// let cluster = Cluster::new(ClusterConfig::with_machines(3));
/// let input: Vec<(u64, u64)> = (0..10).map(|k| (k, 10 * k)).collect();
/// let written: Vec<ByResidue> = run_job_collect(
///     &cluster,
///     JobSpec::named("scale"),
///     input.as_slice(),
///     |k, v, emit| emit(*k, *v),
///     |k, vals, emit| emit(*k, vals.sum::<u64>()),
/// )
/// .unwrap();
/// let sums: Vec<Vec<(u64, u64)>> = run_job_written(
///     &cluster,
///     JobSpec::named("sum-by-residue"),
///     written.into_iter().map(|w| w.0).collect(),
///     8,
///     |k, vals, emit| emit(*k, vals.sum::<u64>()),
/// )
/// .unwrap();
/// let mut sums = sums.concat();
/// sums.sort();
/// assert_eq!(sums, vec![(0, 180), (1, 120), (2, 150)]);
/// assert_eq!(cluster.metrics().jobs[1].map_input_records, 10);
/// ```
pub fn run_job_written<KM, VM, KO, VO, R, C>(
    site: &impl JobSite,
    spec: JobSpec<'_, KM, VM>,
    written: Vec<MapOutput<KM, VM>>,
    input_record_bytes: usize,
    reducer: R,
) -> crate::Result<Vec<C>>
where
    KM: Clone + Ord + Hash + Send + EstimateSize + 'static,
    VM: Send + EstimateSize + 'static,
    KO: EstimateSize,
    VO: EstimateSize,
    R: Fn(&KM, &mut GroupValues<'_, KM, VM>, &mut dyn FnMut(KO, VO)) + Sync,
    C: Collect<KO, VO>,
{
    let records = written.iter().map(MapOutput::inputs).sum();
    let job = Started::new(site, spec.name, records)?;
    if let Some(w) = written.iter().find(|w| w.partitions() != job.num_reducers) {
        let detail = format!(
            "map output cut for {} partitions, but the cluster shuffles into {}",
            w.partitions(),
            job.num_reducers
        );
        return Err(MrError::PlanViolation {
            job: job.name,
            detail,
        });
    }
    // ---- Map phase: sort and seal what was written, output by output ---
    let cells: Vec<Mutex<Option<MapOutput<KM, VM>>>> =
        written.into_iter().map(|w| Mutex::new(Some(w))).collect();
    let outputs = run_tasks(&job, cells.len(), |t, _: &mut ()| {
        let taken = cells[t].lock().expect("written cell poisoned").take();
        taken
            .expect("written output sealed once")
            .seal(spec.combiner)
    });
    let inputs = (0..job.splits.tasks)
        .map(|t| {
            let records = job.splits.range(t).len();
            (records, records * (input_record_bytes + FRAMING_BYTES))
        })
        .collect();
    let collector = C::for_partitions;
    finish(job, inputs, outputs, (reducer, collector), |partitions| {
        partitions
    })
}

/// Run `job`'s tasks `0..tasks` on up to its `threads` pool executors,
/// each executor handing its tasks one scratch value of its own and
/// taking columns from the job's recycler, and return their results in
/// task order.
fn run_tasks<S: JobSite, X: Default, T: Send>(
    job: &Started<'_, S>,
    tasks: usize,
    task: impl Fn(usize, &mut X) -> T + Sync,
) -> Vec<T> {
    // Results land in per-task write-once slots (not a shared push list),
    // so metrics accumulate in task order and the shuffle sees runs in
    // task order regardless of which worker finished first.
    // (`Mutex<Option<_>>` rather than `OnceLock`: the latter's `Sync`
    // bound would leak a `Sync` requirement onto key/value types.)
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let counter = AtomicUsize::new(0);
    let columns = &job.columns;
    job.site
        .cluster()
        .pool()
        .broadcast(job.threads.min(tasks).max(1), &|_executor| {
            let _columns = columns.enter();
            let mut scratch = X::default();
            loop {
                let t = counter.fetch_add(1, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                let result = task(t, &mut scratch);
                let prev = slots[t].lock().expect("task slot poisoned").replace(result);
                assert!(prev.is_none(), "task visited once");
            }
        });
    slots
        .into_iter()
        .map(|slot| {
            let slot = slot.into_inner().expect("task slot poisoned");
            slot.expect("every task ran to completion")
        })
        .collect()
}

/// A job admitted to run: where, since when, how its input splits into
/// map tasks, and its fault schedule.
struct Started<'s, S> {
    site: &'s S,
    name: String,
    started: Instant,
    started_s: f64,
    num_reducers: usize,
    threads: usize,
    splits: Splits,
    sched: Option<JobFaultSchedule>,
    /// The job's columns; the job ends for the recycler when it drops.
    columns: Arc<JobColumns>,
}

/// How a job's input splits into map tasks: contiguous ranges of `len`
/// records, the last one short; zero records make zero tasks.
#[derive(Clone, Copy)]
struct Splits {
    records: usize,
    len: usize,
    tasks: usize,
}

impl Splits {
    fn new(records: usize, machines: usize) -> Self {
        let len = records.div_ceil(machines).max(1);
        Splits {
            records,
            len,
            tasks: records.div_ceil(len),
        }
    }

    /// The input records map task `t` reads.
    fn range(self, t: usize) -> Range<usize> {
        t * self.len..self.records.min((t + 1) * self.len)
    }
}

impl<'s, S: JobSite> Started<'s, S> {
    /// Admit the job `name` over `records` input records, or fail it at
    /// once when a map task's retry budget is scheduled to run out. The
    /// fault schedule is expanded up front: a pure function of the plan
    /// and the job's geometry, so recovery decisions (and their metrics)
    /// are independent of which worker thread runs which task.
    fn new(site: &'s S, name: String, records: usize) -> crate::Result<Self> {
        site.before_run(&name)?;
        let cluster = site.cluster();
        let job_index = site.job_index();
        let started = Instant::now();
        let started_s = cluster.since_epoch();
        let cfg = cluster.config();
        let num_reducers = cfg.num_reducers();
        let machines = cfg.machines.max(1);
        let splits = Splits::new(records, machines);
        let sched = cfg
            .fault_plan
            .as_ref()
            .map(|plan| plan.schedule(&name, job_index, splits.tasks, num_reducers, machines));
        if let Some(s) = &sched {
            if let Some(t) = s.first_exhausted_map() {
                return Err(MrError::TaskFailed {
                    job: name,
                    phase: "map",
                    task: t,
                    attempts: s.map[t].failed_attempts,
                });
            }
        }
        Ok(Started {
            site,
            name,
            started,
            started_s,
            num_reducers,
            threads: site.task_parallelism(cfg.threads.max(1)).max(1),
            splits,
            sched,
            columns: JobColumns::new(cluster.recycler()),
        })
    }
}

/// The rest of the one executor, from the shuffle on: `inputs` are the
/// map tasks' `(records, bytes)` read, in task order, and `outputs` the
/// sealed map outputs in the order their runs reach a reducer. Each reduce
/// task runs `reducer` into the collector `collector` makes for the job's
/// partition count. `assemble` turns the per-partition collectors into the
/// caller's output inside the job's timed section, so `assemble_s` and the
/// job's wall time cover it.
fn finish<S, KM, VM, KO, VO, R, C, T>(
    job: Started<'_, S>,
    inputs: Vec<(usize, usize)>,
    outputs: Vec<Sealed<KM, VM>>,
    (reducer, collector): (R, impl Fn(usize) -> C + Sync),
    assemble: impl FnOnce(Vec<C>) -> T,
) -> crate::Result<T>
where
    S: JobSite,
    KM: Clone + Ord + Send + EstimateSize + 'static,
    VM: Send + EstimateSize + 'static,
    KO: EstimateSize,
    VO: EstimateSize,
    R: Fn(&KM, &mut GroupValues<'_, KM, VM>, &mut dyn FnMut(KO, VO)) + Sync,
    C: Collect<KO, VO>,
{
    let Started {
        site,
        name,
        started,
        started_s,
        num_reducers,
        threads,
        sched,
        columns,
        ..
    } = job;
    let cluster = site.cluster();
    let cfg = cluster.config();

    // ---- Shuffle -----------------------------------------------------
    // Zero-copy: each map output's per-partition runs move wholesale to
    // their reducer; accounting uses the runs' precomputed aggregates.
    let map_done = Instant::now();
    let mut metrics = JobMetrics {
        name: name.clone(),
        task_executors: threads,
        ..Default::default()
    };
    for (t, (records, bytes)) in inputs.into_iter().enumerate() {
        metrics.map_input_records += records;
        metrics.map_input_bytes += bytes;
        if let (Some(s), Some(plan)) = (&sched, &cfg.fault_plan) {
            s.map[t].account_map(plan, bytes as f64 / cfg.map_bytes_per_s, &mut metrics);
        }
    }
    // Lazily grown: partitions a job never emits into (common for tiny
    // jobs on wide clusters) must not pay a task-count-sized alloc.
    let mut partition_runs: Vec<Vec<ColumnRun<KM, VM>>> =
        (0..num_reducers).map(|_| Vec::new()).collect();
    for sealed in outputs {
        metrics.map_output_records += sealed.records;
        metrics.map_output_bytes += sealed.bytes;
        for (p, run) in sealed.runs {
            metrics.shuffle_records += run.len();
            metrics.shuffle_bytes += run.bytes();
            partition_runs[p as usize].push(run);
        }
    }

    if let Some(cap) = cfg.cluster_capacity_bytes {
        if metrics.map_output_bytes > cap {
            return Err(MrError::ClusterCapacityExceeded {
                job: name,
                intermediate_bytes: metrics.map_output_bytes,
                capacity_bytes: cap,
            });
        }
    }

    // ---- Reduce phase ----------------------------------------------------
    let shuffle_done = Instant::now();
    struct ReduceTaskResult<C> {
        output: C,
        groups: usize,
        output_records: usize,
        output_bytes: usize,
        max_group_bytes: usize,
    }

    // Group one partition's sorted runs by k-way merge. Equal keys drain
    // in run (= map task) order, reproducing the record order a stable
    // full sort of task-ordered input would give. Groups are *streamed*:
    // the merge sizes each group (for the OOM budget and skew accounting)
    // from the runs' key columns, then hands the reducer a cursor-backed
    // iterator — only `Vec`-signature reducers collect it. `Err(Some(e))`
    // is this partition's own failure; `Err(None)` means it aborted
    // because a smaller-index partition already failed.
    let reduce_partition = |p: usize,
                            runs: Vec<ColumnRun<KM, VM>>,
                            first_failed: &AtomicUsize|
     -> Result<ReduceTaskResult<C>, Option<MrError>> {
        let mut cursors: Vec<RunCursor<KM, VM>> =
            runs.into_iter().map(ColumnRun::into_cursor).collect();
        let mut out = collector(num_reducers);
        let mut groups = 0usize;
        let mut output_records = 0usize;
        let mut output_bytes = 0usize;
        let mut max_group_bytes = 0usize;
        // Per-run prefix counts of the current group, reused across groups;
        // they both size the group and drive its cursor-backed iterator.
        let mut counts: Vec<u32> = Vec::with_capacity(cursors.len());
        loop {
            if first_failed.load(Ordering::Relaxed) < p {
                return Err(None);
            }
            // Smallest key at the head of any run starts the next group.
            let mut min_run: Option<usize> = None;
            for (i, cursor) in cursors.iter().enumerate() {
                if let Some(k) = cursor.peek_key() {
                    let smaller = match min_run {
                        None => true,
                        Some(m) => Some(k) < cursors[m].peek_key(),
                    };
                    if smaller {
                        min_run = Some(i);
                    }
                }
            }
            let Some(min_run) = min_run else { break };
            let key = cursors[min_run]
                .peek_key()
                .expect("min run nonempty")
                .clone();

            // Size the group before streaming it: count each run's
            // matching key prefix, O(1)-summing value bytes for
            // fixed-size value types. This is the budget/skew accounting
            // only — values are not touched.
            let mut n_vals = 0usize;
            let mut val_bytes = 0usize;
            counts.clear();
            for cursor in &cursors {
                let cnt = cursor
                    .pending_keys()
                    .iter()
                    .take_while(|k| **k == key)
                    .count();
                counts.push(u32::try_from(cnt).expect("group run prefix fits u32"));
                n_vals += cnt;
                val_bytes += match VM::FIXED_BYTES {
                    Some(b) => b * cnt,
                    None => cursor.pending_vals()[..cnt]
                        .iter()
                        .map(EstimateSize::est_bytes)
                        .sum(),
                };
            }
            let group_bytes = key.est_bytes() + val_bytes + n_vals * FRAMING_BYTES;
            if let Some(budget) = cfg.reducer_memory_bytes {
                if group_bytes > budget {
                    return Err(Some(MrError::ReducerOom {
                        job: name.clone(),
                        group_bytes,
                        budget_bytes: budget,
                    }));
                }
            }
            max_group_bytes = max_group_bytes.max(group_bytes);
            groups += 1;
            let mut group = GroupValues::new(&mut cursors, &key, &counts, n_vals);
            let mut emit = |k: KO, v: VO| {
                output_records += 1;
                output_bytes += k.est_bytes() + v.est_bytes() + FRAMING_BYTES;
                out.collect(k, v);
            };
            reducer(&key, &mut group, &mut emit);
            // A streaming reducer may stop early; drain the remainder so
            // the next group starts at a clean cursor position.
            group.for_each(drop);
        }
        for cursor in cursors {
            let (keys, vals) = cursor.into_columns();
            recycle::give(keys);
            recycle::give(vals);
        }
        Ok(ReduceTaskResult {
            output: out,
            groups,
            output_records,
            output_bytes,
            max_group_bytes,
        })
    };

    // Each partition is consumed by exactly one reduce task; hand ownership
    // through per-partition mutex cells so workers can take them without
    // cloning. Results land in per-partition write-once slots.
    type PartitionCell<K, V> = Mutex<Option<Vec<ColumnRun<K, V>>>>;
    let partition_cells: Vec<PartitionCell<KM, VM>> = partition_runs
        .into_iter()
        .map(|p| Mutex::new(Some(p)))
        .collect();
    let reduce_slots: Vec<Mutex<Option<ReduceTaskResult<C>>>> =
        (0..num_reducers).map(|_| Mutex::new(None)).collect();

    let part_counter = AtomicUsize::new(0);
    // The job reports the failure of the smallest failing partition —
    // exactly what a sequential scan reports first. `first_failed` is the
    // smallest partition index known to have failed (`usize::MAX`: none).
    // A partition is abandoned only when a *smaller* one failed, so the
    // smallest failing partition always runs to its own first failing
    // group and the reported error does not depend on executor count.
    // Relaxed: the index only lets larger partitions stop early (a stale
    // read costs wasted work, never a different result); the error itself
    // travels through the `failure` mutex.
    let failure: Mutex<Option<(usize, MrError)>> = Mutex::new(None);
    let first_failed = AtomicUsize::new(usize::MAX);
    let fail = |p: usize, err: MrError| {
        let mut slot = failure.lock().expect("failure slot poisoned");
        if slot.as_ref().is_none_or(|(fp, _)| p < *fp) {
            *slot = Some((p, err));
        }
        first_failed.fetch_min(p, Ordering::Relaxed);
    };

    cluster
        .pool()
        .broadcast(threads.min(num_reducers), &|_executor| {
            let _columns = columns.enter();
            loop {
                // Claims only grow, so once a smaller partition failed this
                // executor has nothing left worth reducing.
                let p = part_counter.fetch_add(1, Ordering::Relaxed);
                if p >= num_reducers || first_failed.load(Ordering::Relaxed) < p {
                    break;
                }
                // Scheduled reduce-task budget exhaustion surfaces exactly like
                // any other per-partition failure: smallest partition wins.
                if let Some(f) = sched.as_ref().map(|s| &s.reduce[p]) {
                    if f.exhausted {
                        fail(
                            p,
                            MrError::TaskFailed {
                                job: name.clone(),
                                phase: "reduce",
                                task: p,
                                attempts: f.failed_attempts,
                            },
                        );
                        break;
                    }
                }
                let runs = partition_cells[p]
                    .lock()
                    .expect("partition cell poisoned")
                    .take()
                    .expect("partition visited once");
                match reduce_partition(p, runs, &first_failed) {
                    Ok(result) => {
                        let prev = reduce_slots[p]
                            .lock()
                            .expect("reduce slot poisoned")
                            .replace(result);
                        assert!(prev.is_none(), "partition reduced once");
                    }
                    Err(Some(err)) => {
                        fail(p, err);
                        break;
                    }
                    Err(None) => break,
                }
            }
        });

    if let Some((_, err)) = failure.into_inner().expect("failure slot poisoned") {
        return Err(err);
    }

    // Assemble output and metrics in partition order — deterministic. The
    // collectors are moved, not read: what a reduce task wrote is what the
    // caller gets.
    let reduce_done = Instant::now();
    let mut partitions = Vec::with_capacity(num_reducers);
    for slot in reduce_slots {
        let r = slot
            .into_inner()
            .expect("reduce slot poisoned")
            .expect("every partition reduced");
        metrics.reduce_groups += r.groups;
        metrics.reduce_output_records += r.output_records;
        metrics.reduce_output_bytes += r.output_bytes;
        metrics.max_group_bytes = metrics.max_group_bytes.max(r.max_group_bytes);
        partitions.push(r.output);
    }
    let output = assemble(partitions);

    if let (Some(s), Some(plan)) = (&sched, &cfg.fault_plan) {
        for f in &s.reduce {
            f.account_reduce(plan, &mut metrics);
        }
        metrics.workers_blacklisted = s.workers_blacklisted;
    }

    let finished = Instant::now();
    let secs = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64();
    metrics.map_s = secs(started, map_done);
    metrics.shuffle_s = secs(map_done, shuffle_done);
    metrics.reduce_s = secs(shuffle_done, reduce_done);
    metrics.assemble_s = secs(reduce_done, finished);
    metrics.wall_time_s = secs(started, finished);
    metrics.started_s = started_s;
    metrics.finished_s = started_s + metrics.wall_time_s;
    metrics.sim_time_s = CostModel::job_time_s(cfg, &metrics);
    (metrics.recycled_column_bytes, metrics.fresh_column_bytes) = columns.bytes();
    site.commit_metrics(metrics);
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastmod_matches_division() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(99);
        let mut divisors: Vec<u64> = (1..=512).collect();
        divisors.extend([
            1_000,
            4_096,
            65_535,
            65_536,
            1 << 32,
            u64::MAX,
            u64::MAX - 1,
        ]);
        divisors.extend((0..64).map(|_| rng.gen_range(1..u64::MAX)));
        for &d in &divisors {
            let p = Partitioner::new(d.try_into().unwrap_or(usize::MAX));
            let d = p.partitions; // after usize clamp on 32-bit targets
            let mut xs = vec![
                0u64,
                1,
                2,
                d.wrapping_sub(1),
                d,
                d.wrapping_add(1),
                u64::MAX,
            ];
            xs.extend((0..256).map(|_| rng.gen::<u64>()));
            for x in xs {
                assert_eq!(p.rem(x), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn map_output_memo_places_every_record_as_hashing_does() {
        // Runs of equal keys (the memo's case), keys that alternate, and a
        // key that returns after others: every bucket holds exactly the
        // records its partition owns, in emission order.
        let keys: Vec<u64> = (0..400u64)
            .map(|n| (n / 3) % 17 + (n % 5 == 0) as u64)
            .collect();
        for partitions in [1usize, 2, 3, 7] {
            let mut out = MapOutput::new(partitions);
            for (n, &k) in keys.iter().enumerate() {
                out.emit(k, n);
            }
            let mut want: Vec<(u64, usize)> = Vec::new();
            for p in 0..partitions {
                let owned = keys.iter().enumerate().map(|(n, &k)| (k, n));
                want.extend(owned.filter(|(k, _)| partition_of(k, partitions) == p));
            }
            let got: Vec<(u64, usize)> = out.records().map(|(k, n)| (*k, *n)).collect();
            assert_eq!(got, want, "{partitions} partitions");
        }
    }

    /// A mapper that emits zero to two records under keys that repeat, and
    /// a reducer whose fold shows its values' order in the low bits.
    fn map_rec(k: &u64, v: &f64, emit: &mut dyn FnMut(u64, f64)) {
        for copy in 0..k % 3 {
            emit(k % 7, v + copy as f64);
        }
    }

    fn reduce_rec(k: &u64, vals: &mut GroupValues<'_, u64, f64>, emit: &mut dyn FnMut(u64, f64)) {
        emit(*k, vals.fold(0.1, |acc, v| acc * 0.7 + v));
    }

    #[test]
    fn map_output_written_job_equals_the_mapped_job() {
        use crate::cluster::ClusterConfig;
        use crate::fault::FaultPlan;

        let input: Vec<(u64, f64)> = (0..97u64).map(|k| (k * 5 % 23, k as f64 / 3.0)).collect();
        for machines in 1..=5 {
            for threads in 1..=4 {
                for fault_plan in [None, Some(FaultPlan::seeded(machines as u64))] {
                    let cluster = || {
                        let mut cfg = ClusterConfig::with_machines(machines);
                        cfg.threads = threads;
                        cfg.fault_plan = fault_plan.clone();
                        Cluster::new(cfg)
                    };
                    let mapped = cluster();
                    let want: Vec<Vec<(u64, f64)>> = run_job_collect(
                        &mapped,
                        JobSpec::named("j"),
                        input.as_slice(),
                        map_rec,
                        reduce_rec,
                    )
                    .unwrap();
                    // The same map, run outside the job over pieces cut
                    // anywhere (an empty one included).
                    let written_on = cluster();
                    let partitions = written_on.config().num_reducers();
                    let cuts = [0, 0, 10, 11, 60, input.len()];
                    let written: Vec<MapOutput<u64, f64>> = cuts
                        .windows(2)
                        .map(|w| {
                            let mut out = MapOutput::new(partitions);
                            for (k, v) in &input[w[0]..w[1]] {
                                out.count_input();
                                map_rec(k, v, &mut |k, v| out.emit(k, v));
                            }
                            out
                        })
                        .collect();
                    let got: Vec<Vec<(u64, f64)>> =
                        run_job_written(&written_on, JobSpec::named("j"), written, 16, reduce_rec)
                            .unwrap();
                    let bits = |out: &[Vec<(u64, f64)>]| -> Vec<(u64, u64)> {
                        out.iter()
                            .flatten()
                            .map(|(k, v)| (*k, v.to_bits()))
                            .collect()
                    };
                    let case = format!("machines {machines}, threads {threads}, {fault_plan:?}");
                    assert_eq!(bits(&got), bits(&want), "{case}");
                    let metrics = |c: &Cluster| c.metrics().jobs[0].without_host_time();
                    assert_eq!(metrics(&written_on), metrics(&mapped), "{case}");
                }
            }
        }
    }

    #[test]
    fn map_output_cut_for_another_cluster_is_a_plan_violation() {
        let cluster = Cluster::new(crate::cluster::ClusterConfig::with_machines(3));
        let mut out = MapOutput::new(5);
        out.count_input();
        out.emit(1u64, 1.0f64);
        let err = run_job_written::<_, _, u64, f64, _, Vec<(u64, f64)>>(
            &cluster,
            JobSpec::named("j"),
            vec![out],
            16,
            reduce_rec,
        )
        .unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { job, detail }
                if job == "j" && detail.contains("5 partitions")),
            "{err}"
        );
    }

    #[test]
    fn partitioner_agrees_with_partition_of() {
        for partitions in [1usize, 2, 3, 7, 40, 41, 1024] {
            let p = Partitioner::new(partitions);
            for key in 0u64..500 {
                assert_eq!(p.partition_of(&key), partition_of(&key, partitions));
                let tuple_key = (key as u8, key.wrapping_mul(0x9e37_79b9));
                assert_eq!(
                    p.partition_of(&tuple_key),
                    partition_of(&tuple_key, partitions)
                );
            }
        }
    }
}
