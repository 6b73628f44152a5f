//! Property tests for the columnar shuffle and streaming reduce path.
//!
//! The SoA arena, the counts-driven k-way merge, and the streaming
//! [`run_job_streaming`] boundary are all invisible refactors: for random
//! jobs — including heavily skewed key distributions and degenerate
//! zero-record shapes — the engine must return the *same output in the
//! same order* as the sequential reference executor, and record the same
//! [`JobMetrics`] (every field except the host-time ones). The streaming
//! and `Vec`-signature boundaries must also agree with each other, even
//! when a streaming reducer stops early and leaves values undrained. The
//! general entry ([`run_job_collect`]) is tied to them here — a sharded
//! [`MapInput`] against the slice of the same records — rather than
//! given a mirror of its own in the reference executor.

use haten2_mapreduce::{
    concat_partitions, run_job, run_job_collect, run_job_reference, run_job_reference_streaming,
    run_job_streaming, Cluster, ClusterConfig, EstimateSize, FaultPlan, JobMetrics, JobSpec,
    MapInput,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::ops::Range;

/// Uniform word-count corpus: small vocabulary so keys collide across
/// map tasks and partitions.
fn corpus() -> impl Strategy<Value = Vec<(u64, Vec<u64>)>> {
    vec((0u64..1000, vec(0u64..25, 0..10)), 0..50)
}

/// Power-law-skewed corpus: words are log2-bucketed uniform draws, so
/// word `k` appears with probability ~2^-k — a few huge groups and a
/// long tail of singletons, the shape that stresses group sizing and the
/// per-run prefix counts of the merge.
fn skewed_corpus() -> impl Strategy<Value = Vec<(u64, Vec<u64>)>> {
    let zipfish = (1u64..=1 << 20).prop_map(|x| u64::from(63 - x.leading_zeros()));
    vec((0u64..1000, vec(zipfish, 0..12)), 0..50)
}

fn config(machines: usize, threads: usize, reducers: usize) -> ClusterConfig {
    ClusterConfig {
        machines,
        threads,
        reducers: Some(reducers),
        ..ClusterConfig::default()
    }
}

fn geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=16, 1usize..=16, 1usize..=8)
}

/// Non-host-time metrics of the first (only) job run on a cluster.
fn job_metrics(c: &Cluster) -> JobMetrics {
    let first = c.metrics().jobs.first().cloned().unwrap_or_default();
    first.without_host_time()
}

fn wc_mapper(_id: &u64, words: &Vec<u64>, emit: &mut dyn FnMut(u64, u64)) {
    for &w in words {
        emit(w, 1);
    }
}

/// Streaming engine vs streaming reference on one input; returns outputs
/// and scrubbed metrics from both sides.
type StreamOutcome = (
    haten2_mapreduce::Result<Vec<(u64, u64)>>,
    haten2_mapreduce::Result<Vec<(u64, u64)>>,
    JobMetrics,
    JobMetrics,
);

fn run_streaming_both(cfg: ClusterConfig, input: &[(u64, Vec<u64>)]) -> StreamOutcome {
    let reducer = |word: &u64,
                   vals: &mut haten2_mapreduce::GroupValues<'_, u64, u64>,
                   emit: &mut dyn FnMut(u64, u64)| {
        emit(*word, vals.sum());
    };
    let engine_cluster = Cluster::new(cfg.clone());
    let engine = run_job_streaming(
        &engine_cluster,
        JobSpec::named("wc"),
        input,
        wc_mapper,
        reducer,
    );
    let reference_cluster = Cluster::new(cfg);
    let reference = run_job_reference_streaming(
        &reference_cluster,
        JobSpec::named("wc"),
        input,
        wc_mapper,
        reducer,
    );
    (
        engine,
        reference,
        job_metrics(&engine_cluster),
        job_metrics(&reference_cluster),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming boundary is observably identical to the sequential
    /// streaming reference: outputs bit-identical and in the same order,
    /// metrics identical except host time.
    #[test]
    fn streaming_engine_matches_streaming_reference(
        input in corpus(),
        (machines, threads, reducers) in geometry(),
    ) {
        let (engine, reference, em, rm) =
            run_streaming_both(config(machines, threads, reducers), &input);
        prop_assert_eq!(engine, reference);
        prop_assert_eq!(em, rm);
    }

    /// Same equivalence under power-law key skew: a handful of giant
    /// groups spanning every run plus a tail of one-value groups.
    #[test]
    fn streaming_equivalence_under_power_law_skew(
        input in skewed_corpus(),
        (machines, threads, reducers) in geometry(),
    ) {
        let (engine, reference, em, rm) =
            run_streaming_both(config(machines, threads, reducers), &input);
        prop_assert_eq!(engine, reference);
        prop_assert_eq!(em, rm);
    }

    /// The `Vec`-signature and streaming boundaries run the same shuffle
    /// and merge, so their outputs must be bit-identical (metrics differ
    /// only in the documented `bytes_allocated` materialization charge).
    #[test]
    fn vec_and_streaming_boundaries_agree(
        input in skewed_corpus(),
        (machines, threads, reducers) in geometry(),
    ) {
        let cfg = config(machines, threads, reducers);
        let classic = run_job(
            &Cluster::new(cfg.clone()),
            JobSpec::named("wc"),
            &input,
            wc_mapper,
            |word: &u64, ones: Vec<u64>, emit: &mut dyn FnMut(u64, u64)| {
                emit(*word, ones.iter().sum());
            },
        );
        let streaming = run_job_streaming(
            &Cluster::new(cfg),
            JobSpec::named("wc"),
            &input,
            wc_mapper,
            |word: &u64,
             vals: &mut haten2_mapreduce::GroupValues<'_, u64, u64>,
             emit: &mut dyn FnMut(u64, u64)| {
                emit(*word, vals.sum());
            },
        );
        prop_assert_eq!(classic, streaming);
    }

    /// A streaming reducer that stops early leaves its group's remainder
    /// to the engine's drain; the next group must start clean, exactly as
    /// in the reference.
    #[test]
    fn early_stopping_streaming_reducer_drains_cleanly(
        input in skewed_corpus(),
        (machines, threads, reducers) in geometry(),
    ) {
        let reducer = |word: &u64,
                       vals: &mut haten2_mapreduce::GroupValues<'_, u64, u64>,
                       emit: &mut dyn FnMut(u64, u64)| {
            // Consume at most two values, then bail mid-group.
            emit(*word, vals.take(2).sum());
        };
        let cfg = config(machines, threads, reducers);
        let engine_cluster = Cluster::new(cfg.clone());
        let engine = run_job_streaming(
            &engine_cluster, JobSpec::named("wc"), &input, wc_mapper, reducer,
        );
        let reference_cluster = Cluster::new(cfg);
        let reference = run_job_reference_streaming(
            &reference_cluster, JobSpec::named("wc"), &input, wc_mapper, reducer,
        );
        prop_assert_eq!(engine, reference);
        prop_assert_eq!(job_metrics(&engine_cluster), job_metrics(&reference_cluster));
    }

    /// Zero-record shapes: empty input, a mapper that drops everything,
    /// and a reducer that emits nothing all round-trip identically.
    #[test]
    fn zero_record_cases_are_identical(
        (machines, threads, reducers) in geometry(),
        input in corpus(),
    ) {
        let cfg = config(machines, threads, reducers);

        // Empty input.
        let empty: Vec<(u64, Vec<u64>)> = Vec::new();
        let (engine, reference, em, rm) = run_streaming_both(cfg.clone(), &empty);
        prop_assert_eq!(engine, reference);
        prop_assert_eq!(em, rm);

        // Mapper emits nothing: every map task produces an empty bucket
        // row, so the shuffle moves zero runs.
        let silent_map = |_id: &u64, _w: &Vec<u64>, _emit: &mut dyn FnMut(u64, u64)| {};
        let reducer = |word: &u64,
                       vals: &mut haten2_mapreduce::GroupValues<'_, u64, u64>,
                       emit: &mut dyn FnMut(u64, u64)| {
            emit(*word, vals.sum());
        };
        let ec = Cluster::new(cfg.clone());
        let engine = run_job_streaming(&ec, JobSpec::named("wc"), &input, silent_map, reducer);
        let rc = Cluster::new(cfg.clone());
        let reference =
            run_job_reference_streaming(&rc, JobSpec::named("wc"), &input, silent_map, reducer);
        prop_assert_eq!(engine.as_deref(), Ok(&[][..]));
        prop_assert_eq!(engine, reference);
        prop_assert_eq!(job_metrics(&ec), job_metrics(&rc));

        // Reducer emits nothing: groups are sized, streamed, and drained,
        // but the output buffer stays empty.
        let silent_reduce = |_w: &u64,
                             _vals: &mut haten2_mapreduce::GroupValues<'_, u64, u64>,
                             _emit: &mut dyn FnMut(u64, u64)| {};
        let ec = Cluster::new(cfg.clone());
        let engine =
            run_job_streaming(&ec, JobSpec::named("wc"), &input, wc_mapper, silent_reduce);
        let rc = Cluster::new(cfg);
        let reference = run_job_reference_streaming(
            &rc, JobSpec::named("wc"), &input, wc_mapper, silent_reduce,
        );
        prop_assert_eq!(engine.as_deref(), Ok(&[][..]));
        prop_assert_eq!(engine, reference);
        prop_assert_eq!(job_metrics(&ec), job_metrics(&rc));
    }

    /// The `Vec`-signature engine still matches the `Vec`-signature
    /// reference under skew (guards the materializing boundary the same
    /// way `equivalence.rs` does for uniform keys).
    #[test]
    fn vec_engine_matches_vec_reference_under_skew(
        input in skewed_corpus(),
        (machines, threads, reducers) in geometry(),
    ) {
        let reducer = |word: &u64, ones: Vec<u64>, emit: &mut dyn FnMut(u64, u64)| {
            emit(*word, ones.iter().sum());
        };
        let cfg = config(machines, threads, reducers);
        let ec = Cluster::new(cfg.clone());
        let engine = run_job(&ec, JobSpec::named("wc"), &input, wc_mapper, reducer);
        let rc = Cluster::new(cfg);
        let reference = run_job_reference(&rc, JobSpec::named("wc"), &input, wc_mapper, reducer);
        prop_assert_eq!(engine, reference);
        prop_assert_eq!(job_metrics(&ec), job_metrics(&rc));
    }
}

/// The corpus cut into shards at arbitrary record offsets, read in place.
struct Sharded<'a>(Vec<&'a [(u64, Vec<u64>)]>);

impl MapInput for Sharded<'_> {
    type Key = u64;
    type Val = Vec<u64>;

    fn len(&self) -> usize {
        self.0.iter().map(|shard| shard.len()).sum()
    }

    fn est_bytes(&self, range: Range<usize>) -> usize {
        let mut bytes = 0;
        self.for_each(range, |k, v| bytes += k.est_bytes() + v.est_bytes());
        bytes
    }

    fn for_each<F: FnMut(&u64, &Vec<u64>)>(&self, range: Range<usize>, mut f: F) {
        let records = self.0.iter().flat_map(|shard| shard.iter());
        for (k, v) in records.skip(range.start).take(range.len()) {
            f(k, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The general entry reads its input where it lies: over shards cut
    /// anywhere — not where the map tasks' ranges fall — with the `Vec`
    /// collector, it is `run_job_streaming` over the concatenation: the
    /// same records in the same order once flattened, the same metrics,
    /// one executor or four, with or without scheduled faults (a failed
    /// map attempt re-reads its range).
    #[test]
    fn general_entry_over_unaligned_shards_is_streaming_over_the_concatenation(
        input in skewed_corpus(),
        cuts in vec(0usize..60, 0..6),
        (machines, _, reducers) in geometry(),
        fault_seed in proptest::option::of(any::<u64>()),
    ) {
        // `cuts` → shard boundaries; repeated cuts give empty shards in
        // the middle, none gives the one-shard case, an empty corpus the
        // zero-record one.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(input.len())).collect();
        bounds.sort_unstable();
        bounds.insert(0, 0);
        bounds.push(input.len());
        let shards = Sharded(bounds.windows(2).map(|w| &input[w[0]..w[1]]).collect());
        prop_assert_eq!(shards.len(), input.len());

        let reducer = |word: &u64,
                       vals: &mut haten2_mapreduce::GroupValues<'_, u64, u64>,
                       emit: &mut dyn FnMut(u64, u64)| {
            emit(*word, vals.sum());
        };
        for threads in [1, 4] {
            let mut cfg = config(machines, threads, reducers);
            cfg.fault_plan = fault_seed.map(FaultPlan::seeded);
            let whole_cluster = Cluster::new(cfg.clone());
            let whole = run_job_streaming(
                &whole_cluster, JobSpec::named("wc"), &input, wc_mapper, reducer,
            );
            let sharded_cluster = Cluster::new(cfg);
            let sharded: haten2_mapreduce::Result<Vec<Vec<(u64, u64)>>> = run_job_collect(
                &sharded_cluster, JobSpec::named("wc"), &shards, wc_mapper, reducer,
            );
            if let Ok(partitions) = &sharded {
                prop_assert_eq!(partitions.len(), reducers);
            }
            prop_assert_eq!(sharded.map(concat_partitions), whole);
            prop_assert_eq!(job_metrics(&sharded_cluster), job_metrics(&whole_cluster));
        }
    }
}

#[test]
fn general_entry_degenerate_shard_lists() {
    // No shard at all, only empty shards, and a single shard: zero
    // records make zero map tasks, one shard is the slice.
    let input: Vec<(u64, Vec<u64>)> = (0..7).map(|k| (k, vec![k % 3, 1])).collect();
    let reducer = |word: &u64,
                   vals: &mut haten2_mapreduce::GroupValues<'_, u64, u64>,
                   emit: &mut dyn FnMut(u64, u64)| {
        emit(*word, vals.sum());
    };
    for shards in [vec![], vec![&input[..0], &input[..0]], vec![&input[..]]] {
        let records: Vec<_> = shards.concat();
        let whole_cluster = Cluster::new(config(3, 2, 4));
        let whole = run_job_streaming(
            &whole_cluster,
            JobSpec::named("wc"),
            &records,
            wc_mapper,
            reducer,
        );
        let sharded_cluster = Cluster::new(config(3, 2, 4));
        let sharded: haten2_mapreduce::Result<Vec<Vec<(u64, u64)>>> = run_job_collect(
            &sharded_cluster,
            JobSpec::named("wc"),
            &Sharded(shards),
            wc_mapper,
            reducer,
        );
        assert_eq!(sharded.as_ref().map(Vec::len), Ok(4), "one per partition");
        assert_eq!(sharded.map(concat_partitions), whole);
        assert_eq!(job_metrics(&sharded_cluster), job_metrics(&whole_cluster));
        let read = job_metrics(&whole_cluster).map_input_records;
        assert_eq!(read, records.len());
    }
}

/// The map-side sort ranks a bucket of integer keys by counting or by
/// comparison, from the bucket's length and key span. A power-law job run
/// at key spreads and geometries that put its buckets on both sides of
/// the choice must match the reference executor's full stable sort: the
/// same records in the same order, and the same metrics. The reducer
/// folds its values in arrival order, so a ranking that broke stability
/// would show.
#[test]
fn integer_key_rankings_match_the_reference_on_both_sides_of_the_cutoff() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Word `w` is drawn with probability ~2^-w: a few heavy keys, a tail.
    let docs: Vec<(u64, Vec<u64>)> = (0..240)
        .map(|id| {
            let words = (0..draw() % 40)
                .map(|_| u64::from(63 - (draw() | 1 << 44).leading_zeros()) - 44 + draw() % 4)
                .collect();
            (id, words)
        })
        .collect();
    let reducer = |word: &u64, ids: Vec<u64>, emit: &mut dyn FnMut(u64, u64)| {
        let ordered = ids.iter().fold(0u64, |h, &id| h.wrapping_mul(31) ^ id);
        emit(*word, ordered);
    };
    // Spread 1: a span of a few dozen, counting everywhere. 16 and 2^8:
    // spans near the cutoff, counting in long buckets and comparison in
    // short ones. 2^40: comparison throughout.
    for spread in [1u64, 16, 1 << 8, 1 << 40] {
        let mapper = move |id: &u64, words: &Vec<u64>, emit: &mut dyn FnMut(u64, u64)| {
            for (at, &w) in (0u64..).zip(words) {
                emit(w.wrapping_mul(spread), id * 64 + at);
            }
        };
        // One bucket of every record; a few hundred per bucket; dozens.
        for (machines, reducers) in [(1, 1), (4, 4), (16, 8)] {
            let cfg = config(machines, 2, reducers);
            let ec = Cluster::new(cfg.clone());
            let engine = run_job(&ec, JobSpec::named("spread"), &docs, mapper, reducer);
            let rc = Cluster::new(cfg);
            let reference =
                run_job_reference(&rc, JobSpec::named("spread"), &docs, mapper, reducer);
            assert!(engine.is_ok(), "spread {spread}: {engine:?}");
            assert_eq!(engine, reference, "spread {spread}, {machines}×{reducers}");
            assert_eq!(job_metrics(&ec), job_metrics(&rc), "spread {spread}");
        }
    }
}
