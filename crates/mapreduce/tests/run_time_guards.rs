//! The scheduler rules races out where jobs run.
//!
//! Each case builds a valid writer/reader batch: writer `w{i}` declares
//! the shard `d#{i}`, and reader `r{j}` declares the shard of writer
//! `j % writers` and reads that writer's output through `JobCtx::get`.
//! Three seeded defects then part a declaration from what the body
//! reads: a dropped declared read, a renamed write shard, and two
//! readers' declared reads swapped. Each leaves a reader unordered with
//! the producer whose output it takes, so on the DAG scheduler the two
//! could run in either order. Under both scheduler modes each must fail
//! with `PlanViolation` from `JobCtx::get`, naming the reader and the
//! producer, and never return an answer.
//!
//! The fourth case is the one access the types do not cover: a job
//! closure can reach the cluster's `Dfs`. A `put` or `delete` from
//! inside a running job is refused, while the same calls from driver
//! code between batches succeed.

// Test code: `unwrap` is the assertion.
#![allow(clippy::unwrap_used)]

use haten2_mapreduce::{
    run_job, Batch, Cluster, ClusterConfig, JobCtx, JobHandle, JobSite, JobSpec, MrError,
    SchedulerMode,
};
use proptest::prelude::*;

/// Fixed source records every writer maps over.
static INPUT: &[(u64, f64)] = &[(1, 1.0), (2, 2.0), (3, 3.0)];

const MODES: [SchedulerMode; 2] = [SchedulerMode::Sequential, SchedulerMode::Dag];

fn cluster(scheduler: SchedulerMode) -> Cluster {
    Cluster::new(ClusterConfig {
        scheduler,
        threads: 2,
        ..ClusterConfig::with_machines(2)
    })
}

/// One real MapReduce job scaling every value by `factor` (the scheduler
/// refuses a submitted job that finishes without running one).
fn scale(
    ctx: &JobCtx<'_>,
    name: &str,
    input: &[(u64, f64)],
    factor: f64,
) -> haten2_mapreduce::Result<Vec<(u64, f64)>> {
    run_job(
        ctx,
        JobSpec::named(name),
        input,
        move |k, v: &f64, emit| emit(*k, v * factor),
        |k, vs, emit| emit(*k, vs.iter().sum::<f64>()),
    )
}

/// One seeded defect in an otherwise valid batch program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Reader `r` declares no read but still takes its producer's output.
    DropRead(usize),
    /// Writer `w` declares `u#w` while its readers still declare `d#w`.
    RenameWrite(usize),
    /// Readers `a` and `b` exchange declared reads; each still takes its
    /// own producer's output.
    SwapReads(usize, usize),
}

/// Declared reads of reader `r`; its body always takes the output of
/// writer `r % writers`.
fn declared_reads(r: usize, writers: usize, mutation: Option<Mutation>) -> Vec<String> {
    match mutation {
        Some(Mutation::DropRead(t)) if t == r => Vec::new(),
        Some(Mutation::SwapReads(a, b)) if r == a => vec![format!("d#{}", b % writers)],
        Some(Mutation::SwapReads(a, b)) if r == b => vec![format!("d#{}", a % writers)],
        _ => vec![format!("d#{}", r % writers)],
    }
}

/// Declared writes of writer `w`.
fn declared_writes(w: usize, mutation: Option<Mutation>) -> Vec<String> {
    match mutation {
        Some(Mutation::RenameWrite(t)) if t == w => vec![format!("u#{w}")],
        _ => vec![format!("d#{w}")],
    }
}

/// Run the program on a fresh cluster and return every reader's output.
fn run_program(
    scheduler: SchedulerMode,
    writers: usize,
    readers: usize,
    mutation: Option<Mutation>,
) -> haten2_mapreduce::Result<Vec<Vec<(u64, f64)>>> {
    let c = cluster(scheduler);
    let mut batch = Batch::new();
    let mut producers = Vec::new();
    for w in 0..writers {
        let name = format!("w{w}");
        producers.push(batch.submit(
            name.clone(),
            vec!["x".to_string()],
            declared_writes(w, mutation),
            move |ctx: &JobCtx<'_>| scale(ctx, &name, INPUT, (w + 1) as f64),
        )?);
    }
    let mut outputs: Vec<JobHandle<Vec<(u64, f64)>>> = Vec::new();
    for r in 0..readers {
        let name = format!("r{r}");
        let upstream = producers[r % writers].clone();
        outputs.push(batch.submit(
            name.clone(),
            declared_reads(r, writers, mutation),
            vec![format!("y#{r}")],
            move |ctx: &JobCtx<'_>| scale(ctx, &name, ctx.get(&upstream)?, 0.5),
        )?);
    }
    drop(producers);
    batch.run(&c)?;
    outputs.into_iter().map(JobHandle::take).collect()
}

/// Did `result` fail as reader `reader` taking the output of `producer`
/// without declaring it?
fn refused(
    result: &haten2_mapreduce::Result<Vec<Vec<(u64, f64)>>>,
    reader: &str,
    producer: &str,
) -> bool {
    matches!(result, Err(MrError::PlanViolation { job, detail })
        if job == reader
            && detail.contains(&format!("producing job '{producer}'"))
            && detail.contains("without a declared dataset dependency"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The unmutated program runs to the right answer on both schedulers.
    #[test]
    fn valid_programs_run_to_the_right_answer(writers in 2usize..5, readers in 2usize..6) {
        for mode in MODES {
            let out = run_program(mode, writers, readers, None).unwrap();
            for (r, records) in out.into_iter().enumerate() {
                let mut records = records;
                records.sort_by_key(|&(k, _)| k);
                let factor = (r % writers + 1) as f64 * 0.5;
                let want: Vec<(u64, f64)> = INPUT.iter().map(|&(k, v)| (k, v * factor)).collect();
                prop_assert_eq!(records, want, "{:?} reader r{}", mode, r);
            }
        }
    }

    /// A reader that drops its declared read is refused when it takes
    /// the output it no longer declares.
    #[test]
    fn dropped_read_is_refused_at_run_time(
        writers in 2usize..5,
        readers in 2usize..6,
        pick in 0usize..16,
    ) {
        let t = pick % readers;
        for mode in MODES {
            let result = run_program(mode, writers, readers, Some(Mutation::DropRead(t)));
            prop_assert!(
                refused(&result, &format!("r{t}"), &format!("w{}", t % writers)),
                "{:?}: {:?}", mode, result
            );
        }
    }

    /// A writer whose declared shard is renamed strands its readers: their
    /// declared `d#t` no longer names its output, so the first of them is
    /// refused.
    #[test]
    fn renamed_write_shard_is_refused_at_run_time(
        writers in 2usize..5,
        readers in 2usize..6,
        pick in 0usize..16,
    ) {
        // A writer with at least one reader; reader `t` is its first.
        let t = pick % writers.min(readers);
        for mode in MODES {
            let result = run_program(mode, writers, readers, Some(Mutation::RenameWrite(t)));
            prop_assert!(
                refused(&result, &format!("r{t}"), &format!("w{t}")),
                "{:?}: {:?}", mode, result
            );
        }
    }

    /// Two readers of distinct writers that swap their declared reads are
    /// each ordered after the wrong producer; the first of them in
    /// submission order is refused.
    #[test]
    fn swapped_reads_are_refused_at_run_time(
        writers in 2usize..5,
        readers in 2usize..6,
        pick in 0usize..16,
    ) {
        let a = pick % readers;
        // A second reader whose producer differs from a's: exists because
        // writers ≥ 2 and readers ≥ 2 cover at least producers 0 and 1.
        let b = (0..readers).find(|r| r % writers != a % writers).unwrap();
        let first = a.min(b);
        for mode in MODES {
            let result = run_program(mode, writers, readers, Some(Mutation::SwapReads(a, b)));
            prop_assert!(
                refused(&result, &format!("r{first}"), &format!("w{}", first % writers)),
                "{:?}: {:?}", mode, result
            );
        }
    }
}

/// Run a one-job batch whose closure first calls `touch` on the cluster's
/// DFS, then its MapReduce job.
fn run_touching(
    c: &Cluster,
    touch: fn(&Cluster) -> haten2_mapreduce::Result<()>,
) -> haten2_mapreduce::Result<()> {
    let mut batch = Batch::new();
    let _ = batch.submit(
        "toucher",
        vec!["x".to_string()],
        vec!["y".to_string()],
        move |ctx: &JobCtx<'_>| {
            touch(ctx.cluster())?;
            scale(ctx, "toucher", INPUT, 1.0)
        },
    )?;
    batch.run(c).map(|_| ())
}

#[test]
fn dfs_writes_inside_a_job_are_refused() {
    for mode in MODES {
        let c = cluster(mode);
        c.dfs().put("kept", vec![7u64]).unwrap();

        let err = run_touching(&c, |c| c.dfs().put("z", vec![1u64]).map(|_| ())).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { job, detail }
                if job == "toucher" && detail.contains("put DFS dataset 'z'")),
            "{mode:?}: {err}"
        );
        assert!(!c.dfs().contains("z"), "{mode:?}: refused put left 'z'");

        let err = run_touching(&c, |c| c.dfs().delete("kept").map(|_| ())).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { job, detail }
                if job == "toucher" && detail.contains("delete DFS dataset 'kept'")),
            "{mode:?}: {err}"
        );
        assert!(
            c.dfs().contains("kept"),
            "{mode:?}: refused delete removed 'kept'"
        );

        // Reads inside a job stay allowed, and the scope ends with the job:
        // driver code between batches writes and deletes freely.
        run_touching(&c, |c| {
            c.dfs().get_required::<u64>("toucher", "kept").map(|_| ())
        })
        .unwrap();
        c.dfs().put("z", vec![1u64]).unwrap();
        assert!(c.dfs().delete("kept").unwrap());
        assert_eq!(c.dfs().get::<u64>("z").unwrap().as_slice(), &[1]);
    }
}
