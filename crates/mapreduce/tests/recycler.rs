//! A cluster recycles shuffle columns from job to job, and nothing a job
//! returns or counts may show it.
//!
//! One long-lived cluster runs a mixed sequence of steps: key and value
//! types of several widths, hinted, unhinted and combined jobs, a job
//! whose reduce tasks write the next job's map output and that next job,
//! and a batch of concurrent jobs. Every job is big enough that its
//! columns reach the recycler's 128 KiB threshold. Each step is rerun on
//! a fresh cluster whose job index has been brought to the same value
//! with empty jobs, so the fault plan schedules the same failures; the
//! outputs and every `without_host_time()` metric must match, under both
//! scheduler modes, fault-free and faulted.

use haten2_mapreduce::{
    concat_partitions, run_job, run_job_collect, run_job_streaming, run_job_written, Batch,
    Cluster, ClusterConfig, Collect, FaultPlan, JobCtx, JobMetrics, JobSite, JobSpec, MapOutput,
    SchedulerMode,
};

/// Records per input: 20 000 records a bucket on two machines, so a `u64`
/// key column is 160 KiB.
const RECORDS: u64 = 80_000;

type Outcome = Result<Vec<u64>, String>;

fn input(salt: u64) -> Vec<(u64, f64)> {
    (0..RECORDS)
        .map(|n| {
            let mixed = (n ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (mixed >> 40, (n % 977) as f64 / 7.0)
        })
        .collect()
}

fn bits<K: Copy + Into<u64>>(records: &[(K, f64)]) -> Vec<u64> {
    records
        .iter()
        .flat_map(|&(k, v)| [k.into(), v.to_bits()])
        .collect()
}

/// A hinted job: one emission per record under a narrow `u64` key, summed.
fn hinted_records(
    site: &impl JobSite,
    name: &str,
    salt: u64,
) -> haten2_mapreduce::Result<Vec<(u64, f64)>> {
    run_job(
        site,
        JobSpec::named(name).with_map_emit_hint(1),
        &input(salt),
        |k, v, emit| emit(k % 50_000, *v),
        |k, vals: Vec<f64>, emit| emit(*k, vals.iter().sum::<f64>()),
    )
}

fn hinted(c: &Cluster, salt: u64) -> Outcome {
    let out = hinted_records(c, "hinted", salt);
    out.map(|r| bits(&r)).map_err(|e| e.to_string())
}

/// An unhinted job with a tuple key (ranked by comparison) and a wide
/// value, streamed.
fn wide(c: &Cluster, salt: u64) -> Outcome {
    let out = run_job_streaming(
        c,
        JobSpec::named("wide"),
        &input(salt),
        |k, v, emit| emit((*k as u8, k % 3_000), (*v, *v * 0.5, -*v)),
        |k, vals, emit| {
            let sum = vals.fold(0.0, |acc, (a, b, c)| acc * 0.75 + a + b * c);
            emit(k.1 << 8 | u64::from(k.0), sum)
        },
    );
    out.map(|r| bits(&r)).map_err(|e| e.to_string())
}

/// A combined job: two emissions per record under a `u32` key.
fn combined(c: &Cluster, salt: u64) -> Outcome {
    let sum: &(dyn Fn(&u32, Vec<f64>) -> Vec<f64> + Sync) = &|_, vals| vec![vals.iter().sum()];
    let out = run_job(
        c,
        JobSpec::named("combined").with_combiner(sum),
        &input(salt),
        |k, v, emit| {
            emit((k % 20_000) as u32, *v);
            emit((k % 7) as u32, 1.0);
        },
        |k, vals: Vec<f64>, emit| emit(*k, vals.iter().sum::<f64>()),
    );
    out.map(|r| bits(&r)).map_err(|e| e.to_string())
}

/// A record writer that runs the next job's map: `(k, v) → (k % 40 000,
/// (k, v))`, the way IMHP's writer feeds the merge.
struct Forward(MapOutput<u64, (u64, f64)>);

impl Default for Forward {
    fn default() -> Self {
        Forward(MapOutput::new(1))
    }
}

impl Collect<u64, f64> for Forward {
    fn for_partitions(partitions: usize) -> Self {
        Forward(MapOutput::new(partitions))
    }

    fn collect(&mut self, key: u64, val: f64) {
        self.0.count_input();
        for copy in 0..3 {
            self.0.emit((key + copy) % 40_000, (key, val));
        }
    }
}

/// A job whose reduce tasks write the next job's map output, and that job.
fn written(c: &Cluster, salt: u64) -> Outcome {
    let run = || -> haten2_mapreduce::Result<Vec<(u64, f64)>> {
        let writers: Vec<Forward> = run_job_collect(
            c,
            JobSpec::named("writer"),
            input(salt).as_slice(),
            |k, v, emit| emit(*k, *v),
            |k, vals, emit| emit(*k, vals.sum::<f64>()),
        )?;
        let merged: Vec<Vec<(u64, f64)>> = run_job_written(
            c,
            JobSpec::named("written"),
            writers.into_iter().map(|w| w.0).collect(),
            16,
            |k, vals, emit| emit(*k, vals.fold(0.0, |acc, (j, v)| acc + v * (j % 5) as f64)),
        )?;
        Ok(concat_partitions(merged))
    };
    run().map(|r| bits(&r)).map_err(|e| e.to_string())
}

/// Two independent hinted jobs and a third reading both, as one batch.
fn batch(c: &Cluster, salt: u64) -> Outcome {
    let run = || -> haten2_mapreduce::Result<Vec<(u64, f64)>> {
        let mut batch = Batch::new();
        let mut sides = Vec::new();
        for side in 0..2u64 {
            let name = format!("side{side}");
            sides.push(batch.submit(
                name.clone(),
                vec!["x".to_string()],
                vec![format!("s#{side}")],
                move |ctx: &JobCtx<'_>| hinted_records(ctx, &name, salt + side),
            )?);
        }
        let join = {
            let sides = sides.clone();
            batch.submit(
                "join",
                vec!["s#0".to_string(), "s#1".to_string()],
                vec!["j".to_string()],
                move |ctx: &JobCtx<'_>| {
                    let mut records = Vec::new();
                    for side in &sides {
                        records.extend_from_slice(ctx.get(side)?);
                    }
                    run_job(
                        ctx,
                        JobSpec::named("join").with_map_emit_hint(1),
                        &records,
                        |k, v, emit| emit(*k, *v),
                        |k, vals: Vec<f64>, emit| emit(*k, vals.iter().product::<f64>()),
                    )
                },
            )?
        };
        drop(sides);
        batch.run(c)?;
        join.take()
    };
    run().map(|r| bits(&r)).map_err(|e| e.to_string())
}

/// The mixed sequence, one step per entry; types repeat, so later steps
/// find the earlier steps' columns.
const STEPS: [fn(&Cluster, u64) -> Outcome; 7] =
    [hinted, wide, hinted, combined, written, batch, written];

fn config(scheduler: SchedulerMode, fault_plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        threads: 3,
        scheduler,
        fault_plan,
        ..ClusterConfig::with_machines(2)
    }
}

/// Run no-op jobs on `c` until it has run `jobs`.
fn pad_to(c: &Cluster, jobs: usize) {
    let none: &[(u64, u64)] = &[];
    while c.jobs_run() < jobs {
        run_job(
            c,
            JobSpec::named("pad"),
            none,
            |k, v, emit| emit(*k, *v),
            |k, vals: Vec<u64>, emit| emit(*k, vals.len() as u64),
        )
        .expect("an empty job runs");
    }
}

fn scrubbed(jobs: &[JobMetrics]) -> Vec<JobMetrics> {
    jobs.iter().map(JobMetrics::without_host_time).collect()
}

#[test]
fn recycler_leaves_outputs_and_metrics_of_a_fresh_cluster_per_step() {
    for scheduler in [SchedulerMode::Dag, SchedulerMode::Sequential] {
        for fault_plan in [None, Some(FaultPlan::seeded(11))] {
            let case = format!("{scheduler:?}, {fault_plan:?}");
            let long_lived = Cluster::new(config(scheduler, fault_plan.clone()));
            for (step, run) in STEPS.iter().enumerate() {
                let salt = 3 * step as u64;
                let mark = long_lived.jobs_run();
                let got = run(&long_lived, salt);
                let fresh = Cluster::new(config(scheduler, fault_plan.clone()));
                pad_to(&fresh, mark);
                let want = run(&fresh, salt);
                assert!(got.is_ok(), "step {step}, {case}: {got:?}");
                assert_eq!(got, want, "step {step}, {case}");
                assert_eq!(
                    scrubbed(&long_lived.metrics_since(mark).jobs),
                    scrubbed(&fresh.metrics_since(mark).jobs),
                    "step {step}, {case}"
                );
            }
            // The repeated steps found the earlier steps' columns.
            let jobs = long_lived.metrics().jobs;
            for name in ["hinted", "writer", "written"] {
                let last = jobs.iter().rfind(|j| j.name == name).expect("step ran");
                assert!(last.recycled_column_bytes > 0, "{case}: {last:?}");
            }
        }
    }
}
