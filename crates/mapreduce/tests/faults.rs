//! Fault-injection and scheduler-equivalence properties.
//!
//! Four layers of guarantees:
//!
//! 1. **Executor equivalence under faults** — for random [`FaultPlan`]s
//!    (including exhausting ones), the pooled engine and the sequential
//!    reference executor produce the same output, the same error, and the
//!    same [`JobMetrics`] (recovery counters included).
//! 2. **Fault transparency** — any plan that does not exhaust a retry
//!    budget yields output identical to the fault-free run.
//! 3. **End-to-end transparency for the paper's pipelines** — both DRI
//!    decompositions (PARAFAC and Tucker) produce bit-identical factors
//!    under a seeded fault schedule, and exhausted budgets surface the
//!    typed [`MrError::TaskFailed`] naming the failing task.
//! 4. **Scheduler equivalence** — concurrent (DAG) execution of all eight
//!    Tucker/PARAFAC pipelines is bit-identical to sequential scheduling:
//!    same outputs (or same typed error), same per-job metrics with the
//!    host-time fields zeroed, and same batch structure — including under
//!    randomized [`FaultPlan`] schedules, because fault schedules are
//!    keyed by submission index rather than completion order.

use haten2_core::{parafac_als, tucker_als, AlsOptions, Variant};
use haten2_mapreduce::{
    run_job, run_job_reference, Cluster, ClusterConfig, FaultPlan, JobMetrics, JobSpec, MrError,
    RetryPolicy, SchedulerMode,
};
use haten2_tensor::{CooTensor3, Entry3};
use proptest::collection::vec;
use proptest::prelude::*;

fn corpus() -> impl Strategy<Value = Vec<(u64, Vec<u64>)>> {
    vec((0u64..1000, vec(0u64..25, 0..10)), 0..50)
}

/// Random fault plans, spanning gentle to brutal (exhaustion possible).
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.6,
        0.0f64..0.6,
        0.0f64..0.4,
        0.0f64..0.5,
        2.0f64..8.0,
        any::<bool>(),
        2usize..10,
        0usize..4,
    )
        .prop_map(
            |(
                seed,
                map_fail_p,
                reduce_fail_p,
                worker_crash_p,
                straggle_p,
                straggle_factor_max,
                speculation,
                max_attempts,
                blacklist_after,
            )| FaultPlan {
                seed,
                map_fail_p,
                reduce_fail_p,
                worker_crash_p,
                straggle_p,
                straggle_factor_max,
                speculation,
                retry: RetryPolicy {
                    max_attempts,
                    ..RetryPolicy::default()
                },
                blacklist_after,
                ..FaultPlan::default()
            },
        )
}

fn config(machines: usize, threads: usize, plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        machines,
        threads,
        reducers: Some(4),
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

fn word_count(
    cfg: ClusterConfig,
    input: &[(u64, Vec<u64>)],
    reference: bool,
) -> (haten2_mapreduce::Result<Vec<(u64, u64)>>, JobMetrics) {
    let mapper = |_id: &u64, words: &Vec<u64>, emit: &mut dyn FnMut(u64, u64)| {
        for &w in words {
            emit(w, 1);
        }
    };
    let reducer = |word: &u64, ones: Vec<u64>, emit: &mut dyn FnMut(u64, u64)| {
        emit(*word, ones.iter().sum());
    };
    let cluster = Cluster::new(cfg);
    let out = if reference {
        run_job_reference(&cluster, JobSpec::named("wc"), input, mapper, reducer)
    } else {
        run_job(&cluster, JobSpec::named("wc"), input, mapper, reducer)
    };
    let first = cluster.metrics().jobs.first().cloned().unwrap_or_default();
    (out, first.without_host_time())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine ≡ reference for arbitrary fault plans: same output or same
    /// error, and identical metrics including every recovery counter.
    #[test]
    fn executors_identical_under_random_faults(
        input in corpus(),
        plan in fault_plan(),
        machines in 1usize..10,
        threads in 1usize..8,
    ) {
        let (engine, em) = word_count(config(machines, threads, Some(plan.clone())), &input, false);
        let (oracle, rm) = word_count(config(machines, 1, Some(plan)), &input, true);
        prop_assert_eq!(engine, oracle);
        prop_assert_eq!(em, rm);
    }

    /// Any non-exhausting schedule is invisible in the output.
    #[test]
    fn non_exhausting_faults_are_transparent(
        input in corpus(),
        plan in fault_plan(),
        machines in 1usize..10,
    ) {
        let (faulty, fm) = word_count(config(machines, 4, Some(plan)), &input, false);
        if let Ok(out) = faulty {
            let (clean, _) = word_count(config(machines, 4, None), &input, false);
            prop_assert_eq!(out, clean.expect("fault-free run cannot fail"));
            // Recovery work, if any, must be visible in the metrics.
            if fm.task_retries + fm.reduce_task_retries > 0 {
                prop_assert!(fm.recovery_sim_time_s > 0.0);
            }
        }
    }
}

/// An exhausted retry budget surfaces [`MrError::TaskFailed`] naming the
/// failing task instead of panicking or silently dropping data.
#[test]
fn exhausted_budget_names_the_failing_task() {
    let plan = FaultPlan {
        worker_crash_p: 1.0, // every worker crashed ...
        blacklist_after: 0,  // ... and none ever blacklisted
        ..FaultPlan::default()
    };
    let input: Vec<(u64, Vec<u64>)> = (0..16).map(|i| (i, vec![i % 5])).collect();
    let (engine, _) = word_count(config(4, 4, Some(plan.clone())), &input, false);
    let (oracle, _) = word_count(config(4, 1, Some(plan.clone())), &input, true);
    for result in [engine, oracle] {
        match result {
            Err(MrError::TaskFailed {
                job,
                phase,
                task,
                attempts,
            }) => {
                assert_eq!(job, "wc");
                assert_eq!(phase, "map");
                assert_eq!(task, 0);
                assert_eq!(attempts, plan.retry.max_attempts);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }
}

/// A small dense-ish tensor with deterministic values.
fn small_tensor() -> CooTensor3 {
    let mut entries = Vec::new();
    for i in 0..6u64 {
        for j in 0..5u64 {
            for k in 0..4u64 {
                if (i + 2 * j + 3 * k) % 3 == 0 {
                    let v = 1.0 + (i as f64) * 0.5 + (j as f64) * 0.25 + (k as f64) * 0.125;
                    entries.push(Entry3::new(i, j, k, v));
                }
            }
        }
    }
    CooTensor3::from_entries([6, 5, 4], entries).expect("valid tensor")
}

fn faulty_cluster(seed: u64) -> Cluster {
    Cluster::new(ClusterConfig {
        fault_plan: Some(FaultPlan::seeded(seed)),
        ..ClusterConfig::with_machines(4)
    })
}

/// PARAFAC-DRI under seeded fault schedules is bit-identical to the
/// fault-free decomposition.
#[test]
fn parafac_dri_is_fault_transparent() {
    let x = small_tensor();
    let opts = AlsOptions {
        max_iters: 3,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let clean = parafac_als(&Cluster::new(ClusterConfig::with_machines(4)), &x, 2, &opts)
        .expect("fault-free run");
    let mut injected_any = false;
    for seed in 0..4u64 {
        let cluster = faulty_cluster(seed);
        let faulty = parafac_als(&cluster, &x, 2, &opts)
            .unwrap_or_else(|e| panic!("seed {seed} exhausted a retry budget: {e}"));
        assert_eq!(faulty.lambda, clean.lambda, "seed {seed}: lambda differs");
        assert_eq!(faulty.factors, clean.factors, "seed {seed}: factors differ");
        assert_eq!(faulty.fits, clean.fits, "seed {seed}: fits differ");
        let m = cluster.metrics();
        injected_any |= m.total_task_retries() > 0 || m.total_speculative_launched() > 0;
    }
    assert!(
        injected_any,
        "no seed injected anything — the property is vacuous"
    );
}

fn sched_cluster(mode: SchedulerMode, threads: usize, plan: Option<FaultPlan>) -> Cluster {
    Cluster::new(ClusterConfig {
        scheduler: mode,
        threads,
        fault_plan: plan,
        ..ClusterConfig::with_machines(4)
    })
}

/// Every committed job metric with the host-time fields zeroed — the only
/// fields allowed to differ between scheduler modes (host scheduling
/// decides them; every simulated counter must stay bit-identical).
fn normalized_jobs(cluster: &Cluster) -> Vec<JobMetrics> {
    let jobs = cluster.metrics().jobs;
    jobs.iter().map(JobMetrics::without_host_time).collect()
}

/// Batch structure (job count, measured critical-path length) per batch.
/// The timing fields of a `BatchReport` are host-derived and excluded.
fn batch_shapes(cluster: &Cluster) -> Vec<(usize, usize)> {
    cluster
        .batch_reports()
        .into_iter()
        .map(|r| (r.jobs, r.critical_path_len))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent (DAG) execution of all eight Tucker/PARAFAC pipelines
    /// is bit-identical to sequential scheduling — outputs, per-job
    /// metrics, and batch structure — including under randomized fault
    /// schedules (which may exhaust budgets; then both modes must fail
    /// with the same typed error after committing the same job prefix).
    #[test]
    fn dag_scheduling_is_bit_identical_to_sequential(
        plan in proptest::option::of(fault_plan()),
        threads in 2usize..8,
    ) {
        let x = small_tensor();
        for variant in Variant::ALL {
            let opts = AlsOptions {
                max_iters: 2,
                tol: 0.0,
                ..AlsOptions::with_variant(variant)
            };

            let seq = sched_cluster(SchedulerMode::Sequential, threads, plan.clone());
            let dag = sched_cluster(SchedulerMode::Dag, threads, plan.clone());
            match (
                parafac_als(&seq, &x, 2, &opts),
                parafac_als(&dag, &x, 2, &opts),
            ) {
                (Ok(s), Ok(d)) => {
                    prop_assert_eq!(s.lambda, d.lambda, "{}: lambda", variant.name());
                    prop_assert_eq!(s.factors, d.factors, "{}: factors", variant.name());
                    prop_assert_eq!(s.fits, d.fits, "{}: fits", variant.name());
                }
                (Err(s), Err(d)) => {
                    prop_assert_eq!(s.to_string(), d.to_string(), "{}: errors", variant.name());
                }
                (s, d) => prop_assert!(
                    false,
                    "{}: one scheduler mode failed: seq {s:?} vs dag {d:?}",
                    variant.name()
                ),
            }
            prop_assert_eq!(
                normalized_jobs(&seq),
                normalized_jobs(&dag),
                "parafac {}: committed metrics diverged",
                variant.name()
            );
            prop_assert_eq!(
                batch_shapes(&seq),
                batch_shapes(&dag),
                "parafac {}: batch structure diverged",
                variant.name()
            );

            let seq = sched_cluster(SchedulerMode::Sequential, threads, plan.clone());
            let dag = sched_cluster(SchedulerMode::Dag, threads, plan.clone());
            match (
                tucker_als(&seq, &x, [2, 2, 2], &opts),
                tucker_als(&dag, &x, [2, 2, 2], &opts),
            ) {
                (Ok(s), Ok(d)) => {
                    prop_assert_eq!(s.factors, d.factors, "{}: factors", variant.name());
                    prop_assert_eq!(s.core, d.core, "{}: core", variant.name());
                    prop_assert_eq!(s.core_norms, d.core_norms, "{}: core norms", variant.name());
                }
                (Err(s), Err(d)) => {
                    prop_assert_eq!(s.to_string(), d.to_string(), "{}: errors", variant.name());
                }
                (s, d) => prop_assert!(
                    false,
                    "{}: one scheduler mode failed: seq {s:?} vs dag {d:?}",
                    variant.name()
                ),
            }
            prop_assert_eq!(
                normalized_jobs(&seq),
                normalized_jobs(&dag),
                "tucker {}: committed metrics diverged",
                variant.name()
            );
            prop_assert_eq!(
                batch_shapes(&seq),
                batch_shapes(&dag),
                "tucker {}: batch structure diverged",
                variant.name()
            );
        }
    }
}

/// Tucker-DRI under seeded fault schedules is bit-identical to the
/// fault-free decomposition.
#[test]
fn tucker_dri_is_fault_transparent() {
    let x = small_tensor();
    let opts = AlsOptions {
        max_iters: 2,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let clean = tucker_als(
        &Cluster::new(ClusterConfig::with_machines(4)),
        &x,
        [2, 2, 2],
        &opts,
    )
    .expect("fault-free run");
    let mut injected_any = false;
    for seed in 0..4u64 {
        let cluster = faulty_cluster(seed);
        let faulty = tucker_als(&cluster, &x, [2, 2, 2], &opts)
            .unwrap_or_else(|e| panic!("seed {seed} exhausted a retry budget: {e}"));
        assert_eq!(faulty.factors, clean.factors, "seed {seed}: factors differ");
        assert_eq!(faulty.core, clean.core, "seed {seed}: core differs");
        let m = cluster.metrics();
        injected_any |= m.total_task_retries() > 0 || m.total_speculative_launched() > 0;
    }
    assert!(
        injected_any,
        "no seed injected anything — the property is vacuous"
    );
}
