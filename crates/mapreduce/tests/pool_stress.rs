//! Stress tests for the `WorkerPool` lifetime-erasure invariant.
//!
//! `WorkerPool::broadcast` transmutes the borrowed task closure to
//! `&'static` before queueing it (see the SAFETY comment in
//! `src/pool.rs`); the argument is that no dispatched use of the closure
//! survives the call. These tests hammer that argument from every angle
//! the engine exercises in production — pool reuse across thousands of
//! jobs, maximum thread counts, oversubscribed broadcasts, nesting,
//! borrowed stack state that is dropped immediately after each call, and
//! panics racing real work — so that a regression shows up as a crash,
//! a hang, or a miscount here rather than as silent memory corruption in
//! a decomposition.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_mapreduce::{run_job, Cluster, ClusterConfig, JobSpec, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The largest pool the engine itself will create (ClusterConfig caps
/// `threads` at 16, and the pool holds `threads - 1` workers).
const MAX_WORKERS: usize = 16;

#[test]
fn reuse_across_thousands_of_broadcasts_at_max_threads() {
    let pool = WorkerPool::new(MAX_WORKERS);
    for round in 0..2_000 {
        // Fresh stack-borrowed state every round: if any closure from a
        // previous broadcast were still alive, it would read freed data.
        let data: Vec<u64> = (0..64).map(|i| i + round).collect();
        let next = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        let executors = 1 + (round as usize % (MAX_WORKERS + 8));
        pool.broadcast(executors, &|_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= data.len() {
                break;
            }
            total.fetch_add(data[i] as usize, Ordering::Relaxed);
        });
        let want: u64 = data.iter().sum();
        assert_eq!(total.load(Ordering::Relaxed) as u64, want, "round {round}");
    }
}

#[test]
fn oversubscribed_broadcasts_run_every_executor() {
    let pool = WorkerPool::new(MAX_WORKERS);
    // Far more executors than workers: the caller must run the tail
    // itself while workers drain the head.
    for executors in [MAX_WORKERS + 1, 4 * MAX_WORKERS, 257] {
        let hits = AtomicUsize::new(0);
        pool.broadcast(executors, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), executors);
    }
}

#[test]
fn deep_nesting_reuses_the_same_pool() {
    let pool = WorkerPool::new(MAX_WORKERS);
    let leaves = AtomicUsize::new(0);
    pool.broadcast(4, &|_| {
        pool.broadcast(4, &|_| {
            pool.broadcast(4, &|_| {
                leaves.fetch_add(1, Ordering::Relaxed);
            });
        });
    });
    assert_eq!(leaves.load(Ordering::Relaxed), 64);
}

#[test]
fn inline_scheduler_loop_nests_full_pool_broadcasts() {
    // The shape a chain-shaped DAG batch runs in: the scheduler loop is a
    // `broadcast(1)` — inline on the caller, nothing queued — and each
    // "job" inside it broadcasts its tasks to the full pool twice (map,
    // then reduce), claiming them from an atomic counter. Every task must
    // run exactly once and no round may hang.
    let pool = WorkerPool::new(MAX_WORKERS);
    const TASKS: usize = 40;
    for round in 0..200 {
        let runs: Vec<AtomicUsize> = (0..2 * TASKS).map(|_| AtomicUsize::new(0)).collect();
        let scheduler_runs = AtomicUsize::new(0);
        pool.broadcast(1, &|executor| {
            assert_eq!(executor, 0);
            scheduler_runs.fetch_add(1, Ordering::Relaxed);
            for phase in 0..2 {
                let next = AtomicUsize::new(0);
                pool.broadcast(MAX_WORKERS + 1, &|_| loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= TASKS {
                        break;
                    }
                    runs[phase * TASKS + t].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(scheduler_runs.load(Ordering::Relaxed), 1, "round {round}");
        for (t, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "round {round} task {t}");
        }
    }
}

#[test]
fn panics_interleaved_with_work_leave_pool_usable() {
    let pool = WorkerPool::new(MAX_WORKERS);
    for round in 0..200 {
        let data: Vec<u64> = (0..32).collect();
        let sum = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(MAX_WORKERS + 1, &|i| {
                // One executor panics while the rest still read `data`;
                // broadcast must not unwind until they all finish.
                if i == round % (MAX_WORKERS + 1) {
                    panic!("injected panic {round}");
                }
                sum.fetch_add(data.iter().sum::<u64>() as usize, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "round {round} should panic");
        // The next round reuses the pool; a poisoned or wedged pool
        // would hang or crash here.
    }
    let hits = AtomicUsize::new(0);
    pool.broadcast(MAX_WORKERS, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), MAX_WORKERS);
}

#[test]
fn cluster_runs_many_jobs_on_one_pool_at_max_threads() {
    // End-to-end: the persistent pool owned by a Cluster survives a long
    // sequence of real jobs at the maximum thread count, with results
    // identical to the single-threaded configuration.
    let cfg = ClusterConfig {
        threads: MAX_WORKERS + 1,
        ..ClusterConfig::with_machines(8)
    };
    let cluster = Cluster::new(cfg);
    let reference = Cluster::new(ClusterConfig {
        threads: 1,
        ..ClusterConfig::with_machines(8)
    });
    let input: Vec<(u64, u64)> = (0..500).map(|i| (i, i * i % 97)).collect();
    for job in 0..300 {
        let modulo = 1 + job % 13;
        let run = |cluster: &Cluster| {
            run_job(
                cluster,
                JobSpec::named(format!("stress-{job}")),
                &input,
                move |k, v: &u64, emit| emit(k % modulo, *v),
                |k, vals, emit| emit(*k, vals.iter().sum::<u64>()),
            )
            .unwrap()
        };
        assert_eq!(run(&cluster), run(&reference), "job {job}");
    }
    assert_eq!(cluster.metrics().total_jobs(), 300);
}

#[test]
fn dropping_a_pool_right_after_a_broadcast_does_not_hang() {
    // Drop races the worker's return to its parked state: the shutdown
    // wake-up must not fall between the worker's flag check and its wait.
    // A lost wake-up shows up here as a hang in the join.
    for round in 0..20_000 {
        let pool = WorkerPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.broadcast(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2, "round {round}");
    }
}
