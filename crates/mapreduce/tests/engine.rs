//! Integration tests for the MapReduce engine.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_mapreduce::{run_job, Cluster, ClusterConfig, FaultPlan, JobSpec, MrError};

/// Classic word count over (doc_id, text) records.
fn word_count(cluster: &Cluster, docs: &[(u64, String)]) -> Vec<(String, u64)> {
    run_job(
        cluster,
        JobSpec::named("word-count"),
        docs,
        |_, text: &String, emit| {
            for w in text.split_whitespace() {
                emit(w.to_string(), 1u64);
            }
        },
        |word, counts, emit| {
            emit(word.clone(), counts.iter().sum::<u64>());
        },
    )
    .unwrap()
}

fn docs() -> Vec<(u64, String)> {
    vec![
        (0, "tensor tensor decomposition".to_string()),
        (1, "tensor mapreduce".to_string()),
        (2, "decomposition at scale scale scale".to_string()),
    ]
}

#[test]
fn word_count_correct() {
    let cluster = Cluster::with_defaults();
    let mut out = word_count(&cluster, &docs());
    out.sort();
    assert_eq!(
        out,
        vec![
            ("at".to_string(), 1),
            ("decomposition".to_string(), 2),
            ("mapreduce".to_string(), 1),
            ("scale".to_string(), 3),
            ("tensor".to_string(), 3),
        ]
    );
}

#[test]
fn results_independent_of_machine_count() {
    let mut reference: Option<Vec<(String, u64)>> = None;
    for machines in [1, 3, 7, 40] {
        let cluster = Cluster::new(ClusterConfig::with_machines(machines));
        let mut out = word_count(&cluster, &docs());
        out.sort();
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "machines={machines}"),
        }
    }
}

#[test]
fn results_independent_of_thread_count() {
    let mut reference: Option<Vec<(String, u64)>> = None;
    for threads in [1, 2, 8] {
        let cfg = ClusterConfig {
            threads,
            ..ClusterConfig::with_machines(6)
        };
        let cluster = Cluster::new(cfg);
        let mut out = word_count(&cluster, &docs());
        out.sort();
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "threads={threads}"),
        }
        // Host-side fields: a bare cluster grants the job every thread,
        // and the four phase timers partition its wall time.
        let job = &cluster.metrics().jobs[0];
        assert_eq!(job.task_executors, threads);
        let phases = job.map_s + job.shuffle_s + job.reduce_s + job.assemble_s;
        assert!(
            (phases - job.wall_time_s).abs() <= 1e-9,
            "phases {phases} vs wall {}",
            job.wall_time_s
        );
        assert!(job.map_s > 0.0 && job.reduce_s > 0.0, "threads={threads}");
    }
}

#[test]
fn metrics_count_intermediate_records() {
    let cluster = Cluster::with_defaults();
    word_count(&cluster, &docs());
    let m = cluster.metrics();
    assert_eq!(m.total_jobs(), 1);
    let job = &m.jobs[0];
    assert_eq!(job.name, "word-count");
    assert_eq!(job.map_input_records, 3);
    // 10 words in total -> 10 intermediate records (no combiner).
    assert_eq!(job.map_output_records, 10);
    assert_eq!(job.shuffle_records, 10);
    assert_eq!(job.reduce_groups, 5);
    assert_eq!(job.reduce_output_records, 5);
    assert!(job.map_output_bytes > 0);
    assert!(job.sim_time_s >= cluster.config().per_job_overhead_s);
}

#[test]
fn combiner_shrinks_shuffle_but_not_result() {
    // One map task (1 machine) so the combiner sees all duplicates.
    let cfg = ClusterConfig::with_machines(1);
    let cluster = Cluster::new(cfg);
    let combine = |_k: &String, vals: Vec<u64>| vec![vals.iter().sum::<u64>()];
    let mut out = run_job(
        &cluster,
        JobSpec::named("wc-combined").with_combiner(&combine),
        &docs(),
        |_, text: &String, emit| {
            for w in text.split_whitespace() {
                emit(w.to_string(), 1u64);
            }
        },
        |word, counts, emit| emit(word.clone(), counts.iter().sum::<u64>()),
    )
    .unwrap();
    out.sort();
    let m = cluster.metrics();
    let job = &m.jobs[0];
    // Intermediate records unchanged (pre-combine accounting)…
    assert_eq!(job.map_output_records, 10);
    // …but shuffle shrinks to one record per distinct word.
    assert_eq!(job.shuffle_records, 5);
    assert_eq!(out.iter().map(|(_, c)| *c).sum::<u64>(), 10);
}

#[test]
fn reducer_oom_triggers() {
    // Budget below the bytes of a key group with many values.
    let cfg = ClusterConfig {
        reducer_memory_bytes: Some(64),
        ..ClusterConfig::with_machines(2)
    };
    let cluster = Cluster::new(cfg);
    let input: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
    let result = run_job(
        &cluster,
        JobSpec::named("broadcast-ish"),
        &input,
        // Every record keyed identically -> one giant group.
        |_, v: &u64, emit| emit(0u64, *v),
        |_, vals, emit| emit(0u64, vals.len() as u64),
    );
    match result {
        Err(MrError::ReducerOom {
            job,
            group_bytes,
            budget_bytes,
        }) => {
            assert_eq!(job, "broadcast-ish");
            assert!(group_bytes > budget_bytes);
        }
        other => panic!("expected ReducerOom, got {other:?}"),
    }
}

#[test]
fn cluster_capacity_exceeded_triggers() {
    let cfg = ClusterConfig {
        cluster_capacity_bytes: Some(100),
        ..ClusterConfig::with_machines(2)
    };
    let cluster = Cluster::new(cfg);
    let input: Vec<(u64, u64)> = (0..50).map(|i| (i, i)).collect();
    let result = run_job(
        &cluster,
        JobSpec::named("fat"),
        &input,
        |k, v: &u64, emit| emit(*k, *v),
        |k, vals, emit| emit(*k, vals.len() as u64),
    );
    assert!(matches!(
        result,
        Err(MrError::ClusterCapacityExceeded { .. })
    ));
}

#[test]
fn failure_injection_is_transparent() {
    let cfg = ClusterConfig {
        fault_plan: Some(FaultPlan::fail_every_nth(2)),
        ..ClusterConfig::with_machines(8)
    };
    let cluster = Cluster::new(cfg);
    let input: Vec<(u64, u64)> = (0..64).map(|i| (i, 1)).collect();
    let out = run_job(
        &cluster,
        JobSpec::named("retry"),
        &input,
        |k, v: &u64, emit| emit(k % 4, *v),
        |k, vals, emit| emit(*k, vals.iter().sum::<u64>()),
    )
    .unwrap();
    let total: u64 = out.iter().map(|(_, v)| v).sum();
    assert_eq!(total, 64, "retries must not duplicate or drop records");
    let m = cluster.metrics();
    assert!(
        m.jobs[0].task_retries > 0,
        "injected failures must be recorded"
    );
}

#[test]
fn empty_input_produces_empty_output() {
    let cluster = Cluster::with_defaults();
    let input: Vec<(u64, u64)> = vec![];
    let out = run_job(
        &cluster,
        JobSpec::named("empty"),
        &input,
        |k, v: &u64, emit| emit(*k, *v),
        |k, vals, emit| emit(*k, vals.len() as u64),
    )
    .unwrap();
    assert!(out.is_empty());
    let m = cluster.metrics();
    assert_eq!(m.jobs[0].map_input_records, 0);
    assert_eq!(m.jobs[0].reduce_groups, 0);
}

#[test]
fn grouping_collects_all_values_of_a_key() {
    let cluster = Cluster::new(ClusterConfig::with_machines(5));
    // Values scattered across many map tasks must regroup by key.
    let input: Vec<(u64, u64)> = (0..1000).map(|i| (i, i % 7)).collect();
    let out = run_job(
        &cluster,
        JobSpec::named("group"),
        &input,
        |_, v: &u64, emit| emit(*v, 1u64),
        |k, vals, emit| emit(*k, vals.len() as u64),
    )
    .unwrap();
    let mut out = out;
    out.sort();
    assert_eq!(out.len(), 7);
    let total: u64 = out.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 1000);
    for (k, c) in out {
        // 1000 records over 7 residues: 143 for k<6, 142 for k=6.
        let expect = if k < 6 { 143 } else { 142 };
        assert_eq!(c, expect, "k={k}");
    }
}

#[test]
fn sim_time_decreases_with_more_machines_but_flattens() {
    // The Fig. 8 shape: speedup grows sub-linearly due to per-job overhead.
    let input: Vec<(u64, u64)> = (0..20_000).map(|i| (i, i)).collect();
    let mut times = Vec::new();
    for machines in [10, 20, 30, 40] {
        let cluster = Cluster::new(ClusterConfig::with_machines(machines));
        run_job(
            &cluster,
            JobSpec::named("scale"),
            &input,
            |k, v: &u64, emit| emit(k % 97, *v),
            |k, vals, emit| emit(*k, vals.iter().sum::<u64>()),
        )
        .unwrap();
        times.push(cluster.metrics().jobs[0].sim_time_s);
    }
    for w in times.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-12,
            "more machines must not be slower: {times:?}"
        );
    }
    let speedup_total = times[0] / times[3];
    assert!(
        speedup_total < 4.0,
        "fixed overhead must cap the speedup: {times:?}"
    );
}

#[test]
fn metrics_since_attributes_jobs() {
    let cluster = Cluster::with_defaults();
    word_count(&cluster, &docs());
    let mark = cluster.jobs_run();
    word_count(&cluster, &docs());
    let since = cluster.metrics_since(mark);
    assert_eq!(since.total_jobs(), 1);
    assert_eq!(cluster.metrics().total_jobs(), 2);
}
