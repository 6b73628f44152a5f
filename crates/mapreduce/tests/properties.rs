//! Property-based tests for the MapReduce engine: results and accounting
//! must be invariant to cluster geometry, and the counters must obey
//! conservation laws.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_mapreduce::{run_job, Cluster, ClusterConfig, FaultPlan, JobSpec};
use proptest::prelude::*;

fn sum_by_key(cluster: &Cluster, input: &[(u64, u64)], modulo: u64) -> Vec<(u64, u64)> {
    let mut out = run_job(
        cluster,
        JobSpec::named("sum-by-key"),
        input,
        move |k, v: &u64, emit| emit(k % modulo, *v),
        |k, vals, emit| emit(*k, vals.iter().sum::<u64>()),
    )
    .unwrap();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn results_invariant_to_geometry(
        input in proptest::collection::vec((0u64..1000, 0u64..100), 0..200),
        machines in 1usize..12,
        threads in 1usize..6,
        modulo in 1u64..20,
    ) {
        let reference = sum_by_key(&Cluster::new(ClusterConfig::with_machines(1)), &input, modulo);
        let cfg = ClusterConfig { threads, ..ClusterConfig::with_machines(machines) };
        let got = sum_by_key(&Cluster::new(cfg), &input, modulo);
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn total_value_mass_conserved(
        input in proptest::collection::vec((0u64..1000, 0u64..100), 0..200),
        machines in 1usize..8,
        modulo in 1u64..20,
    ) {
        let cluster = Cluster::new(ClusterConfig::with_machines(machines));
        let out = sum_by_key(&cluster, &input, modulo);
        let in_sum: u64 = input.iter().map(|(_, v)| v).sum();
        let out_sum: u64 = out.iter().map(|(_, v)| v).sum();
        prop_assert_eq!(in_sum, out_sum);
    }

    #[test]
    fn counters_conserved_without_combiner(
        input in proptest::collection::vec((0u64..1000, 0u64..100), 0..150),
        machines in 1usize..8,
    ) {
        let cluster = Cluster::new(ClusterConfig::with_machines(machines));
        run_job(
            &cluster,
            JobSpec::named("count"),
            &input,
            |k, v: &u64, emit| emit(k % 7, *v),
            |k, vals, emit| emit(*k, vals.len() as u64),
        )
        .unwrap();
        let m = cluster.metrics();
        let job = &m.jobs[0];
        prop_assert_eq!(job.map_input_records, input.len());
        // Without a combiner, everything emitted is shuffled.
        prop_assert_eq!(job.shuffle_records, job.map_output_records);
        prop_assert_eq!(job.shuffle_bytes, job.map_output_bytes);
        // Reduce groups = distinct keys.
        let distinct: std::collections::HashSet<u64> =
            input.iter().map(|(k, _)| k % 7).collect();
        prop_assert_eq!(job.reduce_groups, distinct.len());
    }

    #[test]
    fn combiner_never_changes_result(
        input in proptest::collection::vec((0u64..50, 0u64..100), 0..150),
        machines in 1usize..8,
    ) {
        let combiner = |_: &u64, vals: Vec<u64>| vec![vals.iter().sum::<u64>()];
        let run = |with: bool| {
            let cluster = Cluster::new(ClusterConfig::with_machines(machines));
            let spec = if with {
                JobSpec::named("c").with_combiner(&combiner)
            } else {
                JobSpec::named("c")
            };
            let mut out = run_job(
                &cluster,
                spec,
                &input,
                |k, v: &u64, emit| emit(k % 5, *v),
                |k, vals, emit| emit(*k, vals.iter().sum::<u64>()),
            )
            .unwrap();
            out.sort();
            (out, cluster.metrics().jobs[0].shuffle_records)
        };
        let (plain, plain_shuffle) = run(false);
        let (combined, combined_shuffle) = run(true);
        prop_assert_eq!(plain, combined);
        prop_assert!(combined_shuffle <= plain_shuffle);
    }

    #[test]
    fn failure_injection_transparent(
        input in proptest::collection::vec((0u64..100, 1u64..10), 1..100),
        nth in 1usize..5,
    ) {
        let cfg = ClusterConfig {
            fault_plan: Some(FaultPlan::fail_every_nth(nth)),
            ..ClusterConfig::with_machines(6)
        };
        let cluster = Cluster::new(cfg);
        let out = sum_by_key(&cluster, &input, 4);
        let reference = sum_by_key(&Cluster::new(ClusterConfig::with_machines(6)), &input, 4);
        prop_assert_eq!(out, reference);
    }

    #[test]
    fn sim_time_monotone_in_machines(
        input in proptest::collection::vec((0u64..1000, 0u64..100), 50..200),
    ) {
        let mut last = f64::INFINITY;
        for machines in [5usize, 10, 20] {
            let cluster = Cluster::new(ClusterConfig::with_machines(machines));
            sum_by_key(&cluster, &input, 13);
            let t = cluster.metrics().jobs[0].sim_time_s;
            prop_assert!(t <= last + 1e-9);
            last = t;
        }
    }
}
