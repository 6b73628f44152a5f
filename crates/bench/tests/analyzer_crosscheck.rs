//! Analyzer ↔ runtime cross-check: the static plan predictions of
//! `haten2_core::plan` must match what the metered engine actually does.
//!
//! For random `(dims, rank, nnz)` in generic position (strictly positive
//! tensor values and factors, so no product cancels), every job the
//! runtime pipelines submit is compared against the expanded `JobGraph`:
//! same job names in the same order, and per job either *exactly* the
//! predicted map-output records and shuffle bytes (jobs marked `exact` —
//! all of DRI) or at most the predicted upper bound. This pins the
//! paper-table verification of `haten2-analyze` to the real engine: if a
//! kernel or a record type drifts, the static table silently verifying
//! the wrong thing is impossible — this test fails instead.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::parafac::mttkrp;
use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::{env_for, plan_for, Decomp, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig, JobInstance};
use haten2_tensor::{CooTensor3, Entry3};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random tensor in generic position: indices anywhere in `dims`,
/// values strictly positive (duplicates sum, so nothing cancels to zero).
fn generic_tensor(dims: [u64; 3], n: usize, rng: &mut StdRng) -> CooTensor3 {
    let entries = (0..n)
        .map(|_| {
            Entry3::new(
                rng.gen_range(0..dims[0]),
                rng.gen_range(0..dims[1]),
                rng.gen_range(0..dims[2]),
                rng.gen_range(0.5..2.0),
            )
        })
        .collect();
    CooTensor3::from_entries(dims, entries).unwrap()
}

/// A strictly positive `rows × cols` matrix.
fn generic_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.gen_range(0.5..2.0)).collect())
        .collect();
    Mat::from_rows(&data).unwrap()
}

/// Compare predicted instances against metered jobs: the same names in
/// the same order (`expand` yields submission order, which is commit
/// order); exact jobs match records and shuffle bytes exactly, bounded jobs
/// never exceed the prediction.
fn crosscheck(
    label: &str,
    predicted: Vec<JobInstance>,
    metered: &haten2_mapreduce::RunMetrics,
) -> Result<(), TestCaseError> {
    let actual = &metered.jobs;
    prop_assert_eq!(
        predicted.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
        actual.iter().map(|j| j.name.clone()).collect::<Vec<_>>(),
        "{}: job names",
        label
    );
    for (p, j) in predicted.iter().zip(actual) {
        if p.exact {
            prop_assert_eq!(
                p.records,
                j.map_output_records as u128,
                "{} / {}: records",
                label,
                &p.name
            );
            prop_assert_eq!(
                p.bytes,
                j.shuffle_bytes as u128,
                "{} / {}: shuffle bytes",
                label,
                &p.name
            );
        } else {
            prop_assert!(
                j.map_output_records as u128 <= p.records,
                "{} / {}: {} records exceed bound {}",
                label,
                &p.name,
                j.map_output_records,
                p.records
            );
            prop_assert!(
                j.shuffle_bytes as u128 <= p.bytes,
                "{} / {}: {} shuffle bytes exceed bound {}",
                label,
                &p.name,
                j.shuffle_bytes,
                p.bytes
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tucker_predictions_match_metered_runs(
        di in 4u64..12, dj in 4u64..12, dk in 4u64..12,
        q in 1usize..5, r in 1usize..5,
        n in 10usize..60,
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [di, dj, dk];
        let x = generic_tensor(dims, n, &mut rng);
        let bt = generic_mat(q, dj as usize, &mut rng);
        let ct = generic_mat(r, dk as usize, &mut rng);
        // Mode 0: canonicalization is the identity, so `dims` are already
        // the canonical (I, J, K) the plan's env expects.
        let env = env_for(dims, x.nnz(), q, r, machines);
        for variant in Variant::ALL {
            let cluster = Cluster::new(ClusterConfig::with_machines(machines));
            project(&cluster, variant, &x, 0, &bt, &ct, &ProjectOptions::default()).unwrap();
            let predicted = plan_for(Decomp::Tucker, variant).expand(&env);
            crosscheck(&format!("tucker {variant}"), predicted, &cluster.metrics())?;
        }
    }

    #[test]
    fn parafac_predictions_match_metered_runs(
        di in 4u64..12, dj in 4u64..12, dk in 4u64..12,
        rank in 1usize..5,
        n in 10usize..60,
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [di, dj, dk];
        let x = generic_tensor(dims, n, &mut rng);
        let f1 = generic_mat(dj as usize, rank, &mut rng);
        let f2 = generic_mat(dk as usize, rank, &mut rng);
        let env = env_for(dims, x.nnz(), rank, rank, machines);
        for variant in Variant::ALL {
            let cluster = Cluster::new(ClusterConfig::with_machines(machines));
            mttkrp(&cluster, variant, &x, 0, &f1, &f2).unwrap();
            let predicted = plan_for(Decomp::Parafac, variant).expand(&env);
            crosscheck(&format!("parafac {variant}"), predicted, &cluster.metrics())?;
        }
    }

    #[test]
    fn metered_runs_respect_the_paper_claims(
        di in 4u64..12, dj in 4u64..12, dk in 4u64..12,
        q in 2usize..5, r in 2usize..5,
        n in 10usize..60,
        seed in any::<u64>(),
    ) {
        // End to end: the *claimed* table rows (not just the graphs) bound
        // the metered runs, closing the loop analyzer → plan → engine.
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [di, dj, dk];
        let x = generic_tensor(dims, n, &mut rng);
        let bt = generic_mat(q, dj as usize, &mut rng);
        let ct = generic_mat(r, dk as usize, &mut rng);
        let env = env_for(dims, x.nnz(), q, r, 4);
        for variant in Variant::ALL {
            let claim = haten2_analyze::paper_claim(Decomp::Tucker, variant);
            let graph = plan_for(Decomp::Tucker, variant);
            let cluster = Cluster::new(ClusterConfig::with_machines(4));
            project(&cluster, variant, &x, 0, &bt, &ct, &ProjectOptions::default()).unwrap();
            let m = cluster.metrics();
            prop_assert_eq!(
                m.total_jobs() as u128,
                claim.total_jobs.eval(&env),
                "tucker {}: job count vs table",
                variant
            );
            // The table's closed-form max-intermediate expression only
            // dominates outside the paper regime via the graph's `max`
            // over jobs (e.g. Naive's tv-c term can exceed nnz + I·J·K
            // when Q ≈ J); the metered run must respect the graph bound,
            // and claim ≡ graph bound on the regime grid is verified by
            // `haten2-analyze`.
            prop_assert!(
                (m.max_intermediate_records() as u128)
                    <= graph.max_intermediate_records().eval(&env),
                "tucker {}: max intermediate {} exceeds derived bound {}",
                variant,
                m.max_intermediate_records(),
                graph.max_intermediate_records().eval(&env)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Communication leg of the cross-check: the metered cluster's total
    /// shuffle bytes equal the symbolic `JobGraph::shuffle_bytes`
    /// prediction exactly for pipelines whose templates are all
    /// exact-marked (both DRN and DRI variants), never exceed it for the
    /// others, and **never fall below the instantiated MTTKRP lower
    /// bound** — the dynamic counterpart of the `## Communication
    /// certification` table in `ANALYSIS.md`.
    #[test]
    fn metered_shuffle_matches_symbolic_and_respects_lower_bound(
        di in 4u64..12, dj in 4u64..12, dk in 4u64..12,
        q in 1usize..5, r in 1usize..5,
        n in 10usize..60,
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [di, dj, dk];
        let x = generic_tensor(dims, n, &mut rng);
        let bt = generic_mat(q, dj as usize, &mut rng);
        let ct = generic_mat(r, dk as usize, &mut rng);
        let f1 = generic_mat(dj as usize, r, &mut rng);
        let f2 = generic_mat(dk as usize, r, &mut rng);
        for decomp in Decomp::ALL {
            let env = match decomp {
                Decomp::Tucker => env_for(dims, x.nnz(), q, r, machines),
                Decomp::Parafac => env_for(dims, x.nnz(), r, r, machines),
            };
            for variant in Variant::ALL {
                let cluster = Cluster::new(ClusterConfig::with_machines(machines));
                match decomp {
                    Decomp::Tucker => {
                        project(&cluster, variant, &x, 0, &bt, &ct, &ProjectOptions::default())
                            .unwrap();
                    }
                    Decomp::Parafac => {
                        mttkrp(&cluster, variant, &x, 0, &f1, &f2).unwrap();
                    }
                }
                let graph = plan_for(decomp, variant);
                let metered: u128 = cluster
                    .metrics()
                    .jobs
                    .iter()
                    .map(|j| j.shuffle_bytes as u128)
                    .sum();
                let symbolic = graph.shuffle_bytes().eval(&env);
                if graph.shuffle_exact() {
                    prop_assert_eq!(
                        metered, symbolic,
                        "{}: metered total shuffle vs symbolic prediction",
                        &graph.name
                    );
                } else {
                    prop_assert!(
                        metered <= symbolic,
                        "{}: metered shuffle {} exceeds symbolic bound {}",
                        &graph.name, metered, symbolic
                    );
                }
                let bound = haten2_analyze::comm::applicable_bound(
                    &haten2_core::comm_for(decomp, variant),
                )
                .eval(&env);
                prop_assert!(
                    metered >= bound,
                    "{}: metered shuffle {} below the instantiated MTTKRP lower bound {}",
                    &graph.name, metered, bound
                );
            }
        }
    }
}

/// The DRN and DRI pipelines — the ones the communication table marks
/// *exact* and holds to metered equality above — are exactly the graphs
/// whose every template is exact-marked; the claimed closed forms agree
/// with the graphs everywhere on the regime grid (the static half the
/// proptest closes dynamically).
#[test]
fn exact_marked_pipelines_are_the_merge_variants() {
    for decomp in Decomp::ALL {
        for variant in Variant::ALL {
            let graph = plan_for(decomp, variant);
            let expect_exact = matches!(variant, Variant::Drn | Variant::Dri);
            assert_eq!(
                graph.shuffle_exact(),
                expect_exact,
                "{}: unexpected exactness",
                graph.name
            );
            let claim = haten2_analyze::comm::shuffle_claim(decomp, variant);
            let derived = graph.shuffle_bytes();
            for env in haten2_analyze::regime_envs() {
                assert_eq!(
                    derived.eval(&env),
                    claim.eval(&env),
                    "{}: derived shuffle diverges from the closed form",
                    graph.name
                );
            }
        }
    }
}

/// The scheduler's *measured* critical path — the longest dependency
/// chain the DAG scheduler actually executed, reported per batch in
/// [`haten2_mapreduce::BatchReport`] — equals the plan IR's *symbolic*
/// depth (`JobGraph::critical_path_jobs`), the number printed in
/// `ANALYSIS.md`'s "Critical path (jobs)" column. Each projection/MTTKRP
/// call submits exactly one batch, so the report is directly comparable.
#[test]
fn measured_critical_paths_match_symbolic_depths() {
    let mut rng = StdRng::seed_from_u64(7);
    let dims = [6, 5, 4];
    let x = generic_tensor(dims, 30, &mut rng);
    let bt = generic_mat(2, 5, &mut rng);
    let ct = generic_mat(2, 4, &mut rng);
    let f1 = generic_mat(5, 2, &mut rng);
    let f2 = generic_mat(4, 2, &mut rng);
    let env = env_for(dims, x.nnz(), 2, 2, 4);
    for variant in Variant::ALL {
        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        project(
            &cluster,
            variant,
            &x,
            0,
            &bt,
            &ct,
            &ProjectOptions::default(),
        )
        .unwrap();
        let symbolic = plan_for(Decomp::Tucker, variant)
            .critical_path_jobs()
            .eval(&env);
        let reports = cluster.batch_reports();
        assert_eq!(reports.len(), 1, "tucker {variant}: one batch per call");
        assert_eq!(
            reports[0].critical_path_len as u128, symbolic,
            "tucker {variant}: measured critical path vs symbolic depth"
        );
        assert_eq!(
            reports[0].jobs,
            cluster.metrics().total_jobs(),
            "tucker {variant}: every job ran inside the batch"
        );

        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        mttkrp(&cluster, variant, &x, 0, &f1, &f2).unwrap();
        let symbolic = plan_for(Decomp::Parafac, variant)
            .critical_path_jobs()
            .eval(&env);
        let reports = cluster.batch_reports();
        assert_eq!(reports.len(), 1, "parafac {variant}: one batch per call");
        assert_eq!(
            reports[0].critical_path_len as u128, symbolic,
            "parafac {variant}: measured critical path vs symbolic depth"
        );
        assert_eq!(
            reports[0].jobs,
            cluster.metrics().total_jobs(),
            "parafac {variant}: every job ran inside the batch"
        );
    }

    // DESIGN.md §7's claim: the Naive-Tucker sweep at Q = R = 8 is 16 jobs
    // at depth 2, so on 8 simulated threads the DAG schedule is at least
    // 2x shorter than one-job-at-a-time. `BatchReport`'s simulated fields
    // are the same in both scheduler modes and on any host.
    let x = generic_tensor([24; 3], 800, &mut rng);
    let bt = generic_mat(8, 24, &mut rng);
    let ct = generic_mat(8, 24, &mut rng);
    let cluster = Cluster::new(ClusterConfig {
        threads: 8,
        ..ClusterConfig::with_machines(2)
    });
    project(
        &cluster,
        Variant::Naive,
        &x,
        0,
        &bt,
        &ct,
        &ProjectOptions::default(),
    )
    .unwrap();
    let reports = cluster.batch_reports();
    assert_eq!(reports.len(), 1, "naive sweep: one batch");
    let r = &reports[0];
    assert_eq!((r.jobs, r.critical_path_len), (16, 2));
    let sim_speedup = r.sim_sequential_s / r.sim_makespan_s;
    assert!(
        sim_speedup >= 2.0,
        "naive sweep: simulated DAG speedup {sim_speedup:.2}x below 2x \
         (sequential {:.4}s, makespan {:.4}s)",
        r.sim_sequential_s,
        r.sim_makespan_s
    );
}

#[test]
fn paper_table_verifies_statically() {
    // The bench harness depends on the verified table; fail fast here if
    // the static verification ever regresses.
    let report = haten2_analyze::verify_paper_table();
    assert!(
        report.ok(),
        "paper-table verification failed: {:?}",
        report
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    );
}
