//! HaTen2-PARAFAC: distributed MTTKRP `Y ← X₍ₙ₎ (⊙ of the other factors)`
//! (Algorithms 4, 6, 8, 10 of the paper), the bottleneck of PARAFAC-ALS.
//!
//! For target mode 0 this is `Y = X₍₁₎ (C ⊙ B) ∈ ℝ^{I×R}` — lines 3/5/7 of
//! PARAFAC-ALS (Algorithm 1). Costs per variant (Table IV); the per-rank
//! chains are mutually independent, so each variant's graph
//! ([`crate::plan::pipeline_for`]) is submitted as one scheduled batch
//! whose *critical path* bounds latency on an idle cluster
//! ([`haten2_mapreduce::JobGraph::critical_path_jobs`]):
//!
//! | Variant | Max intermediate | Jobs   | Critical path |
//! |---------|------------------|--------|---------------|
//! | Naive   | `nnz + IJK`      | `2R`   | `2`           |
//! | DNN     | `nnz + J`        | `4R`   | `4`           |
//! | DRN     | `2·nnz·R`        | `2R+1` | `2`           |
//! | DRI     | `2·nnz·R`        | `2`    | `2`           |

use crate::canon::CanonicalRecords;
use crate::plan::{pipeline_for, run_pipeline, Bindings, Decomp};
use crate::records::check_mode;
use crate::{CoreError, Result, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::Cluster;
use haten2_tensor::CooTensor3;

/// Compute the MTTKRP `M ← X₍ₙ₎ (F₂ ⊙ F₁)` for target mode `n` using the
/// given HaTen2 `variant`.
///
/// `f1 ∈ ℝ^{dims[m₁]×R}` and `f2 ∈ ℝ^{dims[m₂]×R}` are the factor matrices
/// of the two non-target modes `m₁ < m₂` (for `n = 0`: `B` and `C`).
/// Returns `M ∈ ℝ^{dims[n]×R}` dense.
///
/// ```
/// use haten2_core::{parafac, Variant};
/// use haten2_linalg::Mat;
/// use haten2_mapreduce::{Cluster, ClusterConfig};
/// use haten2_tensor::{CooTensor3, Entry3};
///
/// let x = CooTensor3::from_entries(
///     [2, 2, 2],
///     vec![Entry3::new(0, 1, 0, 3.0), Entry3::new(1, 0, 1, 2.0)],
/// )
/// .unwrap();
/// let b = Mat::from_rows(&[vec![1.0], vec![2.0]]).unwrap(); // J x R
/// let c = Mat::from_rows(&[vec![5.0], vec![7.0]]).unwrap(); // K x R
/// let cluster = Cluster::new(ClusterConfig::with_machines(2));
///
/// // M(i, r) = sum_{j,k} X(i,j,k) B(j,r) C(k,r)
/// let m = parafac::mttkrp(&cluster, Variant::Dri, &x, 0, &b, &c).unwrap();
/// assert_eq!(m.get(0, 0), 3.0 * 2.0 * 5.0);
/// assert_eq!(m.get(1, 0), 2.0 * 1.0 * 7.0);
/// // DRI: exactly 2 MapReduce jobs (Table IV).
/// assert_eq!(cluster.metrics().total_jobs(), 2);
/// ```
pub fn mttkrp(
    cluster: &Cluster,
    variant: Variant,
    x: &CooTensor3,
    mode: usize,
    f1: &Mat,
    f2: &Mat,
) -> Result<Mat> {
    let mut m = Mat::zeros(0, 0);
    let mut canon = CanonicalRecords::default();
    mttkrp_into(cluster, variant, x, mode, [f1, f2], &mut canon, &mut m)?;
    Ok(m)
}

/// [`mttkrp`] in storage the caller keeps: the target mode's records are
/// built in `canon`'s, and `M` is folded into `out`, zeroed to
/// `dims[mode] × R` in the storage it has. PARAFAC-ALS passes the factor
/// `M` replaces, so a sweep's modes take no fresh memory for either.
pub(crate) fn mttkrp_into(
    cluster: &Cluster,
    variant: Variant,
    x: &CooTensor3,
    mode: usize,
    [f1, f2]: [&Mat; 2],
    canon: &mut CanonicalRecords,
    out: &mut Mat,
) -> Result<()> {
    check_mode(mode)?;
    if f1.cols() != f2.cols() {
        return Err(CoreError::InvalidArgument(format!(
            "mttkrp: rank mismatch {} vs {}",
            f1.cols(),
            f2.cols()
        )));
    }
    let (d, records) = canon.build(x, mode);
    if f1.rows() != d[1] as usize || f2.rows() != d[2] as usize {
        return Err(CoreError::InvalidArgument(format!(
            "mttkrp: factors are {}x{} and {}x{} for canonical dims {d:?}",
            f1.rows(),
            f1.cols(),
            f2.rows(),
            f2.cols()
        )));
    }
    // The factors are bound as they are: DRI's IMHP reads their rows in
    // place. Every variant's `y` is `((i, r, 0, 0), v)`, folded shard by
    // shard where its jobs' reduce tasks wrote it.
    let y = run_pipeline(
        cluster,
        &pipeline_for(Decomp::Parafac, variant),
        &Bindings {
            x: records,
            dims: d,
            u1: f1,
            u2: f2,
            use_combiner: false,
        },
    )?;
    out.reset_zeros(d[0] as usize, f1.cols());
    for &(ix, v) in y.iter().flatten() {
        out.add_at(ix.0 as usize, ix.1 as usize, v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_mapreduce::ClusterConfig;
    use haten2_tensor::ops::mttkrp_dense;
    use haten2_tensor::Entry3;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_coo(dims: [u64; 3], nnz: usize, seed: u64) -> CooTensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = (0..nnz)
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

    /// `variant` against the dense MTTKRP on clusters of 1, 3, 4 and 8
    /// machines — a dataset arrives in a shard per chunk of each of its
    /// producer's reduce partitions — and the intermediate data the same
    /// on each.
    fn check_variant(variant: Variant) {
        let x = random_coo([4, 5, 3], 20, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let r_dim = 3;
        let a = Mat::random(4, r_dim, &mut rng);
        let b = Mat::random(5, r_dim, &mut rng);
        let c = Mat::random(3, r_dim, &mut rng);
        let factors = [&a, &b, &c];
        for mode in 0..3 {
            let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            let want = mttkrp_dense(&x, mode, [&a, &b, &c]).unwrap();
            let mut intermediate = Vec::new();
            for machines in [1, 3, 4, 8] {
                let cluster = Cluster::new(ClusterConfig::with_machines(machines));
                let m = mttkrp(
                    &cluster,
                    variant,
                    &x,
                    mode,
                    factors[others[0]],
                    factors[others[1]],
                )
                .unwrap();
                assert!(
                    m.approx_eq(&want, 1e-9),
                    "{variant} mode {mode}, {machines} machines:\ngot\n{m}\nwant\n{want}"
                );
                intermediate.push(cluster.metrics().total_intermediate_records());
            }
            assert!(
                intermediate.iter().all(|&n| n == intermediate[0]),
                "{variant} mode {mode}: intermediate records {intermediate:?} on 1, 3, 4, 8 machines"
            );
        }
    }

    #[test]
    fn naive_matches_reference() {
        check_variant(Variant::Naive);
    }

    #[test]
    fn dnn_matches_reference() {
        check_variant(Variant::Dnn);
    }

    #[test]
    fn drn_matches_reference() {
        check_variant(Variant::Drn);
    }

    #[test]
    fn dri_matches_reference() {
        check_variant(Variant::Dri);
    }

    #[test]
    fn job_counts_match_table4() {
        let x = random_coo([4, 4, 4], 15, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let r_dim = 3;
        let b = Mat::random(4, r_dim, &mut rng);
        let c = Mat::random(4, r_dim, &mut rng);
        // The "Total Jobs" column of Table IV.
        for (variant, jobs) in [
            (Variant::Naive, 2 * r_dim),
            (Variant::Dnn, 4 * r_dim),
            (Variant::Drn, 2 * r_dim + 1),
            (Variant::Dri, 2),
        ] {
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            mttkrp(&cluster, variant, &x, 0, &b, &c).unwrap();
            assert_eq!(cluster.metrics().total_jobs(), jobs, "{variant}");
        }
    }

    #[test]
    fn naive_fails_on_capacity_dri_survives() {
        let x = random_coo([40, 40, 40], 25, 25);
        let mut rng = StdRng::seed_from_u64(26);
        let b = Mat::random(40, 2, &mut rng);
        let c = Mat::random(40, 2, &mut rng);
        let cfg = || ClusterConfig {
            cluster_capacity_bytes: Some(80_000),
            ..ClusterConfig::with_machines(4)
        };
        let err = mttkrp(&Cluster::new(cfg()), Variant::Naive, &x, 0, &b, &c).unwrap_err();
        assert!(err.is_oom());
        mttkrp(&Cluster::new(cfg()), Variant::Dri, &x, 0, &b, &c).unwrap();
    }

    #[test]
    fn dnn_has_smallest_intermediate_dri_fewest_jobs() {
        // Table IV structure: DNN minimizes intermediate data, DRI jobs.
        let x = random_coo([6, 6, 6], 40, 27);
        let mut rng = StdRng::seed_from_u64(28);
        let b = Mat::random(6, 4, &mut rng);
        let c = Mat::random(6, 4, &mut rng);
        let mut inter = std::collections::HashMap::new();
        let mut jobs = std::collections::HashMap::new();
        for variant in [Variant::Dnn, Variant::Drn, Variant::Dri] {
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            mttkrp(&cluster, variant, &x, 0, &b, &c).unwrap();
            inter.insert(variant, cluster.metrics().max_intermediate_records());
            jobs.insert(variant, cluster.metrics().total_jobs());
        }
        assert!(inter[&Variant::Dnn] <= inter[&Variant::Drn]);
        assert!(jobs[&Variant::Dri] < jobs[&Variant::Drn]);
        assert!(jobs[&Variant::Drn] < jobs[&Variant::Dnn]);
    }

    #[test]
    fn dag_grants_dri_the_whole_pool_and_runs_dnn_inline() {
        // The scheduler splits the pool per dependency level: DRI's
        // IMHP → PairwiseMerge chain is two levels of one job, DNN's R
        // independent 4-job chains are four levels R wide.
        let threads = 4;
        let x = random_coo([12, 5, 4], 80, 95);
        let mut rng = StdRng::seed_from_u64(96);
        let b = Mat::random(5, threads, &mut rng);
        let c = Mat::random(4, threads, &mut rng);
        for (variant, jobs, executors) in [(Variant::Dri, 2, threads), (Variant::Dnn, 16, 1)] {
            let mut cfg = ClusterConfig::with_machines(4);
            cfg.threads = threads;
            let cluster = Cluster::new(cfg);
            mttkrp(&cluster, variant, &x, 0, &b, &c).unwrap();
            let granted: Vec<usize> = cluster
                .metrics()
                .jobs
                .iter()
                .map(|j| j.task_executors)
                .collect();
            assert_eq!(granted, vec![executors; jobs], "{variant}");
        }
    }

    #[test]
    fn rank_mismatch_rejected() {
        let x = random_coo([3, 3, 3], 5, 29);
        let b = Mat::zeros(3, 2);
        let c = Mat::zeros(3, 3);
        assert!(mttkrp(&Cluster::with_defaults(), Variant::Dri, &x, 0, &b, &c).is_err());
    }
}
