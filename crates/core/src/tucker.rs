//! HaTen2-Tucker: distributed computation of `Y ← X ×ₘ₁ U₁ ×ₘ₂ U₂`
//! (Algorithms 3, 5, 7, 9 of the paper), the bottleneck of Tucker-ALS.
//!
//! [`project`] computes, for a target mode `n`, the projection of `X` onto
//! the factor matrices of the two *other* modes: for `n = 0` this is
//! `Y = X ×₂ Bᵀ ×₃ Cᵀ ∈ ℝ^{I×Q×R}` — exactly lines 3/5/7 of Tucker-ALS
//! (Algorithm 2). The four variants trade intermediate data and job count as
//! summarized in Table III; the per-column jobs within a stage are mutually
//! independent, so each variant's graph ([`crate::plan::pipeline_for`]) is
//! submitted as one scheduled batch whose *critical path* is what bounds
//! latency on an idle cluster
//! ([`haten2_mapreduce::JobGraph::critical_path_jobs`]):
//!
//! | Variant | Max intermediate | Jobs    | Critical path |
//! |---------|------------------|---------|---------------|
//! | Naive   | `nnz + IJK`      | `Q+R`   | `2`           |
//! | DNN     | `nnz·Q·R`        | `Q+R+2` | `4`           |
//! | DRN     | `nnz·(Q+R)`      | `Q+R+1` | `2`           |
//! | DRI     | `nnz·(Q+R)`      | `2`     | `2`           |

use crate::canon::{canonical_dims, canonical_records};
use crate::plan::{pipeline_for, run_pipeline, Bindings, Decomp};
use crate::records::{check_mode, MergeLayout};
use crate::{CoreError, Result, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::Cluster;
use haten2_tensor::{CooTensor3, Entry3};

/// Options for [`project`].
#[derive(Debug, Clone, Default)]
pub struct ProjectOptions {
    /// Use a map-side combiner in Collapse jobs (ablation; the paper's cost
    /// model assumes none).
    pub use_combiner: bool,
}

/// Compute `Y ← X ×ₘ₁ U₁ᵀ ×ₘ₂ U₂ᵀ` for the two non-target modes
/// `m₁ < m₂` of `mode`, using the given HaTen2 `variant`.
///
/// * `u1 ∈ ℝ^{Q×dims[m₁]}` and `u2 ∈ ℝ^{R×dims[m₂]}` are the transposed
///   factor matrices (`Bᵀ`, `Cᵀ` for `mode = 0`).
/// * Returns `Y` as a sparse tensor with dims `[dims[mode], Q, R]`.
///
/// ```
/// use haten2_core::{tucker, Variant};
/// use haten2_linalg::Mat;
/// use haten2_mapreduce::{Cluster, ClusterConfig};
/// use haten2_tensor::{CooTensor3, Entry3};
///
/// let x = CooTensor3::from_entries(
///     [2, 2, 2],
///     vec![Entry3::new(0, 1, 0, 3.0)],
/// )
/// .unwrap();
/// let bt = Mat::from_rows(&[vec![1.0, 2.0]]).unwrap(); // Q x J (Q = 1)
/// let ct = Mat::from_rows(&[vec![5.0, 7.0]]).unwrap(); // R x K (R = 1)
/// let cluster = Cluster::new(ClusterConfig::with_machines(2));
///
/// // Y = X x2 Bt x3 Ct: Y(0, 0, 0) = 3 * B(1, 0) * C(0, 0) = 3 * 2 * 5.
/// let y = tucker::project(
///     &cluster, Variant::Dri, &x, 0, &bt, &ct,
///     &tucker::ProjectOptions::default(),
/// )
/// .unwrap();
/// assert_eq!(y.dims(), [2, 1, 1]);
/// assert_eq!(y.get(0, 0, 0), 30.0);
/// // DRI: exactly 2 MapReduce jobs (Table III).
/// assert_eq!(cluster.metrics().total_jobs(), 2);
/// ```
pub fn project(
    cluster: &Cluster,
    variant: Variant,
    x: &CooTensor3,
    mode: usize,
    u1: &Mat,
    u2: &Mat,
    opts: &ProjectOptions,
) -> Result<CooTensor3> {
    // Transposed, the core sizes are the rows: refused before a copy is made.
    check_mode(mode)?;
    let dims = canonical_dims(x.dims(), mode);
    MergeLayout::three_way("project: core size", dims, [u1.rows(), u2.rows()])?;
    let (u1, u2) = (u1.transpose(), u2.transpose());
    project_rows(cluster, variant, x, mode, &u1, &u2, opts)
}

/// [`project`] with the factors bound as they are, `J × Q` and `K × R`
/// rather than transposed: Tucker-ALS passes its factors this way, so
/// DRI's IMHP reads their rows in place.
pub(crate) fn project_rows(
    cluster: &Cluster,
    variant: Variant,
    x: &CooTensor3,
    mode: usize,
    u1: &Mat,
    u2: &Mat,
    opts: &ProjectOptions,
) -> Result<CooTensor3> {
    check_mode(mode)?;
    let (d, records) = canonical_records(x, mode);
    if u1.rows() != d[1] as usize || u2.rows() != d[2] as usize {
        return Err(CoreError::InvalidArgument(format!(
            "project: factors are {}x{} and {}x{} (untransposed) for canonical dims {d:?} (mode {mode})",
            u1.rows(),
            u1.cols(),
            u2.rows(),
            u2.cols()
        )));
    }
    // Every variant's `y` is `((i, q, r, 0), v)`, read shard by shard where
    // its jobs' reduce tasks wrote it.
    let y = run_pipeline(
        cluster,
        &pipeline_for(Decomp::Tucker, variant),
        &Bindings {
            x: &records,
            dims: d,
            u1,
            u2,
            use_combiner: opts.use_combiner,
        },
    )?;
    let mut entries = Vec::with_capacity(y.iter().map(Vec::len).sum());
    let records = y.iter().flatten();
    entries.extend(records.map(|&(ix, v)| Entry3::new(ix.0, ix.1, ix.2, v)));
    let dims = [d[0], u1.cols() as u64, u2.cols() as u64];
    Ok(CooTensor3::from_entries(dims, entries)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_mapreduce::ClusterConfig;
    use haten2_tensor::ops::ttm;
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

    fn reference(x: &CooTensor3, mode: usize, u1: &Mat, u2: &Mat) -> CooTensor3 {
        // Sequential sparse ttm on the two non-target modes, then permute so
        // the target mode leads.
        let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        let t = ttm(x, others[0], u1).unwrap();
        let y = ttm(&t, others[1], u2).unwrap();
        let (canon, _) = crate::canon::canonicalize(&y, mode);
        canon.into_owned()
    }

    /// `variant` against sequential `ttm` on clusters of 1, 3, 4 and 8
    /// machines — a dataset arrives in a shard per chunk of each of its
    /// producer's reduce partitions — and the intermediate data the same
    /// on each.
    fn check_variant(variant: Variant) {
        let x = random_coo([4, 5, 3], 20, 42);
        let mut rng = StdRng::seed_from_u64(7);
        for mode in 0..3 {
            let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            let u1 = Mat::random(2, x.dims()[others[0]] as usize, &mut rng);
            let u2 = Mat::random(3, x.dims()[others[1]] as usize, &mut rng);
            let want = reference(&x, mode, &u1, &u2);
            let mut intermediate = Vec::new();
            for machines in [1, 3, 4, 8] {
                let cluster = Cluster::new(ClusterConfig::with_machines(machines));
                let y = project(
                    &cluster,
                    variant,
                    &x,
                    mode,
                    &u1,
                    &u2,
                    &ProjectOptions::default(),
                )
                .unwrap();
                let at = format!("{variant} mode {mode}, {machines} machines");
                assert_eq!(y.dims(), want.dims(), "{at}");
                for e in want.entries() {
                    assert!(
                        (y.get(e.i, e.j, e.k) - e.v).abs() < 1e-9,
                        "{at}: mismatch at ({},{},{}): {} vs {}",
                        e.i,
                        e.j,
                        e.k,
                        y.get(e.i, e.j, e.k),
                        e.v
                    );
                }
                assert_eq!(y.nnz(), want.nnz(), "{at}: support");
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
    fn job_counts_match_table3() {
        let x = random_coo([4, 4, 4], 15, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (q, r) = (2usize, 3usize);
        let u1 = Mat::random(q, 4, &mut rng);
        let u2 = Mat::random(r, 4, &mut rng);
        // The "Total Jobs" column of Table III.
        for (variant, jobs) in [
            (Variant::Naive, q + r),
            (Variant::Dnn, q + r + 2),
            (Variant::Drn, q + r + 1),
            (Variant::Dri, 2),
        ] {
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            project(
                &cluster,
                variant,
                &x,
                0,
                &u1,
                &u2,
                &ProjectOptions::default(),
            )
            .unwrap();
            assert_eq!(cluster.metrics().total_jobs(), jobs, "{variant}");
        }
    }

    #[test]
    fn naive_fails_on_capacity() {
        // Broadcast cost nnz + IJK must exceed a tiny capacity budget.
        let x = random_coo([50, 50, 50], 30, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let u1 = Mat::random(2, 50, &mut rng);
        let u2 = Mat::random(2, 50, &mut rng);
        let cfg = ClusterConfig {
            cluster_capacity_bytes: Some(100_000),
            ..ClusterConfig::with_machines(4)
        };
        let cluster = Cluster::new(cfg);
        let err = project(
            &cluster,
            Variant::Naive,
            &x,
            0,
            &u1,
            &u2,
            &ProjectOptions::default(),
        )
        .unwrap_err();
        assert!(err.is_oom(), "expected o.o.m., got {err}");
        // DRI must succeed under the same budget.
        let cluster2 = Cluster::new(ClusterConfig {
            cluster_capacity_bytes: Some(100_000),
            ..ClusterConfig::with_machines(4)
        });
        project(
            &cluster2,
            Variant::Dri,
            &x,
            0,
            &u1,
            &u2,
            &ProjectOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn intermediate_data_ordering_matches_table3() {
        // For fixed inputs: DNN's max intermediate >= DRN's ~= DRI's.
        let x = random_coo([6, 6, 6], 40, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (q, r) = (4usize, 4usize);
        let u1 = Mat::random(q, 6, &mut rng);
        let u2 = Mat::random(r, 6, &mut rng);
        let mut max_inter = std::collections::HashMap::new();
        for variant in [Variant::Dnn, Variant::Drn, Variant::Dri] {
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            project(
                &cluster,
                variant,
                &x,
                0,
                &u1,
                &u2,
                &ProjectOptions::default(),
            )
            .unwrap();
            max_inter.insert(variant, cluster.metrics().max_intermediate_records());
        }
        assert!(
            max_inter[&Variant::Dnn] > max_inter[&Variant::Drn],
            "DNN {} should exceed DRN {}",
            max_inter[&Variant::Dnn],
            max_inter[&Variant::Drn]
        );
        // DRN and DRI share the merge job as their largest.
        let drn = max_inter[&Variant::Drn] as f64;
        let dri = max_inter[&Variant::Dri] as f64;
        assert!((drn - dri).abs() / drn < 0.25, "DRN {drn} vs DRI {dri}");
    }
}
