//! HaTen2-PARAFAC: distributed MTTKRP `Y ← X₍ₙ₎ (⊙ of the other factors)`
//! (Algorithms 4, 6, 8, 10 of the paper), the bottleneck of PARAFAC-ALS.
//!
//! For target mode 0 this is `Y = X₍₁₎ (C ⊙ B) ∈ ℝ^{I×R}` — lines 3/5/7 of
//! PARAFAC-ALS (Algorithm 1). Costs per variant (Table IV); the per-rank
//! chains are mutually independent, so each variant is submitted as one
//! scheduled [`Batch`] whose *critical path* bounds latency on an idle
//! cluster ([`haten2_mapreduce::JobGraph::critical_path_jobs`]):
//!
//! | Variant | Max intermediate | Jobs   | Critical path |
//! |---------|------------------|--------|---------------|
//! | Naive   | `nnz + IJK`      | `2R`   | `2`           |
//! | DNN     | `nnz + J`        | `4R`   | `4`           |
//! | DRN     | `2·nnz·R`        | `2R+1` | `2`           |
//! | DRI     | `2·nnz·R`        | `2`    | `2`           |

use crate::canon::canonicalize;
use crate::ops::{
    collapse_job, hadamard_vec_job, imhp_job, merge_parts_job, naive_ttv_job, pairwise_merge_job,
    pairwise_merge_split_job,
};
use crate::plan::{certified_rewrite_for, plan_for, Decomp};
use crate::records::{tensor_records, Ix4};
use crate::{CoreError, Result, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Batch, Cluster, KeyFreqSketch};
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
    if mode > 2 {
        return Err(CoreError::InvalidArgument(format!(
            "mode {mode} out of range"
        )));
    }
    if f1.cols() != f2.cols() {
        return Err(CoreError::InvalidArgument(format!(
            "mttkrp: rank mismatch {} vs {}",
            f1.cols(),
            f2.cols()
        )));
    }
    let (xc, _perm) = canonicalize(x, mode);
    let d = xc.dims();
    let (d0, d1, d2) = (d[0], d[1], d[2]);
    if f1.rows() != d1 as usize || f2.rows() != d2 as usize {
        return Err(CoreError::InvalidArgument(format!(
            "mttkrp: factors are {}x{} and {}x{} for canonical dims {d:?}",
            f1.rows(),
            f1.cols(),
            f2.rows(),
            f2.cols()
        )));
    }
    let r_dim = f1.cols();
    let x_records = tensor_records(&xc);
    let mut m = Mat::zeros(d0 as usize, r_dim);
    let graph = plan_for(Decomp::Parafac, variant);

    // Skew-aware runtime rewrite — see [`crate::tucker::project`]: sketch
    // the final merge's reduce-key frequencies, and when the cluster's
    // rewrite policy fires, submit the analyzer-certified
    // `heavy-key-split` plan (bit-identical outputs, concurrent splits
    // instead of one straggling merge). Naive/DNN have no certification
    // record and never rewrite.
    let mut sketch = KeyFreqSketch::new(cluster.config().machines.max(1));
    for (ix, _) in &x_records {
        sketch.observe(&ix.0);
    }
    let rewritten = cluster
        .config()
        .rewrite
        .should_rewrite(&sketch)
        .then(|| certified_rewrite_for(&graph, "heavy-key-split"))
        .flatten();
    let rewrite = rewritten.is_some();
    let graph = rewritten.unwrap_or(graph);

    match variant {
        Variant::Naive => {
            // Algorithm 4: T_r = X ×̄₂ b_r, then Y_r = T_r ×̄₃ c_r. The R
            // two-job chains are mutually independent — one batch,
            // critical path 2. Submission stays interleaved per rank (the
            // sequential execution order, which keys the fault schedule).
            let dims4 = [d0, d1, d2, 1];
            let mut batch = Batch::with_graph(&graph);
            let mut ys = Vec::with_capacity(r_dim);
            for r in 0..r_dim {
                let b_col = f1.col(r);
                let c_col = f2.col(r);
                let name_x = format!("parafac-naive-xb{r}");
                let t_r =
                    batch.submit(name_x.clone(), vec!["x".into()], vec![format!("t#{r}")], {
                        let x_records = &x_records;
                        move |ctx| naive_ttv_job(ctx, &name_x, x_records, dims4, 1, &b_col)
                    })?;
                let name_t = format!("parafac-naive-tc{r}");
                ys.push(batch.submit(
                    name_t.clone(),
                    vec![format!("t#{r}")],
                    vec![format!("y#{r}")],
                    move |ctx| {
                        naive_ttv_job(ctx, &name_t, ctx.get(&t_r)?, [d0, 1, d2, 1], 2, &c_col)
                    },
                )?);
            }
            batch.run(cluster)?;
            for (r, h) in ys.into_iter().enumerate() {
                accumulate_column(&mut m, &h.take()?, r);
            }
        }
        Variant::Dnn => {
            // Algorithm 6: per rank, Hadamard + Collapse twice — R
            // independent four-job chains, critical path 4.
            let mut batch = Batch::with_graph(&graph);
            let mut ys = Vec::with_capacity(r_dim);
            for r in 0..r_dim {
                let b_col = f1.col(r);
                let c_col = f2.col(r);
                let name_hb = format!("parafac-dnn-had-b{r}");
                let h1 = batch.submit(
                    name_hb.clone(),
                    vec!["x".into()],
                    vec![format!("h_b#{r}")],
                    {
                        let x_records = &x_records;
                        move |ctx| hadamard_vec_job(ctx, &name_hb, x_records, 1, &b_col, None)
                    },
                )?;
                let name_cj = format!("parafac-dnn-col-j{r}");
                let t_r = batch.submit(
                    name_cj.clone(),
                    vec![format!("h_b#{r}")],
                    vec![format!("t#{r}")],
                    move |ctx| collapse_job(ctx, &name_cj, ctx.get(&h1)?, 1, false),
                )?;
                let name_hc = format!("parafac-dnn-had-c{r}");
                let h2 = batch.submit(
                    name_hc.clone(),
                    vec![format!("t#{r}")],
                    vec![format!("h_c#{r}")],
                    move |ctx| hadamard_vec_job(ctx, &name_hc, ctx.get(&t_r)?, 2, &c_col, None),
                )?;
                let name_ck = format!("parafac-dnn-col-k{r}");
                ys.push(batch.submit(
                    name_ck.clone(),
                    vec![format!("h_c#{r}")],
                    vec![format!("y#{r}")],
                    move |ctx| collapse_job(ctx, &name_ck, ctx.get(&h2)?, 2, false),
                )?);
            }
            batch.run(cluster)?;
            for (r, h) in ys.into_iter().enumerate() {
                accumulate_column(&mut m, &h.take()?, r);
            }
        }
        Variant::Drn => {
            // Algorithm 8: R Hadamard expansions per side (all independent),
            // one PairwiseMerge — critical path 2.
            let bin_records = tensor_records(&xc.bin());
            let mut batch = Batch::with_graph(&graph);
            let mut tp = Vec::with_capacity(r_dim);
            for r in 0..r_dim {
                let name = format!("parafac-drn-had-b{r}");
                let b_col = f1.col(r);
                tp.push(batch.submit(
                    name.clone(),
                    vec!["x".into()],
                    vec![format!("t_prime#{r}")],
                    {
                        let x_records = &x_records;
                        move |ctx| {
                            hadamard_vec_job(ctx, &name, x_records, 1, &b_col, Some(r as u64))
                        }
                    },
                )?);
            }
            let mut tdp = Vec::with_capacity(r_dim);
            for r in 0..r_dim {
                let name = format!("parafac-drn-had-c{r}");
                let c_col = f2.col(r);
                tdp.push(batch.submit(
                    name.clone(),
                    vec!["x_bin".into()],
                    vec![format!("t_dprime#{r}")],
                    {
                        let bin_records = &bin_records;
                        move |ctx| {
                            hadamard_vec_job(ctx, &name, bin_records, 2, &c_col, Some(r as u64))
                        }
                    },
                )?);
            }
            let y = if rewrite {
                // Two-phase aggregation: per-slice splits cost-hinted with
                // the sketch's slice counts, then mergeparts.
                let msl = sketch.width();
                let mut split_parts = Vec::with_capacity(msl);
                for s in 0..msl {
                    let name = format!("parafac-drn-pairwisemerge-split{s}");
                    let tp = tp.clone();
                    let tdp = tdp.clone();
                    let split_h = batch.submit(
                        name.clone(),
                        vec!["t_prime".into(), "t_dprime".into()],
                        vec![format!("y__part#{s}")],
                        move |ctx| {
                            let mut t_prime: Vec<(Ix4, f64)> = Vec::new();
                            for h in &tp {
                                t_prime.extend(ctx.get(h)?.iter().copied());
                            }
                            let mut t_dprime: Vec<(Ix4, f64)> = Vec::new();
                            for h in &tdp {
                                t_dprime.extend(ctx.get(h)?.iter().copied());
                            }
                            pairwise_merge_split_job(ctx, &name, &t_prime, &t_dprime, s, msl)
                        },
                    )?;
                    batch.set_cost_hint(&split_h, sketch.bucket(s) as f64);
                    split_parts.push(split_h);
                }
                batch.submit(
                    "parafac-drn-pairwisemerge-mergeparts",
                    vec!["y__part".into()],
                    vec!["y".into()],
                    {
                        let split_parts = split_parts.clone();
                        move |ctx| {
                            let mut all: Vec<(Ix4, f64)> = Vec::new();
                            for ph in &split_parts {
                                all.extend(ctx.get(ph)?.iter().copied());
                            }
                            merge_parts_job(ctx, "parafac-drn-pairwisemerge-mergeparts", &all)
                        }
                    },
                )?
            } else {
                batch.submit(
                    "parafac-drn-pairwisemerge",
                    vec!["t_prime".into(), "t_dprime".into()],
                    vec!["y".into()],
                    {
                        let tp = tp.clone();
                        let tdp = tdp.clone();
                        move |ctx| {
                            let mut t_prime: Vec<(Ix4, f64)> = Vec::new();
                            for h in &tp {
                                t_prime.extend(ctx.get(h)?.iter().copied());
                            }
                            let mut t_dprime: Vec<(Ix4, f64)> = Vec::new();
                            for h in &tdp {
                                t_dprime.extend(ctx.get(h)?.iter().copied());
                            }
                            pairwise_merge_job(
                                ctx,
                                "parafac-drn-pairwisemerge",
                                &t_prime,
                                &t_dprime,
                            )
                        }
                    },
                )?
            };
            batch.run(cluster)?;
            accumulate_pairs(&mut m, &y.take()?);
        }
        Variant::Dri => {
            // Algorithm 10: IMHP + PairwiseMerge (Q = R in PARAFAC).
            let bt = f1.transpose();
            let ct = f2.transpose();
            let mut batch = Batch::with_graph(&graph);
            let imhp = batch.submit(
                "parafac-dri-imhp",
                vec!["x".into()],
                vec!["t_prime".into(), "t_dprime".into()],
                {
                    let x_records = &x_records;
                    let bt = &bt;
                    let ct = &ct;
                    move |ctx| imhp_job(ctx, "parafac-dri-imhp", x_records, bt, ct)
                },
            )?;
            let y = if rewrite {
                let msl = sketch.width();
                let mut split_parts = Vec::with_capacity(msl);
                for s in 0..msl {
                    let name = format!("parafac-dri-pairwisemerge-split{s}");
                    let imhp = imhp.clone();
                    let split_h = batch.submit(
                        name.clone(),
                        vec!["t_prime".into(), "t_dprime".into()],
                        vec![format!("y__part#{s}")],
                        move |ctx| {
                            let (t_prime, t_dprime) = ctx.get(&imhp)?;
                            pairwise_merge_split_job(ctx, &name, t_prime, t_dprime, s, msl)
                        },
                    )?;
                    batch.set_cost_hint(&split_h, sketch.bucket(s) as f64);
                    split_parts.push(split_h);
                }
                batch.submit(
                    "parafac-dri-pairwisemerge-mergeparts",
                    vec!["y__part".into()],
                    vec!["y".into()],
                    {
                        let split_parts = split_parts.clone();
                        move |ctx| {
                            let mut all: Vec<(Ix4, f64)> = Vec::new();
                            for ph in &split_parts {
                                all.extend(ctx.get(ph)?.iter().copied());
                            }
                            merge_parts_job(ctx, "parafac-dri-pairwisemerge-mergeparts", &all)
                        }
                    },
                )?
            } else {
                batch.submit(
                    "parafac-dri-pairwisemerge",
                    vec!["t_prime".into(), "t_dprime".into()],
                    vec!["y".into()],
                    {
                        let imhp = imhp.clone();
                        move |ctx| {
                            let (t_prime, t_dprime) = ctx.get(&imhp)?;
                            pairwise_merge_job(ctx, "parafac-dri-pairwisemerge", t_prime, t_dprime)
                        }
                    },
                )?
            };
            batch.run(cluster)?;
            accumulate_pairs(&mut m, &y.take()?);
        }
    }
    Ok(m)
}

/// Scatter records `((x0, 0, 0, 0), v)` into column `r` of `m`.
fn accumulate_column(m: &mut Mat, records: &[(Ix4, f64)], r: usize) {
    for &(ix, v) in records {
        m.add_at(ix.0 as usize, r, v);
    }
}

/// Scatter PairwiseMerge records `((x0, r, 0, 0), v)` into `m`.
fn accumulate_pairs(m: &mut Mat, records: &[(Ix4, f64)]) {
    for &(ix, v) in records {
        m.add_at(ix.0 as usize, ix.1 as usize, v);
    }
}

/// Number of MapReduce jobs [`mttkrp`] submits — the "Total Jobs" column of
/// Table IV.
pub fn expected_jobs(variant: Variant, r: usize) -> usize {
    match variant {
        Variant::Naive => 2 * r,
        Variant::Dnn => 4 * r,
        Variant::Drn => 2 * r + 1,
        Variant::Dri => 2,
    }
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
            let cluster = Cluster::new(ClusterConfig::with_machines(4));
            let m = mttkrp(
                &cluster,
                variant,
                &x,
                mode,
                factors[others[0]],
                factors[others[1]],
            )
            .unwrap();
            let want = mttkrp_dense(&x, mode, [&a, &b, &c]).unwrap();
            assert!(
                m.approx_eq(&want, 1e-9),
                "{variant} mode {mode}:\ngot\n{m}\nwant\n{want}"
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
        for variant in Variant::ALL {
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            mttkrp(&cluster, variant, &x, 0, &b, &c).unwrap();
            assert_eq!(
                cluster.metrics().total_jobs(),
                expected_jobs(variant, r_dim),
                "{variant}"
            );
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
    fn rewritten_plan_is_bit_identical_to_unrewritten() {
        use haten2_mapreduce::{RewritePolicy, SchedulerMode};
        let x = random_coo([12, 5, 4], 80, 91);
        let mut rng = StdRng::seed_from_u64(92);
        let b = Mat::random(5, 3, &mut rng);
        let c = Mat::random(4, 3, &mut rng);
        for variant in [Variant::Drn, Variant::Dri] {
            let mut outs: Vec<Vec<u64>> = Vec::new();
            for (policy, sched) in [
                (RewritePolicy::Off, SchedulerMode::Sequential),
                (RewritePolicy::Always, SchedulerMode::Sequential),
                (RewritePolicy::Always, SchedulerMode::Dag),
            ] {
                let mut cfg = ClusterConfig::with_machines(4);
                cfg.rewrite = policy;
                cfg.scheduler = sched;
                let cluster = Cluster::new(cfg);
                let m = mttkrp(&cluster, variant, &x, 0, &b, &c).unwrap();
                let mut bits = Vec::with_capacity(m.rows() * m.cols());
                for i in 0..m.rows() {
                    for r in 0..m.cols() {
                        bits.push(m.get(i, r).to_bits());
                    }
                }
                outs.push(bits);
            }
            assert_eq!(outs[0], outs[1], "{variant}: rewrite broke bit-identity");
            assert_eq!(
                outs[0], outs[2],
                "{variant}: DAG rewrite broke bit-identity"
            );
        }
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
    fn auto_policy_rewrites_only_under_skew() {
        use haten2_mapreduce::RewritePolicy;
        let r_dim = 2;
        let mut rng = StdRng::seed_from_u64(93);
        // Skewed: a 10×10 dense slab at i = 0 plus a few scattered entries
        // — one reduce key owns ~96% of the merge input.
        let mut entries: Vec<Entry3> = Vec::new();
        for j in 0..10 {
            for k in 0..10 {
                entries.push(Entry3::new(0, j, k, rng.gen_range(0.5..2.0)));
            }
        }
        for i in 1..4 {
            entries.push(Entry3::new(i, 0, 0, 1.0));
        }
        let skewed = CooTensor3::from_entries([40, 10, 10], entries).unwrap();
        let b = Mat::random(10, r_dim, &mut rng);
        let c = Mat::random(10, r_dim, &mut rng);
        let machines = 4;
        let auto_cfg = || {
            let mut cfg = ClusterConfig::with_machines(machines);
            cfg.rewrite = RewritePolicy::Auto {
                skew_threshold: 2.0,
            };
            cfg
        };
        let cluster = Cluster::new(auto_cfg());
        mttkrp(&cluster, Variant::Dri, &skewed, 0, &b, &c).unwrap();
        // IMHP + `machines` splits + mergeparts: the rewrite fired.
        assert_eq!(cluster.metrics().total_jobs(), 2 + machines);

        // Uniform tensor at the same policy: plan submitted unrewritten.
        let uniform = random_coo([40, 10, 10], 200, 94);
        let cluster = Cluster::new(auto_cfg());
        mttkrp(&cluster, Variant::Dri, &uniform, 0, &b, &c).unwrap();
        assert_eq!(cluster.metrics().total_jobs(), 2);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let x = random_coo([3, 3, 3], 5, 29);
        let b = Mat::zeros(3, 2);
        let c = Mat::zeros(3, 3);
        assert!(mttkrp(&Cluster::with_defaults(), Variant::Dri, &x, 0, &b, &c).is_err());
    }
}
