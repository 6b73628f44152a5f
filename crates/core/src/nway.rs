//! N-way PARAFAC and Tucker on the HaTen2-DRI framework.
//!
//! The paper defines PARAFAC, Tucker, `PairwiseMerge`/`CrossMerge`
//! (Definitions 3–4) and the Hadamard expansions for general N-way
//! tensors, and [`crate::ops`] implements them that way: for a target mode,
//! one IMHP job expands `X` against the `N − 1` other factors — `T'`
//! carrying `X`'s values, every other side `bin(X)`-based — and one merge
//! job joins the sides on the target-mode index. Exactly two jobs per mode
//! regardless of rank or order, the DRI rows of Tables III/IV; on a 3-way
//! tensor they are, record for record and byte for byte, the jobs
//! [`crate::parafac::mttkrp`] and [`crate::tucker::project`] run under
//! [`crate::Variant::Dri`].
//!
//! What this module adds is the order-generic front: it checks the
//! arguments, presents a [`DynTensor`] to the kernels, and assembles their
//! output. An entry `e` at index `(i₀ … i_{N−1})` becomes the record
//! `((i_mode, e, 0, 0), value)` — the 3-way record with the entry's ordinal
//! where `(j, k)` would be, because after IMHP the non-target indices are
//! only ever a label of the nonzero (see [`crate::ops`]); IMHP's mapper
//! reads the `N − 1` join indices from the tensor's own index slice. Every
//! stored entry is its own nonzero, so a tensor with a repeated coordinate
//! decomposes like its [`DynTensor::coalesce`]d form. The ALS loops are
//! [`crate::als`]'s, given these kernels and an all-modes initialisation.
//!
//! A two-job chain has nothing to schedule, so the two jobs run one after
//! the other straight on the [`Cluster`], the merge taking the map output
//! IMHP's reduce tasks wrote for it. A bare cluster has no
//! [`haten2_mapreduce::JobGraph`] to derive map-emit hints from and the
//! kernels set none, so the jobs' shuffle buckets start empty and grow by
//! doubling (the 3-way pipelines pre-size theirs from the plan IR).

use crate::als::{parafac_sweeps, tucker_fit, tucker_sweeps, Projection};
use crate::ops::{cross_merge_job, imhp_job, pairwise_merge_job, MergeInput, TensorRecords};
use crate::records::{check_columns, Ix4};
use crate::{CoreError, Result};
use haten2_linalg::{thin_qr, Mat};
use haten2_mapreduce::{Cluster, RunMetrics};
use haten2_tensor::{DynTensor, SparseMat};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn invalid<T>(detail: String) -> Result<T> {
    Err(CoreError::InvalidArgument(detail))
}

/// The join modes of a kernel call — every mode but `mode`, ascending —
/// once the call is known to be valid: order ≥ 2, one factor per mode,
/// `mode` in range, every join factor as tall as its mode and at most
/// `u32::MAX` wide, and (the MTTKRP's `equal_cols`) all of them equally
/// wide. The target mode's factor is not read.
fn join_modes(
    x: &DynTensor,
    mode: usize,
    factors: &[&Mat],
    equal_cols: bool,
) -> Result<Vec<usize>> {
    let n = x.order();
    if n < 2 {
        return invalid("tensor order must be ≥ 2".into());
    }
    if factors.len() != n {
        return invalid(format!("expected {n} factors, got {}", factors.len()));
    }
    if mode >= n {
        return invalid(format!("mode {mode} out of range"));
    }
    let others: Vec<usize> = (0..n).filter(|&m| m != mode).collect();
    let cols = factors[others[0]].cols();
    for &m in &others {
        let (f, dim) = (factors[m], x.dims()[m]);
        if f.rows() != dim as usize {
            return invalid(format!("factor {m} has {} rows for dim {dim}", f.rows()));
        }
        if equal_cols && f.cols() != cols {
            return invalid(format!("factor {m} has {} columns, not {cols}", f.cols()));
        }
        check_columns(&format!("factor {m} width"), f.cols())?;
    }
    Ok(others)
}

/// The IMHP job of target mode `mode`: `x` expanded against the factor of
/// every mode in `others`, one side per join mode, as the merge's map
/// output its reduce tasks wrote.
fn expand(
    cluster: &Cluster,
    x: &DynTensor,
    mode: usize,
    others: &[usize],
    factors: &[&Mat],
) -> Result<MergeInput<'static>> {
    let entries: TensorRecords = (0..x.nnz())
        .map(|e| ((x.index(e)[mode], e as u64, 0, 0), x.value(e)))
        .collect();
    let sides: Vec<&Mat> = others.iter().map(|&m| factors[m]).collect();
    let written = imhp_job(
        cluster,
        &format!("nway-imhp-mode{mode}"),
        &[&entries],
        &sides,
        |side, ix: &Ix4| x.index(ix.1 as usize)[others[side]],
    )?;
    Ok(MergeInput::Written(written))
}

/// Distributed N-way MTTKRP for `mode`, DRI style (2 jobs).
///
/// `factors` supplies the factor matrix of every mode (the target one is
/// ignored); all must share the same column count `R`. Returns
/// `M ∈ ℝ^{dims[mode]×R}`.
pub fn nway_mttkrp(cluster: &Cluster, x: &DynTensor, mode: usize, factors: &[&Mat]) -> Result<Mat> {
    let mut m = Mat::zeros(0, 0);
    nway_mttkrp_into(cluster, x, mode, factors, &mut m)?;
    Ok(m)
}

/// [`nway_mttkrp`] folded into `out`, zeroed to `dims[mode] × R` in the
/// storage it has: N-way PARAFAC-ALS passes the factor `M` replaces.
fn nway_mttkrp_into(
    cluster: &Cluster,
    x: &DynTensor,
    mode: usize,
    factors: &[&Mat],
    out: &mut Mat,
) -> Result<()> {
    let others = join_modes(x, mode, factors, true)?;
    let expanded = expand(cluster, x, mode, &others, factors)?;
    let name = format!("nway-pairwisemerge-mode{mode}");
    let rank = factors[others[0]].cols();
    let y = pairwise_merge_job(cluster, &name, expanded, rank as u64)?;

    out.reset_zeros(x.dims()[mode] as usize, rank);
    for &((i, r, _, _), v) in y.iter().flatten() {
        out.add_at(i as usize, r as usize, v);
    }
    Ok(())
}

/// Result of [`nway_parafac_als`].
#[derive(Debug, Clone)]
pub struct NwayParafacResult {
    /// Column norms `λ ∈ ℝ^R`.
    pub lambda: Vec<f64>,
    /// One factor matrix per mode, unit-norm columns.
    pub factors: Vec<Mat>,
    /// Fit after each sweep.
    pub fits: Vec<f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// MapReduce metrics.
    pub metrics: RunMetrics,
}

fn norm_sq(x: &DynTensor) -> f64 {
    (0..x.nnz()).map(|e| x.value(e) * x.value(e)).sum()
}

/// N-way PARAFAC-ALS on the DRI kernels (the paper's N-way formulation in
/// §II-B1 with the §III framework).
pub fn nway_parafac_als(
    cluster: &Cluster,
    x: &DynTensor,
    rank: usize,
    max_iters: usize,
    tol: f64,
    seed: u64,
) -> Result<NwayParafacResult> {
    if rank == 0 {
        return invalid("rank must be positive".into());
    }
    if x.order() < 3 {
        return invalid("PARAFAC needs order ≥ 3".into());
    }
    let mark = cluster.jobs_run();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<Mat> = x
        .dims()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect();
    let (lambda, fits, iterations) = parafac_sweeps(
        &mut factors,
        norm_sq(x),
        (max_iters, tol),
        |mode, factors, out| {
            let factors: Vec<&Mat> = factors.iter().collect();
            nway_mttkrp_into(cluster, x, mode, &factors, out)
        },
        |_, _| Ok(None),
        |_, _, _| Ok(()),
    )?;
    Ok(NwayParafacResult {
        lambda,
        factors,
        fits,
        iterations,
        metrics: cluster.metrics_since(mark),
    })
}

/// Distributed N-way Tucker projection for `mode`, DRI style (2 jobs):
/// `Y = X ×ₘ₁ U₁ᵀ ... ×ₘ_{N−1} U_{N−1}ᵀ` over all non-target modes.
///
/// `factors` supplies the factor matrix `Uₘ ∈ ℝ^{dₘ×cₘ}` of every mode
/// (the target one is ignored). Returns `Y` with dims
/// `[d_mode, c_{m₁}, …, c_{m_{N−1}}]` (non-target modes in ascending
/// order) — the N-way generalization of [`crate::tucker::project`] via the
/// N-way `CrossMerge` (Definition 3).
pub fn nway_tucker_project(
    cluster: &Cluster,
    x: &DynTensor,
    mode: usize,
    factors: &[&Mat],
) -> Result<DynTensor> {
    let others = join_modes(x, mode, factors, false)?;
    let widths: Vec<u64> = others.iter().map(|&m| factors[m].cols() as u64).collect();
    let expanded = expand(cluster, x, mode, &others, factors)?;
    let name = format!("nway-crossmerge-mode{mode}");
    let partitions = cross_merge_job(cluster, &name, expanded, &widths)?;

    // `((i, q₁, columns, 0), y)`, one nonzero record per cell; `columns` is
    // row-major over `widths[1..]`, so record order is index order and the
    // tensor is built coalesced. The cells are sorted by reference, left
    // where the reduce tasks wrote them.
    let mut cells: Vec<&(Ix4, f64)> = partitions.iter().flatten().collect();
    cells.sort_unstable_by_key(|&&(ix, _)| ix);
    let mut y = DynTensor::new([&[x.dims()[mode]], widths.as_slice()].concat());
    let mut idx = vec![0; x.order()];
    for &((i, q1, mut columns, _), v) in cells {
        (idx[0], idx[1]) = (i, q1);
        for (q, &width) in idx[2..].iter_mut().zip(&widths[1..]).rev() {
            (*q, columns) = (columns % width, columns / width);
        }
        y.push(&idx, v)?;
    }
    Ok(y)
}

/// Result of [`nway_tucker_als`].
#[derive(Debug, Clone)]
pub struct NwayTuckerResult {
    /// Core tensor `G` with dims `core_dims`.
    pub core: DynTensor,
    /// One orthonormal factor matrix per mode.
    pub factors: Vec<Mat>,
    /// `‖G‖` after each sweep.
    pub core_norms: Vec<f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Fit `1 − ‖X − X̂‖/‖X‖` (orthonormal-factor identity `‖X̂‖ = ‖G‖`).
    pub fit: f64,
    /// MapReduce metrics.
    pub metrics: RunMetrics,
}

impl Projection for DynTensor {
    type Core = DynTensor;

    fn unfold(&self) -> Result<SparseMat> {
        Ok(self.matricize(0)?)
    }

    fn core(&self, u: &Mat, core_dims: &[usize]) -> Result<(DynTensor, f64)> {
        let n = core_dims.len();
        let mut g = DynTensor::new(core_dims.iter().map(|&c| c as u64).collect());
        let mut gidx = vec![0u64; n];
        for (idx, v) in self.iter() {
            let k = idx[0] as usize;
            gidx[..n - 1].copy_from_slice(&idx[1..]);
            for q in 0..core_dims[n - 1] {
                gidx[n - 1] = q as u64;
                let coef = u.get(k, q);
                if coef != 0.0 {
                    g.push(&gidx, v * coef)?;
                }
            }
        }
        let core = g.coalesce();
        let norm = core.fro_norm();
        Ok((core, norm))
    }
}

/// N-way Tucker-ALS (HOOI) on the DRI kernels — the paper's N-way Tucker
/// formulation (§II-B2) run through the §III framework: per mode, one
/// N-way `IMHP` job and one N-way `CrossMerge` job, then the driver-side
/// singular-vector kernel on the sparse matricized projection.
pub fn nway_tucker_als(
    cluster: &Cluster,
    x: &DynTensor,
    core_dims: &[usize],
    max_iters: usize,
    tol: f64,
    seed: u64,
) -> Result<NwayTuckerResult> {
    let n = x.order();
    if n < 3 {
        return invalid("Tucker needs order ≥ 3".into());
    }
    if core_dims.len() != n {
        return invalid(format!("expected {n} core dims, got {}", core_dims.len()));
    }
    for (m, (&c, &d)) in core_dims.iter().zip(x.dims()).enumerate() {
        if c == 0 || c as u64 > d {
            return invalid(format!("core dim {c} invalid for mode {m} of size {d}"));
        }
        let product: usize = core_dims
            .iter()
            .enumerate()
            .filter(|&(mm, _)| mm != m)
            .map(|(_, &cc)| cc)
            .product();
        if c > product {
            return invalid(format!(
                "core dim {c} for mode {m} exceeds the {product} matricized columns"
            ));
        }
    }

    let mark = cluster.jobs_run();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<Mat> = x
        .dims()
        .iter()
        .zip(core_dims)
        .map(|(&d, &c)| thin_qr(&Mat::random(d as usize, c, &mut rng)).map_err(CoreError::Linalg))
        .collect::<Result<_>>()?;
    let norm_x_sq = norm_sq(x);
    let (core, core_norms, iterations) = tucker_sweeps(
        &mut factors,
        core_dims,
        norm_x_sq.sqrt(),
        (max_iters, tol),
        (seed, 0),
        |mode, factors| nway_tucker_project(cluster, x, mode, &factors.iter().collect::<Vec<_>>()),
        |_, _, _| Ok(()),
    )?;
    Ok(NwayTuckerResult {
        core: core.unwrap_or_else(|| DynTensor::new(core_dims.iter().map(|&c| c as u64).collect())),
        factors,
        fit: tucker_fit(norm_x_sq, &core_norms),
        core_norms,
        iterations,
        metrics: cluster.metrics_since(mark),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_mapreduce::ClusterConfig;
    use haten2_tensor::ops::mttkrp_dense;
    use haten2_tensor::{CooTensor3, Entry3};
    use rand::Rng;

    fn random_dyn(dims: Vec<u64>, nnz: usize, seed: u64) -> DynTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = DynTensor::new(dims.clone());
        for _ in 0..nnz {
            let idx: Vec<u64> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
            t.push(&idx, rng.gen_range(0.5..2.0)).unwrap();
        }
        t.coalesce()
    }

    #[test]
    fn three_way_matches_reference_mttkrp() {
        let t3 = CooTensor3::from_entries(
            [4, 5, 3],
            (0..18)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(100 + s);
                    Entry3::new(
                        rng.gen_range(0..4),
                        rng.gen_range(0..5),
                        rng.gen_range(0..3),
                        rng.gen_range(0.5..2.0),
                    )
                })
                .collect(),
        )
        .unwrap();
        let x = DynTensor::from_coo3(&t3);
        let mut rng = StdRng::seed_from_u64(47);
        let a = Mat::random(4, 2, &mut rng);
        let b = Mat::random(5, 2, &mut rng);
        let c = Mat::random(3, 2, &mut rng);
        for mode in 0..3 {
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let m = nway_mttkrp(&cluster, &x, mode, &[&a, &b, &c]).unwrap();
            let want = mttkrp_dense(&t3, mode, [&a, &b, &c]).unwrap();
            assert!(m.approx_eq(&want, 1e-9), "mode {mode}");
            // DRI framework: exactly 2 jobs per MTTKRP.
            assert_eq!(cluster.metrics().total_jobs(), 2);
        }
    }

    #[test]
    fn four_way_mttkrp_matches_bruteforce() {
        let dims = vec![3, 4, 3, 2];
        let x = random_dyn(dims.clone(), 15, 49);
        let mut rng = StdRng::seed_from_u64(50);
        let rank = 2;
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| Mat::random(d as usize, rank, &mut rng))
            .collect();
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..4 {
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let m = nway_mttkrp(&cluster, &x, mode, &refs).unwrap();
            // Brute force: M(i, r) = Σ_entries v · Π_{m≠mode} F_m[ix_m, r].
            let mut want = Mat::zeros(dims[mode] as usize, rank);
            for (idx, v) in x.iter() {
                for r in 0..rank {
                    let mut p = v;
                    for (mm, f) in factors.iter().enumerate() {
                        if mm != mode {
                            p *= f.get(idx[mm] as usize, r);
                        }
                    }
                    want.add_at(idx[mode] as usize, r, p);
                }
            }
            assert!(m.approx_eq(&want, 1e-9), "mode {mode}");
        }
    }

    #[test]
    fn four_way_als_converges() {
        let x = random_dyn(vec![5, 4, 4, 3], 30, 51);
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let res = nway_parafac_als(&cluster, &x, 3, 8, 0.0, 7).unwrap();
        assert_eq!(res.factors.len(), 4);
        for w in res.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "fits {:?}", res.fits);
        }
        // 2 jobs × 4 modes × 8 sweeps.
        assert_eq!(res.metrics.total_jobs(), 64);
    }

    #[test]
    fn nway_tucker_project_matches_3way_kernel() {
        // The N-way projection specialised to 3 ways must agree with the
        // dedicated 3-way Tucker DRI kernel.
        let t3 = CooTensor3::from_entries(
            [4, 5, 3],
            (0..20)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(200 + s);
                    Entry3::new(
                        rng.gen_range(0..4),
                        rng.gen_range(0..5),
                        rng.gen_range(0..3),
                        rng.gen_range(0.5..2.0),
                    )
                })
                .collect(),
        )
        .unwrap();
        let x = DynTensor::from_coo3(&t3);
        let mut rng = StdRng::seed_from_u64(55);
        let a = Mat::random(4, 2, &mut rng);
        let b = Mat::random(5, 2, &mut rng);
        let c = Mat::random(3, 3, &mut rng);
        let factors = [&a, &b, &c];
        for mode in 0..3usize {
            let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let y = nway_tucker_project(&cluster, &x, mode, &factors).unwrap();
            assert_eq!(cluster.metrics().total_jobs(), 2);

            let cluster2 = Cluster::new(ClusterConfig::with_machines(3));
            let want = crate::tucker::project(
                &cluster2,
                crate::Variant::Dri,
                &t3,
                mode,
                &factors[others[0]].transpose(),
                &factors[others[1]].transpose(),
                &crate::tucker::ProjectOptions::default(),
            )
            .unwrap();
            assert_eq!(y.nnz(), want.nnz(), "mode {mode}");
            for (idx, v) in y.iter() {
                assert!(
                    (want.get(idx[0], idx[1], idx[2]) - v).abs() < 1e-9,
                    "mode {mode} at {idx:?}"
                );
            }
        }
    }

    #[test]
    fn four_way_tucker_converges_with_orthonormal_factors() {
        let x = random_dyn(vec![6, 5, 4, 3], 40, 57);
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let res = nway_tucker_als(&cluster, &x, &[2, 2, 2, 2], 5, 0.0, 9).unwrap();
        assert_eq!(res.factors.len(), 4);
        for f in &res.factors {
            assert!(f.gram().approx_eq(&Mat::identity(f.cols()), 1e-8));
        }
        for w in res.core_norms.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "core norms {:?}", res.core_norms);
        }
        assert!(res.fit >= 0.0 && res.fit <= 1.0);
        assert_eq!(res.core.dims(), &[2, 2, 2, 2]);
        // 2 jobs × 4 modes × 5 sweeps.
        assert_eq!(res.metrics.total_jobs(), 40);
    }

    #[test]
    fn four_way_tucker_exact_on_low_multilinear_rank() {
        // X = G ×₁ U₁ ... ×₄ U₄ with rank (2,2,2,2): Tucker recovers it.
        let mut rng = StdRng::seed_from_u64(58);
        let dims = [5usize, 4, 4, 3];
        let us: Vec<Mat> = dims
            .iter()
            .map(|&d| haten2_linalg::thin_qr(&Mat::random(d, 2, &mut rng)).unwrap())
            .collect();
        let mut g_core = vec![0.0; 16];
        for v in &mut g_core {
            *v = rng.gen_range(0.5..2.0);
        }
        let mut x = DynTensor::new(dims.iter().map(|&d| d as u64).collect());
        for i0 in 0..dims[0] {
            for i1 in 0..dims[1] {
                for i2 in 0..dims[2] {
                    for i3 in 0..dims[3] {
                        let mut v = 0.0;
                        for q0 in 0..2 {
                            for q1 in 0..2 {
                                for q2 in 0..2 {
                                    for q3 in 0..2 {
                                        v += g_core[q0 * 8 + q1 * 4 + q2 * 2 + q3]
                                            * us[0].get(i0, q0)
                                            * us[1].get(i1, q1)
                                            * us[2].get(i2, q2)
                                            * us[3].get(i3, q3);
                                    }
                                }
                            }
                        }
                        x.push(&[i0 as u64, i1 as u64, i2 as u64, i3 as u64], v)
                            .unwrap();
                    }
                }
            }
        }
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let res = nway_tucker_als(&cluster, &x, &[2, 2, 2, 2], 8, 1e-12, 13).unwrap();
        assert!(res.fit > 0.999, "fit = {}", res.fit);
    }

    /// Both kernel fronts share one validation: each must refuse `call`
    /// with a typed `InvalidArgument`.
    fn both_refuse(x: &DynTensor, mode: usize, factors: &[&Mat]) {
        let cluster = Cluster::with_defaults();
        let mttkrp = nway_mttkrp(&cluster, x, mode, factors).map(drop);
        let project = nway_tucker_project(&cluster, x, mode, factors).map(drop);
        for refused in [mttkrp, project] {
            assert!(matches!(refused, Err(CoreError::InvalidArgument(_))));
        }
        assert_eq!(cluster.metrics().total_jobs(), 0);
    }

    #[test]
    fn nway_tucker_argument_validation() {
        let x = random_dyn(vec![3, 3, 3], 5, 59);
        let f = Mat::zeros(3, 2);
        let cluster = Cluster::with_defaults();
        both_refuse(&x, 5, &[&f, &f, &f]);
        both_refuse(&x, 0, &[&f, &f]);
        // A join factor shorter than its mode.
        both_refuse(&x, 0, &[&f, &Mat::zeros(2, 2), &f]);
        // An order-1 tensor has no mode to join on.
        both_refuse(&random_dyn(vec![3], 2, 60), 0, &[&f]);
        // Unequal widths are a Tucker core, not an error; the ignored
        // target factor may be anything.
        let (wide, any) = (Mat::zeros(3, 3), Mat::zeros(1, 7));
        assert!(nway_tucker_project(&cluster, &x, 0, &[&any, &f, &wide]).is_ok());
        assert!(nway_tucker_als(&cluster, &x, &[2, 2], 2, 0.0, 1).is_err());
        assert!(nway_tucker_als(&cluster, &x, &[0, 2, 2], 2, 0.0, 1).is_err());
        assert!(nway_tucker_als(&cluster, &x, &[4, 2, 2], 2, 0.0, 1).is_err());
    }

    #[test]
    fn argument_validation() {
        let x = random_dyn(vec![3, 3, 3], 5, 53);
        let f = Mat::zeros(3, 2);
        let cluster = Cluster::with_defaults();
        assert!(nway_mttkrp(&cluster, &x, 5, &[&f, &f, &f]).is_err());
        assert!(nway_mttkrp(&cluster, &x, 0, &[&f, &f]).is_err());
        // The MTTKRP alone needs equally wide join factors.
        let (wide, any) = (Mat::zeros(3, 3), Mat::zeros(1, 7));
        assert!(nway_mttkrp(&cluster, &x, 0, &[&any, &f, &wide]).is_err());
        assert!(nway_mttkrp(&cluster, &x, 0, &[&any, &f, &f]).is_ok());
        assert!(nway_parafac_als(&cluster, &x, 0, 2, 0.0, 1).is_err());
    }

    #[test]
    fn an_order_two_tensor_has_one_side() {
        // A matrix: M = X·B for mode 0, Xᵀ·A for mode 1, and the
        // projection is the same product with its own column count.
        let x = random_dyn(vec![4, 5], 12, 61);
        let mut rng = StdRng::seed_from_u64(62);
        let factors = [Mat::random(4, 3, &mut rng), Mat::random(5, 3, &mut rng)];
        let refs: Vec<&Mat> = factors.iter().collect();
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        for mode in 0..2 {
            let other = &factors[1 - mode];
            let mut want = Mat::zeros(x.dims()[mode] as usize, 3);
            for (idx, v) in x.iter() {
                for r in 0..3 {
                    want.add_at(
                        idx[mode] as usize,
                        r,
                        v * other.get(idx[1 - mode] as usize, r),
                    );
                }
            }
            let m = nway_mttkrp(&cluster, &x, mode, &refs).unwrap();
            assert!(m.approx_eq(&want, 1e-12), "mode {mode}");
            let y = nway_tucker_project(&cluster, &x, mode, &refs).unwrap();
            assert_eq!(y.dims(), &[x.dims()[mode], 3]);
            for (idx, v) in y.iter() {
                assert!((want.get(idx[0] as usize, idx[1] as usize) - v).abs() < 1e-12);
            }
        }
    }
}
