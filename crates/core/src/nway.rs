//! N-way PARAFAC on the HaTen2-DRI framework.
//!
//! The paper defines PARAFAC, `PairwiseMerge` (Definition 4) and the
//! Hadamard expansions for general N-way tensors; this module is that
//! generalization: for each target mode the MTTKRP is computed as one
//! integrated Hadamard job (the N-way `IMHP`) producing the `N−1` expanded
//! tensors `T'₁ = X *̄ₘ₁ f`, `T''ₘ = bin(X) *̄ₘ f` and one `PairwiseMerge`
//! job joining them on the target-mode index — exactly two jobs per mode
//! regardless of rank, matching the DRI row of Table IV.
//!
//! A two-job chain has nothing to schedule, so the two jobs run one after
//! the other straight on the [`Cluster`], the second consuming the first's
//! output by value. There is no registered
//! [`haten2_mapreduce::JobGraph`] for the generic N-way pipeline, so the
//! jobs keep their explicit [`JobSpec::with_map_emit_hint`] overrides —
//! the documented escape hatch when no plan IR exists to derive hints
//! from.

use crate::{CoreError, Result};
use haten2_linalg::{pinv, Mat};
use haten2_mapreduce::{run_job, Cluster, EstimateSize, JobSite, JobSpec, RunMetrics};
use haten2_tensor::DynTensor;

/// Expanded record from the N-way IMHP job: `((side, full index, column),
/// value)`.
type ExpandedRecord = ((u8, Vec<u64>, u64), f64);
/// Per-side grouping of expanded records by full base index. Ordered map:
/// the crossmerge reducer iterates it into emits, so the grouping must be
/// hasher-independent for the output order to be deterministic.
type SideIndex<'a> = std::collections::BTreeMap<&'a [u64], Vec<(u64, f64)>>;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input record for the N-way IMHP job.
#[derive(Debug, Clone, PartialEq)]
enum NRec {
    /// Tensor entry: full index plus value.
    Ent(Vec<u64>, f64),
    /// Factor row for join side `side` (position among the non-target
    /// modes): `(side, mode index, row of length R)`.
    Row(u8, u64, Vec<f64>),
}

impl EstimateSize for NRec {
    fn est_bytes(&self) -> usize {
        1 + match self {
            NRec::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            NRec::Row(s, i, row) => s.est_bytes() + i.est_bytes() + row.est_bytes(),
        }
    }
}

/// Intermediate value for the N-way IMHP join.
#[derive(Debug, Clone, PartialEq)]
enum NVal {
    Ent(Vec<u64>, f64),
    Row(Vec<f64>),
}

impl EstimateSize for NVal {
    fn est_bytes(&self) -> usize {
        1 + match self {
            NVal::Ent(ix, v) => ix.est_bytes() + v.est_bytes(),
            NVal::Row(row) => row.est_bytes(),
        }
    }
}

/// Merge-side value: `(side, full index, rank column, value)`.
#[derive(Debug, Clone, PartialEq)]
struct NMergeVal {
    side: u8,
    ix: Vec<u64>,
    r: u64,
    v: f64,
}

impl EstimateSize for NMergeVal {
    fn est_bytes(&self) -> usize {
        1 + self.ix.est_bytes() + 8 + 8
    }
}

/// The integrated N-way Hadamard-expansion job shared by the N-way MTTKRP
/// and the N-way Tucker projection: one MapReduce job producing, for each
/// non-target mode (a "side"), the expanded records
/// `((side, full-index, column), value)` where side 0 carries
/// `X·factor` and the remaining sides carry the `bin(X)`-based factor
/// coefficients (Lemmas 1–2 generalized).
fn nway_imhp(
    site: &impl JobSite,
    x: &DynTensor,
    others: &[usize],
    factors: &[&Mat],
    mode: usize,
) -> haten2_mapreduce::Result<Vec<ExpandedRecord>> {
    let mut input: Vec<((), NRec)> = (0..x.nnz())
        .map(|e| ((), NRec::Ent(x.index(e).to_vec(), x.value(e))))
        .collect();
    for (side, &m) in others.iter().enumerate() {
        let f = factors[m];
        for idx in 0..f.rows() {
            input.push(((), NRec::Row(side as u8, idx as u64, f.row(idx).to_vec())));
        }
    }

    let out = run_job(
        site,
        // Each tensor entry emits once per non-target mode. Explicit hint:
        // there is no plan graph to derive it from.
        JobSpec::named(format!("nway-imhp-mode{mode}")).with_map_emit_hint(others.len().max(1)),
        &input,
        |_, rec: &NRec, emit| match rec {
            NRec::Ent(ix, v) => {
                for (side, &m) in others.iter().enumerate() {
                    emit((side as u8, ix[m]), NVal::Ent(ix.clone(), *v));
                }
            }
            NRec::Row(side, idx, row) => emit((*side, *idx), NVal::Row(row.clone())),
        },
        |key, vals, emit| {
            let (side, _) = *key;
            let mut row: Option<&Vec<f64>> = None;
            for v in &vals {
                if let NVal::Row(r) = v {
                    row = Some(r);
                }
            }
            let Some(row) = row else { return };
            for v in &vals {
                if let NVal::Ent(ix, val) = v {
                    for (r, &coef) in row.iter().enumerate() {
                        if coef == 0.0 {
                            continue;
                        }
                        // The first side carries X's values; the rest are
                        // bin(X)-based, carrying only the factor coefficient.
                        let out_v = if side == 0 { val * coef } else { coef };
                        emit((side, ix.clone(), r as u64), out_v);
                    }
                }
            }
        },
    )?;
    Ok(out)
}

/// The expanded records as the merge jobs' map input, taken by value: the
/// index vectors move, they are not cloned.
fn nway_merge_input(expanded: Vec<ExpandedRecord>) -> Vec<((), NMergeVal)> {
    expanded
        .into_iter()
        .map(|((side, ix, r), v)| ((), NMergeVal { side, ix, r, v }))
        .collect()
}

/// Distributed N-way MTTKRP for `mode`, DRI style (2 jobs).
///
/// `factors` supplies the factor matrix of every mode (the target one is
/// ignored); all must share the same column count `R`. Returns
/// `M ∈ ℝ^{dims[mode]×R}`.
pub fn nway_mttkrp(cluster: &Cluster, x: &DynTensor, mode: usize, factors: &[&Mat]) -> Result<Mat> {
    let n = x.order();
    if n < 2 {
        return Err(CoreError::InvalidArgument(
            "tensor order must be ≥ 2".into(),
        ));
    }
    if factors.len() != n {
        return Err(CoreError::InvalidArgument(format!(
            "expected {n} factors, got {}",
            factors.len()
        )));
    }
    if mode >= n {
        return Err(CoreError::InvalidArgument(format!(
            "mode {mode} out of range"
        )));
    }
    let others: Vec<usize> = (0..n).filter(|&m| m != mode).collect();
    let rank = factors[others[0]].cols();
    for &m in &others {
        if factors[m].rows() != x.dims()[m] as usize || factors[m].cols() != rank {
            return Err(CoreError::InvalidArgument(format!(
                "factor {m} is {}x{}, expected {}x{rank}",
                factors[m].rows(),
                factors[m].cols(),
                x.dims()[m]
            )));
        }
    }

    // IMHP, then PairwiseMerge over its output.
    let sides = others.len() as u8;
    let merge_input = nway_merge_input(nway_imhp(cluster, x, &others, factors, mode)?);
    let merged = run_job(
        cluster,
        JobSpec::named(format!("nway-pairwisemerge-mode{mode}")).with_map_emit_hint(1),
        &merge_input,
        move |_, rec: &NMergeVal, emit| emit(rec.ix[mode], rec.clone()),
        move |i, vals, emit| {
            use std::collections::BTreeMap;
            // Join on (full index, r): all sides must be present.
            // Ordered maps throughout — both are iterated on the
            // way to emits.
            let mut groups: BTreeMap<(&[u64], u64), (u8, f64)> = BTreeMap::new();
            for v in &vals {
                let e = groups.entry((v.ix.as_slice(), v.r)).or_insert((0, 1.0));
                e.0 += 1;
                e.1 *= v.v;
            }
            let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
            for ((_, r), (count, prod)) in groups {
                if count == sides {
                    *acc.entry(r).or_insert(0.0) += prod;
                }
            }
            for (r, y) in acc {
                if y != 0.0 {
                    emit((*i, r), y);
                }
            }
        },
    )?;

    let mut m = Mat::zeros(x.dims()[mode] as usize, rank);
    for ((i, r), v) in merged {
        m.add_at(i as usize, r as usize, v);
    }
    Ok(m)
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
    let n = x.order();
    if rank == 0 {
        return Err(CoreError::InvalidArgument("rank must be positive".into()));
    }
    if n < 3 {
        return Err(CoreError::InvalidArgument("PARAFAC needs order ≥ 3".into()));
    }
    let mark = cluster.jobs_run();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<Mat> = x
        .dims()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect();
    let mut lambda = vec![1.0; rank];
    let norm_x_sq: f64 = (0..x.nnz()).map(|e| x.value(e) * x.value(e)).sum();
    let norm_x = norm_x_sq.sqrt();

    let mut fits = Vec::new();
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let mut last_m: Option<Mat> = None;
        for mode in 0..n {
            let refs: Vec<&Mat> = factors.iter().collect();
            let m = nway_mttkrp(cluster, x, mode, &refs)?;
            // Hadamard product of all other Gram matrices.
            let mut g =
                Mat::from_vec(rank, rank, vec![1.0; rank * rank]).expect("square ones matrix");
            for (other, f) in factors.iter().enumerate() {
                if other != mode {
                    g = g.hadamard(&f.gram()).map_err(CoreError::Linalg)?;
                }
            }
            factors[mode] = m.matmul(&pinv(&g)?).map_err(CoreError::Linalg)?;
            lambda = factors[mode].normalize_columns();
            if mode == n - 1 {
                last_m = Some(m);
            }
        }

        let m = last_m.expect("modes swept");
        let f_last = &factors[n - 1];
        let mut inner = 0.0;
        for i in 0..f_last.rows() {
            for (r, &l) in lambda.iter().enumerate() {
                inner += m.get(i, r) * f_last.get(i, r) * l;
            }
        }
        let mut g_all =
            Mat::from_vec(rank, rank, vec![1.0; rank * rank]).expect("square ones matrix");
        for f in &factors {
            g_all = g_all.hadamard(&f.gram()).map_err(CoreError::Linalg)?;
        }
        let mut norm_model_sq = 0.0;
        for r in 0..rank {
            for s in 0..rank {
                norm_model_sq += lambda[r] * lambda[s] * g_all.get(r, s);
            }
        }
        let err_sq = (norm_x_sq + norm_model_sq - 2.0 * inner).max(0.0);
        let fit = if norm_x > 0.0 {
            1.0 - err_sq.sqrt() / norm_x
        } else {
            1.0
        };
        let prev = fits.last().copied();
        fits.push(fit);
        if let Some(p) = prev {
            if (fit - p).abs() < tol {
                break;
            }
        }
    }

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
    let n = x.order();
    if mode >= n {
        return Err(CoreError::InvalidArgument(format!(
            "mode {mode} out of range"
        )));
    }
    if factors.len() != n {
        return Err(CoreError::InvalidArgument(format!(
            "expected {n} factors, got {}",
            factors.len()
        )));
    }
    let others: Vec<usize> = (0..n).filter(|&m| m != mode).collect();
    for &m in &others {
        if factors[m].rows() != x.dims()[m] as usize {
            return Err(CoreError::InvalidArgument(format!(
                "factor {m} has {} rows for dim {}",
                factors[m].rows(),
                x.dims()[m]
            )));
        }
    }

    // IMHP, then CrossMerge over its output (per-side column counts may
    // differ).
    let sides = others.len();
    let merge_input = nway_merge_input(nway_imhp(cluster, x, &others, factors, mode)?);
    let merged = run_job(
        cluster,
        JobSpec::named(format!("nway-crossmerge-mode{mode}")).with_map_emit_hint(1),
        &merge_input,
        move |_, rec: &NMergeVal, emit| emit(rec.ix[mode], rec.clone()),
        move |i, vals, emit| {
            use std::collections::BTreeMap;
            // Group by side, then by full base index (ordered — iterated
            // into emits below).
            let mut by_side: Vec<SideIndex> = (0..sides).map(|_| SideIndex::new()).collect();
            for v in &vals {
                by_side[v.side as usize]
                    .entry(v.ix.as_slice())
                    .or_default()
                    .push((v.r, v.v));
            }
            let mut acc: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
            for (base, list0) in &by_side[0] {
                // All sides must cover this base (they do on supp(X)).
                let mut lists: Vec<&Vec<(u64, f64)>> = Vec::with_capacity(sides);
                lists.push(list0);
                let mut complete = true;
                for side_map in by_side.iter().skip(1) {
                    match side_map.get(base) {
                        Some(l) => lists.push(l),
                        None => {
                            complete = false;
                            break;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                // Cartesian product of the per-side (column, value) lists.
                let mut combos: Vec<(Vec<u64>, f64)> = vec![(Vec::new(), 1.0)];
                for l in lists {
                    let mut next = Vec::with_capacity(combos.len() * l.len());
                    for (q, p) in &combos {
                        for &(r, v) in l.iter() {
                            let mut q2 = q.clone();
                            q2.push(r);
                            next.push((q2, p * v));
                        }
                    }
                    combos = next;
                }
                for (q, p) in combos {
                    *acc.entry(q).or_insert(0.0) += p;
                }
            }
            for (q, y) in acc {
                if y != 0.0 {
                    emit((*i, q), y);
                }
            }
        },
    )?;

    let mut dims = vec![x.dims()[mode]];
    dims.extend(others.iter().map(|&m| factors[m].cols() as u64));
    let mut y = DynTensor::new(dims);
    let mut idx = Vec::with_capacity(n);
    for ((i, q), v) in merged {
        idx.clear();
        idx.push(i);
        idx.extend_from_slice(&q);
        y.push(&idx, v)?;
    }
    Ok(y.coalesce())
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
        return Err(CoreError::InvalidArgument("Tucker needs order ≥ 3".into()));
    }
    if core_dims.len() != n {
        return Err(CoreError::InvalidArgument(format!(
            "expected {n} core dims, got {}",
            core_dims.len()
        )));
    }
    for (m, (&c, &d)) in core_dims.iter().zip(x.dims()).enumerate() {
        if c == 0 || c as u64 > d {
            return Err(CoreError::InvalidArgument(format!(
                "core dim {c} invalid for mode {m} of size {d}"
            )));
        }
        let product: usize = core_dims
            .iter()
            .enumerate()
            .filter(|&(mm, _)| mm != m)
            .map(|(_, &cc)| cc)
            .product();
        if c > product {
            return Err(CoreError::InvalidArgument(format!(
                "core dim {c} for mode {m} exceeds the {product} matricized columns"
            )));
        }
    }

    let mark = cluster.jobs_run();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<Mat> = x
        .dims()
        .iter()
        .zip(core_dims)
        .map(|(&d, &c)| {
            haten2_linalg::thin_qr(&Mat::random(d as usize, c, &mut rng)).map_err(CoreError::Linalg)
        })
        .collect::<Result<_>>()?;
    let norm_x_sq: f64 = (0..x.nnz()).map(|e| x.value(e) * x.value(e)).sum();
    let norm_x = norm_x_sq.sqrt();

    let mut core = DynTensor::new(core_dims.iter().map(|&c| c as u64).collect());
    let mut core_norms: Vec<f64> = Vec::new();
    let mut iterations = 0;

    for sweep in 0..max_iters {
        iterations += 1;
        let mut last_y: Option<DynTensor> = None;
        for mode in 0..n {
            let refs: Vec<&Mat> = factors.iter().collect();
            let y = nway_tucker_project(cluster, x, mode, &refs)?;
            let y_mat = y.matricize(0).map_err(CoreError::Tensor)?;
            let sub_opts = haten2_linalg::SubspaceOptions {
                seed: seed ^ ((sweep as u64) << 8 | mode as u64),
            };
            factors[mode] =
                haten2_linalg::leading_left_singular_vectors(&y_mat, core_dims[mode], &sub_opts)
                    .map_err(CoreError::Linalg)?;
            if mode == n - 1 {
                last_y = Some(y);
            }
        }

        // Core from the final projection Y (dims [d_{N-1}, c_0..c_{N-2}]):
        // G(q_0..q_{N-1}) = Σ_k Y(k, q_0..q_{N-2}) U_{N-1}(k, q_{N-1}).
        let y = last_y.expect("modes swept");
        let u_last = &factors[n - 1];
        let c_last = core_dims[n - 1];
        let mut g = DynTensor::new(core_dims.iter().map(|&c| c as u64).collect());
        let mut gidx = vec![0u64; n];
        for e in 0..y.nnz() {
            let idx = y.index(e);
            let k = idx[0] as usize;
            let v = y.value(e);
            gidx[..n - 1].copy_from_slice(&idx[1..]);
            for q in 0..c_last {
                gidx[n - 1] = q as u64;
                let coef = u_last.get(k, q);
                if coef != 0.0 {
                    g.push(&gidx, v * coef)?;
                }
            }
        }
        core = g.coalesce();

        let norm_g = core.fro_norm();
        let prev = core_norms.last().copied();
        core_norms.push(norm_g);
        if let Some(p) = prev {
            if (norm_g - p).abs() < tol * norm_x.max(1.0) {
                break;
            }
        }
    }

    let norm_g = core_norms.last().copied().unwrap_or(0.0);
    let err_sq = (norm_x_sq - norm_g * norm_g).max(0.0);
    let fit = if norm_x > 0.0 {
        1.0 - err_sq.sqrt() / norm_x
    } else {
        1.0
    };
    Ok(NwayTuckerResult {
        core,
        factors,
        core_norms,
        iterations,
        fit,
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

    #[test]
    fn nway_tucker_argument_validation() {
        let x = random_dyn(vec![3, 3, 3], 5, 59);
        let f = Mat::zeros(3, 2);
        let cluster = Cluster::with_defaults();
        assert!(nway_tucker_project(&cluster, &x, 5, &[&f, &f, &f]).is_err());
        assert!(nway_tucker_project(&cluster, &x, 0, &[&f, &f]).is_err());
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
        assert!(nway_parafac_als(&cluster, &x, 0, 2, 0.0, 1).is_err());
    }
}
