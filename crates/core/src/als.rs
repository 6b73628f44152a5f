//! Alternating-least-squares drivers: PARAFAC-ALS (Algorithm 1) and
//! Tucker-ALS (Algorithm 2) on top of the distributed HaTen2 kernels.
//!
//! The distributed work — MTTKRP for PARAFAC, the two-sided projection for
//! Tucker — goes through the [`crate::parafac`] / [`crate::tucker`] kernels
//! with the configured [`Variant`]; PARAFAC-ALS folds each `M` into the
//! factor it replaces. Each kernel invocation submits its jobs
//! as one [`haten2_mapreduce::Batch`], so the per-column jobs of a sweep
//! run concurrently on the shared worker pool when the cluster's
//! [`haten2_mapreduce::SchedulerMode`] is `Dag` (the default) — with
//! outputs, DFS traffic, and metrics bit-identical to sequential
//! execution. The small dense driver-side steps (pseudoinverse of the
//! `R×R` Hadamard Gram matrix, leading singular vectors of the `Iₙ×QR`
//! matricized projection, column normalization) use `haten2-linalg`,
//! mirroring how the Hadoop implementation kept these on the master; the
//! optional distributed fit job runs cluster-direct, outside any batch.

use crate::canon::CanonicalRecords;
use crate::ops::model_inner_product_job;
use crate::records::tensor_records;
use crate::tucker::ProjectOptions;
use crate::{parafac, tucker, CoreError, Result, Variant};
use haten2_linalg::{leading_left_singular_vectors, pinv, thin_qr, Mat, SubspaceOptions};
use haten2_mapreduce::{Cluster, RunMetrics};
use haten2_tensor::{CooTensor3, DenseTensor3, SparseMat};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options shared by both ALS drivers.
#[derive(Debug, Clone)]
pub struct AlsOptions {
    /// Which HaTen2 variant performs the distributed kernels.
    pub variant: Variant,
    /// Maximum outer (sweep) iterations `T`.
    pub max_iters: usize,
    /// Convergence tolerance: stop when the fit (PARAFAC) or `‖G‖`
    /// (Tucker) changes by less than this between sweeps.
    pub tol: f64,
    /// Seed for factor initialization.
    pub seed: u64,
    /// Use a map-side combiner in Collapse jobs (ablation knob). Only
    /// Tucker's Collapse jobs honour it: [`crate::parafac::mttkrp`] binds
    /// `use_combiner: false`, so PARAFAC-ALS ignores the field.
    pub use_combiner: bool,
    /// Evaluate the PARAFAC fit's inner product `⟨X, X̂⟩` as a MapReduce
    /// job (as the Hadoop implementation does) instead of on the driver.
    /// Adds one job per sweep; results are identical.
    pub distributed_fit: bool,
    /// When set, save a checkpoint (factors + sweep marker) under this
    /// path prefix after every completed sweep, so a mid-run crash
    /// recomputes no finished sweep and can resume via
    /// [`crate::checkpoint::parafac_als_checkpointed`] /
    /// [`crate::checkpoint::tucker_als_checkpointed`].
    pub checkpoint_prefix: Option<String>,
    /// Absolute index of the first sweep this call runs (non-zero when
    /// resuming from a checkpoint). Keeps sweep-seeded randomness — the
    /// Tucker singular-vector kernel's seeds — aligned with the uninterrupted
    /// run, which is what makes resumed results bit-identical.
    pub first_sweep: usize,
}

impl Default for AlsOptions {
    fn default() -> Self {
        AlsOptions {
            variant: Variant::Dri,
            max_iters: 20,
            tol: 1e-4,
            seed: 0x5eed,
            use_combiner: false,
            distributed_fit: false,
            checkpoint_prefix: None,
            first_sweep: 0,
        }
    }
}

impl AlsOptions {
    /// Options running a specific variant with defaults otherwise.
    pub fn with_variant(variant: Variant) -> Self {
        AlsOptions {
            variant,
            ..Default::default()
        }
    }
}

/// Result of [`parafac_als`].
#[derive(Debug, Clone)]
pub struct ParafacResult {
    /// Column norms `λ ∈ ℝ^R` (Algorithm 1's normalization weights).
    pub lambda: Vec<f64>,
    /// Factor matrices `A ∈ ℝ^{I×R}`, `B ∈ ℝ^{J×R}`, `C ∈ ℝ^{K×R}` with
    /// unit-norm columns.
    pub factors: [Mat; 3],
    /// Fit `1 − ‖X − X̂‖/‖X‖` after each sweep.
    pub fits: Vec<f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// MapReduce metrics for the whole decomposition.
    pub metrics: RunMetrics,
}

impl ParafacResult {
    /// Final fit (0 when no sweep ran).
    pub fn fit(&self) -> f64 {
        self.fits.last().copied().unwrap_or(0.0)
    }

    /// Model value `X̂(i,j,k) = Σ_r λ_r A(i,r) B(j,r) C(k,r)`.
    pub fn predict(&self, i: u64, j: u64, k: u64) -> f64 {
        let [a, b, c] = &self.factors;
        (0..self.lambda.len())
            .map(|r| {
                self.lambda[r] * a.get(i as usize, r) * b.get(j as usize, r) * c.get(k as usize, r)
            })
            .sum()
    }
}

/// 3-way PARAFAC-ALS (paper Algorithm 1).
///
/// Each sweep updates the three factors in turn:
/// `A ← X₍₁₎(C ⊙ B)(CᵀC * BᵀB)†` (and cyclically), with the MTTKRP
/// executed distributedly by the configured variant, then normalizes
/// columns into `λ`.
///
/// ```
/// use haten2_core::{parafac_als, AlsOptions, Variant};
/// use haten2_mapreduce::{Cluster, ClusterConfig};
/// use haten2_tensor::{CooTensor3, Entry3};
///
/// // A rank-1 tensor: X(i,j,k) = a_i b_j c_k.
/// let mut entries = Vec::new();
/// for i in 0..4u64 {
///     for j in 0..3u64 {
///         for k in 0..2u64 {
///             let v = (i + 1) as f64 * (j + 1) as f64 * (k + 1) as f64;
///             entries.push(Entry3::new(i, j, k, v));
///         }
///     }
/// }
/// let x = CooTensor3::from_entries([4, 3, 2], entries).unwrap();
///
/// let cluster = Cluster::new(ClusterConfig::with_machines(4));
/// let opts = AlsOptions { max_iters: 10, tol: 1e-10, ..AlsOptions::with_variant(Variant::Dri) };
/// let res = parafac_als(&cluster, &x, 1, &opts).unwrap();
/// assert!(res.fit() > 0.9999);
/// assert!((res.predict(3, 2, 1) - 24.0).abs() < 1e-6);
/// ```
pub fn parafac_als(
    cluster: &Cluster,
    x: &CooTensor3,
    rank: usize,
    opts: &AlsOptions,
) -> Result<ParafacResult> {
    parafac_als_with_init(cluster, x, rank, opts, None)
}

/// [`parafac_als`] with an optional warm start: when `init` is given, the
/// sweeps continue from those factors instead of a random initialization
/// (checkpoint/resume, or refining a compressed solution).
pub fn parafac_als_with_init(
    cluster: &Cluster,
    x: &CooTensor3,
    rank: usize,
    opts: &AlsOptions,
    init: Option<[Mat; 3]>,
) -> Result<ParafacResult> {
    if rank == 0 {
        return Err(CoreError::InvalidArgument("rank must be positive".into()));
    }
    let dims = x.dims();
    if let Some(init) = &init {
        for (n, f) in init.iter().enumerate() {
            if f.rows() != dims[n] as usize || f.cols() != rank {
                return Err(CoreError::InvalidArgument(format!(
                    "init factor {n} is {}x{}, expected {}x{rank}",
                    f.rows(),
                    f.cols(),
                    dims[n]
                )));
            }
        }
    }
    let mark = cluster.jobs_run();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut factors = init.unwrap_or_else(|| {
        [
            Mat::random(dims[0] as usize, rank, &mut rng),
            Mat::random(dims[1] as usize, rank, &mut rng),
            Mat::random(dims[2] as usize, rank, &mut rng),
        ]
    });
    // Every mode's records are built in this one call-owned buffer.
    let mut canon = CanonicalRecords::default();
    let (lambda, fits, iterations) = parafac_sweeps(
        &mut factors,
        x.fro_norm_sq(),
        (opts.max_iters, opts.tol),
        |mode, factors, out| {
            let (f1, f2) = others_of(factors, mode);
            parafac::mttkrp_into(cluster, opts.variant, x, mode, [f1, f2], &mut canon, out)
        },
        // ⟨X, X̂⟩ recomputed as a MapReduce job when configured.
        |factors, lambda| {
            let job = opts.distributed_fit.then(|| {
                let (x_records, abc) = (tensor_records(x), [&factors[0], &factors[1], &factors[2]]);
                model_inner_product_job(cluster, "parafac-fit", &x_records, abc, lambda)
            });
            Ok(job.transpose()?)
        },
        |sweep, lambda, factors| {
            let abc = factors.try_into().expect("three factors");
            crate::checkpoint::maybe_save_parafac(cluster, opts, sweep, lambda, abc)
        },
    )?;

    Ok(ParafacResult {
        lambda,
        factors,
        fits,
        iterations,
        metrics: cluster.metrics_since(mark),
    })
}

/// The factors of the two modes other than `mode`, ascending.
fn others_of(factors: &[Mat], mode: usize) -> (&Mat, &Mat) {
    let other = |nth: usize| &factors[nth + usize::from(nth >= mode)];
    (other(0), other(1))
}

/// The PARAFAC-ALS loop (Algorithm 1) over any number of modes: the one
/// body behind [`parafac_als_with_init`] and [`crate::nway::nway_parafac_als`].
///
/// The front owns what differs between them. `factors` are its starting
/// factors, each updated in its own storage. `mttkrp(mode, factors, out)`
/// is its kernel call: it folds `M` into `out`, the factor `M` replaces,
/// lifted out of `factors` for the call (a kernel reads only the other
/// factors; an empty matrix holds the place). The update
/// `M·(Hadamard of the other Grams)†` then runs in that storage too, so a
/// sweep takes no fresh memory for `M`, its product or the new factor;
/// only the last mode's `M` is copied, for the fit.
/// `model_inner(factors, λ)` may supply `⟨X, X̂⟩` from elsewhere (the
/// distributed fit) — `None` takes it from the sweep's last MTTKRP, which
/// is free. `sweep_done(sweep, λ, factors)` runs after a sweep's fit is
/// recorded and before convergence is tested (checkpointing). Returns
/// `(λ, fits, sweeps run)`.
pub(crate) fn parafac_sweeps(
    factors: &mut [Mat],
    norm_x_sq: f64,
    (max_iters, tol): (usize, f64),
    mut mttkrp: impl FnMut(usize, &[Mat], &mut Mat) -> Result<()>,
    mut model_inner: impl FnMut(&[Mat], &[f64]) -> Result<Option<f64>>,
    mut sweep_done: impl FnMut(usize, &[f64], &[Mat]) -> Result<()>,
) -> Result<(Vec<f64>, Vec<f64>, usize)> {
    let last = factors.len() - 1;
    let rank = factors[last].cols();
    let mut grams = Grams(vec![None; factors.len()]);
    let mut lambda = vec![1.0; rank];
    let norm_x = norm_x_sq.sqrt();

    let mut fits: Vec<f64> = Vec::new();
    let mut iterations = 0;
    for sweep in 0..max_iters {
        iterations += 1;
        let mut last_mttkrp: Option<Mat> = None;
        for mode in 0..=last {
            let mut m = std::mem::replace(&mut factors[mode], Mat::zeros(0, 0));
            let folded = mttkrp(mode, factors, &mut m);
            factors[mode] = m;
            folded?;
            // Only the last is copied: an earlier `M` held across the next
            // kernel call would sit under its peak memory.
            if mode == last {
                last_mttkrp = Some(factors[mode].clone());
            }
            // A ← M·(F₁ᵀF₁ * F₂ᵀF₂ * …)†, in M's storage.
            let g = grams.product(factors, Some(mode))?;
            factors[mode]
                .matmul_in_place(&pinv(&g)?)
                .map_err(CoreError::Linalg)?;
            lambda = factors[mode].normalize_columns();
            grams.changed(mode);
        }

        // Fit: ⟨X, X̂⟩ from the last MTTKRP (driver-side, free) unless the
        // front computes it.
        let inner = match model_inner(factors, &lambda)? {
            Some(inner) => inner,
            None => {
                let m = last_mttkrp.as_ref().expect("every mode was swept");
                let c = &factors[last];
                let mut inner = 0.0;
                for k in 0..c.rows() {
                    for (r, &l) in lambda.iter().enumerate() {
                        inner += m.get(k, r) * c.get(k, r) * l;
                    }
                }
                inner
            }
        };
        // ‖X̂‖² = λᵀ (AᵀA * BᵀB * CᵀC * …) λ.
        let g_all = grams.product(factors, None)?;
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
        sweep_done(sweep, &lambda, factors)?;
        if let Some(p) = prev {
            if (fit - p).abs() < tol {
                break;
            }
        }
    }
    Ok((lambda, fits, iterations))
}

/// Each factor's Gram matrix `FᵀF`, computed when first read and again
/// only after the factor changes. An N-way ALS sweep then computes one
/// Gram per factor update — the first sweep N − 1 more — where each
/// update read N − 1 fresh ones and the fit N.
struct Grams(Vec<Option<Mat>>);

impl Grams {
    /// The Hadamard product of the Gram matrices of every factor but
    /// `skip`, in mode order.
    fn product(&mut self, factors: &[Mat], skip: Option<usize>) -> Result<Mat> {
        let modes = || (0..factors.len()).filter(move |&m| Some(m) != skip);
        for m in modes() {
            self.0[m].get_or_insert_with(|| factors[m].gram());
        }
        let mut grams = modes().map(|m| self.0[m].as_ref().expect("computed above"));
        let first = grams.next().expect("at least two factors").clone();
        grams
            .try_fold(first, |g, next| g.hadamard(next))
            .map_err(CoreError::Linalg)
    }

    /// Factor `mode` was updated: its Gram is recomputed when next read.
    fn changed(&mut self, mode: usize) {
        self.0[mode] = None;
    }
}

/// Result of [`tucker_als`].
#[derive(Debug, Clone)]
pub struct TuckerResult {
    /// Core tensor `G ∈ ℝ^{P×Q×R}`.
    pub core: DenseTensor3,
    /// Orthonormal factor matrices `A ∈ ℝ^{I×P}`, `B ∈ ℝ^{J×Q}`,
    /// `C ∈ ℝ^{K×R}`.
    pub factors: [Mat; 3],
    /// `‖G‖` after each sweep (Algorithm 2's convergence quantity).
    pub core_norms: Vec<f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Fit `1 − ‖X − X̂‖/‖X‖` (uses `‖X̂‖ = ‖G‖`, valid for orthonormal
    /// factors).
    pub fit: f64,
    /// MapReduce metrics for the whole decomposition.
    pub metrics: RunMetrics,
}

/// 3-way Tucker-ALS (paper Algorithm 2), HOOI-style.
///
/// Each sweep recomputes, for every mode, the projection of `X` onto the
/// other two factors (distributed, per the configured variant) and takes
/// the leading left singular vectors of its matricization (driver-side,
/// from the small Gram matrix of the sparse matricized operator — never
/// densified). Terminates when `‖G‖` stops increasing.
pub fn tucker_als(
    cluster: &Cluster,
    x: &CooTensor3,
    core_dims: [usize; 3],
    opts: &AlsOptions,
) -> Result<TuckerResult> {
    tucker_als_with_init(cluster, x, core_dims, opts, None)
}

/// [`tucker_als`] with an optional warm start for the mode-1/mode-2
/// factors `[B, C]` (mode-0 is recomputed first in every sweep, so only
/// the trailing factors seed the iteration).
pub fn tucker_als_with_init(
    cluster: &Cluster,
    x: &CooTensor3,
    core_dims: [usize; 3],
    opts: &AlsOptions,
    init_bc: Option<[Mat; 2]>,
) -> Result<TuckerResult> {
    let dims = x.dims();
    let [p_dim, q_dim, r_dim] = core_dims;
    for (n, (&cd, &d)) in core_dims.iter().zip(dims.iter()).enumerate() {
        if cd == 0 || cd as u64 > d {
            return Err(CoreError::InvalidArgument(format!(
                "core dim {cd} invalid for mode {n} of size {d}"
            )));
        }
    }
    // Leading-left-singular-vector extraction needs core_dims[n] ≤ product
    // of the other two core dims (columns of the matricized projection).
    let products = [q_dim * r_dim, p_dim * r_dim, p_dim * q_dim];
    for n in 0..3 {
        if core_dims[n] > products[n] {
            return Err(CoreError::InvalidArgument(format!(
                "core dim {} for mode {n} exceeds the {} columns of the matricized projection",
                core_dims[n], products[n]
            )));
        }
    }

    if let Some(init) = &init_bc {
        let expect = [(dims[1] as usize, q_dim), (dims[2] as usize, r_dim)];
        for (n, (f, &(rows, cols))) in init.iter().zip(expect.iter()).enumerate() {
            if f.rows() != rows || f.cols() != cols {
                return Err(CoreError::InvalidArgument(format!(
                    "init factor {} is {}x{}, expected {rows}x{cols}",
                    n + 1,
                    f.rows(),
                    f.cols()
                )));
            }
        }
    }
    let mark = cluster.jobs_run();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Initialize B and C with orthonormal columns (A is computed first).
    let mut factors = match init_bc {
        Some([b, c]) => [Mat::zeros(dims[0] as usize, p_dim), b, c],
        None => [
            Mat::zeros(dims[0] as usize, p_dim),
            thin_qr(&Mat::random(dims[1] as usize, q_dim, &mut rng))?,
            thin_qr(&Mat::random(dims[2] as usize, r_dim, &mut rng))?,
        ],
    };
    let norm_x_sq = x.fro_norm_sq();
    let project_opts = ProjectOptions {
        use_combiner: opts.use_combiner,
    };
    let (core, core_norms, iterations) = tucker_sweeps(
        &mut factors,
        &core_dims,
        norm_x_sq.sqrt(),
        (opts.max_iters, opts.tol),
        (opts.seed, opts.first_sweep),
        |mode, factors| {
            let (f1, f2) = others_of(factors, mode);
            tucker::project_rows(cluster, opts.variant, x, mode, f1, f2, &project_opts)
        },
        |sweep, core, factors| {
            let abc = factors.try_into().expect("three factors");
            crate::checkpoint::maybe_save_tucker(cluster, opts, sweep, core, abc)
        },
    )?;

    Ok(TuckerResult {
        core: core.unwrap_or_else(|| DenseTensor3::zeros(core_dims)),
        factors,
        fit: tucker_fit(norm_x_sq, &core_norms),
        core_norms,
        iterations,
        metrics: cluster.metrics_since(mark),
    })
}

/// What the Tucker-ALS loop reads of a projection `Y` whose first mode is
/// the target mode and whose other modes are the other factors' columns,
/// ascending.
pub(crate) trait Projection {
    /// The core tensor this projection contracts to.
    type Core;

    /// `Y₍₀₎`, sparse.
    fn unfold(&self) -> Result<SparseMat>;

    /// For the sweep's last projection — mode `N−1` leading, then
    /// `q₀ … q_{N−2}` — and that mode's new factor `u`: the core
    /// `G(q₀ … q_{N−1}) = Σ_k Y(k, q₀ … q_{N−2})·u(k, q_{N−1})`, with `‖G‖`.
    fn core(&self, u: &Mat, core_dims: &[usize]) -> Result<(Self::Core, f64)>;
}

impl Projection for CooTensor3 {
    type Core = DenseTensor3;

    fn unfold(&self) -> Result<SparseMat> {
        Ok(self.matricize(0)?)
    }

    fn core(&self, c: &Mat, core_dims: &[usize]) -> Result<(DenseTensor3, f64)> {
        let core_dims: [usize; 3] = core_dims.try_into().expect("three core dims");
        let mut core = DenseTensor3::zeros(core_dims);
        for e in self.entries() {
            let (k, p, q) = (e.i as usize, e.j as usize, e.k as usize);
            for r in 0..core_dims[2] {
                core.add_at(p, q, r, e.v * c.get(k, r));
            }
        }
        let norm = core.fro_norm();
        Ok((core, norm))
    }
}

/// The Tucker-ALS loop (Algorithm 2, HOOI) over any number of modes: the
/// one body behind [`tucker_als_with_init`] and
/// [`crate::nway::nway_tucker_als`].
///
/// The front owns what differs between them. `factors` are its starting
/// factors, updated in place (mode 0 is recomputed before it is read);
/// `project(mode, factors)` is its kernel call; `sweep_done(sweep, core,
/// factors)` runs after a sweep's `‖G‖` is recorded and before convergence
/// is tested (checkpointing). The singular-vector kernel is seeded by the
/// *absolute* sweep index `first_sweep + sweep`, so a checkpoint-resumed
/// run replays the identical seed sequence. Returns `(core of the last
/// sweep, ‖G‖ per sweep, sweeps run)`.
pub(crate) fn tucker_sweeps<Y: Projection>(
    factors: &mut [Mat],
    core_dims: &[usize],
    norm_x: f64,
    (max_iters, tol): (usize, f64),
    (seed, first_sweep): (u64, usize),
    mut project: impl FnMut(usize, &[Mat]) -> Result<Y>,
    mut sweep_done: impl FnMut(usize, &Y::Core, &[Mat]) -> Result<()>,
) -> Result<(Option<Y::Core>, Vec<f64>, usize)> {
    let last = factors.len() - 1;
    let mut core = None;
    let mut core_norms: Vec<f64> = Vec::new();
    let mut iterations = 0;

    for sweep in 0..max_iters {
        iterations += 1;
        let mut last_y: Option<Y> = None;
        for mode in 0..=last {
            let y = project(mode, factors)?;
            // Leading left singular vectors of Y₍₁₎ (canonical mode 0).
            let y_mat = y.unfold()?;
            let abs_sweep = (first_sweep + sweep) as u64;
            let sub_opts = SubspaceOptions {
                seed: seed ^ (abs_sweep << 8 | mode as u64),
            };
            factors[mode] = leading_left_singular_vectors(&y_mat, core_dims[mode], &sub_opts)?;
            if mode == last {
                last_y = Some(y);
            }
        }

        let y = last_y.expect("every mode was swept");
        let (g, norm_g) = y.core(&factors[last], core_dims)?;
        let prev = core_norms.last().copied();
        core_norms.push(norm_g);
        sweep_done(sweep, &g, factors)?;
        core = Some(g);
        if let Some(p) = prev {
            if (norm_g - p).abs() < tol * norm_x.max(1.0) {
                break;
            }
        }
    }
    Ok((core, core_norms, iterations))
}

/// Fit `1 − ‖X − X̂‖/‖X‖` of a Tucker model with orthonormal factors, for
/// which `‖X̂‖ = ‖G‖`: the last of `core_norms` (0 when no sweep ran).
pub(crate) fn tucker_fit(norm_x_sq: f64, core_norms: &[f64]) -> f64 {
    let norm_g = core_norms.last().copied().unwrap_or(0.0);
    let err_sq = (norm_x_sq - norm_g * norm_g).max(0.0);
    let norm_x = norm_x_sq.sqrt();
    if norm_x > 0.0 {
        1.0 - err_sq.sqrt() / norm_x
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_mapreduce::ClusterConfig;
    use haten2_tensor::Entry3;
    use rand::Rng;

    #[test]
    fn cached_grams_are_the_fresh_products_bit_for_bit() {
        // Two sweeps of updates over three factors: every product the loop
        // reads equals the one computed from scratch in mode order, and
        // only the Gram of the factor just updated is ever dropped.
        let mut rng = StdRng::seed_from_u64(3);
        let mut factors: Vec<Mat> = (0..3).map(|n| Mat::random(4 + n, 3, &mut rng)).collect();
        let fresh = |factors: &[Mat], skip: Option<usize>| {
            let mut grams = (0..3)
                .filter(|&m| Some(m) != skip)
                .map(|m| factors[m].gram());
            let first = grams.next().unwrap();
            grams.fold(first, |g, next| g.hadamard(&next).unwrap())
        };
        let held = |grams: &Grams| grams.0.iter().map(Option::is_some).collect::<Vec<_>>();
        let mut grams = Grams(vec![None; 3]);
        for _ in 0..2 {
            for mode in 0..3 {
                let got = grams.product(&factors, Some(mode)).unwrap();
                assert_eq!(
                    got.data(),
                    fresh(&factors, Some(mode)).data(),
                    "mode {mode}"
                );
                factors[mode] = Mat::random(factors[mode].rows(), 3, &mut rng);
                grams.changed(mode);
                let mut want = vec![true; 3];
                want[mode] = false;
                assert_eq!(held(&grams), want, "mode {mode}");
            }
            let got = grams.product(&factors, None).unwrap();
            assert_eq!(got.data(), fresh(&factors, None).data());
            assert_eq!(held(&grams), [true; 3]);
        }
    }

    #[test]
    fn parafac_updates_each_factor_in_the_storage_it_was_given() {
        // `M`, its product with the pseudoinverse and the normalised factor
        // all live where the initial factor did: no sweep swaps in a fresh
        // allocation.
        let x = sparse_random([6, 5, 4], 30, 49);
        for variant in [Variant::Dri, Variant::Dnn] {
            let mut rng = StdRng::seed_from_u64(50);
            let init = [6, 5, 4].map(|rows| Mat::random(rows, 3, &mut rng));
            let storage = init.each_ref().map(|f| f.data().as_ptr());
            let opts = AlsOptions {
                max_iters: 1,
                tol: 0.0,
                ..AlsOptions::with_variant(variant)
            };
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let res = parafac_als_with_init(&cluster, &x, 3, &opts, Some(init)).unwrap();
            assert_eq!(res.iterations, 1, "{variant}");
            let returned = res.factors.each_ref().map(|f| f.data().as_ptr());
            assert_eq!(returned, storage, "{variant}");
        }
    }

    /// A low-rank tensor: X = Σ_r a_r ∘ b_r ∘ c_r with known rank.
    fn low_rank_tensor(dims: [u64; 3], rank: usize, seed: u64) -> CooTensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::random(dims[0] as usize, rank, &mut rng);
        let b = Mat::random(dims[1] as usize, rank, &mut rng);
        let c = Mat::random(dims[2] as usize, rank, &mut rng);
        let mut entries = Vec::new();
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                for k in 0..dims[2] {
                    let v: f64 = (0..rank)
                        .map(|r| a.get(i as usize, r) * b.get(j as usize, r) * c.get(k as usize, r))
                        .sum();
                    entries.push(Entry3::new(i, j, k, v));
                }
            }
        }
        CooTensor3::from_entries(dims, entries).unwrap()
    }

    fn sparse_random(dims: [u64; 3], nnz: usize, seed: u64) -> CooTensor3 {
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

    #[test]
    fn parafac_recovers_low_rank_tensor() {
        let x = low_rank_tensor([6, 5, 4], 2, 31);
        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        let opts = AlsOptions {
            max_iters: 60,
            tol: 1e-9,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let res = parafac_als(&cluster, &x, 2, &opts).unwrap();
        assert!(res.fit() > 0.999, "fit = {}", res.fit());
        // Model reproduces entries.
        for e in x.entries().iter().take(10) {
            assert!((res.predict(e.i, e.j, e.k) - e.v).abs() < 0.05 * e.v.abs().max(0.1));
        }
    }

    #[test]
    fn parafac_fit_nondecreasing_mostly() {
        let x = sparse_random([8, 8, 8], 60, 33);
        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        let opts = AlsOptions {
            max_iters: 10,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let res = parafac_als(&cluster, &x, 3, &opts).unwrap();
        // ALS fit is monotone up to tiny numerical noise.
        for w in res.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "fits decreased: {:?}", res.fits);
        }
    }

    #[test]
    fn parafac_variants_agree() {
        let x = sparse_random([5, 4, 4], 25, 35);
        let mut results = Vec::new();
        for variant in Variant::ALL {
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let opts = AlsOptions {
                max_iters: 4,
                tol: 0.0,
                ..AlsOptions::with_variant(variant)
            };
            let res = parafac_als(&cluster, &x, 2, &opts).unwrap();
            results.push((variant, res));
        }
        // Same seed + exact same math => identical trajectories.
        let reference = &results[0].1;
        for (variant, res) in &results[1..] {
            for (f1, f2) in reference.fits.iter().zip(&res.fits) {
                assert!(
                    (f1 - f2).abs() < 1e-8,
                    "{variant} fit trajectory diverged: {f1} vs {f2}"
                );
            }
        }
    }

    #[test]
    fn tucker_exact_on_low_multilinear_rank() {
        let x = low_rank_tensor([6, 5, 4], 2, 37);
        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        let opts = AlsOptions {
            max_iters: 30,
            tol: 1e-10,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let res = tucker_als(&cluster, &x, [2, 2, 2], &opts).unwrap();
        assert!(res.fit > 0.999, "fit = {}", res.fit);
        // Factors orthonormal.
        for f in &res.factors {
            let g = f.gram();
            assert!(g.approx_eq(&Mat::identity(g.rows()), 1e-8));
        }
        // Reconstruction matches.
        let recon = DenseTensor3::tucker_reconstruct(
            &res.core,
            &res.factors[0],
            &res.factors[1],
            &res.factors[2],
        )
        .unwrap();
        let dense = DenseTensor3::from_coo(&x).unwrap();
        assert!(recon.approx_eq(&dense, 1e-6 * x.fro_norm()));
    }

    #[test]
    fn tucker_core_norm_nondecreasing() {
        let x = sparse_random([8, 7, 6], 50, 39);
        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        let opts = AlsOptions {
            max_iters: 8,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let res = tucker_als(&cluster, &x, [2, 2, 2], &opts).unwrap();
        for w in res.core_norms.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "core norms decreased: {:?}",
                res.core_norms
            );
        }
        assert!(res.fit <= 1.0 && res.fit >= 0.0);
    }

    #[test]
    fn tucker_variants_agree() {
        let x = sparse_random([5, 5, 5], 30, 41);
        let mut norms = Vec::new();
        for variant in [Variant::Dnn, Variant::Drn, Variant::Dri] {
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let opts = AlsOptions {
                max_iters: 3,
                tol: 0.0,
                ..AlsOptions::with_variant(variant)
            };
            let res = tucker_als(&cluster, &x, [2, 2, 2], &opts).unwrap();
            norms.push((variant, res.core_norms));
        }
        let reference = norms[0].1.clone();
        for (variant, ns) in &norms[1..] {
            for (a, b) in reference.iter().zip(ns) {
                assert!((a - b).abs() < 1e-8, "{variant}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn invalid_arguments_rejected() {
        let x = sparse_random([4, 4, 4], 10, 43);
        let cluster = Cluster::with_defaults();
        assert!(parafac_als(&cluster, &x, 0, &AlsOptions::default()).is_err());
        assert!(tucker_als(&cluster, &x, [0, 2, 2], &AlsOptions::default()).is_err());
        assert!(tucker_als(&cluster, &x, [5, 2, 2], &AlsOptions::default()).is_err());
    }

    #[test]
    fn distributed_fit_matches_driver_fit() {
        let x = sparse_random([6, 5, 5], 30, 47);
        let run = |distributed: bool| {
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let opts = AlsOptions {
                max_iters: 3,
                tol: 0.0,
                distributed_fit: distributed,
                ..AlsOptions::with_variant(Variant::Dri)
            };
            parafac_als(&cluster, &x, 2, &opts).unwrap()
        };
        let driver = run(false);
        let dist = run(true);
        for (a, b) in driver.fits.iter().zip(&dist.fits) {
            assert!((a - b).abs() < 1e-10, "driver {a} vs distributed {b}");
        }
        // One extra job per sweep for the fit computation.
        assert_eq!(
            dist.metrics.total_jobs(),
            driver.metrics.total_jobs() + dist.iterations
        );
    }

    #[test]
    fn metrics_attributed_to_decomposition() {
        let x = sparse_random([4, 4, 4], 10, 45);
        let cluster = Cluster::new(ClusterConfig::with_machines(2));
        let opts = AlsOptions {
            max_iters: 2,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let res = parafac_als(&cluster, &x, 2, &opts).unwrap();
        // DRI: 2 jobs per MTTKRP × 3 modes × 2 sweeps.
        assert_eq!(res.metrics.total_jobs(), 12);
    }
}
