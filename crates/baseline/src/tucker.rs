//! In-memory Tucker-ALS baseline (Tensor Toolbox `tucker_als` with MET).

use crate::memory::{coo_bytes, mat_bytes, MemoryMeter};
use crate::{BaselineError, Result};
use haten2_linalg::{leading_left_singular_vectors, thin_qr, Mat, SubspaceOptions};
use haten2_tensor::ops::ttm;
use haten2_tensor::{CooTensor3, DenseTensor3};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of [`tucker_als_baseline`].
#[derive(Debug, Clone)]
pub struct BaselineTucker {
    /// Core tensor.
    pub core: DenseTensor3,
    /// Orthonormal factor matrices.
    pub factors: [Mat; 3],
    /// `‖G‖` after each sweep.
    pub core_norms: Vec<f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Fit `1 − ‖X − X̂‖/‖X‖`.
    pub fit: f64,
    /// Peak estimated working set in bytes.
    pub peak_memory_bytes: usize,
    /// Wall time in seconds.
    pub wall_time_s: f64,
}

/// How the baseline materializes the projected tensor
/// `Y = X ×ₘ₁ U₁ᵀ ×ₘ₂ U₂ᵀ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetMode {
    /// Materialize Y in full (`≈ nnz·Q` cells, Lemma 3) — the pre-MET
    /// Tensor Toolbox behaviour; dies earliest.
    #[default]
    Full,
    /// Kolda & Sun's MET: compute Y one target-mode slice at a time, so
    /// the working set is the *heaviest slice's* expansion instead of the
    /// whole tensor's. Trades memory for repeated passes (modelled in the
    /// charge; the arithmetic here is identical).
    SliceWise,
}

/// Single-machine Tucker-ALS (HOOI) with MET-style memory accounting.
///
/// The projected tensor `Y = X ×ₘ₁ U₁ᵀ ×ₘ₂ U₂ᵀ` is materialized sparsely
/// (its nonzero count is `≈ nnz·Q` after the first product — Lemma 3), and
/// that allocation is what blows the budget first at scale, matching where
/// the Tensor Toolbox dies in Figure 1. See [`tucker_als_baseline_met`] for
/// the slice-wise MET mode.
pub fn tucker_als_baseline(
    x: &CooTensor3,
    core_dims: [usize; 3],
    max_iters: usize,
    tol: f64,
    seed: u64,
    memory_budget: Option<usize>,
) -> Result<BaselineTucker> {
    tucker_als_baseline_met(
        x,
        core_dims,
        max_iters,
        tol,
        seed,
        memory_budget,
        MetMode::Full,
    )
}

/// [`tucker_als_baseline`] with an explicit [`MetMode`].
#[allow(
    clippy::too_many_arguments,
    reason = "the baseline's full parameter list, spelled out like the driver's"
)]
pub fn tucker_als_baseline_met(
    x: &CooTensor3,
    core_dims: [usize; 3],
    max_iters: usize,
    tol: f64,
    seed: u64,
    memory_budget: Option<usize>,
    met_mode: MetMode,
) -> Result<BaselineTucker> {
    let dims = x.dims();
    for (n, (&cd, &d)) in core_dims.iter().zip(dims.iter()).enumerate() {
        if cd == 0 || cd as u64 > d {
            return Err(BaselineError::InvalidArgument(format!(
                "core dim {cd} invalid for mode {n} of size {d}"
            )));
        }
    }
    let started = std::time::Instant::now();
    let mut meter = MemoryMeter::new(memory_budget);
    meter.charge(coo_bytes(x.nnz()), "input tensor")?;
    for (n, &d) in dims.iter().enumerate() {
        meter.charge(
            mat_bytes(d as usize, core_dims[n]),
            &format!("factor matrix {n}"),
        )?;
    }
    // Projected tensor working set per Lemma 3: nnz·max(Q,R) entries in
    // Full mode; in MET SliceWise mode only the heaviest target-mode
    // slice's expansion is resident at a time.
    let q_max = core_dims.iter().copied().max().unwrap_or(1);
    let y_cells = match met_mode {
        MetMode::Full => x.nnz() * q_max,
        MetMode::SliceWise => {
            let heaviest = (0..3)
                .filter_map(|m| x.heaviest_slice(m).ok().flatten())
                .map(|(_, c)| c)
                .max()
                .unwrap_or(0);
            heaviest * q_max
        }
    };
    meter.charge(coo_bytes(y_cells), "projected tensor Y")?;

    let [p_dim, q_dim, r_dim] = core_dims;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors = [
        Mat::zeros(dims[0] as usize, p_dim),
        thin_qr(&Mat::random(dims[1] as usize, q_dim, &mut rng))?,
        thin_qr(&Mat::random(dims[2] as usize, r_dim, &mut rng))?,
    ];
    let norm_x_sq = x.fro_norm_sq();
    let norm_x = norm_x_sq.sqrt();

    let mut core = DenseTensor3::zeros(core_dims);
    let mut core_norms: Vec<f64> = Vec::new();
    let mut iterations = 0;
    for sweep in 0..max_iters {
        iterations += 1;
        let mut last_y: Option<CooTensor3> = None;
        for mode in 0..3 {
            let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            let u1 = factors[others[0]].transpose();
            let u2 = factors[others[1]].transpose();
            // Sequential sparse n-mode products (the MET path).
            let t = ttm(x, others[0], &u1)?;
            let y = ttm(&t, others[1], &u2)?;
            // Permute so the target mode leads, then extract singular vectors.
            let perm: [usize; 3] = match mode {
                0 => [0, 1, 2],
                1 => [1, 0, 2],
                _ => [2, 0, 1],
            };
            let y_canon = permute(&y, perm)?;
            let y_mat = y_canon.matricize(0)?;
            let sub_opts = SubspaceOptions {
                seed: seed ^ ((sweep as u64) << 8 | mode as u64),
            };
            factors[mode] = leading_left_singular_vectors(&y_mat, core_dims[mode], &sub_opts)?;
            if mode == 2 {
                last_y = Some(y_canon);
            }
        }
        // Core from the final projection Y (canonical (k, p, q)).
        let y = last_y.expect("three modes swept");
        let c = &factors[2];
        core = DenseTensor3::zeros(core_dims);
        for e in y.entries() {
            let (k, p, q) = (e.i as usize, e.j as usize, e.k as usize);
            for r in 0..r_dim {
                core.add_at(p, q, r, e.v * c.get(k, r));
            }
        }
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
    Ok(BaselineTucker {
        core,
        factors,
        core_norms,
        iterations,
        fit,
        peak_memory_bytes: meter.peak_bytes(),
        wall_time_s: started.elapsed().as_secs_f64(),
    })
}

/// Permute a sparse tensor's modes: output mode `p` takes input mode
/// `perm[p]`.
fn permute(t: &CooTensor3, perm: [usize; 3]) -> Result<CooTensor3> {
    let d = t.dims();
    let dims = [d[perm[0]], d[perm[1]], d[perm[2]]];
    let entries = t
        .entries()
        .iter()
        .map(|e| {
            haten2_tensor::Entry3::new(e.index(perm[0]), e.index(perm[1]), e.index(perm[2]), e.v)
        })
        .collect();
    Ok(CooTensor3::from_entries(dims, entries)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_tensor::Entry3;
    use rand::Rng;

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
    fn core_norm_monotone() {
        let x = sparse_random([8, 7, 6], 50, 71);
        let res = tucker_als_baseline(&x, [2, 2, 2], 8, 0.0, 1, None).unwrap();
        for w in res.core_norms.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "{:?}", res.core_norms);
        }
        for f in &res.factors {
            assert!(f.gram().approx_eq(&Mat::identity(f.cols()), 1e-8));
        }
    }

    #[test]
    fn matches_distributed_same_seed() {
        let x = sparse_random([6, 5, 5], 30, 72);
        let base = tucker_als_baseline(&x, [2, 2, 2], 4, 0.0, 5, None).unwrap();
        let cluster =
            haten2_mapreduce::Cluster::new(haten2_mapreduce::ClusterConfig::with_machines(2));
        let opts = haten2_core::AlsOptions {
            variant: haten2_core::Variant::Dri,
            max_iters: 4,
            tol: 0.0,
            seed: 5,
            use_combiner: false,
            distributed_fit: false,
            ..haten2_core::AlsOptions::default()
        };
        let dist = haten2_core::tucker_als(&cluster, &x, [2, 2, 2], &opts).unwrap();
        for (a, b) in base.core_norms.iter().zip(&dist.core_norms) {
            assert!((a - b).abs() < 1e-8, "baseline {a} vs distributed {b}");
        }
    }

    #[test]
    fn met_slicewise_survives_where_full_dies() {
        // Budget tuned between the two modes' working sets: Full charges
        // nnz·Q cells, SliceWise only the heaviest slice's expansion.
        let x = sparse_random([60, 60, 60], 1200, 75);
        let q = 5;
        let full_needs = crate::memory::coo_bytes(x.nnz() * q);
        let budget = full_needs / 2 + crate::memory::coo_bytes(x.nnz());
        let full = tucker_als_baseline_met(&x, [q, q, q], 2, 0.0, 1, Some(budget), MetMode::Full);
        assert!(
            matches!(full, Err(BaselineError::Oom { .. })),
            "Full should o.o.m."
        );
        let met =
            tucker_als_baseline_met(&x, [q, q, q], 2, 0.0, 1, Some(budget), MetMode::SliceWise)
                .unwrap();
        assert!(met.fit.is_finite());
    }

    #[test]
    fn met_modes_compute_identical_results() {
        let x = sparse_random([8, 7, 6], 40, 76);
        let full = tucker_als_baseline_met(&x, [2, 2, 2], 3, 0.0, 9, None, MetMode::Full).unwrap();
        let met =
            tucker_als_baseline_met(&x, [2, 2, 2], 3, 0.0, 9, None, MetMode::SliceWise).unwrap();
        for (a, b) in full.core_norms.iter().zip(&met.core_norms) {
            assert!((a - b).abs() < 1e-12);
        }
        // SliceWise's accounted peak is no larger.
        assert!(met.peak_memory_bytes <= full.peak_memory_bytes);
    }

    #[test]
    fn oom_on_small_budget() {
        let x = sparse_random([50, 50, 50], 1000, 73);
        let err = tucker_als_baseline(&x, [5, 5, 5], 3, 1e-4, 1, Some(20_000)).unwrap_err();
        assert!(matches!(err, BaselineError::Oom { .. }));
    }

    #[test]
    fn invalid_core_rejected() {
        let x = sparse_random([4, 4, 4], 10, 74);
        assert!(tucker_als_baseline(&x, [0, 2, 2], 3, 1e-4, 1, None).is_err());
        assert!(tucker_als_baseline(&x, [5, 2, 2], 3, 1e-4, 1, None).is_err());
    }
}
