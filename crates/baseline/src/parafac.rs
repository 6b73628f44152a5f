//! In-memory PARAFAC-ALS baseline (Tensor Toolbox `cp_als` equivalent).

use crate::memory::{coo_bytes, mat_bytes, MemoryMeter};
use crate::{BaselineError, Result};
use haten2_linalg::{pinv, Mat};
use haten2_tensor::ops::mttkrp_dense;
use haten2_tensor::CooTensor3;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of [`parafac_als_baseline`].
#[derive(Debug, Clone)]
pub struct BaselineParafac {
    /// Column norms `λ`.
    pub lambda: Vec<f64>,
    /// Factor matrices with unit-norm columns.
    pub factors: [Mat; 3],
    /// Fit after each sweep.
    pub fits: Vec<f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Peak estimated working set in bytes.
    pub peak_memory_bytes: usize,
    /// Wall time in seconds.
    pub wall_time_s: f64,
}

/// Single-machine PARAFAC-ALS with memory accounting, from factors drawn
/// from `seed`: `dims[n] × rank` random factors, drawn mode by mode from
/// one `StdRng` once the working set has been charged.
pub fn parafac_als_baseline(
    x: &CooTensor3,
    rank: usize,
    max_iters: usize,
    tol: f64,
    seed: u64,
    memory_budget: Option<usize>,
) -> Result<BaselineParafac> {
    let draw = || {
        let mut rng = StdRng::seed_from_u64(seed);
        x.dims().map(|d| Mat::random(d as usize, rank, &mut rng))
    };
    als(x, rank, draw, max_iters, tol, memory_budget)
}

/// Single-machine PARAFAC-ALS with memory accounting, starting from
/// `init`, one `dims[n] × R` factor per mode.
///
/// Mathematically identical to `haten2_core::parafac_als` but executed
/// in-process, charging a [`MemoryMeter`] for the tensor, the factors, and
/// the per-sweep MTTKRP working set; exceeding `memory_budget` aborts with
/// [`BaselineError::Oom`].
pub fn parafac_als_baseline_from(
    x: &CooTensor3,
    init: [Mat; 3],
    max_iters: usize,
    tol: f64,
    memory_budget: Option<usize>,
) -> Result<BaselineParafac> {
    als(x, init[0].cols(), || init, max_iters, tol, memory_budget)
}

/// The ALS both entry points run. `init` makes the starting factors; it is
/// called inside the timed section, after the meter has charged the
/// tensor, the factors and the working set, so a point over budget stops
/// with [`BaselineError::Oom`] before any factor is allocated.
fn als(
    x: &CooTensor3,
    rank: usize,
    init: impl FnOnce() -> [Mat; 3],
    max_iters: usize,
    tol: f64,
    memory_budget: Option<usize>,
) -> Result<BaselineParafac> {
    if rank == 0 {
        return Err(BaselineError::InvalidArgument(
            "rank must be positive".into(),
        ));
    }
    let started = std::time::Instant::now();
    let dims = x.dims();
    let mut meter = MemoryMeter::new(memory_budget);
    meter.charge(coo_bytes(x.nnz()), "input tensor")?;
    for (n, &d) in dims.iter().enumerate() {
        meter.charge(mat_bytes(d as usize, rank), &format!("factor matrix {n}"))?;
    }
    // MTTKRP working set: accumulator (Iₙ×R) plus the expanded per-nonzero
    // slice products (nnz×R) a sparse cp_als materializes per mode.
    let mttkrp_ws =
        mat_bytes(dims.iter().map(|&d| d as usize).max().unwrap_or(0), rank) + x.nnz() * rank * 8;
    meter.charge(mttkrp_ws, "MTTKRP working set")?;

    let mut factors = init();
    for (n, f) in factors.iter().enumerate() {
        if (f.rows(), f.cols()) != (dims[n] as usize, rank) {
            return Err(BaselineError::InvalidArgument(format!(
                "init factor {n} is {}x{}, expected {}x{rank}",
                f.rows(),
                f.cols(),
                dims[n]
            )));
        }
    }
    let mut lambda = vec![1.0; rank];
    let norm_x_sq = x.fro_norm_sq();
    let norm_x = norm_x_sq.sqrt();

    let mut fits = Vec::new();
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let mut last_m: Option<Mat> = None;
        for mode in 0..3 {
            let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            let m = mttkrp_dense(x, mode, [&factors[0], &factors[1], &factors[2]])?;
            let g = factors[others[0]]
                .gram()
                .hadamard(&factors[others[1]].gram())?;
            factors[mode] = m.matmul(&pinv(&g)?)?;
            lambda = factors[mode].normalize_columns();
            if mode == 2 {
                last_m = Some(m);
            }
        }
        let m = last_m.expect("three modes swept");
        let c = &factors[2];
        let mut inner = 0.0;
        for k in 0..c.rows() {
            for (r, &l) in lambda.iter().enumerate() {
                inner += m.get(k, r) * c.get(k, r) * l;
            }
        }
        let g_all = factors[0]
            .gram()
            .hadamard(&factors[1].gram())?
            .hadamard(&factors[2].gram())?;
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

    Ok(BaselineParafac {
        lambda,
        factors,
        fits,
        iterations,
        peak_memory_bytes: meter.peak_bytes(),
        wall_time_s: started.elapsed().as_secs_f64(),
    })
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
    fn fit_monotone_and_bounded() {
        let x = sparse_random([8, 7, 6], 50, 61);
        let res = parafac_als_baseline(&x, 3, 10, 0.0, 1, None).unwrap();
        for w in res.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-6);
        }
        assert!(res.fits.iter().all(|&f| f <= 1.0 + 1e-9));
        assert!(res.peak_memory_bytes > 0);
    }

    #[test]
    fn oom_on_small_budget() {
        let x = sparse_random([100, 100, 100], 2000, 62);
        let err = parafac_als_baseline(&x, 10, 5, 1e-4, 1, Some(10_000)).unwrap_err();
        assert!(matches!(err, BaselineError::Oom { .. }));
    }

    #[test]
    fn matches_distributed_result_same_seed() {
        // The baseline and haten2-core run the same math from the same seed,
        // so their fit trajectories must agree.
        let x = sparse_random([6, 5, 4], 25, 63);
        let base = parafac_als_baseline(&x, 2, 5, 0.0, 99, None).unwrap();
        let cluster =
            haten2_mapreduce::Cluster::new(haten2_mapreduce::ClusterConfig::with_machines(2));
        let opts = haten2_core::AlsOptions {
            variant: haten2_core::Variant::Dri,
            max_iters: 5,
            tol: 0.0,
            seed: 99,
            use_combiner: false,
            distributed_fit: false,
            ..haten2_core::AlsOptions::default()
        };
        let dist = haten2_core::parafac_als(&cluster, &x, 2, &opts).unwrap();
        for (a, b) in base.fits.iter().zip(&dist.fits) {
            assert!((a - b).abs() < 1e-8, "baseline {a} vs distributed {b}");
        }
    }

    #[test]
    fn rank_zero_rejected() {
        let x = sparse_random([3, 3, 3], 5, 64);
        assert!(parafac_als_baseline(&x, 0, 5, 1e-4, 1, None).is_err());
    }
}
