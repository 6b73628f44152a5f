//! Checkpointing: persist decomposition results to disk and resume ALS
//! from them.
//!
//! Long Hadoop decompositions checkpoint their factor matrices to HDFS
//! between sweeps so a lost job does not restart from scratch; this module
//! provides the same workflow against the local filesystem, in the text
//! formats the CLI uses (`<prefix>.A.mat`, …, `<prefix>.lambda.txt`,
//! `<prefix>.core.tns`).
//!
//! Small checkpoint files (`λ`, sweep markers) are written through
//! [`haten2_blockstore::localfs::write_atomic`] — staged, fsynced, and
//! renamed into place — so a crash mid-checkpoint can never leave a
//! half-written marker: a restarted driver sees either the previous
//! consistent checkpoint or the new one, nothing in between. On clusters
//! with a durable DFS backend the sweep loop *also* snapshots the factor
//! state into [`haten2_mapreduce::Cluster::dfs`] (see [`crate::store`]),
//! and the checkpointed drivers resume from that store copy first.

use crate::als::{
    parafac_als_with_init, tucker_als_with_init, tucker_fit, AlsOptions, ParafacResult,
    TuckerResult,
};
use crate::store::{dense_core, FACTOR_NAMES};
use crate::{CoreError, Result};
use haten2_blockstore::localfs;
use haten2_linalg::{load_mat, save_mat, Mat};
use haten2_mapreduce::Cluster;
use haten2_tensor::{CooTensor3, DenseTensor3};
use std::path::Path;

fn io_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::InvalidArgument(format!("checkpoint I/O: {e}"))
}

fn ensure_parent(prefix: &str) -> Result<()> {
    if let Some(parent) = Path::new(prefix).parent() {
        if !parent.as_os_str().is_empty() {
            localfs::create_dir_all(parent).map_err(io_err)?;
        }
    }
    Ok(())
}

/// Write a PARAFAC result: `<prefix>.{A,B,C}.mat` + `<prefix>.lambda.txt`.
pub fn save_parafac(res: &ParafacResult, prefix: &str) -> Result<()> {
    save_parafac_state(&res.lambda, &res.factors, prefix)
}

/// Write mid-run PARAFAC state (`λ` + factors) under `prefix`. All text
/// formats use shortest-roundtrip `f64` display, so a load reproduces the
/// exact bits — the property the crash-resume tests rely on.
pub fn save_parafac_state(lambda: &[f64], factors: &[Mat; 3], prefix: &str) -> Result<()> {
    ensure_parent(prefix)?;
    for (f, name) in factors.iter().zip(FACTOR_NAMES) {
        save_mat(f, format!("{prefix}.{name}.mat")).map_err(io_err)?;
    }
    let lambda_text = lambda
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    localfs::write_atomic(
        Path::new(&format!("{prefix}.lambda.txt")),
        lambda_text.as_bytes(),
    )
    .map_err(io_err)?;
    Ok(())
}

/// Record that `sweeps_done` sweeps (absolute count) are reflected in the
/// checkpoint at `prefix`. Written *after* the factor files, so a crash
/// between the two leaves the previous consistent marker in place.
fn save_sweep_marker(prefix: &str, sweeps_done: usize) -> Result<()> {
    localfs::write_atomic(
        Path::new(&format!("{prefix}.sweep.txt")),
        format!("{sweeps_done}\n").as_bytes(),
    )
    .map_err(io_err)
}

/// Completed-sweep count recorded at `prefix`, or `None` when no
/// checkpoint marker exists.
pub fn load_sweep_marker(prefix: &str) -> Result<Option<usize>> {
    let path = format!("{prefix}.sweep.txt");
    if !localfs::exists(Path::new(&path)) {
        return Ok(None);
    }
    let text = localfs::read_to_string(Path::new(&path)).map_err(io_err)?;
    Ok(Some(text.trim().parse().map_err(io_err)?))
}

/// Checkpoint hook called by the PARAFAC sweep loop after every sweep:
/// saves state + sweep marker when `opts` enables checkpointing. On a
/// durable cluster the factor state is also snapshotted into the DFS
/// block store *before* the marker commits, so a restarted driver that
/// sees the marker is guaranteed to find the matching durable state.
pub(crate) fn maybe_save_parafac(
    cluster: &Cluster,
    opts: &AlsOptions,
    sweep: usize,
    lambda: &[f64],
    factors: &[Mat; 3],
) -> Result<()> {
    let Some(prefix) = &opts.checkpoint_prefix else {
        return Ok(());
    };
    save_parafac_state(lambda, factors, prefix)?;
    if cluster.dfs().is_durable() {
        crate::store::persist_parafac_state(cluster, prefix, lambda, factors)?;
    }
    save_sweep_marker(prefix, opts.first_sweep + sweep + 1)
}

/// Checkpoint hook called by the Tucker sweep loop.
pub(crate) fn maybe_save_tucker(
    cluster: &Cluster,
    opts: &AlsOptions,
    sweep: usize,
    core: &DenseTensor3,
    factors: &[Mat; 3],
) -> Result<()> {
    let Some(prefix) = &opts.checkpoint_prefix else {
        return Ok(());
    };
    save_tucker_state(core, factors, prefix)?;
    if cluster.dfs().is_durable() {
        crate::store::persist_tucker_state(cluster, prefix, core, factors)?;
    }
    save_sweep_marker(prefix, opts.first_sweep + sweep + 1)
}

/// Fold `λ` into the first factor so `[A·diag(λ), B, C]` represents the
/// same model with implicit unit weights. Exact for resuming PARAFAC-ALS:
/// the first resumed update (mode 0) reads only `B` and `C` and overwrites
/// `A`, so the folded values never enter the arithmetic.
fn fold_lambda(lambda: &[f64], factors: &mut [Mat; 3]) {
    let a = &mut factors[0];
    for (r, &l) in lambda.iter().enumerate() {
        for i in 0..a.rows() {
            let v = a.get(i, r) * l;
            a.set(i, r, v);
        }
    }
}

/// Read a PARAFAC checkpoint back: `(λ, [A, B, C])`.
pub fn load_parafac(prefix: &str) -> Result<(Vec<f64>, [Mat; 3])> {
    let mut factors = Vec::with_capacity(3);
    for name in FACTOR_NAMES {
        factors.push(load_mat(format!("{prefix}.{name}.mat")).map_err(io_err)?);
    }
    let lambda_text =
        localfs::read_to_string(Path::new(&format!("{prefix}.lambda.txt"))).map_err(io_err)?;
    let lambda: Vec<f64> = lambda_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.trim().parse().map_err(io_err))
        .collect::<Result<_>>()?;
    let [a, b, c]: [Mat; 3] = factors.try_into().expect("exactly three factors were read");
    if lambda.len() != a.cols() {
        return Err(CoreError::InvalidArgument(format!(
            "checkpoint rank mismatch: {} lambdas for {} columns",
            lambda.len(),
            a.cols()
        )));
    }
    Ok((lambda, [a, b, c]))
}

/// Resume PARAFAC-ALS from a checkpoint: loads `<prefix>` and continues
/// sweeping on `x`. The stored λ is folded back into the factors before
/// resuming (ALS re-normalizes each sweep).
pub fn resume_parafac(
    cluster: &Cluster,
    x: &CooTensor3,
    prefix: &str,
    opts: &AlsOptions,
) -> Result<ParafacResult> {
    let (lambda, mut factors) = load_parafac(prefix)?;
    // Fold λ into the first factor so the model is unchanged.
    fold_lambda(&lambda, &mut factors);
    let rank = factors[0].cols();
    parafac_als_with_init(cluster, x, rank, opts, Some(factors))
}

/// Crash-resumable PARAFAC-ALS.
///
/// `opts.checkpoint_prefix` must be set. When a sweep marker already
/// exists there, the run resumes from the checkpoint: the remaining
/// `max_iters − done` sweeps run with `first_sweep = done`, which makes
/// the final factors **bit-identical** to an uninterrupted run (assuming
/// the same tensor, options, and a tolerance that would not have stopped
/// earlier). With no checkpoint present it is a plain [`parafac_als`]
/// that saves checkpoints as it goes.
pub fn parafac_als_checkpointed(
    cluster: &Cluster,
    x: &CooTensor3,
    rank: usize,
    opts: &AlsOptions,
) -> Result<ParafacResult> {
    let prefix = opts.checkpoint_prefix.as_deref().ok_or_else(|| {
        CoreError::InvalidArgument("parafac_als_checkpointed needs checkpoint_prefix".into())
    })?;
    match load_sweep_marker(prefix)? {
        None => crate::als::parafac_als(cluster, x, rank, opts),
        Some(done) => {
            // Durable clusters resume from the block-store snapshot (raw
            // f64 bits); the text files are the fallback. Both encodings
            // are bit-exact, so the resumed factors are identical either
            // way.
            let state = if cluster.dfs().is_durable() {
                crate::store::load_parafac_state(cluster, prefix)?
            } else {
                None
            };
            let (lambda, mut factors) = match state {
                Some(state) => state,
                None => load_parafac(prefix)?,
            };
            if done >= opts.max_iters {
                // Nothing left to sweep: report the checkpointed model.
                return Ok(ParafacResult {
                    lambda,
                    factors,
                    fits: Vec::new(),
                    iterations: 0,
                    metrics: Default::default(),
                });
            }
            fold_lambda(&lambda, &mut factors);
            let resumed = AlsOptions {
                max_iters: opts.max_iters - done,
                first_sweep: opts.first_sweep + done,
                ..opts.clone()
            };
            parafac_als_with_init(cluster, x, rank, &resumed, Some(factors))
        }
    }
}

/// Crash-resumable Tucker-ALS; the Tucker counterpart of
/// [`parafac_als_checkpointed`]. Resume seeds the mode-1/mode-2 factors
/// from the checkpoint and offsets `first_sweep` so the sweep-seeded
/// singular-vector kernel calls replay identically — the resumed
/// decomposition is bit-identical to the uninterrupted one.
pub fn tucker_als_checkpointed(
    cluster: &Cluster,
    x: &CooTensor3,
    core_dims: [usize; 3],
    opts: &AlsOptions,
) -> Result<TuckerResult> {
    let prefix = opts.checkpoint_prefix.as_deref().ok_or_else(|| {
        CoreError::InvalidArgument("tucker_als_checkpointed needs checkpoint_prefix".into())
    })?;
    match load_sweep_marker(prefix)? {
        None => crate::als::tucker_als(cluster, x, core_dims, opts),
        Some(done) => {
            let state = if cluster.dfs().is_durable() {
                crate::store::load_tucker_state(cluster, prefix)?
            } else {
                None
            };
            let (core, [a, b, c]) = match state {
                Some(state) => state,
                None => load_tucker(prefix)?,
            };
            if done >= opts.max_iters {
                let fit = tucker_fit(x.fro_norm_sq(), &[core.fro_norm()]);
                return Ok(TuckerResult {
                    core,
                    factors: [a, b, c],
                    core_norms: Vec::new(),
                    iterations: 0,
                    fit,
                    metrics: Default::default(),
                });
            }
            let resumed = AlsOptions {
                max_iters: opts.max_iters - done,
                first_sweep: opts.first_sweep + done,
                ..opts.clone()
            };
            tucker_als_with_init(cluster, x, core_dims, &resumed, Some([b, c]))
        }
    }
}

/// Resume Tucker-ALS from a checkpoint: seeds the mode-1/mode-2 factors
/// from `<prefix>` and continues sweeping on `x` (mode-0 is recomputed
/// first, per Algorithm 2).
pub fn resume_tucker(
    cluster: &Cluster,
    x: &CooTensor3,
    prefix: &str,
    opts: &AlsOptions,
) -> Result<TuckerResult> {
    let (core, [_, b, c]) = load_tucker(prefix)?;
    let core_dims = core.dims();
    tucker_als_with_init(cluster, x, core_dims, opts, Some([b, c]))
}

/// Write a Tucker result: `<prefix>.{A,B,C}.mat` + `<prefix>.core.tns`.
pub fn save_tucker(res: &TuckerResult, prefix: &str) -> Result<()> {
    save_tucker_state(&res.core, &res.factors, prefix)
}

/// Write mid-run Tucker state (core + factors) under `prefix`.
pub fn save_tucker_state(core: &DenseTensor3, factors: &[Mat; 3], prefix: &str) -> Result<()> {
    ensure_parent(prefix)?;
    for (f, name) in factors.iter().zip(FACTOR_NAMES) {
        save_mat(f, format!("{prefix}.{name}.mat")).map_err(io_err)?;
    }
    haten2_tensor::io::save_coo3(&core.to_coo(), format!("{prefix}.core.tns")).map_err(io_err)?;
    Ok(())
}

/// Read a Tucker checkpoint back: `(core, [A, B, C])`. The core's dense
/// dimensions are taken from the factor column counts (trailing all-zero
/// core slices are preserved).
pub fn load_tucker(prefix: &str) -> Result<(DenseTensor3, [Mat; 3])> {
    let mut factors = Vec::with_capacity(3);
    for name in FACTOR_NAMES {
        factors.push(load_mat(format!("{prefix}.{name}.mat")).map_err(io_err)?);
    }
    let [a, b, c]: [Mat; 3] = factors.try_into().expect("exactly three factors were read");
    let sparse_core = haten2_tensor::io::load_coo3(format!("{prefix}.core.tns")).map_err(io_err)?;
    let core = dense_core(&sparse_core, [a.cols(), b.cols(), c.cols()])?;
    Ok((core, [a, b, c]))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests clear their scratch checkpoint directories"
)]
mod tests {
    use super::*;
    use crate::als::{parafac_als, tucker_als};
    use crate::Variant;
    use haten2_mapreduce::ClusterConfig;
    use haten2_tensor::Entry3;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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

    /// A fresh pid-unique directory for one test and a checkpoint prefix
    /// inside it, so neither a concurrent checkout nor a stale sweep marker
    /// can be seen. The test removes the directory when it is done.
    fn tmp_prefix(name: &str) -> (std::path::PathBuf, String) {
        let dir =
            std::env::temp_dir().join(format!("haten2_ckpt_tests-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join(name).display().to_string();
        (dir, prefix)
    }

    #[test]
    fn parafac_checkpoint_roundtrip() {
        let x = sparse_random([7, 6, 5], 35, 201);
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let opts = AlsOptions {
            max_iters: 3,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let res = parafac_als(&cluster, &x, 2, &opts).unwrap();
        let (dir, prefix) = tmp_prefix("cp");
        save_parafac(&res, &prefix).unwrap();
        let (lambda, factors) = load_parafac(&prefix).unwrap();
        assert_eq!(lambda.len(), 2);
        for (orig, loaded) in res.factors.iter().zip(&factors) {
            assert!(orig.approx_eq(loaded, 1e-12));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn resume_continues_improving() {
        let x = sparse_random([8, 7, 6], 60, 202);
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let opts = AlsOptions {
            max_iters: 2,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let first = parafac_als(&cluster, &x, 3, &opts).unwrap();
        let (dir, prefix) = tmp_prefix("resume");
        save_parafac(&first, &prefix).unwrap();

        let more = AlsOptions {
            max_iters: 4,
            tol: 0.0,
            ..opts.clone()
        };
        let resumed = resume_parafac(&cluster, &x, &prefix, &more).unwrap();
        // The resumed run starts from the checkpoint, so its first-sweep fit
        // is already at (or above) the checkpoint's final fit.
        assert!(
            resumed.fits[0] >= first.fit() - 1e-9,
            "resumed first fit {} below checkpoint fit {}",
            resumed.fits[0],
            first.fit()
        );
        // And keeps being monotone.
        for w in resumed.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-6);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tucker_checkpoint_roundtrip() {
        let x = sparse_random([7, 6, 5], 35, 203);
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let opts = AlsOptions {
            max_iters: 2,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let res = tucker_als(&cluster, &x, [2, 3, 2], &opts).unwrap();
        let (dir, prefix) = tmp_prefix("tk");
        save_tucker(&res, &prefix).unwrap();
        let (core, factors) = load_tucker(&prefix).unwrap();
        assert_eq!(core.dims(), [2, 3, 2]);
        assert!(core.approx_eq(&res.core, 1e-12));
        for (orig, loaded) in res.factors.iter().zip(&factors) {
            assert!(orig.approx_eq(loaded, 1e-12));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn resume_tucker_continues_from_checkpoint() {
        let x = sparse_random([8, 7, 6], 50, 205);
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let opts = AlsOptions {
            max_iters: 2,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let first = tucker_als(&cluster, &x, [2, 2, 2], &opts).unwrap();
        let (dir, prefix) = tmp_prefix("tk_resume");
        save_tucker(&first, &prefix).unwrap();
        let resumed = resume_tucker(&cluster, &x, &prefix, &opts).unwrap();
        // Warm start: the first resumed core norm is at least the
        // checkpoint's final one (ALS is monotone in ‖G‖).
        assert!(
            resumed.core_norms[0] >= first.core_norms.last().unwrap() - 1e-9,
            "resumed {} vs checkpoint {}",
            resumed.core_norms[0],
            first.core_norms.last().unwrap()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    fn crashing_cluster(kill_at_job: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            fault_plan: Some(haten2_mapreduce::FaultPlan::kill_at_job(kill_at_job)),
            ..ClusterConfig::with_machines(3)
        })
    }

    #[test]
    fn parafac_crash_resume_is_bit_identical() {
        let x = sparse_random([7, 6, 5], 40, 301);
        let base = AlsOptions {
            max_iters: 4,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let clean =
            parafac_als(&Cluster::new(ClusterConfig::with_machines(3)), &x, 2, &base).unwrap();

        // Jobs per sweep, to aim each crash inside a chosen sweep.
        let probe = Cluster::new(ClusterConfig::with_machines(3));
        parafac_als(
            &probe,
            &x,
            2,
            &AlsOptions {
                max_iters: 1,
                ..base.clone()
            },
        )
        .unwrap();
        let per_sweep = probe.metrics().total_jobs();

        // A crash inside sweep k finds every finished sweep checkpointed:
        // the marker reads k - 1 and the resumed run replays exactly.
        for k in 2..=base.max_iters {
            let (dir, prefix) = tmp_prefix(&format!("crash_resume_pf{k}"));
            let opts = AlsOptions {
                checkpoint_prefix: Some(prefix.clone()),
                ..base.clone()
            };
            let crash = crashing_cluster(per_sweep * (k - 1) + 1);
            let err = parafac_als_checkpointed(&crash, &x, 2, &opts).unwrap_err();
            assert!(err.to_string().contains("retry budget"), "got: {err}");
            assert_eq!(
                load_sweep_marker(&prefix).unwrap(),
                Some(k - 1),
                "sweep {k}"
            );

            let healthy = Cluster::new(ClusterConfig::with_machines(3));
            let resumed = parafac_als_checkpointed(&healthy, &x, 2, &opts).unwrap();
            assert_eq!(resumed.iterations, base.max_iters - (k - 1), "sweep {k}");
            assert_eq!(
                resumed.lambda, clean.lambda,
                "sweep {k}: lambda must be bit-identical"
            );
            assert_eq!(
                resumed.factors, clean.factors,
                "sweep {k}: factors must be bit-identical"
            );
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn tucker_crash_resume_is_bit_identical() {
        let x = sparse_random([8, 7, 6], 50, 302);
        let base = AlsOptions {
            max_iters: 3,
            tol: 0.0,
            ..AlsOptions::with_variant(Variant::Dri)
        };
        let clean = tucker_als(
            &Cluster::new(ClusterConfig::with_machines(3)),
            &x,
            [2, 2, 2],
            &base,
        )
        .unwrap();

        let probe = Cluster::new(ClusterConfig::with_machines(3));
        tucker_als(
            &probe,
            &x,
            [2, 2, 2],
            &AlsOptions {
                max_iters: 1,
                ..base.clone()
            },
        )
        .unwrap();
        let per_sweep = probe.metrics().total_jobs();

        for k in 2..=base.max_iters {
            let (dir, prefix) = tmp_prefix(&format!("crash_resume_tk{k}"));
            let opts = AlsOptions {
                checkpoint_prefix: Some(prefix.clone()),
                ..base.clone()
            };
            let crash = crashing_cluster(per_sweep * (k - 1) + 1);
            let err = tucker_als_checkpointed(&crash, &x, [2, 2, 2], &opts).unwrap_err();
            assert!(err.to_string().contains("retry budget"), "got: {err}");
            assert_eq!(
                load_sweep_marker(&prefix).unwrap(),
                Some(k - 1),
                "sweep {k}"
            );

            let healthy = Cluster::new(ClusterConfig::with_machines(3));
            let resumed = tucker_als_checkpointed(&healthy, &x, [2, 2, 2], &opts).unwrap();
            assert_eq!(resumed.iterations, base.max_iters - (k - 1), "sweep {k}");
            assert_eq!(
                resumed.factors, clean.factors,
                "sweep {k}: factors must be bit-identical"
            );
            assert_eq!(
                resumed.core, clean.core,
                "sweep {k}: core must be bit-identical"
            );
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn checkpointed_driver_requires_prefix() {
        let x = sparse_random([5, 5, 5], 10, 303);
        let cluster = Cluster::with_defaults();
        let err = parafac_als_checkpointed(&cluster, &x, 2, &AlsOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)));
    }

    #[test]
    fn load_missing_checkpoint_fails_cleanly() {
        assert!(load_parafac("/nonexistent/prefix").is_err());
        assert!(load_tucker("/nonexistent/prefix").is_err());
    }

    #[test]
    fn init_shape_validation() {
        let x = sparse_random([5, 5, 5], 10, 204);
        let cluster = Cluster::with_defaults();
        let bad = [Mat::zeros(4, 2), Mat::zeros(5, 2), Mat::zeros(5, 2)];
        let err =
            crate::als::parafac_als_with_init(&cluster, &x, 2, &AlsOptions::default(), Some(bad))
                .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)));
    }
}
