//! PARAFAC numerical truth, sweep by sweep: from one initialisation, the
//! distributed PARAFAC-ALS and the single-machine baseline
//! (`haten2_baseline`, Tensor Toolbox `cp_als`) must follow the same
//! trajectory. The per-sweep fit sequence is the oracle (tensorly's
//! `return_errors=True`): the two differ only in the order their MTTKRP
//! sums are taken, so their fits agree to rounding, sweep after sweep.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_baseline::parafac_als_baseline_from;
use haten2_core::{parafac_als_with_init, AlsOptions, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig};
use haten2_tensor::{CooTensor3, Entry3};
use rand::{rngs::StdRng, Rng, SeedableRng};

const DIMS: [u64; 3] = [40, 30, 20];
const RANK: usize = 4;
const SWEEPS: usize = 8;

/// The largest difference allowed between two fits of one sweep. The two
/// sides sum each MTTKRP row in a different order, so they differ in the
/// last bits (≈ 1e-15 here over eight sweeps), and ALS carries that
/// difference forward from sweep to sweep.
const FIT_TOLERANCE: f64 = 1e-12;

/// A power-law tensor: each index drawn as `⌊d · u³⌋` for uniform `u`, so
/// low indices are hit far more often than high ones (the skew of a
/// knowledge base), many coordinates drawn more than once; and one entry
/// stored twice, which construction sums into one.
fn power_law_tensor(nnz: usize, seed: u64) -> CooTensor3 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = |d: u64| ((d as f64) * rng.gen::<f64>().powi(3)) as u64;
    let mut entries: Vec<Entry3> = (0..nnz)
        .map(|_| {
            let (i, j, k) = (draw(DIMS[0]), draw(DIMS[1]), draw(DIMS[2]));
            Entry3::new(i, j, k, 0.5 + (i + 2 * j + 3 * k) as f64 % 7.0)
        })
        .collect();
    entries.push(entries[0]);
    CooTensor3::from_entries(DIMS, entries).unwrap()
}

fn init(seed: u64) -> [Mat; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    DIMS.map(|d| Mat::random(d as usize, RANK, &mut rng))
}

/// DRI, and every other variant, from the baseline's start.
#[test]
fn every_variant_follows_the_baseline_trajectory_sweep_by_sweep() {
    let x = power_law_tensor(600, 11);
    let start = init(12);
    let baseline = parafac_als_baseline_from(&x, start.clone(), SWEEPS, 0.0, None).unwrap();
    assert_eq!(baseline.fits.len(), SWEEPS);

    for variant in Variant::ALL {
        let cluster = Cluster::new(ClusterConfig::with_machines(4));
        let opts = AlsOptions {
            max_iters: SWEEPS,
            tol: 0.0,
            ..AlsOptions::with_variant(variant)
        };
        let run = parafac_als_with_init(&cluster, &x, RANK, &opts, Some(start.clone())).unwrap();
        assert_eq!(run.fits.len(), SWEEPS, "{variant}");
        for (sweep, (&got, &want)) in run.fits.iter().zip(&baseline.fits).enumerate() {
            assert!(
                (got - want).abs() <= FIT_TOLERANCE,
                "{variant} sweep {sweep}: fit {got} vs baseline {want}\n{:?}\nbaseline {:?}",
                run.fits,
                baseline.fits
            );
        }
    }
    // The trajectory climbs: this is a fit sequence, not a fixed point.
    assert!(baseline.fits[SWEEPS - 1] > baseline.fits[0]);
}
