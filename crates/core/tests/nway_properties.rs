//! The N-way fronts run the one kernel family: at N = 3 they *are* the
//! 3-way DRI pipelines — the same jobs by every cost-model counter, the
//! same outputs — and above it they match a brute-force sum, on tensors
//! with repeated coordinates and factors with zero rows and columns too.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::nway::{nway_mttkrp, nway_parafac_als, nway_tucker_project};
use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::{parafac, parafac_als, AlsOptions, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig, JobMetrics};
use haten2_tensor::ops::mttkrp_dense;
use haten2_tensor::{CooTensor3, DynTensor, Entry3};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// What the cost model saw of each job `cluster` ran, names aside.
fn job_costs(cluster: &Cluster) -> Vec<JobMetrics> {
    let unnamed = |job: &JobMetrics| JobMetrics {
        name: String::new(),
        ..job.without_host_time()
    };
    cluster.metrics().jobs.iter().map(unnamed).collect()
}

fn random_factors(dims: &[u64], cols: &[usize], rng: &mut StdRng) -> Vec<Mat> {
    let sized = dims.iter().zip(cols);
    sized
        .map(|(&d, &c)| Mat::random(d as usize, c, rng))
        .collect()
}

/// `nnz` entries at uniform coordinates, repeats kept.
fn random_dyn(dims: &[u64], nnz: usize, rng: &mut StdRng) -> DynTensor {
    let mut x = DynTensor::new(dims.to_vec());
    for _ in 0..nnz {
        let idx: Vec<u64> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
        x.push(&idx, rng.gen_range(-2.0..2.0)).unwrap();
    }
    x
}

/// `M(i_mode, r) = Σ_entries v · Π_{m ≠ mode} F_m[i_m, r]` by brute force.
fn brute_mttkrp(x: &DynTensor, mode: usize, factors: &[Mat]) -> Mat {
    let rank = factors[(mode + 1) % factors.len()].cols();
    let mut m = Mat::zeros(x.dims()[mode] as usize, rank);
    for (idx, v) in x.iter() {
        for r in 0..rank {
            let others = factors.iter().zip(idx).enumerate();
            let product: f64 = others
                .filter(|&(n, _)| n != mode)
                .map(|(_, (f, &i))| f.get(i as usize, r))
                .product();
            m.add_at(idx[mode] as usize, r, v * product);
        }
    }
    m
}

/// `Y(i_mode, q…) = Σ_entries v · Π_{m ≠ mode} F_m[i_m, q_m]` by brute
/// force, keyed `[i_mode, q of the other modes ascending…]`.
fn brute_project(x: &DynTensor, mode: usize, factors: &[Mat]) -> BTreeMap<Vec<u64>, f64> {
    let others: Vec<usize> = (0..x.order()).filter(|&m| m != mode).collect();
    let mut y = BTreeMap::new();
    for (idx, v) in x.iter() {
        // Every column combination, as an odometer over the other modes.
        let mut q = vec![0usize; others.len()];
        loop {
            let sides = others.iter().zip(&q);
            let product: f64 = sides
                .map(|(&m, &qm)| factors[m].get(idx[m] as usize, qm))
                .product();
            let key = std::iter::once(idx[mode]).chain(q.iter().map(|&qm| qm as u64));
            *y.entry(key.collect()).or_insert(0.0) += v * product;
            let carried = q.iter_mut().zip(&others).rev().all(|(digit, &m)| {
                *digit = (*digit + 1) % factors[m].cols();
                *digit == 0
            });
            if carried {
                break;
            }
        }
    }
    y
}

/// Both N-way kernels on `x` for every mode, against brute force.
fn check_against_brute_force(x: &DynTensor, factors: &[Mat], rank_factors: &[Mat], tol: f64) {
    let cluster = Cluster::new(ClusterConfig::with_machines(3));
    for mode in 0..x.order() {
        let refs: Vec<&Mat> = rank_factors.iter().collect();
        let m = nway_mttkrp(&cluster, x, mode, &refs).unwrap();
        let want = brute_mttkrp(x, mode, rank_factors);
        assert!(m.approx_eq(&want, tol), "mttkrp mode {mode}");

        let refs: Vec<&Mat> = factors.iter().collect();
        let y = nway_tucker_project(&cluster, x, mode, &refs).unwrap();
        let want = brute_project(x, mode, factors);
        for (key, w) in &want {
            assert!(
                (y.get(key) - w).abs() <= tol,
                "project mode {mode} at {key:?}"
            );
        }
        for (idx, _) in y.iter() {
            assert!(want.contains_key(idx), "project mode {mode} at {idx:?}");
        }
    }
    assert_eq!(cluster.metrics().total_jobs(), 4 * x.order());
}

#[test]
fn orders_four_and_five_match_brute_force() {
    // Order 5 runs two extra join rounds in each merge and linearises
    // three columns into slot 2; the core sizes differ per mode so a
    // transposed stride cannot pass.
    let mut rng = StdRng::seed_from_u64(61);
    for (dims, cols) in [
        (vec![4u64, 3, 5, 3], vec![2usize, 3, 2, 3]),
        (vec![3, 4, 2, 3, 4], vec![2, 3, 2, 3, 4]),
    ] {
        let x = random_dyn(&dims, 40, &mut rng).coalesce();
        let factors = random_factors(&dims, &cols, &mut rng);
        let rank_factors = random_factors(&dims, &vec![3; dims.len()], &mut rng);
        check_against_brute_force(&x, &factors, &rank_factors, 1e-9);
    }
}

#[test]
fn a_repeated_coordinate_is_summed_not_dropped() {
    // Every stored entry is its own nonzero: an uncoalesced tensor must
    // decompose like its coalesced form, in both kernels, for every mode.
    let mut rng = StdRng::seed_from_u64(67);
    let dims = [3u64, 4, 3, 2];
    let mut x = random_dyn(&dims, 30, &mut rng);
    x.push(&[0, 1, 1, 0], 1.0).unwrap();
    x.push(&[0, 1, 1, 0], 2.0).unwrap();
    // A pair that cancels: the coalesced tensor has no entry here.
    x.push(&[2, 3, 2, 1], 1.5).unwrap();
    x.push(&[2, 3, 2, 1], -1.5).unwrap();
    let coalesced = x.coalesce();
    assert!(coalesced.nnz() < x.nnz());
    assert_eq!(coalesced.get(&[2, 3, 2, 1]), 0.0);

    let factors = random_factors(&dims, &[2, 3, 2, 2], &mut rng);
    let rank_factors = random_factors(&dims, &[2; 4], &mut rng);
    check_against_brute_force(&x, &factors, &rank_factors, 1e-12);
    check_against_brute_force(&coalesced, &factors, &rank_factors, 1e-12);
    let cluster = Cluster::new(ClusterConfig::with_machines(3));
    for mode in 0..4 {
        let refs: Vec<&Mat> = rank_factors.iter().collect();
        let m = nway_mttkrp(&cluster, &x, mode, &refs).unwrap();
        let m_coalesced = nway_mttkrp(&cluster, &coalesced, mode, &refs).unwrap();
        assert!(m.approx_eq(&m_coalesced, 1e-12), "mttkrp mode {mode}");
        let refs: Vec<&Mat> = factors.iter().collect();
        let y = nway_tucker_project(&cluster, &x, mode, &refs).unwrap();
        let y_coalesced = nway_tucker_project(&cluster, &coalesced, mode, &refs).unwrap();
        assert_eq!(y.nnz(), y_coalesced.nnz(), "project mode {mode}");
        for (idx, v) in y.iter() {
            assert!(
                (y_coalesced.get(idx) - v).abs() <= 1e-12,
                "project mode {mode} at {idx:?}"
            );
        }
    }
}

#[test]
fn an_incomplete_side_contributes_nothing() {
    // IMHP skips zero coefficients, so a nonzero whose factor row is all
    // zero is missing from that side's dataset, and a zero column from
    // every nonzero's: the merges must drop exactly those products.
    let mut rng = StdRng::seed_from_u64(71);
    let dims = [4u64, 3, 4, 3];
    let x = random_dyn(&dims, 40, &mut rng).coalesce();
    let mut factors = random_factors(&dims, &[2, 3, 2, 3], &mut rng);
    let mut rank_factors = random_factors(&dims, &[3; 4], &mut rng);
    for f in [&mut factors, &mut rank_factors] {
        for col in 0..f[1].cols() {
            f[1].set(2, col, 0.0); // a zero row of mode 1
        }
        for row in 0..f[2].rows() {
            f[2].set(row, 1, 0.0); // a zero column of mode 2
        }
    }
    check_against_brute_force(&x, &factors, &rank_factors, 1e-9);
}

#[test]
fn nway_parafac_als_at_order_three_is_parafac_als() {
    let mut rng = StdRng::seed_from_u64(73);
    let entries = (0..60).map(|_| {
        let (i, j, k) = (
            rng.gen_range(0..7),
            rng.gen_range(0..6),
            rng.gen_range(0..5),
        );
        Entry3::new(i, j, k, rng.gen_range(0.5..2.0))
    });
    let t = CooTensor3::from_entries([7, 6, 5], entries.collect()).unwrap();
    let (rank, iters, tol, seed) = (3, 6, 1e-7, 19);

    let cluster = Cluster::new(ClusterConfig::with_machines(3));
    let got =
        nway_parafac_als(&cluster, &DynTensor::from_coo3(&t), rank, iters, tol, seed).unwrap();
    let cluster3 = Cluster::new(ClusterConfig::with_machines(3));
    let opts = AlsOptions {
        max_iters: iters,
        tol,
        seed,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let want = parafac_als(&cluster3, &t, rank, &opts).unwrap();

    assert_eq!(got.iterations, want.iterations);
    assert_eq!(got.metrics.total_jobs(), want.metrics.total_jobs());
    assert_eq!(got.fits.len(), want.fits.len());
    for (a, b) in got.fits.iter().zip(&want.fits) {
        assert!((a - b).abs() <= 1e-9, "fit {a} vs {b}");
    }
    for (a, b) in got.lambda.iter().zip(&want.lambda) {
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "λ {a} vs {b}");
    }
    for (mode, (a, b)) in got.factors.iter().zip(&want.factors).enumerate() {
        assert!(a.approx_eq(b, 1e-9), "factor {mode}");
    }
}

fn coo_strategy() -> impl Strategy<Value = CooTensor3> {
    (2u64..6, 2u64..6, 2u64..6, 1usize..16, any::<u64>()).prop_map(|(i, j, k, n, seed)| {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = (0..n)
            .map(|_| {
                Entry3::new(
                    rng.gen_range(0..i),
                    rng.gen_range(0..j),
                    rng.gen_range(0..k),
                    rng.gen_range(-2.0..2.0f64),
                )
            })
            .collect();
        CooTensor3::from_entries([i, j, k], entries).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn nway_mttkrp_specializes_to_dense_reference(
        t in coo_strategy(),
        mode in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = 2usize;
        let a = Mat::random(t.dims()[0] as usize, r, &mut rng);
        let b = Mat::random(t.dims()[1] as usize, r, &mut rng);
        let c = Mat::random(t.dims()[2] as usize, r, &mut rng);
        let factors = [&a, &b, &c];
        let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        let x = DynTensor::from_coo3(&t);
        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let got = nway_mttkrp(&cluster, &x, mode, &factors).unwrap();
        let want = mttkrp_dense(&t, mode, factors).unwrap();
        prop_assert!(got.approx_eq(&want, 1e-8), "mode {mode}");

        // N = 3 is the 3-way case: the DRI pipeline's two jobs, counter
        // for counter, and its output.
        let cluster3 = Cluster::new(ClusterConfig::with_machines(3));
        let (f1, f2) = (factors[others[0]], factors[others[1]]);
        let dri = parafac::mttkrp(&cluster3, Variant::Dri, &t, mode, f1, f2).unwrap();
        prop_assert_eq!(job_costs(&cluster), job_costs(&cluster3));
        prop_assert_eq!(cluster.metrics().total_jobs(), 2);
        prop_assert!(got.approx_eq(&dri, 1e-12), "mode {mode}");
        if mode == 0 {
            // The entry orders coincide, so every sum runs in one order.
            prop_assert_eq!(got, dri);
        }
    }

    #[test]
    fn nway_tucker_project_specializes_to_3way_dri(
        t in coo_strategy(),
        mode in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        let dims = t.dims();
        // A different core size per mode, so Q ≠ R whichever mode leads.
        let factors: Vec<Mat> = (0..3)
            .map(|m| Mat::random(dims[m] as usize, 2 + m % 2, &mut rng))
            .collect();
        let refs: Vec<&Mat> = factors.iter().collect();
        let x = DynTensor::from_coo3(&t);

        let cluster = Cluster::new(ClusterConfig::with_machines(3));
        let got = nway_tucker_project(&cluster, &x, mode, &refs).unwrap();

        let cluster2 = Cluster::new(ClusterConfig::with_machines(3));
        let want = project(
            &cluster2,
            Variant::Dri,
            &t,
            mode,
            &factors[others[0]].transpose(),
            &factors[others[1]].transpose(),
            &ProjectOptions::default(),
        )
        .unwrap();

        prop_assert_eq!(job_costs(&cluster), job_costs(&cluster2));
        prop_assert_eq!(got.nnz(), want.nnz());
        for (idx, v) in got.iter() {
            let w = want.get(idx[0], idx[1], idx[2]);
            prop_assert!((w - v).abs() <= 1e-12, "mode {mode} at {idx:?}");
            if mode == 0 {
                prop_assert_eq!(w.to_bits(), v.to_bits(), "at {:?}", idx);
            }
        }
    }

    #[test]
    fn nway_mttkrp_linear_in_tensor_values(t in coo_strategy(), seed in any::<u64>()) {
        // M(2·X) = 2·M(X): the kernel is linear in the tensor.
        let mut rng = StdRng::seed_from_u64(seed);
        let r = 2usize;
        let a = Mat::random(t.dims()[0] as usize, r, &mut rng);
        let b = Mat::random(t.dims()[1] as usize, r, &mut rng);
        let c = Mat::random(t.dims()[2] as usize, r, &mut rng);
        let x1 = DynTensor::from_coo3(&t);
        let mut t2 = t.clone();
        t2.scale(2.0);
        let x2 = DynTensor::from_coo3(&t2);
        let cluster = Cluster::new(ClusterConfig::with_machines(2));
        let m1 = nway_mttkrp(&cluster, &x1, 0, &[&a, &b, &c]).unwrap();
        let m2 = nway_mttkrp(&cluster, &x2, 0, &[&a, &b, &c]).unwrap();
        for i in 0..m1.rows() {
            for rr in 0..r {
                prop_assert!((2.0 * m1.get(i, rr) - m2.get(i, rr)).abs() < 1e-8);
            }
        }
    }
}
