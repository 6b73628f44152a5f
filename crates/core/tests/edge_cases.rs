//! Edge-case tests for the HaTen2 kernels and drivers: degenerate tensors,
//! extreme shapes, boundary ranks, and minimal cluster geometries.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::nway::{nway_mttkrp, nway_tucker_project};
use haten2_core::parafac::mttkrp;
use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::{parafac_als, tucker_als, AlsOptions, CoreError, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig};
use haten2_tensor::{CooTensor3, DynTensor, Entry3};

fn single_machine() -> Cluster {
    Cluster::new(ClusterConfig {
        reducers: Some(1),
        ..ClusterConfig::with_machines(1)
    })
}

#[test]
fn empty_tensor_mttkrp_is_zero() {
    let x = CooTensor3::new([4, 4, 4]);
    let b = Mat::identity(4);
    for variant in Variant::ALL {
        let m = mttkrp(&single_machine(), variant, &x, 0, &b, &b).unwrap();
        assert!(m.max_abs() == 0.0, "{variant}");
    }
}

/// A merge record holds its factor column in a `u32`: every kernel front
/// refuses a rank or core size above `u32::MAX` before it submits a job.
/// The tensor is empty and every mode has size 0, so the factors hold no
/// elements whatever their width, and nothing but that check refuses them.
#[test]
fn a_column_count_above_u32_max_is_refused_before_any_job() {
    let wide = u32::MAX as usize + 1;
    let x = CooTensor3::new([0, 0, 0]);
    let x_n = DynTensor::new(vec![0, 0, 0]);
    let (factor, transposed) = (Mat::zeros(0, wide), Mat::zeros(wide, 0));
    let narrow = Mat::zeros(0, 1);
    let cluster = single_machine();
    let opts = ProjectOptions::default();
    let refused = [
        mttkrp(&cluster, Variant::Dri, &x, 0, &factor, &factor).map(drop),
        project(
            &cluster,
            Variant::Dri,
            &x,
            0,
            &transposed,
            &narrow.transpose(),
            &opts,
        )
        .map(drop),
        project(
            &cluster,
            Variant::Dri,
            &x,
            0,
            &narrow.transpose(),
            &transposed,
            &opts,
        )
        .map(drop),
        nway_mttkrp(&cluster, &x_n, 0, &[&narrow, &factor, &factor]).map(drop),
        nway_tucker_project(&cluster, &x_n, 0, &[&narrow, &narrow, &factor]).map(drop),
    ];
    for (call, result) in refused.into_iter().enumerate() {
        assert!(
            matches!(&result, Err(CoreError::InvalidArgument(m)) if m.contains("u32::MAX")),
            "call {call}: {result:?}"
        );
    }
    assert_eq!(cluster.metrics().total_jobs(), 0);
}

/// A merge record packs its label, column and side into one 64-bit tag:
/// every kernel front refuses extents whose widths sum past 64 bits
/// before it submits a job. The factors have no columns, so they hold no
/// elements however tall, and nothing but that check refuses them: at
/// N = 3 the label is `(j, k)`, here 62 + 2 bits, plus the side's 1.
/// The N-way front labels a nonzero by its ordinal, so it needs more than
/// 2^24 stored entries to pass 64 bits; with none, one factor wider than
/// `u32::MAX` columns is the same check's refusal there.
#[test]
fn extents_one_bit_past_64_are_refused_before_any_job() {
    let (tall, short) = (1u64 << 62, 4u64);
    let x = CooTensor3::new([1, tall, short]);
    let (f1, f2) = (Mat::zeros(tall as usize, 0), Mat::zeros(short as usize, 0));
    let x_n = DynTensor::new(vec![0, 0, 0]);
    let wide = Mat::zeros(0, u32::MAX as usize + 1);
    let cluster = single_machine();
    let opts = ProjectOptions::default();
    let refused = [
        mttkrp(&cluster, Variant::Dri, &x, 0, &f1, &f2).map(drop),
        mttkrp(&cluster, Variant::Dnn, &x, 0, &f1, &f2).map(drop),
        project(
            &cluster,
            Variant::Dri,
            &x,
            0,
            &Mat::zeros(0, tall as usize),
            &Mat::zeros(0, short as usize),
            &opts,
        )
        .map(drop),
        nway_mttkrp(&cluster, &x_n, 0, &[&wide, &wide, &wide]).map(drop),
    ];
    for (call, result) in refused.into_iter().enumerate() {
        assert!(
            matches!(&result, Err(CoreError::InvalidArgument(m)) if m.contains("65 bits") || m.contains("u32::MAX")),
            "call {call}: {result:?}"
        );
    }
    assert_eq!(cluster.metrics().total_jobs(), 0);
}

#[test]
fn empty_tensor_decomposition_terminates() {
    let x = CooTensor3::new([3, 3, 3]);
    let opts = AlsOptions {
        max_iters: 2,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let res = parafac_als(&single_machine(), &x, 2, &opts).unwrap();
    // Zero tensor: fit defined as 1 − ‖X − X̂‖/‖X‖ degenerates; we report 1.
    assert!(res.fits.iter().all(|f| f.is_finite()));
}

#[test]
fn single_entry_tensor_exact_rank_one() {
    let x = CooTensor3::from_entries([5, 4, 3], vec![Entry3::new(2, 1, 0, 7.0)]).unwrap();
    let opts = AlsOptions {
        max_iters: 10,
        tol: 1e-12,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let res = parafac_als(&single_machine(), &x, 1, &opts).unwrap();
    assert!(res.fit() > 0.9999, "fit = {}", res.fit());
    assert!((res.predict(2, 1, 0) - 7.0).abs() < 1e-6);
}

#[test]
fn degenerate_mode_of_size_one() {
    // A 1×J×K tensor is really a matrix; everything must still work.
    let x = CooTensor3::from_entries(
        [1, 5, 4],
        vec![
            Entry3::new(0, 0, 0, 1.0),
            Entry3::new(0, 2, 1, 2.0),
            Entry3::new(0, 4, 3, 3.0),
        ],
    )
    .unwrap();
    for variant in [Variant::Dnn, Variant::Drn, Variant::Dri] {
        let b = Mat::identity(5); // mode-1 factor (5 rows)
        let mut c = Mat::zeros(4, 5); // mode-2 factor (4 rows, same rank)
        for i in 0..4 {
            c.set(i, i, 1.0);
        }
        // mode 0 has dimension 1.
        let m = mttkrp(&single_machine(), variant, &x, 0, &b, &c).unwrap();
        assert_eq!(m.rows(), 1);
        let y = project(
            &single_machine(),
            variant,
            &x,
            0,
            &b.transpose(),
            &c.transpose(),
            &ProjectOptions::default(),
        )
        .unwrap();
        assert_eq!(y.dims()[0], 1);
    }
}

#[test]
fn tucker_with_unit_core() {
    // Core 1×1×1: rank-one Tucker; fit within [0, 1] and factors unit.
    let x = CooTensor3::from_entries(
        [4, 4, 4],
        (0..10)
            .map(|t| Entry3::new(t % 4, (t * 2) % 4, (t * 3) % 4, 1.0 + t as f64))
            .collect(),
    )
    .unwrap();
    let opts = AlsOptions {
        max_iters: 5,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let res = tucker_als(&single_machine(), &x, [1, 1, 1], &opts).unwrap();
    assert!(res.fit >= 0.0 && res.fit <= 1.0);
    for f in &res.factors {
        assert_eq!(f.cols(), 1);
        let n: f64 = (0..f.rows())
            .map(|i| f.get(i, 0).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!((n - 1.0).abs() < 1e-8);
    }
}

#[test]
fn rank_equal_to_smallest_dim() {
    let x = CooTensor3::from_entries(
        [2, 6, 6],
        (0..12)
            .map(|t| Entry3::new(t % 2, t % 6, (t * 5) % 6, (t + 1) as f64))
            .collect(),
    )
    .unwrap();
    let opts = AlsOptions {
        max_iters: 5,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    // rank 2 == dim of mode 0.
    let res = parafac_als(&single_machine(), &x, 2, &opts).unwrap();
    assert!(res.fit().is_finite());
}

#[test]
fn values_with_mixed_signs_and_cancellation() {
    // Entries that cancel inside a merge group: zero outputs are dropped,
    // never emitted as explicit zeros.
    let x = CooTensor3::from_entries(
        [2, 2, 2],
        vec![Entry3::new(0, 0, 0, 1.0), Entry3::new(0, 1, 1, -1.0)],
    )
    .unwrap();
    let ones_b = Mat::from_vec(2, 1, vec![1.0, 1.0]).unwrap();
    let ones_c = Mat::from_vec(2, 1, vec![1.0, 1.0]).unwrap();
    // M(0, 0) = 1·1·1 + (−1)·1·1 = 0 → the row exists but is zero.
    let m = mttkrp(&single_machine(), Variant::Dri, &x, 0, &ones_b, &ones_c).unwrap();
    assert_eq!(m.get(0, 0), 0.0);
}

#[test]
fn huge_indices_near_u64_range() {
    // Indices above 2^32 exercise the full u64 path (the paper's tensors
    // reach 10^8 per mode; composite matricization columns reach ~10^16).
    let big = 1u64 << 40;
    let x = CooTensor3::from_entries(
        [big, big, big],
        vec![
            Entry3::new(big - 1, 0, big - 2, 2.0),
            Entry3::new(7, big - 3, 9, 4.0),
        ],
    )
    .unwrap();
    assert_eq!(x.nnz(), 2);
    // Column count big*big = 2^80 overflows u64: matricize must refuse
    // cleanly, not wrap.
    assert!(x.matricize(0).is_err());
    let y = CooTensor3::from_entries(
        [big, 1 << 10, 1 << 10],
        vec![Entry3::new(big - 1, 1023, 1023, 1.0)],
    )
    .unwrap();
    let m = y.matricize(0).unwrap();
    assert_eq!(m.triples()[0].1, 1023 + 1023 * (1 << 10));
}

#[test]
fn one_reducer_geometry_matches_many() {
    let x = CooTensor3::from_entries(
        [6, 6, 6],
        (0..30)
            .map(|t| Entry3::new(t % 6, (t * 7) % 6, (t * 11) % 6, (t + 1) as f64 * 0.5))
            .collect(),
    )
    .unwrap();
    let b = Mat::identity(6);
    let m1 = mttkrp(&single_machine(), Variant::Dri, &x, 0, &b, &b).unwrap();
    let big = Cluster::new(ClusterConfig {
        reducers: Some(17),
        ..ClusterConfig::with_machines(9)
    });
    let m2 = mttkrp(&big, Variant::Dri, &x, 0, &b, &b).unwrap();
    assert!(m1.approx_eq(&m2, 1e-12));
}

#[test]
fn repeated_decompositions_on_shared_cluster_accumulate_metrics() {
    let x = CooTensor3::from_entries(
        [4, 4, 4],
        (0..12)
            .map(|t| Entry3::new(t % 4, (t * 3) % 4, (t * 5) % 4, 1.0))
            .collect(),
    )
    .unwrap();
    let cluster = single_machine();
    let opts = AlsOptions {
        max_iters: 1,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let r1 = parafac_als(&cluster, &x, 2, &opts).unwrap();
    let r2 = parafac_als(&cluster, &x, 2, &opts).unwrap();
    // Each result's metrics cover only its own jobs…
    assert_eq!(r1.metrics.total_jobs(), 6);
    assert_eq!(r2.metrics.total_jobs(), 6);
    // …while the cluster accumulates both.
    assert_eq!(cluster.metrics().total_jobs(), 12);
}
