//! End-to-end integration tests spanning all crates: generate → preprocess
//! → decompose (distributed) → validate against the baseline and the dense
//! reference.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2::data::discovery::{parafac_concepts, recovery_precision};
use haten2::prelude::*;

fn cluster(machines: usize) -> Cluster {
    Cluster::new(ClusterConfig::with_machines(machines))
}

#[test]
fn kb_pipeline_recovers_planted_concepts() {
    // The paper's discovery pipeline end to end, checkable because the KB
    // stand-in plants ground-truth concepts.
    let kb = KnowledgeBase::freebase_music(1, 2024);
    let (x, report) = preprocess(&kb, &PreprocessConfig::default());
    assert!(
        report.literals_removed > 0,
        "preprocessing must strip literals"
    );

    let opts = AlsOptions {
        max_iters: 15,
        tol: 1e-5,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let res = parafac_als(&cluster(8), &x, 6, &opts).unwrap();
    let concepts = parafac_concepts(
        &res.factors,
        &res.lambda,
        5,
        &kb.subjects,
        &kb.objects,
        &kb.predicates,
    );

    // At least one discovered concept matches a planted block well.
    let mut best = 0.0f64;
    for c in &concepts {
        for planted in &kb.concepts {
            let names: Vec<String> = planted
                .subjects
                .iter()
                .map(|&s| kb.subjects[s as usize].clone())
                .collect();
            best = best.max(recovery_precision(&c.subjects, &names));
        }
    }
    assert!(best >= 0.6, "best planted recovery {best}");
}

#[test]
fn all_variants_agree_on_full_parafac_decomposition() {
    let x = random_tensor(&RandomTensorConfig::cubic(12, 120, 3));
    let mut fits: Vec<(Variant, Vec<f64>)> = Vec::new();
    for variant in Variant::ALL {
        let opts = AlsOptions {
            max_iters: 3,
            tol: 0.0,
            seed: 5,
            ..AlsOptions::with_variant(variant)
        };
        let res = parafac_als(&cluster(4), &x, 3, &opts).unwrap();
        fits.push((variant, res.fits));
    }
    let reference = fits[0].1.clone();
    for (v, f) in &fits[1..] {
        for (a, b) in reference.iter().zip(f) {
            assert!((a - b).abs() < 1e-8, "{v}: {a} vs {b}");
        }
    }
}

#[test]
fn distributed_tucker_matches_baseline_bit_for_bit() {
    let x = random_tensor(&RandomTensorConfig::cubic(10, 80, 4));
    let opts = AlsOptions {
        max_iters: 3,
        tol: 0.0,
        seed: 11,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let dist = tucker_als(&cluster(4), &x, [3, 3, 3], &opts).unwrap();
    let base = haten2::baseline::tucker_als_baseline(&x, [3, 3, 3], 3, 0.0, 11, None).unwrap();
    for (a, b) in dist.core_norms.iter().zip(&base.core_norms) {
        assert!((a - b).abs() < 1e-8, "distributed {a} vs baseline {b}");
    }
}

#[test]
fn tensor_io_roundtrip_through_decomposition() {
    // Write a tensor to disk, read it back, decompose both; identical runs.
    let x = random_tensor(&RandomTensorConfig::cubic(8, 60, 6));
    let dir = std::env::temp_dir().join(format!("haten2_e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.tns");
    haten2::tensor::io::save_coo3(&x, &path).unwrap();
    let y = haten2::tensor::io::load_coo3(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // Dims may shrink on load (inferred); decompose the loaded tensor and
    // the original restricted to the same dims.
    let opts = AlsOptions {
        max_iters: 2,
        tol: 0.0,
        seed: 8,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let rx = parafac_als(&cluster(2), &x, 2, &opts).unwrap();
    // Values and support survive the roundtrip exactly.
    assert_eq!(x.nnz(), y.nnz());
    for e in x.entries() {
        assert!((y.get(e.i, e.j, e.k) - e.v).abs() < 1e-12);
    }
    assert!(rx.fit() <= 1.0);
}

#[test]
fn oom_failures_are_clean_and_reported() {
    // A cluster with a tiny capacity: Naive fails with an o.o.m.-classified
    // error, DRI completes on the same cluster settings.
    let x = random_tensor(&RandomTensorConfig::cubic(40, 400, 9));
    let tiny = || {
        Cluster::new(ClusterConfig {
            cluster_capacity_bytes: Some(200_000),
            ..ClusterConfig::with_machines(4)
        })
    };
    let naive_opts = AlsOptions {
        max_iters: 1,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Naive)
    };
    let err = parafac_als(&tiny(), &x, 3, &naive_opts).unwrap_err();
    assert!(err.is_oom(), "naive should o.o.m.: {err}");

    let dri_opts = AlsOptions {
        max_iters: 1,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    parafac_als(&tiny(), &x, 3, &dri_opts).unwrap();
}

#[test]
fn nway_parafac_on_four_way_logs() {
    // The intro's (src-ip, dst-ip, port, timestamp) shape: 4-way tensor.
    let mut t = DynTensor::new(vec![12, 12, 8, 6]);
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..150 {
        let idx = [
            rng.gen_range(0..12),
            rng.gen_range(0..12),
            rng.gen_range(0..8),
            rng.gen_range(0..6),
        ];
        t.push(&idx, rng.gen_range(0.5..2.0)).unwrap();
    }
    let t = t.coalesce();
    let res = nway_parafac_als(&cluster(4), &t, 3, 5, 1e-6, 12).unwrap();
    assert_eq!(res.factors.len(), 4);
    for w in res.fits.windows(2) {
        assert!(w[1] >= w[0] - 1e-6);
    }
}

#[test]
fn dri_reads_input_fewer_times_than_drn() {
    // The disk-access claim of §III-B4: DRI reads X once per operation
    // (one fused job), DRN reads it per Hadamard job. Proxy: total map
    // input bytes across the decomposition.
    let x = random_tensor(&RandomTensorConfig::cubic(15, 150, 13));
    let opts = |v| AlsOptions {
        max_iters: 2,
        tol: 0.0,
        ..AlsOptions::with_variant(v)
    };
    let c_drn = cluster(4);
    parafac_als(&c_drn, &x, 4, &opts(Variant::Drn)).unwrap();
    let c_dri = cluster(4);
    parafac_als(&c_dri, &x, 4, &opts(Variant::Dri)).unwrap();
    let drn_reads = c_drn.metrics().total_map_input_bytes();
    let dri_reads = c_dri.metrics().total_map_input_bytes();
    assert!(
        dri_reads < drn_reads,
        "DRI read {dri_reads} B, DRN read {drn_reads} B"
    );
}

#[test]
fn metrics_expose_paper_cost_structure() {
    // Sanity on the public metrics API used by all experiments.
    let x = random_tensor(&RandomTensorConfig::cubic(10, 100, 14));
    let c = cluster(4);
    let opts = AlsOptions {
        max_iters: 1,
        tol: 0.0,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let res = parafac_als(&c, &x, 3, &opts).unwrap();
    let m = &res.metrics;
    assert_eq!(m.total_jobs(), 6); // 2 jobs x 3 modes x 1 sweep
    assert!(m.max_intermediate_records() > 0);
    assert!(m.total_sim_time_s() > 0.0);
    assert!(m.total_wall_time_s() > 0.0);
    for job in &m.jobs {
        assert!(!job.name.is_empty());
        assert!(job.map_output_bytes >= job.map_output_records); // >1 B/record
    }
}
