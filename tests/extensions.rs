//! Integration tests for the beyond-the-paper extensions, exercised
//! through the facade exactly as a downstream user would.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2::core::{nonneg_parafac, parafac_missing, parafac_via_compression};
use haten2::data::temporal::TemporalKb;
use haten2::prelude::*;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::with_machines(4))
}

/// One shared low-rank ground truth for the extension tests.
fn ground_truth(dims: [u64; 3], rank: usize, seed: u64) -> (Mat, Mat, Mat, CooTensor3) {
    use rand::{rngs::StdRng, SeedableRng};
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
    let x = CooTensor3::from_entries(dims, entries).unwrap();
    (a, b, c, x)
}

#[test]
fn all_three_parafac_flavors_agree_on_clean_data() {
    // On a fully observed nonnegative low-rank tensor, plain ALS, nonneg
    // multiplicative updates, and compression must all reach high fit.
    let (_, _, _, x) = ground_truth([7, 6, 5], 2, 301);
    let opts = AlsOptions {
        max_iters: 60,
        tol: 1e-10,
        ..AlsOptions::with_variant(Variant::Dri)
    };

    let plain = parafac_als(&cluster(), &x, 2, &opts).unwrap();
    assert!(plain.fit() > 0.999, "plain fit {}", plain.fit());

    let nn = nonneg_parafac(&cluster(), &x, 2, &opts).unwrap();
    assert!(nn.fit() > 0.95, "nonneg fit {}", nn.fit());

    let comp = parafac_via_compression(&cluster(), &x, 2, [3, 3, 3], &opts).unwrap();
    assert!(comp.fit() > 0.95, "compressed fit {}", comp.fit());

    // Cross-flavor predictions agree on sample cells.
    for e in x.entries().iter().step_by(40) {
        let p1 = plain.predict(e.i, e.j, e.k);
        let p2 = comp.predict(e.i, e.j, e.k);
        assert!((p1 - p2).abs() < 0.25 * e.v.abs().max(0.25), "{p1} vs {p2}");
    }
}

#[test]
fn completion_pipeline_through_cli_formats() {
    // Missing-value decomposition whose factors roundtrip through the
    // on-disk matrix format (what the CLI writes).
    let (_, _, _, full) = ground_truth([6, 6, 4], 2, 302);
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(303);
    let observed: Vec<Entry3> = full
        .entries()
        .iter()
        .filter(|_| rng.gen::<f64>() < 0.6)
        .copied()
        .collect();
    let x = CooTensor3::from_entries(full.dims(), observed).unwrap();

    let opts = AlsOptions {
        max_iters: 80,
        tol: 1e-12,
        ..AlsOptions::with_variant(Variant::Dri)
    };
    let em = parafac_missing(&cluster(), &x, 2, &opts).unwrap();
    // EM-ALS on 40%-missing data: high observed fit (exact recovery needs
    // more sweeps than worth spending in a test).
    assert!(em.fit() > 0.95, "fit = {}", em.fit());

    let dir = std::env::temp_dir().join(format!("haten2_ext_test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("A.mat");
    haten2::linalg::save_mat(&em.factors[0], &path).unwrap();
    let back = haten2::linalg::load_mat(&path).unwrap();
    assert!(back.approx_eq(&em.factors[0], 1e-12));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn temporal_kb_four_way_pipeline() {
    let cfg = haten2::data::kb::KbConfig {
        n_subjects: 50,
        n_objects: 50,
        n_predicates: 8,
        n_concepts: 2,
        concept_entities: 7,
        concept_predicates: 2,
        triples_per_concept: 150,
        noise_triples: 50,
        literal_triples: 0,
        seed: 31,
        theme: haten2::data::kb::Theme::Music,
    };
    let tkb = TemporalKb::generate(&cfg, 10, 32);
    let x = tkb.to_tensor();
    assert_eq!(x.order(), 4);

    let res = nway_parafac_als(&cluster(), &x, 2, 8, 1e-6, 33).unwrap();
    assert_eq!(res.factors.len(), 4);
    assert!(res.fits.last().unwrap().is_finite());
    // 2 jobs per mode per sweep.
    assert_eq!(res.metrics.total_jobs() % 8, 0);
}

#[test]
fn nway_tucker_through_facade() {
    let mut t = DynTensor::new(vec![8, 7, 6, 5]);
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(34);
    for _ in 0..120 {
        let idx = [
            rng.gen_range(0..8),
            rng.gen_range(0..7),
            rng.gen_range(0..6),
            rng.gen_range(0..5),
        ];
        t.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
    }
    let t = t.coalesce();
    let res = nway_tucker_als(&cluster(), &t, &[2, 2, 2, 2], 4, 0.0, 35).unwrap();
    assert_eq!(res.core.dims(), &[2, 2, 2, 2]);
    for f in &res.factors {
        assert!(f.gram().approx_eq(&Mat::identity(f.cols()), 1e-7));
    }
}
