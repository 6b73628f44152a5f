//! Direct tests of each distributed operation in `haten2_core::ops`
//! against the single-machine references in `haten2_tensor::ops`.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::ops::{
    collapse_job, cross_merge_job, hadamard_vec_job, imhp_job, join_on_slots,
    model_inner_product_job, naive_ttv_job, pairwise_merge_job, MergeInput, WrittenSide,
};
use haten2_core::records::{tensor_records, MergeLayout};
use haten2_linalg::Mat;
use haten2_mapreduce::{concat_partitions, Cluster, ClusterConfig};
use haten2_tensor::ops as reference;
use haten2_tensor::{CooTensor3, Entry3};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::with_machines(3))
}

/// How the merges of [`sample`] pack their records: labels of its modes 1
/// and 2, up to three columns, two sides.
fn layout() -> MergeLayout {
    MergeLayout::new("rank", [6, 4], 3, 2).unwrap()
}

/// `IMHP(X, B, C)`: the two-sided job of the 3-way pipelines, `T'` and
/// `T''` as the merge's map output its reduce tasks wrote. The job joins
/// `B` and `C` themselves, the transposes of `bt` and `ct`.
fn imhp(cluster: &Cluster, name: &str, x: &CooTensor3, bt: &Mat, ct: &Mat) -> MergeInput<'static> {
    let entries = tensor_records(x);
    let (b, c) = (bt.transpose(), ct.transpose());
    let written = imhp_job(
        cluster,
        name,
        &[&entries],
        &[&b, &c],
        join_on_slots,
        layout(),
    );
    MergeInput::Written(written.unwrap())
}

fn sample(seed: u64) -> CooTensor3 {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = (0..25)
        .map(|_| {
            Entry3::new(
                rng.gen_range(0..5),
                rng.gen_range(0..6),
                rng.gen_range(0..4),
                rng.gen_range(0.5..2.0),
            )
        })
        .collect();
    CooTensor3::from_entries([5, 6, 4], entries).unwrap()
}

#[test]
fn hadamard_vec_job_matches_reference() {
    let x = sample(1);
    let mut rng = StdRng::seed_from_u64(2);
    let v: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let out = hadamard_vec_job(&cluster(), "t", &[&tensor_records(&x)], 1, &v, None).unwrap();
    let out = concat_partitions(out);
    let want = reference::mode_hadamard_vec(&x, 1, &v).unwrap();
    assert_eq!(out.len(), want.nnz());
    for (ix, val) in out {
        assert!((want.get(ix.0, ix.1, ix.2) - val).abs() < 1e-12);
    }
}

#[test]
fn hadamard_vec_job_tags_slot3() {
    let x = sample(3);
    let v = vec![1.0; 6];
    let out = hadamard_vec_job(&cluster(), "t", &[&tensor_records(&x)], 1, &v, Some(7)).unwrap();
    let out = concat_partitions(out);
    assert!(out.iter().all(|(ix, _)| ix.3 == 7));
}

#[test]
fn collapse_job_matches_reference() {
    let x = sample(4);
    let out = collapse_job(&cluster(), "t", &[&tensor_records(&x)], 1, false).unwrap();
    let out = concat_partitions(out);
    let want = reference::collapse(&x, 1).unwrap();
    assert_eq!(out.len(), want.nnz());
    for (ix, val) in out {
        assert!((want.get(ix.0, ix.1, ix.2) - val).abs() < 1e-12);
    }
}

#[test]
fn collapse_job_combiner_equivalent() {
    let x = sample(5);
    let records = tensor_records(&x);
    let mut a = concat_partitions(collapse_job(&cluster(), "t", &[&records], 2, false).unwrap());
    let mut b = concat_partitions(collapse_job(&cluster(), "t", &[&records], 2, true).unwrap());
    a.sort_by_key(|x| x.0);
    b.sort_by_key(|x| x.0);
    assert_eq!(a.len(), b.len());
    for ((ia, va), (ib, vb)) in a.iter().zip(&b) {
        assert_eq!(ia, ib);
        assert!((va - vb).abs() < 1e-12);
    }
}

#[test]
fn naive_ttv_job_matches_reference() {
    let x = sample(6);
    let mut rng = StdRng::seed_from_u64(7);
    let v: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let dims4 = [5, 6, 4, 1];
    let out = naive_ttv_job(&cluster(), "t", &[&tensor_records(&x)], dims4, 1, &v).unwrap();
    let out = concat_partitions(out);
    let want = reference::ttv(&x, 1, &v).unwrap();
    let got: HashMap<(u64, u64, u64), f64> = out
        .into_iter()
        .map(|(ix, v)| ((ix.0, ix.1, ix.2), v))
        .collect();
    for e in want.entries() {
        let g = got.get(&(e.i, e.j, e.k)).copied().unwrap_or(0.0);
        assert!(
            (g - e.v).abs() < 1e-10,
            "at ({},{},{}): {g} vs {}",
            e.i,
            e.j,
            e.k,
            e.v
        );
    }
}

#[test]
fn imhp_job_produces_both_expansions() {
    let x = sample(8);
    let mut rng = StdRng::seed_from_u64(9);
    let bt = Mat::random(3, 6, &mut rng); // Q x J
    let ct = Mat::random(2, 4, &mut rng); // R x K
    let entries = tensor_records(&x);
    let (b, c) = (bt.transpose(), ct.transpose());
    let written = imhp_job(
        &cluster(),
        "t",
        &[&entries],
        &[&b, &c],
        join_on_slots,
        layout(),
    );
    let written = written.unwrap();
    // Both sides, already mapped for the merge; read back as records they
    // are the expansions.
    let [tp, tdp]: [WrittenSide; 2] = written.try_into().ok().unwrap();
    let (tp, tdp) = (tp.records(), tdp.records());
    // T' = X *₂ Bᵀ (values multiplied), T'' = bin(X) *₃ Cᵀ (coefs only).
    let want_tp = reference::mode_hadamard_mat(&x, 1, &bt).unwrap();
    let want_tdp = reference::mode_hadamard_mat(&x.bin(), 2, &ct).unwrap();
    assert_eq!(tp.len(), want_tp.nnz());
    assert_eq!(tdp.len(), want_tdp.nnz());
    for (ix, v) in &tp {
        assert!((want_tp.get(&[ix.0, ix.1, ix.2, ix.3]) - v).abs() < 1e-12);
    }
    for (ix, v) in &tdp {
        assert!((want_tdp.get(&[ix.0, ix.1, ix.2, ix.3]) - v).abs() < 1e-12);
    }
    // Exactly one job ran.
    // (Cluster is fresh per call in this test harness, so re-run and count.)
    let c = cluster();
    imhp(&c, "count", &x, &bt, &ct);
    assert_eq!(c.metrics().total_jobs(), 1);
}

#[test]
fn cross_merge_job_matches_reference() {
    let x = sample(10);
    let mut rng = StdRng::seed_from_u64(11);
    let bt = Mat::random(3, 6, &mut rng);
    let ct = Mat::random(2, 4, &mut rng);
    let c = cluster();
    let written = imhp(&c, "imhp", &x, &bt, &ct);
    let merged = cross_merge_job(&c, "merge", written, &[3, 2], layout()).unwrap();
    let merged = concat_partitions(merged);
    let want = reference::cross_merge(
        &reference::mode_hadamard_mat(&x, 1, &bt).unwrap(),
        &reference::mode_hadamard_mat(&x.bin(), 2, &ct).unwrap(),
    )
    .unwrap();
    assert_eq!(merged.len(), want.nnz());
    for (ix, v) in merged {
        assert!((want.get(&[ix.0, ix.1, ix.2]) - v).abs() < 1e-10);
    }
}

#[test]
fn pairwise_merge_job_matches_reference() {
    let x = sample(12);
    let mut rng = StdRng::seed_from_u64(13);
    let r = 3;
    let bt = Mat::random(r, 6, &mut rng);
    let ct = Mat::random(r, 4, &mut rng);
    let c = cluster();
    let written = imhp(&c, "imhp", &x, &bt, &ct);
    let merged = pairwise_merge_job(&c, "merge", written, r as u64, layout()).unwrap();
    let merged = concat_partitions(merged);
    let want = reference::pairwise_merge(
        &reference::mode_hadamard_mat(&x, 1, &bt).unwrap(),
        &reference::mode_hadamard_mat(&x.bin(), 2, &ct).unwrap(),
    )
    .unwrap();
    let got: HashMap<(u64, u64), f64> = merged
        .into_iter()
        .map(|(ix, v)| ((ix.0, ix.1), v))
        .collect();
    for (idx, v) in want.iter() {
        let g = got.get(&(idx[0], idx[1])).copied().unwrap_or(0.0);
        assert!((g - v).abs() < 1e-10);
    }
}

#[test]
fn model_inner_product_job_matches_driver() {
    let x = sample(14);
    let mut rng = StdRng::seed_from_u64(15);
    let rank = 3;
    let a = Mat::random(5, rank, &mut rng);
    let b = Mat::random(6, rank, &mut rng);
    let cm = Mat::random(4, rank, &mut rng);
    let lambda: Vec<f64> = (0..rank).map(|_| rng.gen_range(0.5..2.0)).collect();

    let got = model_inner_product_job(
        &cluster(),
        "fit",
        &tensor_records(&x),
        [&a, &b, &cm],
        &lambda,
    )
    .unwrap();

    let mut want = 0.0;
    for e in x.entries() {
        for (r, &l) in lambda.iter().enumerate() {
            want +=
                e.v * l * a.get(e.i as usize, r) * b.get(e.j as usize, r) * cm.get(e.k as usize, r);
        }
    }
    assert!((got - want).abs() < 1e-10, "{got} vs {want}");
}

#[test]
fn merge_jobs_shuffle_exactly_table_costs() {
    // CrossMerge shuffles nnz(Q+R); PairwiseMerge shuffles 2·nnz·R.
    let x = sample(16);
    let mut rng = StdRng::seed_from_u64(17);
    let (q, r) = (3usize, 2usize);
    let bt = Mat::random(q, 6, &mut rng);
    let ct = Mat::random(r, 4, &mut rng);
    let c = cluster();
    let written = imhp(&c, "imhp", &x, &bt, &ct);
    let mark = c.jobs_run();
    cross_merge_job(&c, "cross", written, &[3, 2], layout()).unwrap();
    let m = c.metrics_since(mark);
    assert_eq!(m.jobs[0].map_output_records, x.nnz() * (q + r));

    let bt = Mat::random(r, 6, &mut rng);
    let written = imhp(&c, "imhp2", &x, &bt, &ct);
    let mark = c.jobs_run();
    pairwise_merge_job(&c, "pair", written, r as u64, layout()).unwrap();
    let m = c.metrics_since(mark);
    assert_eq!(m.jobs[0].map_output_records, 2 * x.nnz() * r);
}
