//! Property-based tests for tensor invariants.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_linalg::Mat;
use haten2_tensor::ops::{
    collapse, cross_merge, mode_hadamard_mat, mode_hadamard_vec, mttkrp_dense, pairwise_merge, ttm,
    ttv,
};
use haten2_tensor::{CooTensor3, DynTensor, Entry3};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Strategy: a small random sparse tensor (dims 2..6 per mode, up to 24 nnz).
fn coo_strategy() -> impl Strategy<Value = CooTensor3> {
    (2u64..6, 2u64..6, 2u64..6, 1usize..24, any::<u64>()).prop_map(|(i, j, k, n, seed)| {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bin_is_idempotent(t in coo_strategy()) {
        let b = t.bin();
        prop_assert_eq!(b.bin(), b.clone());
        prop_assert_eq!(b.nnz(), t.nnz());
    }

    #[test]
    fn matricize_preserves_frobenius(t in coo_strategy()) {
        for mode in 0..3 {
            let m = t.matricize(mode).unwrap().to_dense().unwrap();
            prop_assert!((m.fro_norm() - t.fro_norm()).abs() < 1e-10);
        }
    }

    #[test]
    fn ttv_linear_in_vector(t in coo_strategy(), seed in any::<u64>()) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let jd = t.dims()[1] as usize;
        let v1: Vec<f64> = (0..jd).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let v2: Vec<f64> = (0..jd).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sum: Vec<f64> = v1.iter().zip(&v2).map(|(a, b)| a + b).collect();
        let lhs = ttv(&t, 1, &sum).unwrap();
        let r1 = ttv(&t, 1, &v1).unwrap();
        let r2 = ttv(&t, 1, &v2).unwrap();
        // lhs == r1 + r2 elementwise over the union of supports.
        for e in lhs.entries() {
            let expect = r1.get(e.i, e.j, e.k) + r2.get(e.i, e.j, e.k);
            prop_assert!((e.v - expect).abs() < 1e-10);
        }
        for e in r1.entries() {
            let expect = lhs.get(e.i, e.j, e.k) - r2.get(e.i, e.j, e.k);
            prop_assert!((e.v - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn hadamard_then_collapse_equals_ttv(t in coo_strategy(), mode in 0usize..3, seed in any::<u64>()) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = t.dims()[mode] as usize;
        let v: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let lhs = ttv(&t, mode, &v).unwrap();
        let rhs = collapse(&mode_hadamard_vec(&t, mode, &v).unwrap(), mode).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn lemma1_cross_merge_equivalence(t in coo_strategy(), seed in any::<u64>()) {
        // X ×₂ Bᵀ ×₃ Cᵀ == CrossMerge(X *₂ Bᵀ, bin(X) *₃ Cᵀ)₍₁₎
        let mut rng = StdRng::seed_from_u64(seed);
        let (q, r) = (2usize, 2usize);
        let b = Mat::random(q, t.dims()[1] as usize, &mut rng);
        let c = Mat::random(r, t.dims()[2] as usize, &mut rng);
        let lhs = ttm(&ttm(&t, 1, &b).unwrap(), 2, &c).unwrap();
        let merged = cross_merge(
            &mode_hadamard_mat(&t, 1, &b).unwrap(),
            &mode_hadamard_mat(&t.bin(), 2, &c).unwrap(),
        ).unwrap();
        for (idx, v) in merged.iter() {
            prop_assert!((lhs.get(idx[0], idx[1], idx[2]) - v).abs() < 1e-9);
        }
        prop_assert_eq!(merged.nnz(), lhs.nnz());
    }

    #[test]
    fn lemma2_pairwise_merge_equivalence(t in coo_strategy(), seed in any::<u64>()) {
        // X₍₁₎(C ⊙ B) == PairwiseMerge(X *₂ Bᵀ, bin(X) *₃ Cᵀ)₍₁₎
        let mut rng = StdRng::seed_from_u64(seed);
        let r = 3usize;
        let b = Mat::random(t.dims()[1] as usize, r, &mut rng);
        let c = Mat::random(t.dims()[2] as usize, r, &mut rng);
        let lhs = mttkrp_dense(&t, 0, [&b, &b, &c]).unwrap();
        let merged = pairwise_merge(
            &mode_hadamard_mat(&t, 1, &b.transpose()).unwrap(),
            &mode_hadamard_mat(&t.bin(), 2, &c.transpose()).unwrap(),
        ).unwrap();
        for (idx, v) in merged.iter() {
            prop_assert!((lhs.get(idx[0] as usize, idx[1] as usize) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn mttkrp_matches_matricized_khatri_rao_all_modes(t in coo_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = 2usize;
        let a = Mat::random(t.dims()[0] as usize, r, &mut rng);
        let b = Mat::random(t.dims()[1] as usize, r, &mut rng);
        let c = Mat::random(t.dims()[2] as usize, r, &mut rng);
        // mode 0: X₍₁₎(C ⊙ B); mode 1: X₍₂₎(C ⊙ A); mode 2: X₍₃₎(B ⊙ A)
        let pairs = [(0usize, &c, &b), (1, &c, &a), (2, &b, &a)];
        for (mode, left, right) in pairs {
            let fast = mttkrp_dense(&t, mode, [&a, &b, &c]).unwrap();
            let xm = t.matricize(mode).unwrap().to_dense().unwrap();
            let kr = left.khatri_rao(right).unwrap();
            let slow = xm.matmul(&kr).unwrap();
            prop_assert!(fast.approx_eq(&slow, 1e-9), "mode {mode}");
        }
    }

    #[test]
    fn dyn_collapse_reduces_norm_count(t in coo_strategy()) {
        let d = DynTensor::from_coo3(&t);
        let c = d.collapse(1).unwrap();
        prop_assert!(c.nnz() <= d.nnz());
        // Total mass preserved.
        let sum_before: f64 = (0..d.nnz()).map(|e| d.value(e)).sum();
        let sum_after: f64 = (0..c.nnz()).map(|e| c.value(e)).sum();
        prop_assert!((sum_before - sum_after).abs() < 1e-10);
    }

    #[test]
    fn io_roundtrip(t in coo_strategy()) {
        let mut buf = Vec::new();
        haten2_tensor::io::write_coo3(&t, &mut buf).unwrap();
        let back = haten2_tensor::io::read_coo3(t.dims(), &buf[..]).unwrap();
        prop_assert_eq!(back.nnz(), t.nnz());
        for e in t.entries() {
            prop_assert!((back.get(e.i, e.j, e.k) - e.v).abs() < 1e-9);
        }
    }
}
