//! Property-based tests: the distributed kernels agree with the dense
//! reference implementations on arbitrary sparse tensors, for every
//! variant, every mode, and any cluster geometry.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::parafac::mttkrp;
use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::{env_for, plan_for, Decomp, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig};
use haten2_tensor::ops::{mttkrp_dense, ttm};
use haten2_tensor::{CooTensor3, Entry3};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn coo_strategy() -> impl Strategy<Value = CooTensor3> {
    (2u64..6, 2u64..6, 2u64..6, 1usize..20, any::<u64>()).prop_map(|(i, j, k, n, seed)| {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mttkrp_all_variants_match_reference(
        t in coo_strategy(),
        mode in 0usize..3,
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = 2usize;
        let a = Mat::random(t.dims()[0] as usize, r, &mut rng);
        let b = Mat::random(t.dims()[1] as usize, r, &mut rng);
        let c = Mat::random(t.dims()[2] as usize, r, &mut rng);
        let factors = [&a, &b, &c];
        let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        let want = mttkrp_dense(&t, mode, [&a, &b, &c]).unwrap();
        for variant in Variant::ALL {
            let cluster = Cluster::new(ClusterConfig::with_machines(machines));
            let got = mttkrp(&cluster, variant, &t, mode, factors[others[0]], factors[others[1]])
                .unwrap();
            prop_assert!(got.approx_eq(&want, 1e-8), "{variant} mode {mode}");
        }
    }

    #[test]
    fn tucker_project_all_variants_match_reference(
        t in coo_strategy(),
        mode in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        let u1 = Mat::random(2, t.dims()[others[0]] as usize, &mut rng);
        let u2 = Mat::random(2, t.dims()[others[1]] as usize, &mut rng);
        // Reference: sequential sparse ttm, then put target mode first.
        let ref_y = ttm(&ttm(&t, others[0], &u1).unwrap(), others[1], &u2).unwrap();
        for variant in Variant::ALL {
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            let y = project(&cluster, variant, &t, mode, &u1, &u2, &ProjectOptions::default())
                .unwrap();
            for e in y.entries() {
                // y is (target, q, r); map back to the reference layout.
                let mut idx = [0u64; 3];
                idx[mode] = e.i;
                idx[others[0]] = e.j;
                idx[others[1]] = e.k;
                let want = ref_y.get(idx[0], idx[1], idx[2]);
                prop_assert!((e.v - want).abs() < 1e-8, "{variant} mode {mode}");
            }
            prop_assert_eq!(y.nnz(), ref_y.nnz(), "{} mode {}", variant, mode);
        }
    }

    #[test]
    fn job_counts_invariant_to_cluster_geometry(
        t in coo_strategy(),
        machines in 1usize..8,
        threads in 1usize..4,
    ) {
        // Job count is an algorithm property, not an execution property.
        let mut rng = StdRng::seed_from_u64(7);
        let r = 2usize;
        let f1 = Mat::random(t.dims()[1] as usize, r, &mut rng);
        let f2 = Mat::random(t.dims()[2] as usize, r, &mut rng);
        for variant in Variant::ALL {
            let cfg = ClusterConfig { threads, ..ClusterConfig::with_machines(machines) };
            let cluster = Cluster::new(cfg);
            mttkrp(&cluster, variant, &t, 0, &f1, &f2).unwrap();
            let planned = plan_for(Decomp::Parafac, variant)
                .total_jobs()
                .eval(&env_for(t.dims(), t.nnz(), r, r, machines));
            prop_assert_eq!(cluster.metrics().total_jobs() as u128, planned, "{}", variant);
        }
    }

    #[test]
    fn combiner_does_not_change_tucker_result(t in coo_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u1 = Mat::random(2, t.dims()[1] as usize, &mut rng);
        let u2 = Mat::random(2, t.dims()[2] as usize, &mut rng);
        let run = |use_combiner: bool| {
            let cluster = Cluster::new(ClusterConfig::with_machines(3));
            project(
                &cluster,
                Variant::Dnn,
                &t,
                0,
                &u1,
                &u2,
                &ProjectOptions { use_combiner },
            )
            .unwrap()
        };
        let plain = run(false);
        let combined = run(true);
        prop_assert_eq!(plain.nnz(), combined.nnz());
        for e in plain.entries() {
            prop_assert!((combined.get(e.i, e.j, e.k) - e.v).abs() < 1e-10);
        }
    }

    #[test]
    fn intermediate_records_scale_with_rank_for_dri(
        t in coo_strategy(),
        r1 in 1usize..3,
    ) {
        // DRI's merge job maps exactly 2·nnz·R records (Table IV). (The
        // IMHP job can emit more on tiny tensors where the factor rows
        // outnumber nonzeros, so look at the merge job specifically.)
        let r2 = r1 * 2;
        let rng = StdRng::seed_from_u64(3);
        let run = |r: usize| {
            let f1 = Mat::random(t.dims()[1] as usize, r, &mut rng.clone());
            let f2 = Mat::random(t.dims()[2] as usize, r, &mut rng.clone());
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            mttkrp(&cluster, Variant::Dri, &t, 0, &f1, &f2).unwrap();
            let m = cluster.metrics();
            m.jobs
                .iter()
                .find(|j| j.name.contains("pairwisemerge"))
                .expect("merge job ran")
                .map_output_records
        };
        let m1 = run(r1);
        let m2 = run(r2);
        prop_assert_eq!(m1, 2 * t.nnz() * r1);
        prop_assert_eq!(m2, 2 * t.nnz() * r2);
    }
}
