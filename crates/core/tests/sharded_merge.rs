//! Property tests: a merge reads its input as shards, wherever they are cut.
//!
//! IMHP's reduce tasks write `T'` and `T''` as one shard per partition and
//! the merge's map tasks read them in place. Reading a side as those many
//! shards — or as one shard cut anywhere, an empty shard included — must be
//! the same job as reading it as one concatenated shard: same output bits,
//! same metrics.

#![allow(clippy::unwrap_used)]

use haten2_core::ops::{
    cross_merge_job, imhp_job, join_on_slots, pairwise_merge_job, Shards, TensorRecords,
};
use haten2_core::records::tensor_records;
use haten2_core::Ix4;
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig, JobMetrics};
use haten2_tensor::{CooTensor3, Entry3};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

type Merge = fn(&Cluster, Shards<'_>, Shards<'_>) -> haten2_mapreduce::Result<TensorRecords>;

fn bits(records: &[(Ix4, f64)]) -> Vec<(Ix4, u64)> {
    records.iter().map(|&(ix, v)| (ix, v.to_bits())).collect()
}

/// A tensor with few target-mode indices (heavy reduce groups) and values
/// whose products round, so a reordered fold shows in the low bits.
fn skewed_tensor() -> impl Strategy<Value = CooTensor3> {
    (2u64..9, 10usize..80, any::<u64>()).prop_map(|(i_dim, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = (0..n)
            .map(|_| {
                Entry3::new(
                    rng.gen_range(0..i_dim),
                    rng.gen_range(0..6),
                    rng.gen_range(0..5),
                    rng.gen_range(-2.0..2.0f64),
                )
            })
            .collect();
        CooTensor3::from_entries([i_dim, 6, 5], entries).unwrap()
    })
}

/// `merge` on `cluster`, with the metrics of the job it ran.
fn metered(
    merge: Merge,
    cluster: &Cluster,
    t_prime: Shards<'_>,
    t_dprime: Shards<'_>,
) -> (TensorRecords, JobMetrics) {
    let mark = cluster.jobs_run();
    let records = merge(cluster, t_prime, t_dprime).unwrap();
    let job = cluster.metrics_since(mark).jobs.remove(0);
    (records, job.without_host_time())
}

fn check(merge: Merge, x: &CooTensor3, machines: usize, seed: u64) {
    let cluster = Cluster::new(ClusterConfig::with_machines(machines));
    let mut rng = StdRng::seed_from_u64(seed);
    let bt = Mat::random(3, 6, &mut rng);
    let ct = Mat::random(3, 5, &mut rng);
    let written = imhp_job(
        &cluster,
        "imhp",
        &[&tensor_records(x)],
        &[&bt, &ct],
        join_on_slots,
    )
    .unwrap();
    let [tp_written, tdp_written]: [Vec<TensorRecords>; 2] = written.try_into().unwrap();
    let (t_prime, t_dprime) = (tp_written.concat(), tdp_written.concat());
    let (whole, whole_metrics) = metered(merge, &cluster, &[&t_prime], &[&t_dprime]);

    // The shards as IMHP wrote them, one per reduce partition (their
    // boundaries fall anywhere relative to the merge's map tasks), read
    // in place: the same job as over one concatenated shard per side.
    let tp_shards: Vec<&[_]> = tp_written.iter().map(Vec::as_slice).collect();
    let tdp_shards: Vec<&[_]> = tdp_written.iter().map(Vec::as_slice).collect();
    let (sharded, sharded_metrics) = metered(merge, &cluster, &tp_shards, &tdp_shards);
    assert_eq!(bits(&sharded), bits(&whole), "as-written shards");
    assert_eq!(sharded_metrics, whole_metrics, "as-written shards");

    // Shards are read in order, as if concatenated, wherever they are cut.
    let (a, b) = t_prime.split_at(t_prime.len() / 2);
    let sharded = merge(&cluster, &[a, &[], b], &[&t_dprime]).unwrap();
    assert_eq!(bits(&sharded), bits(&whole), "two-shard T'");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_cross_merge_equals_the_one_shard_merge(
        x in skewed_tensor(),
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        check(
            |c, tp, tdp| cross_merge_job(c, "crossmerge", &[tp, tdp], &[3, 3]),
            &x, machines, seed,
        );
    }

    #[test]
    fn sharded_pairwise_merge_equals_the_one_shard_merge(
        x in skewed_tensor(),
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        check(
            |c, tp, tdp| pairwise_merge_job(c, "pairwisemerge", &[tp, tdp], 3),
            &x, machines, seed,
        );
    }
}
