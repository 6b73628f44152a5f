//! Property tests: a job's input is one dataset, however it is held.
//!
//! A merge reads its sides as shards, cut anywhere, or — in the DRI
//! pipelines — takes them as IMHP's reduce tasks wrote them, already the
//! merge's partitioned map output. A per-column kernel reads the reduce
//! partitions of the job before it as its shards. Every form must be the
//! same job as reading each dataset as one shard of the same records: same
//! output bits in the same order, same metrics, on any cluster shape, under
//! injected faults too.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::ops::{
    collapse_job, cross_merge_job, hadamard_vec_job, imhp_job, join_on_slots, naive_ttv_job,
    pairwise_merge_job, MergeInput, Partitions, Shards, TensorRecords, WrittenSide,
};
use haten2_core::records::{tensor_records, MergeLayout};
use haten2_core::Ix4;
use haten2_linalg::Mat;
use haten2_mapreduce::{
    concat_partitions, Chunks, Cluster, ClusterConfig, FaultPlan, JobMetrics, Result,
};
use haten2_tensor::{CooTensor3, Entry3};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

type Merge = fn(&Cluster, MergeInput<'_>) -> Result<Partitions>;

/// How the merges below pack their records: labels of [`skewed_tensor`]'s
/// modes 1 and 2, three columns, two sides.
fn layout() -> MergeLayout {
    MergeLayout::new("rank", [6, 5], 3, 2).unwrap()
}

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

/// Where each job under test runs: a fresh cluster of this shape, on
/// which its producer runs first, so the job is job 1 — with the same
/// fault schedule — whichever input it reads.
struct Shape {
    machines: usize,
    threads: usize,
    faults: Option<FaultPlan>,
}

impl Shape {
    fn cluster(&self) -> Cluster {
        let mut cfg = ClusterConfig::with_machines(self.machines);
        cfg.threads = self.threads;
        cfg.fault_plan = self.faults.clone();
        Cluster::new(cfg)
    }

    /// A fresh cluster, and the sides IMHP wrote on it, joining `B` and
    /// `C` themselves, the transposes of `bt` and `ct`.
    fn imhp(&self, x: &CooTensor3, bt: &Mat, ct: &Mat) -> (Cluster, Vec<WrittenSide>) {
        let cluster = self.cluster();
        let entries = tensor_records(x);
        let (b, c) = (bt.transpose(), ct.transpose());
        let sides = [&b, &c];
        let written = imhp_job(
            &cluster,
            "imhp",
            &[&entries],
            &sides,
            join_on_slots,
            layout(),
        );
        let written = written.unwrap();
        (cluster, written)
    }

    /// A fresh cluster, and the reduce partitions a per-column Hadamard
    /// job, `x *̄₂ v` keyed on slot 1, wrote on it.
    fn hadamard(&self, x: &CooTensor3, v: &[f64]) -> (Cluster, Partitions) {
        let cluster = self.cluster();
        let entries = tensor_records(x);
        let partitions = hadamard_vec_job(&cluster, "had-b", &[&entries], 1, v, None).unwrap();
        (cluster, partitions)
    }
}

/// What `job` wrote on `cluster`, its partitions concatenated, with the
/// metrics of the job it ran.
fn metered(
    cluster: &Cluster,
    job: impl FnOnce(&Cluster) -> Result<Partitions>,
) -> (TensorRecords, JobMetrics) {
    let mark = cluster.jobs_run();
    let records = concat_partitions(job(cluster).unwrap());
    let job = cluster.metrics_since(mark).jobs.remove(0);
    (records, job.without_host_time())
}

fn check(merge: Merge, x: &CooTensor3, shape: &Shape, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let bt = Mat::random(3, 6, &mut rng);
    let ct = Mat::random(3, 5, &mut rng);

    // The reference: each side read back from what IMHP wrote, as one shard.
    let (cluster, written) = shape.imhp(x, &bt, &ct);
    let t_prime = written[0].records();
    let t_dprime = written[1].records();
    let one: [&[(Ix4, f64)]; 2] = [&t_prime, &t_dprime];
    let sides: [Shards<'_>; 2] = [&one[..1], &one[1..]];
    let (whole, whole_metrics) = metered(&cluster, |c| merge(c, MergeInput::Shards(&sides)));

    // IMHP's output as written, taken by the merge: the same job.
    let (cluster, written) = shape.imhp(x, &bt, &ct);
    let (taken, taken_metrics) = metered(&cluster, |c| merge(c, MergeInput::Written(written)));
    assert_eq!(bits(&taken), bits(&whole), "as written");
    assert_eq!(taken_metrics, whole_metrics, "as written");

    // Shards are read in order, as if concatenated, wherever they are cut.
    let (a, b) = t_prime.split_at(t_prime.len() / 2);
    let cut: [&[(Ix4, f64)]; 3] = [a, &[], b];
    let sides: [Shards<'_>; 2] = [&cut, &one[1..]];
    let (cluster, _) = shape.imhp(x, &bt, &ct);
    let (sharded, sharded_metrics) = metered(&cluster, |c| merge(c, MergeInput::Shards(&sides)));
    assert_eq!(bits(&sharded), bits(&whole), "two-shard T'");
    assert_eq!(sharded_metrics, whole_metrics, "two-shard T'");
}

/// `kernel` over the partitions a Hadamard job wrote, read as its shards,
/// against `kernel` over their concatenation, read as one shard.
fn check_per_column(
    kernel: impl Fn(&Cluster, Shards<'_>) -> Result<Partitions>,
    x: &CooTensor3,
    shape: &Shape,
    seed: u64,
) {
    let v = column(seed, 6);

    let (cluster, partitions) = shape.hadamard(x, &v);
    let whole = concat_partitions(partitions);
    let (want, want_metrics) = metered(&cluster, |c| kernel(c, &[&whole]));

    let (cluster, partitions) = shape.hadamard(x, &v);
    let shards: Vec<&[(Ix4, f64)]> = partitions.iter().map(Vec::as_slice).collect();
    let (got, got_metrics) = metered(&cluster, |c| kernel(c, &shards));
    assert_eq!(bits(&got), bits(&want), "{} shards", shards.len());
    assert_eq!(got_metrics, want_metrics, "{} shards", shards.len());
}

/// A factor column of `len` rows, from `seed`.
fn column(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn shape(machines: usize, threads: usize, faulted: bool, seed: u64) -> Shape {
    Shape {
        machines,
        threads,
        faults: faulted.then(|| FaultPlan::seeded(seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_cross_merge_equals_the_one_shard_merge(
        x in skewed_tensor(),
        machines in 1usize..6,
        threads in 1usize..5,
        faulted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check(
            |c, sides| cross_merge_job(c, "crossmerge", sides, &[3, 3], layout()),
            &x, &shape(machines, threads, faulted, seed), seed,
        );
    }

    #[test]
    fn sharded_pairwise_merge_equals_the_one_shard_merge(
        x in skewed_tensor(),
        machines in 1usize..6,
        threads in 1usize..5,
        faulted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check(
            |c, sides| pairwise_merge_job(c, "pairwisemerge", sides, 3, layout()),
            &x, &shape(machines, threads, faulted, seed), seed,
        );
    }

    #[test]
    fn sharded_hadamard_equals_the_one_shard_hadamard(
        x in skewed_tensor(),
        machines in 1usize..6,
        threads in 1usize..5,
        faulted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let w = column(seed ^ 1, 5);
        check_per_column(
            |c, t| hadamard_vec_job(c, "had-c", t, 2, &w, Some(1)),
            &x, &shape(machines, threads, faulted, seed), seed,
        );
    }

    #[test]
    fn sharded_collapse_equals_the_one_shard_collapse(
        x in skewed_tensor(),
        machines in 1usize..6,
        threads in 1usize..5,
        faulted in any::<bool>(),
        combined in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check_per_column(
            |c, t| collapse_job(c, "collapse-j", t, 1, combined),
            &x, &shape(machines, threads, faulted, seed), seed,
        );
    }

    #[test]
    fn sharded_naive_ttv_equals_the_one_shard_naive_ttv(
        x in skewed_tensor(),
        machines in 1usize..6,
        threads in 1usize..5,
        faulted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let w = column(seed ^ 1, 5);
        let dims = [x.dims()[0], 6, 5, 1];
        check_per_column(
            |c, t| naive_ttv_job(c, "naive-tc", t, dims, 2, &w),
            &x, &shape(machines, threads, faulted, seed), seed,
        );
    }
}

/// A Hadamard job whose partitions outgrow a chunk writes each as several
/// shards, none longer than a chunk, and the next job reads them as it
/// reads their concatenation.
#[test]
fn a_partition_longer_than_a_chunk_is_several_shards() {
    let most = Chunks::<Ix4, f64>::chunk_len();
    let mut rng = StdRng::seed_from_u64(11);
    let dims = [60, 6, 60];
    let entries = (0..3 * most)
        .map(|_| {
            let (i, j, k) = (
                rng.gen_range(0..60),
                rng.gen_range(0..6),
                rng.gen_range(0..60),
            );
            Entry3::new(i, j, k, rng.gen_range(-2.0..2.0f64))
        })
        .collect();
    let x = CooTensor3::from_entries(dims, entries).unwrap();
    for machines in [1, 2] {
        let shape = shape(machines, 2, false, 0);
        let (_, partitions) = shape.hadamard(&x, &column(3, 6));
        assert!(partitions.len() > machines, "{} shards", partitions.len());
        assert!(partitions.iter().all(|p| !p.is_empty() && p.len() <= most));
        check_per_column(
            |c, t| collapse_job(c, "collapse-j", t, 1, false),
            &x,
            &shape,
            3,
        );
    }
}
