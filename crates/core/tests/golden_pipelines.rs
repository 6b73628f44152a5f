//! Golden bit-identity of the eight pipelines.
//!
//! One table pins, for every (decomposition × variant × target mode), an
//! FNV-1a digest of everything a pipeline run exposes: the committed
//! job-name sequence, every `JobMetrics::without_host_time()`, each batch's
//! `sim_makespan_s` (list-scheduled in submission order, so a reordering
//! moves it) and the output bits. Each row is run under both scheduler
//! modes, with and without a seeded `FaultPlan` (fault schedules are keyed
//! by submission index, so a shifted index moves the faulted digest).
//!
//! The digests were recorded at the last commit whose drivers submitted
//! every job by hand; whatever executes the pipelines now must reproduce
//! them exactly. After an *intended* change to a kernel, a record type or
//! the cost model, re-record: the failure message prints the table.

#![allow(clippy::unwrap_used)]

use haten2_core::parafac::mttkrp;
use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::Variant;
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig, FaultPlan, JobMetrics, SchedulerMode};
use haten2_tensor::{CooTensor3, Entry3};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `(row label, digest of a fault-free run, digest under the fault plan)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("tucker-naive/mode0", 0xafbe6739e82edbad, 0xff74c7ca2c690831),
    ("tucker-naive/mode1", 0x79ac19f02733eb29, 0x92437175b767d16a),
    ("tucker-naive/mode2", 0xee4cff1c2f18bb64, 0xdd6e38ef6c79c197),
    ("tucker-dnn/mode0", 0x4027e78c72f10732, 0x23a2f6e9c569161a),
    ("tucker-dnn/mode1", 0xdaaa9945b1c827d8, 0xbd9dc963122d7b1d),
    ("tucker-dnn/mode2", 0x9131ab5a82a12e5f, 0x5150d339a4ce7d1a),
    ("tucker-drn/mode0", 0x73de5a3809d1d514, 0x97c84f2e20997a9f),
    ("tucker-drn/mode1", 0x25b0f38b50a490a5, 0x6210db2cf8b2fc64),
    ("tucker-drn/mode2", 0x2520482cefcb132d, 0x3c0d70bb08637680),
    ("tucker-dri/mode0", 0x91a43137cac51ed8, 0xeb36163e089830fd),
    ("tucker-dri/mode1", 0x5e24ff34d151bb06, 0xc0e0a8ab4d21c33d),
    ("tucker-dri/mode2", 0xf34f5d2ff16e4735, 0xdd270861b29e7c0e),
    (
        "parafac-naive/mode0",
        0x91100cae1164ce06,
        0x0513011e31758c6f,
    ),
    (
        "parafac-naive/mode1",
        0x90992a512971861a,
        0x701c5f976ec6d930,
    ),
    (
        "parafac-naive/mode2",
        0x1ef44a188f483fd5,
        0x1edb2e400bc3e49b,
    ),
    ("parafac-dnn/mode0", 0x6bcef5049d72fb1c, 0xa470ad37f60de29b),
    ("parafac-dnn/mode1", 0x723ee50b3b3cda43, 0xb0bde9b36c873938),
    ("parafac-dnn/mode2", 0xc3f86177af3fe93e, 0x7281aa7b20be7797),
    ("parafac-drn/mode0", 0x00523b18a5f6dcf0, 0x7578d904e372d7b4),
    ("parafac-drn/mode1", 0x17f9a38eba001887, 0x530daf7fcc3b9bce),
    ("parafac-drn/mode2", 0xde3ebdd2d48b08dd, 0x302f233bc8d40c5a),
    ("parafac-dri/mode0", 0x1a35dd3709bda890, 0x0307521dfb5cb5db),
    ("parafac-dri/mode1", 0xe613db46c4221fb4, 0xb3e90da16a475a4d),
    ("parafac-dri/mode2", 0x3ea0853354fb5efd, 0xf849437fffb07368),
];

const DIMS: [u64; 3] = [7, 6, 5];

/// The rows of one decomposition, in table order: variant, label.
const CASES: [(Variant, &str); 4] = [
    (Variant::Naive, "naive"),
    (Variant::Dnn, "dnn"),
    (Variant::Drn, "drn"),
    (Variant::Dri, "dri"),
];

/// FNV-1a, 64-bit.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn tensor() -> CooTensor3 {
    let mut rng = StdRng::seed_from_u64(2015);
    let entries = (0..90)
        .map(|_| {
            Entry3::new(
                rng.gen_range(0..DIMS[0]),
                rng.gen_range(0..DIMS[1]),
                rng.gen_range(0..DIMS[2]),
                rng.gen_range(0.5..2.0),
            )
        })
        .collect();
    CooTensor3::from_entries(DIMS, entries).unwrap()
}

/// Run one row under `cfg` and digest what the run left on the cluster,
/// then the output bits.
fn run(tucker: bool, cfg: ClusterConfig, variant: Variant, x: &CooTensor3, mode: usize) -> u64 {
    let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
    let (d1, d2) = (x.dims()[others[0]] as usize, x.dims()[others[1]] as usize);
    let cluster = Cluster::new(cfg);
    let output: Vec<u64> = if tucker {
        let mut rng = StdRng::seed_from_u64(31 + mode as u64);
        let (u1, u2) = (Mat::random(2, d1, &mut rng), Mat::random(3, d2, &mut rng));
        let y = project(
            &cluster,
            variant,
            x,
            mode,
            &u1,
            &u2,
            &ProjectOptions::default(),
        );
        let entries = y.unwrap().entries().to_vec();
        let words = entries.iter().flat_map(|e| [e.i, e.j, e.k, e.v.to_bits()]);
        words.collect()
    } else {
        let mut rng = StdRng::seed_from_u64(47 + mode as u64);
        let (f1, f2) = (Mat::random(d1, 3, &mut rng), Mat::random(d2, 3, &mut rng));
        let m = mttkrp(&cluster, variant, x, mode, &f1, &f2).unwrap();
        let cells = (0..m.rows()).flat_map(|i| (0..m.cols()).map(move |r| (i, r)));
        cells.map(|(i, r)| m.get(i, r).to_bits()).collect()
    };

    let mut h = 0xcbf2_9ce4_8422_2325;
    let jobs = cluster.metrics().jobs;
    for j in &jobs {
        fnv(&mut h, j.name.as_bytes());
        fnv(&mut h, b"\n");
    }
    for j in jobs.iter().map(JobMetrics::without_host_time) {
        fnv(&mut h, format!("{j:?}").as_bytes());
    }
    let makespans = cluster
        .batch_reports()
        .into_iter()
        .map(|b| b.sim_makespan_s.to_bits());
    for word in makespans.chain(output) {
        fnv(&mut h, &word.to_le_bytes());
    }
    h
}

#[test]
fn every_pipeline_reproduces_its_recorded_digests() {
    let x = tensor();
    let mut computed: Vec<(String, u64, u64)> = Vec::new();
    for decomp in ["tucker", "parafac"] {
        for (variant, tag) in CASES {
            for mode in 0..3 {
                let label = format!("{decomp}-{tag}/mode{mode}");
                let per_mode = [SchedulerMode::Sequential, SchedulerMode::Dag].map(|scheduler| {
                    [false, true].map(|faults| {
                        let cfg = ClusterConfig {
                            // Fixed, so task counts and simulated slots do
                            // not follow the host.
                            threads: 3,
                            scheduler,
                            fault_plan: faults.then(|| FaultPlan::seeded(17)),
                            ..ClusterConfig::with_machines(4)
                        };
                        run(decomp == "tucker", cfg, variant, &x, mode)
                    })
                });
                let [clean, faulted] = per_mode[0];
                assert_eq!(
                    per_mode[0], per_mode[1],
                    "{label}: Sequential and Dag disagree"
                );
                assert_ne!(clean, faulted, "{label}: the fault plan injected nothing");
                computed.push((label, clean, faulted));
            }
        }
    }
    let recorded: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(l, c, f)| (l.to_string(), c, f))
        .collect();
    let table: String = computed
        .iter()
        .map(|(l, c, f)| format!("    (\"{l}\", {c:#018x}, {f:#018x}),\n"))
        .collect();
    assert!(
        computed == recorded,
        "digests moved; computed table:\n{table}"
    );
}
