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
//! Whatever executes the pipelines must reproduce the recorded digests
//! exactly. After an *intended* change to a kernel, a record type or
//! the cost model, re-record: the failure message prints the table.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::parafac::mttkrp;
use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::Variant;
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig, FaultPlan, JobMetrics, SchedulerMode};
use haten2_tensor::{CooTensor3, Entry3};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `(row label, digest of a fault-free run, digest under the fault plan)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("tucker-naive/mode0", 0x1d9612e1b7529e6f, 0xcdb999f53f598ef3),
    ("tucker-naive/mode1", 0xa32ae9744a2d07fb, 0xa65c910b47ff4bb0),
    ("tucker-naive/mode2", 0x279eda4b269393ee, 0x528a8f09d9460025),
    ("tucker-dnn/mode0", 0x014d0607e5e8dd78, 0x759c8fb8112e7e90),
    ("tucker-dnn/mode1", 0xa0856c4abeb6db6a, 0xf2b72ec9a19df73b),
    ("tucker-dnn/mode2", 0x1e4efb97e5876a1d, 0x98b8738b3c0869c8),
    ("tucker-drn/mode0", 0x6c6088976cbcb4e8, 0xadb53bf25a1c36c3),
    ("tucker-drn/mode1", 0xfba0f2dedb49ea11, 0x588934624cce15c8),
    ("tucker-drn/mode2", 0x1921f1f9b5899b69, 0x732ed4e09be369dc),
    ("tucker-dri/mode0", 0x49f386cadc7c1d48, 0x0289de022ff166e9),
    ("tucker-dri/mode1", 0xff9ab86b564d8d76, 0x6f4725dd00af992d),
    ("tucker-dri/mode2", 0x0e44b0831c6a1269, 0x499bab895a0acdce),
    (
        "parafac-naive/mode0",
        0xdfd5cda04b2cc07a,
        0xcb2efc4283de3513,
    ),
    (
        "parafac-naive/mode1",
        0xa44c4b0bcc06b01a,
        0xa0f6ba11959b1f0c,
    ),
    (
        "parafac-naive/mode2",
        0x38646824494a5319,
        0x62a55150b48dc8e3,
    ),
    ("parafac-dnn/mode0", 0x7f883e538d526e20, 0xc8fa762ac42f1da3),
    ("parafac-dnn/mode1", 0xb9f91def7246f9db, 0x26eafa5376e5eddc),
    ("parafac-dnn/mode2", 0xf6cb060c40b02fd2, 0x89f83aa473feb4b7),
    ("parafac-drn/mode0", 0x230cc96992d31e12, 0x43e9cebf64e9917a),
    ("parafac-drn/mode1", 0x5ae33331fca20b95, 0x6a731c8144074648),
    ("parafac-drn/mode2", 0xad5affc5869fc4ef, 0xf47733e21d80ee80),
    ("parafac-dri/mode0", 0x660b76483b867600, 0x2791fc0485dcd037),
    ("parafac-dri/mode1", 0xa194b3b2363e8698, 0xf0365ecb93715579),
    ("parafac-dri/mode2", 0x91e255b916692b69, 0xfa82d5050838b184),
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
