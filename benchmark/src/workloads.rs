//! The four workloads: benchmark-owned seeded generators, set-up, one
//! timed sweep, and the output checks.
//!
//! `--seed` is the only source of randomness. The generators here depend
//! only on the vendored `rand` shim, so a later change to `haten2-data`
//! cannot shift the inputs; the library crates receive generated tensors
//! and nothing else.

use crate::span::{Layer, NoSpans, Spans};
use haten2_baseline::{parafac_als_baseline, tucker_als_baseline};
use haten2_core::{
    load_factor, parafac, parafac_als_with_init, persist_factor, persist_tensor,
    tucker_als_with_init, AlsOptions, Ix4, Variant,
};
use haten2_linalg::Mat;
use haten2_mapreduce::{
    run_job, Cluster, ClusterConfig, DfsBackend, DurableConfig, JobSpec, RunMetrics, SchedulerMode,
};
use haten2_tensor::{mttkrp_dense, CooTensor3, DenseTensor3, Entry3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tucker core size of `tucker-dri-cubic`.
pub const TUCKER_CORE: [usize; 3] = [5, 5, 5];
/// DFS name of the tensor dataset in `durable-scan`.
pub const TENSOR_KEY: &str = "bench/x";
/// Reduce key space of a scan job: mode indices folded into a bounded
/// number of partial-sum groups, as in `haten2-blockstore-bench`.
const SCAN_KEY_SPACE: u64 = 4_096;
/// The durable backend's memory budget as a fraction of the tensor's raw
/// bytes: far enough below 1 that the tensor can never stay resident.
const SCAN_BUDGET_DIVISOR: usize = 6;
/// Relative tolerance of the numerical cross-checks.
const REL_TOL: f64 = 1e-9;

/// What a workload's sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One PARAFAC-ALS sweep with the given variant.
    Parafac(Variant),
    /// One Tucker-ALS sweep (DRI), core [`TUCKER_CORE`].
    Tucker,
    /// Three durable tensor scans plus one factor checkpoint.
    DurableScan,
}

/// How the nonzero coordinates are distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every cell equally likely (the paper's synthetic sweeps).
    Uniform,
    /// Index popularity `∝ 1/(1+i)` per mode (knowledge-base skew).
    PowerLaw,
    /// Five planted dense rank-1 blocks ([`planted_tensor`]).
    Planted,
}

/// One workload's fixed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What the sweep runs.
    pub kind: Kind,
    /// Coordinate distribution.
    pub shape: Shape,
    /// Tensor dimensions.
    pub dims: [u64; 3],
    /// Distinct nonzeros.
    pub nnz: usize,
    /// Decomposition rank (unused by `Tucker`, which uses [`TUCKER_CORE`]).
    pub rank: usize,
    /// Simulated machines.
    pub machines: usize,
    /// MapReduce jobs one sweep submits (Tables III/IV).
    pub jobs_per_sweep: usize,
}

/// The four workloads, in `BENCHMARK.json` order. Sizes are chosen so one
/// sweep takes 0.1–1.3 s on a 2-core host: the contract caps a run at
/// tens of seconds and a median needs a dozen samples.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "parafac-dri-kb",
        kind: Kind::Parafac(Variant::Dri),
        shape: Shape::PowerLaw,
        dims: [20_000, 20_000, 200],
        nnz: 60_000,
        rank: 10,
        machines: 8,
        jobs_per_sweep: 6,
    },
    Spec {
        name: "tucker-dri-cubic",
        kind: Kind::Tucker,
        shape: Shape::Planted,
        dims: [8_000, 8_000, 8_000],
        nnz: 20_480,
        rank: 5,
        machines: 8,
        jobs_per_sweep: 6,
    },
    Spec {
        name: "durable-scan",
        kind: Kind::DurableScan,
        shape: Shape::PowerLaw,
        dims: [40_000, 40_000, 400],
        nnz: 1_000_000,
        rank: 4,
        machines: 4,
        jobs_per_sweep: 3,
    },
    Spec {
        name: "parafac-dnn-smalljobs",
        kind: Kind::Parafac(Variant::Dnn),
        shape: Shape::Uniform,
        dims: [2_000, 2_000, 2_000],
        nnz: 20_000,
        rank: 8,
        machines: 8,
        jobs_per_sweep: 96,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn named(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The smoke-lane variant: every input a tenth the size.
    pub fn quick(&self) -> Spec {
        Spec {
            dims: self.dims.map(|d| (d / 10).max(8)),
            nnz: self.nnz / 10,
            ..self.clone()
        }
    }

    /// The same workload on `factor`× the nonzeros (dimensions kept), for
    /// the scaling exponent.
    pub fn scaled_nnz(&self, factor: usize) -> Spec {
        Spec {
            nnz: self.nnz * factor,
            ..self.clone()
        }
    }

    /// Generate the input tensor from `seed`.
    pub fn generate(&self, seed: u64) -> CooTensor3 {
        match self.shape {
            Shape::Uniform => uniform_tensor(self.dims, self.nnz, seed),
            Shape::PowerLaw => powerlaw_tensor(self.dims, self.nnz, seed),
            Shape::Planted => planted_tensor(self.dims, self.nnz, seed),
        }
    }
}

/// Worker threads every benchmark cluster uses.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// The benchmark's cluster shape (DAG scheduler, [`bench_threads`]
/// threads, the workload's machines) on the given DFS backend.
pub fn cluster_config(spec: &Spec, dfs: DfsBackend) -> ClusterConfig {
    ClusterConfig {
        threads: bench_threads(),
        dfs,
        ..ClusterConfig::with_machines(spec.machines)
    }
}

fn sample_distinct(
    dims: [u64; 3],
    nnz: usize,
    seed: u64,
    mut index: impl FnMut(&mut StdRng, u64) -> u64,
    mut value: impl FnMut(&mut StdRng) -> f64,
) -> CooTensor3 {
    let capacity = dims.iter().map(|&d| d as u128).product::<u128>();
    assert!(
        (nnz as u128) * 2 <= capacity,
        "workload asks for {nnz} distinct cells of {capacity}: rejection sampling would stall"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Membership only — the set is never iterated, so its random hasher
    // cannot leak into the output order.
    let mut seen: HashSet<(u64, u64, u64)> = HashSet::with_capacity(nnz);
    let mut t = CooTensor3::new(dims);
    while seen.len() < nnz {
        let c = (
            index(&mut rng, dims[0]),
            index(&mut rng, dims[1]),
            index(&mut rng, dims[2]),
        );
        if seen.insert(c) {
            t.push_unchecked(Entry3::new(c.0, c.1, c.2, value(&mut rng)));
        }
    }
    t
}

/// A magnitude in `[0.5, 2)`: bounded away from zero, because a zero
/// would vanish from the sparse tensor and change nnz.
fn magnitude(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.5..2.0)
}

/// `nnz` distinct uniformly placed cells with values in `[0.5, 2)`.
pub fn uniform_tensor(dims: [u64; 3], nnz: usize, seed: u64) -> CooTensor3 {
    let index = |rng: &mut StdRng, n: u64| rng.gen_range(0..n);
    sample_distinct(dims, nnz, seed, index, magnitude)
}

/// `nnz` distinct cells whose index along each mode is drawn with
/// probability `∝ 1/(1+i)` (Zipf, by inverting the continuous CDF
/// `ln(1+x)/ln(1+n)`), with positive weights in `[0.5, 2)`.
pub fn powerlaw_tensor(dims: [u64; 3], nnz: usize, seed: u64) -> CooTensor3 {
    let index = |rng: &mut StdRng, n: u64| {
        let u: f64 = rng.gen();
        let x = (u * (1.0 + n as f64).ln()).exp() - 1.0;
        (x.max(0.0) as u64).min(n - 1)
    };
    sample_distinct(dims, nnz, seed, index, magnitude)
}

/// Relative step between the weights of consecutive planted blocks.
const PLANTED_WEIGHT_STEP: f64 = 0.005;

/// [`TUCKER_CORE`]`[0]` disjoint dense rank-1 blocks of side
/// `⌊(nnz / blocks)^⅓⌋` at seeded positions: block `c` holds
/// `w_c · a_c ∘ b_c ∘ c_c` with seeded vectors (entries in ±`[0.5, 2)`,
/// normalised) and weights `w_c = 1 − 0.005·c`, scaled so entries are
/// O(1). The tensor has multilinear rank exactly (5, 5, 5) and every
/// unfolding has exactly the singular values `w`.
///
/// Why not noise: on a noise tensor the driver's subspace iteration stops
/// after 20 to 200 iterations depending on the seed's spectrum, and
/// `sweep_s` differs 2x from seed to seed. Here the five singular values
/// are 0.5 % apart on every seed, in every mode, in every sweep, so the
/// five vectors keep rotating slowly inside the (exactly found) subspace
/// and every call runs to the iteration cap: every seed times the same
/// 3 × 200 iterations.
pub fn planted_tensor(dims: [u64; 3], nnz: usize, seed: u64) -> CooTensor3 {
    let blocks = TUCKER_CORE[0];
    let side = ((nnz / blocks) as f64).cbrt().floor() as usize;
    assert!(
        side >= 2 && dims.iter().all(|&d| (blocks * side) as u64 <= d),
        "{blocks} blocks of side {side} do not fit {dims:?}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Per mode: blocks·side distinct indices, and one unit vector per block.
    let mut draw_mode = |dim: u64| {
        let mut seen = HashSet::with_capacity(blocks * side);
        let mut indices = Vec::with_capacity(blocks * side);
        while indices.len() < blocks * side {
            let i = rng.gen_range(0..dim);
            if seen.insert(i) {
                indices.push(i);
            }
        }
        let vectors: Vec<Vec<f64>> = (0..blocks)
            .map(|_| {
                let v: Vec<f64> = (0..side)
                    .map(|_| {
                        if rng.gen() {
                            magnitude(&mut rng)
                        } else {
                            -magnitude(&mut rng)
                        }
                    })
                    .collect();
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                v.iter().map(|x| x / norm).collect()
            })
            .collect();
        (indices, vectors)
    };
    let modes = dims.map(&mut draw_mode);
    let scale = (side as f64).powf(1.5);
    let mut t = CooTensor3::new(dims);
    for c in 0..blocks {
        let weight = scale * (1.0 - PLANTED_WEIGHT_STEP * c as f64);
        let at = |mode: usize, n: usize| (modes[mode].0[c * side + n], modes[mode].1[c][n]);
        for i in 0..side {
            for j in 0..side {
                for k in 0..side {
                    let ((i, a), (j, b), (k, cc)) = (at(0, i), at(1, j), at(2, k));
                    t.push_unchecked(Entry3::new(i, j, k, weight * a * b * cc));
                }
            }
        }
    }
    t
}

/// Incremental FNV-1a over 64-bit words: tensor and output checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold the bit patterns of `xs` in.
    pub fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Checksum of a tensor's entries in stored order.
pub fn tensor_checksum(x: &CooTensor3) -> u64 {
    let mut h = Fnv::default();
    for e in x.entries() {
        h.word(e.i);
        h.word(e.j);
        h.word(e.k);
        h.word(e.v.to_bits());
    }
    h.0
}

/// What one sweep produced: a checksum of every output bit, and the
/// metrics of the jobs it ran.
#[derive(Debug, Clone)]
pub struct SweepOut {
    /// FNV-1a over the sweep's outputs (factors, λ/core, scan streams).
    pub checksum: u64,
    /// Metrics of the sweep's jobs, in commit order.
    pub jobs: RunMetrics,
}

/// The state a timed sweep starts from, produced by the warm-up sweep.
#[derive(Debug, Clone)]
enum State {
    /// `F1`: the factors after the warm-up sweep, and its `λ`.
    Parafac { factors: [Mat; 3], lambda: Vec<f64> },
    /// The warm-up's factors (the trailing two seed a sweep) and core.
    Tucker {
        factors: [Mat; 3],
        core: DenseTensor3,
    },
    /// The fixed factor matrices a scan sweep checkpoints.
    Scan { factors: [Mat; 3] },
}

/// A durable store directory under `benchmark/out/`, removed on drop —
/// success, error or panic.
#[derive(Debug)]
pub struct StoreDir(PathBuf);

impl StoreDir {
    /// A fresh, not yet created, directory name unique to this process.
    pub fn new(tag: &str) -> StoreDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = out_dir().join(format!(
            "store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where result files, traces and durable stores go: `benchmark/out/`
/// under the directory the command is run from (the checkout root).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// One outcome of [`Workload::verify`].
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared quantities.
    pub detail: String,
}

impl Check {
    /// A numerical cross-check: holds when the largest relative difference
    /// is within [`REL_TOL`]; an error on either side fails it.
    fn agreement(name: &'static str, diff: Res<f64>) -> Check {
        match diff {
            Ok(diff) => Check {
                name,
                ok: diff <= REL_TOL,
                detail: format!("max relative difference {diff:e}"),
            },
            Err(detail) => Check {
                name,
                ok: false,
                detail,
            },
        }
    }
}

/// A workload after set-up: input generated, cluster built, tensor
/// persisted (durable), warm-up sweep done.
#[derive(Debug)]
pub struct Workload {
    /// The definition this was set up from.
    pub spec: Spec,
    /// The generated input.
    pub x: CooTensor3,
    /// The benchmark cluster (DAG scheduler, [`bench_threads`] threads).
    pub cluster: Cluster,
    seed: u64,
    state: State,
    // Declared after `cluster` so the store closes before its directory
    // is removed.
    _store: Option<StoreDir>,
}

/// Errors are reported, never matched on: a message is enough.
pub type Res<T> = Result<T, String>;

/// Any library error as its message.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload {
    /// Generate, build the cluster, persist, and run the warm-up sweep.
    pub fn setup(spec: &Spec, seed: u64) -> Res<Workload> {
        assert!(
            !haten2_mapreduce::race_detector_compiled(),
            "race detector compiled into a measured build"
        );
        let x = spec.generate(seed);
        let store = (spec.kind == Kind::DurableScan).then(|| StoreDir::new(spec.name));
        let dfs = match &store {
            Some(dir) => {
                let raw = x.nnz() * haten2_analyze::tensor_record_bytes() as usize;
                DfsBackend::Durable(
                    DurableConfig::new(dir.path()).memory_budget(raw / SCAN_BUDGET_DIVISOR),
                )
            }
            None => DfsBackend::Memory,
        };
        let cluster = Cluster::try_new(cluster_config(spec, dfs)).map_err(err)?;
        let state = warm_up(spec, seed, &cluster, &x)?;
        Ok(Workload {
            spec: spec.clone(),
            x,
            cluster,
            seed,
            state,
            _store: store,
        })
    }

    /// One sweep on the benchmark cluster — the timed unit. Every call
    /// starts from the same warm-up state, so every call does identical
    /// work and must produce identical bits.
    pub fn sweep(&self) -> Res<SweepOut> {
        self.sweep_on(&self.cluster)
    }

    fn sweep_on(&self, cluster: &Cluster) -> Res<SweepOut> {
        let mark = cluster.jobs_run();
        let mut h = Fnv::default();
        match (&self.spec.kind, &self.state) {
            (Kind::Parafac(variant), State::Parafac { factors, .. }) => {
                let res = parafac_als_with_init(
                    cluster,
                    &self.x,
                    self.spec.rank,
                    &one_sweep(*variant, self.seed, 1),
                    Some(factors.clone()),
                )
                .map_err(err)?;
                hash_parafac(&mut h, &res.factors, &res.lambda);
            }
            (Kind::Tucker, State::Tucker { factors, .. }) => {
                let res = tucker_als_with_init(
                    cluster,
                    &self.x,
                    TUCKER_CORE,
                    &one_sweep(Variant::Dri, self.seed, 1),
                    Some([factors[1].clone(), factors[2].clone()]),
                )
                .map_err(err)?;
                hash_tucker(&mut h, &res.factors, &res.core);
            }
            (Kind::DurableScan, State::Scan { factors }) => {
                scan_sweep(cluster, factors, &mut h, &mut NoSpans)?;
            }
            _ => unreachable!("state is built from the spec's kind"),
        }
        Ok(SweepOut {
            checksum: h.0,
            jobs: cluster.metrics_since(mark),
        })
    }

    /// The warm-up state a PARAFAC sweep starts from.
    pub fn parafac_state(&self) -> Option<&[Mat; 3]> {
        match &self.state {
            State::Parafac { factors, .. } => Some(factors),
            _ => None,
        }
    }

    /// The warm-up factors a Tucker sweep starts from.
    pub fn tucker_state(&self) -> Option<&[Mat; 3]> {
        match &self.state {
            State::Tucker { factors, .. } => Some(factors),
            _ => None,
        }
    }

    /// The factor matrices a scan sweep checkpoints.
    pub fn scan_state(&self) -> Option<&[Mat; 3]> {
        match &self.state {
            State::Scan { factors } => Some(factors),
            _ => None,
        }
    }

    /// The seed the ALS drivers and subspace iterations run under.
    pub fn als_seed(&self) -> u64 {
        als_seed(self.seed)
    }

    /// The untimed output checks. `timed` is the checksum every timed
    /// sweep produced; `scans` is how many sweeps the benchmark cluster
    /// has run (warm-up included), which fixes the expected durable reads.
    pub fn verify(&self, timed: u64, scans: usize) -> Vec<Check> {
        let mut checks = vec![self.check_oracle(timed)];
        match &self.state {
            State::Parafac { factors, lambda } => {
                checks.push(self.check_parafac_baseline(factors, lambda));
                checks.push(self.check_mttkrp(factors));
            }
            State::Tucker { factors, core } => {
                checks.push(self.check_tucker_baseline(factors, core));
            }
            State::Scan { factors } => {
                checks.push(self.check_read_amplification(scans));
                checks.push(self.check_checkpoint(factors));
            }
        }
        checks
    }

    /// (i) The house invariant: the same sweep on a `Sequential`,
    /// one-thread, in-memory cluster yields the same bits. For
    /// `durable-scan` this is also the durable-vs-memory identity.
    fn check_oracle(&self, timed: u64) -> Check {
        let oracle = Cluster::new(ClusterConfig {
            threads: 1,
            scheduler: SchedulerMode::Sequential,
            ..ClusterConfig::with_machines(self.spec.machines)
        });
        let result = (|| {
            if self.spec.kind == Kind::DurableScan {
                persist_tensor(&oracle, TENSOR_KEY, &self.x).map_err(err)?;
            }
            self.sweep_on(&oracle)
        })();
        match result {
            Ok(out) => Check {
                name: "sequential-oracle-bit-identity",
                ok: out.checksum == timed,
                detail: format!("timed {timed:016x}, oracle {:016x}", out.checksum),
            },
            Err(e) => Check {
                name: "sequential-oracle-bit-identity",
                ok: false,
                detail: e,
            },
        }
    }

    /// (ii) The warm-up sweep agrees with the in-memory baseline.
    fn check_parafac_baseline(&self, factors: &[Mat; 3], lambda: &[f64]) -> Check {
        let base = parafac_als_baseline(&self.x, self.spec.rank, 1, 0.0, self.als_seed(), None);
        Check::agreement(
            "warmup-vs-baseline",
            base.map_err(err).map(|base| {
                let factors = factors.iter().zip(&base.factors);
                factors.fold(rel_diff(lambda, &base.lambda), |d, (f, b)| {
                    d.max(rel_diff(f.data(), b.data()))
                })
            }),
        )
    }

    fn check_tucker_baseline(&self, factors: &[Mat; 3], core: &DenseTensor3) -> Check {
        let base = tucker_als_baseline(&self.x, TUCKER_CORE, 1, 0.0, self.als_seed(), None);
        Check::agreement(
            "warmup-vs-baseline",
            base.map_err(err).map(|base| {
                let factors = factors.iter().zip(&base.factors);
                factors.fold(rel_diff(core.data(), base.core.data()), |d, (f, b)| {
                    d.max(rel_diff(f.data(), b.data()))
                })
            }),
        )
    }

    /// (iii) The engine's MTTKRP agrees with the dense reference.
    fn check_mttkrp(&self, factors: &[Mat; 3]) -> Check {
        let Kind::Parafac(variant) = self.spec.kind else {
            unreachable!("PARAFAC state implies a PARAFAC workload");
        };
        let engine = parafac::mttkrp(&self.cluster, variant, &self.x, 0, &factors[1], &factors[2]);
        let dense = mttkrp_dense(&self.x, 0, [&factors[0], &factors[1], &factors[2]]);
        Check::agreement(
            "mttkrp-vs-dense",
            engine.map_err(err).and_then(|e| {
                let d = dense.map_err(err)?;
                Ok(rel_diff(e.data(), d.data()))
            }),
        )
    }

    /// (iv) Every scan re-read the whole tensor from segments exactly
    /// once: metered durable reads equal `passes × raw bytes`.
    fn check_read_amplification(&self, scans: usize) -> Check {
        let name = "read-amplification-equals-passes";
        let raw = self.x.nnz() as u64 * haten2_analyze::tensor_record_bytes();
        let passes = (scans * self.spec.jobs_per_sweep) as u64;
        let read = self
            .cluster
            .dfs()
            .durable_dataset_io()
            .and_then(|io| io.get(TENSOR_KEY).map(|t| t.bytes_read));
        Check {
            name,
            ok: read == Some(passes * raw),
            detail: format!("read {read:?} B, expected {passes} passes x {raw} B"),
        }
    }

    /// (iv) The checkpointed factors read back bit-equal.
    fn check_checkpoint(&self, factors: &[Mat; 3]) -> Check {
        let name = "checkpoint-reads-back";
        let ok = factors.iter().enumerate().all(|(n, f)| {
            matches!(
                load_factor(&self.cluster, &checkpoint_key(n)),
                Ok(Some(back)) if bits_equal(back.data(), f.data()) && back.shape() == f.shape()
            )
        });
        Check {
            name,
            ok,
            detail: format!("{} factor matrices", factors.len()),
        }
    }
}

fn als_seed(seed: u64) -> u64 {
    seed ^ 0xA15
}

/// Options for exactly one ALS sweep with absolute index `first_sweep`.
pub fn one_sweep(variant: Variant, seed: u64, first_sweep: usize) -> AlsOptions {
    AlsOptions {
        max_iters: 1,
        tol: 0.0,
        seed: als_seed(seed),
        first_sweep,
        ..AlsOptions::with_variant(variant)
    }
}

fn warm_up(spec: &Spec, seed: u64, cluster: &Cluster, x: &CooTensor3) -> Res<State> {
    match spec.kind {
        Kind::Parafac(variant) => {
            let res =
                parafac_als_with_init(cluster, x, spec.rank, &one_sweep(variant, seed, 0), None)
                    .map_err(err)?;
            Ok(State::Parafac {
                factors: res.factors,
                lambda: res.lambda,
            })
        }
        Kind::Tucker => {
            let opts = one_sweep(Variant::Dri, seed, 0);
            let res = tucker_als_with_init(cluster, x, TUCKER_CORE, &opts, None).map_err(err)?;
            Ok(State::Tucker {
                factors: res.factors,
                core: res.core,
            })
        }
        Kind::DurableScan => {
            persist_tensor(cluster, TENSOR_KEY, x).map_err(err)?;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFAC);
            let factors = x
                .dims()
                .map(|d| Mat::random(d as usize, spec.rank, &mut rng));
            scan_sweep(cluster, &factors, &mut Fnv::default(), &mut NoSpans)?;
            Ok(State::Scan { factors })
        }
    }
}

fn checkpoint_key(mode: usize) -> String {
    format!("bench/ckpt/F{mode}")
}

/// The HaTen2 storage regime in one sweep: per mode, fetch the tensor
/// from the (durable) DFS and run a light sum-by-mode-index job over it;
/// then checkpoint the factor matrices. One body serves the timed pass
/// ([`NoSpans`]) and the traced pass.
pub fn scan_sweep<S: Spans>(
    cluster: &Cluster,
    factors: &[Mat; 3],
    h: &mut Fnv,
    spans: &mut S,
) -> Res<()> {
    for mode in 0..3 {
        let records = spans.span("mapreduce.dfs.get_required", Layer::MapreduceDfs, |_| {
            scan_fetch(cluster, mode)
        })?;
        let out = spans.span("mapreduce.run_job", Layer::MapreduceJobs, |spans| {
            let mark = cluster.jobs_run();
            let out = scan_job(cluster, mode, &records);
            spans.jobs(cluster, mark);
            out
        })?;
        for (group, sum) in out {
            h.word(group);
            h.word(sum.to_bits());
        }
    }
    for (mode, f) in factors.iter().enumerate() {
        spans.span("core.store.persist_factor", Layer::MapreduceDfs, |_| {
            persist_factor(cluster, &checkpoint_key(mode), f).map_err(err)
        })?;
    }
    Ok(())
}

/// Fetch the scan's input: one full read of the tensor dataset.
pub fn scan_fetch(cluster: &Cluster, mode: usize) -> Res<Arc<Vec<(Ix4, f64)>>> {
    cluster
        .dfs()
        .get_required(&scan_job_name(mode), TENSOR_KEY)
        .map_err(err)
}

/// The scan's job: key each entry by its mode-`mode` index folded into
/// [`SCAN_KEY_SPACE`] groups, sum per group.
pub fn scan_job(cluster: &Cluster, mode: usize, records: &[(Ix4, f64)]) -> Res<Vec<(u64, f64)>> {
    run_job(
        cluster,
        JobSpec::named(scan_job_name(mode)).with_map_emit_hint(1),
        records,
        move |ix: &Ix4, v: &f64, emit| {
            let coord = [ix.0, ix.1, ix.2][mode];
            emit(coord % SCAN_KEY_SPACE, *v);
        },
        |group, vals, emit| emit(*group, vals.iter().sum::<f64>()),
    )
    .map_err(err)
}

fn scan_job_name(mode: usize) -> String {
    format!("scan-m{mode}")
}

/// Fold a PARAFAC model into a checksum.
pub fn hash_parafac(h: &mut Fnv, factors: &[Mat; 3], lambda: &[f64]) {
    h.floats(lambda);
    for f in factors {
        h.floats(f.data());
    }
}

/// Fold a Tucker model into a checksum.
pub fn hash_tucker(h: &mut Fnv, factors: &[Mat; 3], core: &DenseTensor3) {
    h.floats(core.data());
    for f in factors {
        h.floats(f.data());
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest elementwise difference as a share of the largest magnitude;
/// infinite on a length mismatch.
pub fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let scale = a.iter().chain(b).fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded_distinct_and_exact() {
        for make in [uniform_tensor, powerlaw_tensor] {
            let a = make([50, 40, 30], 500, 7);
            let b = make([50, 40, 30], 500, 7);
            let c = make([50, 40, 30], 500, 8);
            assert_eq!(a.nnz(), 500);
            assert_eq!(tensor_checksum(&a), tensor_checksum(&b));
            assert_ne!(tensor_checksum(&a), tensor_checksum(&c));
            let cells: HashSet<_> = a.idx().collect();
            assert_eq!(cells.len(), 500);
            assert!(a.entries().iter().all(|e| e.i < 50 && e.j < 40 && e.k < 30));
            assert!(a.entries().iter().all(|e| (0.5..2.0).contains(&e.v)));
        }
    }

    #[test]
    fn powerlaw_is_skewed_toward_low_indices() {
        let t = powerlaw_tensor([1000, 1000, 1000], 5000, 3);
        let low = t.entries().iter().filter(|e| e.i < 100).count();
        // ln(101)/ln(1001) ≈ 0.67 of the mass sits in the first tenth.
        assert!(low > 2500, "only {low} of 5000 in the first tenth");
    }

    #[test]
    fn quick_specs_shrink_every_input() {
        for spec in &SPECS {
            let q = spec.quick();
            assert_eq!(q.nnz * 10, spec.nnz);
            assert!(q.dims.iter().zip(&spec.dims).all(|(a, b)| a < b));
            assert_eq!(Spec::named(spec.name).unwrap().name, spec.name);
        }
        assert!(Spec::named("nope").is_none());
    }

    #[test]
    fn rel_diff_scales_and_rejects_length_mismatch() {
        assert_eq!(rel_diff(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rel_diff(&[100.0, 0.0], &[100.0, 1e-7]) - 1e-9).abs() < 1e-15);
        assert!(rel_diff(&[1.0], &[1.0, 2.0]).is_infinite());
        assert_eq!(rel_diff(&[], &[]), 0.0);
    }
}
