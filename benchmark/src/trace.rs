//! The traced pass: per-layer numbers, all obtained from outside.
//!
//! A traced sweep is the workload's sweep re-implemented here out of the
//! same public calls the `haten2-core` drivers make, each wrapped in a
//! span, with the jobs each call ran attached from the `JobMetrics`
//! timeline; its outputs must be bit-identical to the driver's. Layers a
//! workload's own sweep never enters are measured by *probes*: isolated
//! calls of the layer's public functions on the workload's own tensor
//! (its first [`PROBE_NNZ`] nonzeros when it is larger), so every
//! per-layer metric is a measurement on every workload.

use crate::host::independent_jobs;
use crate::json::Json;
use crate::procstat::ProcSample;
use crate::run::{Metric, Outcome};
use crate::span::{chrome_trace, self_times, Layer, Span, Spans, Tracer};
use crate::stats::{lower_quartile, median};
use crate::workloads::{
    cluster_config, err, hash_parafac, hash_tucker, out_dir, scan_fetch, scan_job, scan_sweep,
    tensor_checksum, Check, Fnv, Kind, Res, Shape, Spec, StoreDir, Workload, TENSOR_KEY,
    TUCKER_CORE,
};
use haten2_analyze::comm::applicable_bound;
use haten2_analyze::tensor_record_bytes;
use haten2_baseline::{parafac_als_baseline, tucker_als_baseline};
use haten2_blockstore::codec::{zero_rle_decode, zero_rle_encode};
use haten2_blockstore::{BlockStore, StoreOptions};
use haten2_core::records::tensor_records;
use haten2_core::tucker::ProjectOptions;
use haten2_core::{comm_for, env_for, parafac, persist_tensor, tucker, Decomp, Ix4, Variant};
use haten2_data::{random::RandomTensorConfig, random_tensor};
use haten2_linalg::{leading_left_singular_vectors, pinv, thin_qr, Mat, SubspaceOptions};
use haten2_mapreduce::{
    decode_records, encode_records, run_job, Cluster, DfsBackend, DurableConfig, JobSpec,
    RunMetrics,
};
use haten2_tensor::{mttkrp_dense, CooTensor3, DenseTensor3};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, `(name, unit)`, in `BENCHMARK.json` order.
/// *sweep*: from the workload's own (traced or untraced) sweeps;
/// *probe*: from an isolated call on the workload's tensor.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Self-time shares of the traced sweep; they sum to 1.
    ("share.mapreduce_jobs", "ratio"),
    ("share.mapreduce_dfs", "ratio"),
    ("share.linalg", "ratio"),
    ("share.tensor", "ratio"),
    ("share.core_driver", "ratio"),
    ("core.als.driver_self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    // sweep: the jobs of one sweep, from the RunMetrics it returned.
    ("mapreduce.job.median_wall_ms", "ms"),
    ("mapreduce.job.shuffle_records_per_s", "1/s"),
    ("mapreduce.job.shuffle_bytes", "B"),
    ("mapreduce.job.map_output_records", "count"),
    ("mapreduce.job.reduce_groups", "count"),
    ("mapreduce.job.max_group_bytes", "B"),
    ("mapreduce.job.task_retries", "count"),
    ("mapreduce.sched.inter_job_gap_s", "s"),
    ("mapreduce.sched.peak_concurrency", "count"),
    // sweep: the process, per untraced sweep.
    ("proc.user_s_per_sweep", "s"),
    ("proc.sys_s_per_sweep", "s"),
    ("proc.minflt_per_sweep", "count"),
    ("scale.sweep_exponent", "ratio"),
    // probe: engine, isolated jobs.
    ("mapreduce.job.synthetic_records_per_s", "1/s"),
    ("mapreduce.sched.job_overhead_us", "us"),
    ("mapreduce.sched.effective_workers", "count"),
    ("mapreduce.sched.worker_busy_ratio", "ratio"),
    // probe: one DRI MTTKRP and one DRI projection.
    ("core.parafac.mttkrp_s", "s"),
    ("core.parafac.mttkrp_self_s", "s"),
    ("core.parafac.mttkrp_over_dense", "ratio"),
    ("core.ops.imhp_job_s", "s"),
    ("core.ops.pairwisemerge_job_s", "s"),
    ("analyze.comm.shuffle_over_bound", "ratio"),
    ("core.tucker.project_s", "s"),
    ("core.tucker.project_self_s", "s"),
    ("core.ops.crossmerge_job_s", "s"),
    // probe: driver-side kernels and the in-memory yardsticks.
    ("tensor.coo3.matricize_s", "s"),
    ("linalg.subspace_s", "s"),
    ("linalg.thin_qr_s", "s"),
    ("linalg.gram_s", "s"),
    ("linalg.matmul_s", "s"),
    ("linalg.pinv_us", "us"),
    ("tensor.ops.mttkrp_dense_s", "s"),
    ("tensor.ops.mttkrp_dense_mnnzr_per_s", "1/s"),
    ("baseline.parafac_sweep_s", "s"),
    ("baseline.tucker_sweep_s", "s"),
    // probe: storage stack.
    ("mapreduce.dfs.get_mb_per_s", "MB/s"),
    ("mapreduce.dfs.put_mb_per_s", "MB/s"),
    ("mapreduce.dfs.reload_events", "count"),
    ("mapreduce.dfs.reloaded_bytes", "B"),
    ("mapreduce.dfs.spilled_bytes", "B"),
    ("mapreduce.dfs.read_amplification", "ratio"),
    ("mapreduce.dfs.durable_over_memory", "ratio"),
    ("mapreduce.persist.encode_records_mb_per_s", "MB/s"),
    ("mapreduce.persist.decode_records_mb_per_s", "MB/s"),
    ("blockstore.codec.encode_mb_per_s", "MB/s"),
    ("blockstore.codec.decode_mb_per_s", "MB/s"),
    ("blockstore.codec.ratio", "ratio"),
    ("blockstore.store.put_mb_per_s", "MB/s"),
    ("blockstore.store.get_mb_per_s", "MB/s"),
    ("blockstore.store.stored_bytes_written", "B"),
    ("blockstore.store.stored_bytes_read", "B"),
    ("blockstore.store.share_of_dfs_get", "ratio"),
    ("data.generate_s", "s"),
];

/// Largest tensor a probe runs on.
const PROBE_NNZ: usize = 100_000;
/// Repetitions of a millisecond-scale probe; its median is reported.
const REPS: usize = 5;
/// Fewest pairs of (untraced, traced) sweeps; each traced sweep's
/// `sweep_id` is its pair index.
const MIN_SWEEP_PAIRS: u32 = 5;
/// Share of `--seconds` the sweep pairs run for. The probes and the 3x
/// run take about as long again, so a traced pass ends about when an
/// untraced one does.
const SWEEP_SHARE: f64 = 0.5;
/// Jobs and records per job of the scheduler-overhead probe.
const SMALL_JOBS: usize = 300;
const SMALL_JOB_RECORDS: u64 = 200;
/// `sweep_id` of the probes' spans.
const PROBE: u32 = 1000;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median wall-clock of `reps` calls of `f`; the first error aborts.
fn median_time<T, E: std::fmt::Display>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Res<f64> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, s) = timed(&mut f);
        black_box(out.map_err(err)?);
        times.push(s);
    }
    Ok(median(&times))
}

/// [`median_time`] for a call that cannot fail.
fn median_time_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median_time(reps, || Ok::<T, String>(f())).expect("the wrapped call is infallible")
}

/// Collects metrics by name; the unit comes from [`PER_LAYER`], so a
/// metric the table does not list cannot be emitted.
#[derive(Default)]
struct Sink(Vec<Metric>);

impl Sink {
    fn entry(name: &str) -> (&'static str, &'static str) {
        *PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in PER_LAYER"))
    }

    fn put(&mut self, name: &str, value: f64) {
        let (name, unit) = Sink::entry(name);
        self.0.push(Metric::new(name, unit, value));
    }

    /// Mark an already measured metric as meaningless on this host.
    fn skip(&mut self, name: &str, reason: &str) {
        let metric = (self.0.iter_mut())
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"));
        metric.skipped = Some(reason.to_string());
    }

    /// The metrics in table order; every table entry must be present.
    fn finish(mut self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                let at = self
                    .0
                    .iter()
                    .position(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                self.0.swap_remove(at)
            })
            .collect()
    }
}

/// The traced pass over one workload: sweep pairs for half of `seconds`
/// (at least [`MIN_SWEEP_PAIRS`]), then the probes.
pub fn trace_workload(spec: &Spec, seed: u64, seconds: f64) -> Res<Outcome> {
    let mut sink = Sink::default();
    let w = Workload::setup(spec, seed)?;

    // Untraced and traced sweeps, alternating so that host noise falls on
    // both alike: the untraced ones give the reference bits, the
    // tracing-overhead baseline and the per-sweep job and process numbers.
    let mut tracer = Tracer::default();
    let proc_start = ProcSample::now().ok_or("cannot read /proc/self/stat (Linux only)")?;
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut sweeps: Vec<RunMetrics> = Vec::new();
    let mut reference = None;
    let mut traced_identical = true;
    let mut failed = 0usize;
    let section = Instant::now();
    let mut pairs = 0u32;
    while pairs < MIN_SWEEP_PAIRS || section.elapsed().as_secs_f64() < SWEEP_SHARE * seconds {
        let (out, wall) = timed(|| w.sweep());
        let out = out?;
        let reference = *reference.get_or_insert(out.checksum);
        failed += usize::from(reference != out.checksum);
        walls.push(wall);
        sweeps.push(out.jobs);

        tracer.sweep_id = pairs;
        let (traced, wall) = timed(|| traced_sweep(&w, &mut tracer));
        traced_identical &= traced? == reference;
        traced_walls.push(wall);
        pairs += 1;
    }
    // Traced and untraced sweeps do the same work, so the process
    // counters are averaged over both.
    let spent = ProcSample::now()
        .ok_or("cannot read /proc/self/stat")?
        .since(&proc_start);
    let untraced_s = lower_quartile(&walls);
    let sweeps_run = 2.0 * f64::from(pairs);
    sink.put("proc.user_s_per_sweep", spent.user_s / sweeps_run);
    sink.put("proc.sys_s_per_sweep", spent.sys_s / sweeps_run);
    sink.put("proc.minflt_per_sweep", spent.minflt as f64 / sweeps_run);
    job_metrics(&mut sink, &sweeps);

    // Self-time shares over all traced sweeps together.
    let own = self_times(&tracer.spans);
    let total: f64 = own.iter().sum();
    let mut share_sum = 0.0;
    for (layer, name) in Layer::ALL.into_iter().zip(PER_LAYER) {
        let time = (tracer.spans.iter().zip(&own))
            .filter(|(s, _)| s.layer == layer)
            .fold(0.0, |sum, (_, t)| sum + t);
        share_sum += time / total;
        sink.put(name.0, time / total);
    }
    let roots = (tracer.spans.iter().zip(&own)).filter(|(s, _)| s.parent.is_none());
    sink.put(
        "core.als.driver_self_s",
        median(&roots.map(|(_, t)| *t).collect::<Vec<_>>()),
    );
    sink.put(
        "trace.overhead_pct",
        (lower_quartile(&traced_walls) / untraced_s - 1.0) * 100.0,
    );
    sink.put("trace.spans", tracer.spans.len() as f64 / f64::from(pairs));
    let checks = vec![
        Check {
            name: "traced-sweep-bit-identity",
            ok: traced_identical,
            detail: format!("{pairs} traced sweeps against the driver's outputs"),
        },
        Check {
            name: "shares-sum-to-one",
            ok: (share_sum - 1.0).abs() <= 0.01,
            detail: format!("sum {share_sum}"),
        },
    ];

    // Probes.
    tracer.sweep_id = PROBE;
    let probe = Probe::new(&w, seed);
    probe.engine(&mut sink)?;
    probe.mttkrp(&mut sink, &mut tracer)?;
    probe.project(&mut sink, &mut tracer)?;
    probe.kernels(&mut sink)?;
    probe.storage(&mut sink)?;
    sink.put(
        "data.generate_s",
        timed(|| black_box(data_generate(spec, seed))).1,
    );
    // The faster of two sweeps at 3x the nonzeros against the typical
    // sweep at 1x, as an exponent of the actual nnz ratio.
    let big = Workload::setup(&spec.scaled_nnz(3), seed)?;
    let mut big_s = f64::INFINITY;
    for _ in 0..2 {
        let (out, s) = timed(|| big.sweep());
        out?;
        big_s = big_s.min(s);
    }
    let nnz_ratio = big.x.nnz() as f64 / w.x.nnz() as f64;
    sink.put(
        "scale.sweep_exponent",
        (big_s / untraced_s).ln() / nnz_ratio.ln(),
    );
    drop(big);

    write_trace(spec, seed, &tracer.spans)?;
    failed += checks.iter().filter(|c| !c.ok).count();
    Ok(Outcome {
        workload: spec.name,
        tensor_checksum: tensor_checksum(&w.x),
        metrics: sink.finish(),
        sweeps: None,
        attempted: 2 * pairs as usize + checks.len(),
        failed,
        checks,
    })
}

/// Job-level numbers of one sweep, from the `RunMetrics` each untraced
/// sweep returned: counts from the last (they repeat exactly), timings
/// as medians across the sweeps.
fn job_metrics(sink: &mut Sink, sweeps: &[RunMetrics]) {
    let over = |f: &dyn Fn(&RunMetrics) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    sink.put(
        "mapreduce.job.median_wall_ms",
        over(&|m| {
            median(
                &m.jobs
                    .iter()
                    .map(|j| j.wall_time_s * 1e3)
                    .collect::<Vec<_>>(),
            )
        }),
    );
    sink.put(
        "mapreduce.job.shuffle_records_per_s",
        over(&|m| m.jobs.iter().map(|j| j.shuffle_records).sum::<usize>() as f64 / m.busy_s()),
    );
    sink.put("mapreduce.sched.inter_job_gap_s", over(&inter_job_gap_s));
    sink.put(
        "mapreduce.sched.peak_concurrency",
        sweeps
            .iter()
            .map(RunMetrics::peak_concurrency)
            .max()
            .unwrap_or(0) as f64,
    );
    let last = sweeps.last().expect("MIN_SWEEP_PAIRS > 0");
    let sum = |f: &dyn Fn(&haten2_mapreduce::JobMetrics) -> usize| {
        last.jobs.iter().map(f).sum::<usize>() as f64
    };
    sink.put("mapreduce.job.shuffle_bytes", sum(&|j| j.shuffle_bytes));
    sink.put(
        "mapreduce.job.map_output_records",
        sum(&|j| j.map_output_records),
    );
    sink.put("mapreduce.job.reduce_groups", sum(&|j| j.reduce_groups));
    sink.put(
        "mapreduce.job.max_group_bytes",
        last.jobs
            .iter()
            .map(|j| j.max_group_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    sink.put(
        "mapreduce.job.task_retries",
        last.total_task_retries() as f64,
    );
}

/// Wall-clock between a sweep's first job start and last job finish that
/// no job covers: `RunMetrics::wall_s` minus the union of job intervals.
fn inter_job_gap_s(m: &RunMetrics) -> f64 {
    let mut intervals: Vec<(f64, f64)> =
        m.jobs.iter().map(|j| (j.started_s, j.finished_s)).collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in intervals {
        covered += (end - start.max(reach)).max(0.0);
        reach = reach.max(end);
    }
    m.wall_s() - covered
}

fn others(mode: usize) -> (usize, usize) {
    match mode {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// One sweep of `w`, out of the public calls its driver makes, every call
/// a span. Returns the same checksum [`Workload::sweep`] computes.
fn traced_sweep(w: &Workload, t: &mut Tracer) -> Res<u64> {
    t.span("sweep", Layer::CoreDriver, |t| {
        let mut h = Fnv::default();
        match w.spec.kind {
            Kind::Parafac(variant) => traced_parafac(w, variant, t, &mut h)?,
            Kind::Tucker => traced_tucker(w, t, &mut h)?,
            Kind::DurableScan => {
                let factors = w.scan_state().expect("scan workload has scan state");
                scan_sweep(&w.cluster, factors, &mut h, t)?;
            }
        }
        Ok(h.0)
    })
}

/// `parafac_als_with_init(.., max_iters = 1)`, call for call.
fn traced_parafac(w: &Workload, variant: Variant, t: &mut Tracer, h: &mut Fnv) -> Res<()> {
    let (x, cluster) = (&w.x, &w.cluster);
    let mut factors = w
        .parafac_state()
        .expect("PARAFAC workload has PARAFAC state")
        .clone();
    let mut lambda = vec![1.0; w.spec.rank];
    let norm_x_sq = t.span("tensor.coo3.fro_norm_sq", Layer::Tensor, |_| {
        x.fro_norm_sq()
    });
    let mut last_m = None;
    for mode in 0..3 {
        let (o0, o1) = others(mode);
        let m = traced_mttkrp(t, cluster, variant, x, mode, &factors[o0], &factors[o1])?;
        let g = t
            .span("linalg.gram_hadamard", Layer::Linalg, |_| {
                factors[o0].gram().hadamard(&factors[o1].gram())
            })
            .map_err(err)?;
        let g_inv = t
            .span("linalg.pinv", Layer::Linalg, |_| pinv(&g))
            .map_err(err)?;
        factors[mode] = t
            .span("linalg.matmul", Layer::Linalg, |_| m.matmul(&g_inv))
            .map_err(err)?;
        lambda = t.span("linalg.normalize_columns", Layer::Linalg, |_| {
            factors[mode].normalize_columns()
        });
        last_m = Some(m);
    }
    // The driver's fit: not an output the checksum covers, but work the
    // sweep does, so the traced sweep does it too.
    let m = last_m.expect("three modes were swept");
    let g_all = t
        .span("linalg.gram_hadamard", Layer::Linalg, |_| {
            factors[0]
                .gram()
                .hadamard(&factors[1].gram())
                .and_then(|g| g.hadamard(&factors[2].gram()))
        })
        .map_err(err)?;
    let mut inner = 0.0;
    for k in 0..factors[2].rows() {
        for (r, &l) in lambda.iter().enumerate() {
            inner += m.get(k, r) * factors[2].get(k, r) * l;
        }
    }
    let mut norm_model_sq = 0.0;
    for r in 0..w.spec.rank {
        for s in 0..w.spec.rank {
            norm_model_sq += lambda[r] * lambda[s] * g_all.get(r, s);
        }
    }
    black_box(norm_x_sq + norm_model_sq - 2.0 * inner);
    hash_parafac(h, &factors, &lambda);
    Ok(())
}

fn traced_mttkrp(
    t: &mut Tracer,
    cluster: &Cluster,
    variant: Variant,
    x: &CooTensor3,
    mode: usize,
    f1: &Mat,
    f2: &Mat,
) -> Res<Mat> {
    t.span("core.parafac.mttkrp", Layer::CoreDriver, |t| {
        let mark = cluster.jobs_run();
        let m = parafac::mttkrp(cluster, variant, x, mode, f1, f2);
        t.jobs(cluster, mark);
        m.map_err(err)
    })
}

/// `tucker_als_with_init(.., max_iters = 1, first_sweep = 1)`, call for call.
fn traced_tucker(w: &Workload, t: &mut Tracer, h: &mut Fnv) -> Res<()> {
    let (x, cluster) = (&w.x, &w.cluster);
    let mut factors = w
        .tucker_state()
        .expect("Tucker workload has Tucker state")
        .clone();
    factors[0] = Mat::zeros(x.dims()[0] as usize, TUCKER_CORE[0]);
    black_box(t.span("tensor.coo3.fro_norm_sq", Layer::Tensor, |_| {
        x.fro_norm_sq()
    }));
    let abs_sweep = 1u64;
    let mut last_y = None;
    for mode in 0..3 {
        let (o0, o1) = others(mode);
        let (u1, u2) = t.span("linalg.transpose", Layer::Linalg, |_| {
            (factors[o0].transpose(), factors[o1].transpose())
        });
        let y = traced_project(t, cluster, x, mode, &u1, &u2)?;
        let y_mat = t
            .span("tensor.coo3.matricize", Layer::Tensor, |_| y.matricize(0))
            .map_err(err)?;
        let opts = SubspaceOptions {
            seed: w.als_seed() ^ (abs_sweep << 8 | mode as u64),
            ..Default::default()
        };
        factors[mode] = t
            .span("linalg.subspace", Layer::Linalg, |_| {
                leading_left_singular_vectors(&y_mat, TUCKER_CORE[mode], &opts)
            })
            .map_err(err)?;
        last_y = Some(y);
    }
    let y = last_y.expect("three modes were swept");
    let c = &factors[2];
    let mut core = DenseTensor3::zeros(TUCKER_CORE);
    for e in y.entries() {
        let (k, p, q) = (e.i as usize, e.j as usize, e.k as usize);
        for r in 0..TUCKER_CORE[2] {
            core.add_at(p, q, r, e.v * c.get(k, r));
        }
    }
    black_box(core.fro_norm());
    hash_tucker(h, &factors, &core);
    Ok(())
}

fn traced_project(
    t: &mut Tracer,
    cluster: &Cluster,
    x: &CooTensor3,
    mode: usize,
    u1: &Mat,
    u2: &Mat,
) -> Res<CooTensor3> {
    t.span("core.tucker.project", Layer::CoreDriver, |t| {
        let mark = cluster.jobs_run();
        let y = tucker::project(
            cluster,
            Variant::Dri,
            x,
            mode,
            u1,
            u2,
            &ProjectOptions::default(),
        );
        t.jobs(cluster, mark);
        y.map_err(err)
    })
}

/// The span opened last under `name`, with its self time, and its
/// children.
fn last_span<'a>(spans: &'a [Span], name: &str) -> (usize, &'a Span) {
    (spans.iter().enumerate().rev())
        .find(|(_, s)| s.name == name)
        .unwrap_or_else(|| panic!("no span named {name}"))
}

/// Duration of the job `name` that the span `parent` ran.
fn job_duration(spans: &[Span], parent: usize, name: &str) -> Res<f64> {
    (spans.iter())
        .find(|s| s.parent == Some(parent) && s.name == name)
        .map(Span::duration)
        .ok_or_else(|| format!("{} ran no job named {name}", spans[parent].name))
}

/// The isolated layer measurements on one workload's tensor.
struct Probe<'a> {
    w: &'a Workload,
    /// The workload's tensor, or its first [`PROBE_NNZ`] nonzeros.
    x: CooTensor3,
    /// An in-memory cluster shaped like the workload's.
    cluster: Cluster,
    seed: u64,
}

impl Probe<'_> {
    fn new(w: &Workload, seed: u64) -> Probe<'_> {
        let x = if w.x.nnz() <= PROBE_NNZ {
            w.x.clone()
        } else {
            CooTensor3::from_entries(w.x.dims(), w.x.entries()[..PROBE_NNZ].to_vec())
                .expect("a prefix of a valid tensor is valid")
        };
        Probe {
            w,
            x,
            cluster: Cluster::new(cluster_config(&w.spec, DfsBackend::Memory)),
            seed,
        }
    }

    fn rank(&self) -> usize {
        self.w.spec.rank
    }

    fn random_factors(&self, cols: usize) -> [Mat; 3] {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9706E);
        self.x
            .dims()
            .map(|d| Mat::random(d as usize, cols, &mut rng))
    }

    /// One synthetic 2-emits-per-record sum job over the tensor's records,
    /// and a batch of [`SMALL_JOBS`] independent tiny jobs.
    fn engine(&self, sink: &mut Sink) -> Res<()> {
        let records = tensor_records(&self.x);
        let wall = median_time(3, || {
            run_job(
                &self.cluster,
                JobSpec::named("probe-synthetic-sum").with_map_emit_hint(2),
                &records,
                |ix: &Ix4, v: &f64, emit| {
                    emit(ix.0 % 4096, *v);
                    emit(ix.1 % 4096, *v);
                },
                |group: &u64, vals: Vec<f64>, emit| emit(*group, vals.iter().sum::<f64>()),
            )
        })?;
        sink.put(
            "mapreduce.job.synthetic_records_per_s",
            2.0 * records.len() as f64 / wall,
        );

        let input: Vec<(u64, f64)> = (0..SMALL_JOB_RECORDS).map(|i| (i, i as f64)).collect();
        let batch = independent_jobs(&input, SMALL_JOBS).map_err(err)?;
        let (results, wall) = timed(|| batch.run(&self.cluster));
        let results = results.map_err(err)?;
        let report = results.report();
        let workers = report.worker_busy_s.len();
        sink.put(
            "mapreduce.sched.job_overhead_us",
            wall / SMALL_JOBS as f64 * 1e6,
        );
        sink.put("mapreduce.sched.effective_workers", workers as f64);
        sink.put(
            "mapreduce.sched.worker_busy_ratio",
            report.worker_busy_s.iter().sum::<f64>() / (workers as f64 * wall),
        );
        if workers <= 1 {
            // A full-width batch of independent jobs ran on one worker:
            // nothing concurrency-derived means anything on this host.
            let why = "effective_workers = 1: no concurrency to measure on this host";
            sink.skip("mapreduce.sched.worker_busy_ratio", why);
            sink.skip("mapreduce.sched.peak_concurrency", why);
        }
        Ok(())
    }

    /// One PARAFAC-DRI MTTKRP (mode 0) against the dense kernel.
    fn mttkrp(&self, sink: &mut Sink, t: &mut Tracer) -> Res<()> {
        // From the state the workload's own sweeps start at when there is
        // one: the engine drops zero products, so the factors' zero rows
        // are part of the work being measured.
        let factors = match self.w.parafac_state() {
            Some(f) if self.x.nnz() == self.w.x.nnz() => f.clone(),
            _ => self.random_factors(self.rank()),
        };
        let rank = factors[1].cols();
        let m = traced_mttkrp(
            t,
            &self.cluster,
            Variant::Dri,
            &self.x,
            0,
            &factors[1],
            &factors[2],
        )?;
        black_box(m);
        let own = self_times(&t.spans);
        let (at, span) = last_span(&t.spans, "core.parafac.mttkrp");
        sink.put("core.parafac.mttkrp_s", span.duration());
        sink.put("core.parafac.mttkrp_self_s", own[at]);
        sink.put(
            "core.ops.imhp_job_s",
            job_duration(&t.spans, at, "parafac-dri-imhp")?,
        );
        sink.put(
            "core.ops.pairwisemerge_job_s",
            job_duration(&t.spans, at, "parafac-dri-pairwisemerge")?,
        );
        let shuffled: f64 = (t.spans.iter())
            .filter(|s| s.parent == Some(at))
            .flat_map(|s| &s.counts)
            .filter(|(k, _)| *k == "shuffle_bytes")
            .map(|(_, v)| v)
            .sum();
        let env = env_for(
            self.x.dims(),
            self.x.nnz(),
            rank,
            rank,
            self.w.spec.machines,
        );
        let bound = applicable_bound(&comm_for(Decomp::Parafac, Variant::Dri)).eval(&env);
        sink.put("analyze.comm.shuffle_over_bound", shuffled / bound as f64);

        let dense_s = median_time(REPS, || {
            mttkrp_dense(&self.x, 0, [&factors[0], &factors[1], &factors[2]])
        })?;
        sink.put("tensor.ops.mttkrp_dense_s", dense_s);
        sink.put(
            "tensor.ops.mttkrp_dense_mnnzr_per_s",
            (self.x.nnz() * rank) as f64 / 1e6 / dense_s,
        );
        sink.put("core.parafac.mttkrp_over_dense", span.duration() / dense_s);
        Ok(())
    }

    /// One Tucker-DRI projection (mode 0), its matricization and the
    /// subspace iteration on it.
    fn project(&self, sink: &mut Sink, t: &mut Tracer) -> Res<()> {
        let factors = match self.w.tucker_state() {
            Some(f) if self.x.nnz() == self.w.x.nnz() => f.clone(),
            _ => {
                let [a, b, c] = self.random_factors(TUCKER_CORE[0]);
                [
                    thin_qr(&a).map_err(err)?,
                    thin_qr(&b).map_err(err)?,
                    thin_qr(&c).map_err(err)?,
                ]
            }
        };
        let (u1, u2) = (factors[1].transpose(), factors[2].transpose());
        let y = traced_project(t, &self.cluster, &self.x, 0, &u1, &u2)?;
        let own = self_times(&t.spans);
        let (at, span) = last_span(&t.spans, "core.tucker.project");
        sink.put("core.tucker.project_s", span.duration());
        sink.put("core.tucker.project_self_s", own[at]);
        sink.put(
            "core.ops.crossmerge_job_s",
            job_duration(&t.spans, at, "tucker-dri-crossmerge")?,
        );
        let (y_mat, matricize_s) = timed(|| y.matricize(0));
        let y_mat = y_mat.map_err(err)?;
        sink.put("tensor.coo3.matricize_s", matricize_s);
        let opts = SubspaceOptions {
            seed: self.w.als_seed(),
            ..Default::default()
        };
        let (u, subspace_s) =
            timed(|| leading_left_singular_vectors(&y_mat, TUCKER_CORE[0], &opts));
        black_box(u.map_err(err)?);
        sink.put("linalg.subspace_s", subspace_s);
        Ok(())
    }

    /// Dense kernels at the workload's factor shape, and the in-memory
    /// baselines on the probe tensor.
    fn kernels(&self, sink: &mut Sink) -> Res<()> {
        let [a, _, _] = self.random_factors(self.rank());
        let g = a.gram();
        sink.put("linalg.thin_qr_s", median_time(REPS, || thin_qr(&a))?);
        sink.put("linalg.gram_s", median_time_of(REPS, || a.gram()));
        sink.put("linalg.matmul_s", median_time(REPS, || a.matmul(&g))?);
        let gg = g.hadamard(&g).map_err(err)?;
        sink.put("linalg.pinv_us", median_time(REPS, || pinv(&gg))? * 1e6);
        let seed = self.w.als_seed();
        let (base, s) = timed(|| parafac_als_baseline(&self.x, self.rank(), 1, 0.0, seed, None));
        black_box(base.map_err(err)?);
        sink.put("baseline.parafac_sweep_s", s);
        let (base, s) = timed(|| tucker_als_baseline(&self.x, TUCKER_CORE, 1, 0.0, seed, None));
        black_box(base.map_err(err)?);
        sink.put("baseline.tucker_sweep_s", s);
        Ok(())
    }

    /// The storage stack bottom-up on the probe tensor's bytes: record
    /// encoding, the block codec, the block store, then the DFS on top
    /// (durable under the workload's budget rule, and in memory).
    fn storage(&self, sink: &mut Sink) -> Res<()> {
        let records = tensor_records(&self.x);
        let raw = encode_records(&records);
        let mb = raw.len() as f64 / 1e6;
        let rate = |seconds: f64| mb / seconds;
        sink.put(
            "mapreduce.persist.encode_records_mb_per_s",
            rate(median_time_of(REPS, || encode_records(&records))),
        );
        sink.put(
            "mapreduce.persist.decode_records_mb_per_s",
            rate(median_time(REPS, || decode_records::<(Ix4, f64)>(&raw))?),
        );
        let encoded = zero_rle_encode(&raw);
        sink.put(
            "blockstore.codec.encode_mb_per_s",
            rate(median_time_of(REPS, || zero_rle_encode(&raw))),
        );
        sink.put(
            "blockstore.codec.decode_mb_per_s",
            rate(median_time(REPS, || zero_rle_decode(&encoded, raw.len()))?),
        );
        sink.put(
            "blockstore.codec.ratio",
            raw.len() as f64 / encoded.len() as f64,
        );

        let store_dir = StoreDir::new("probe-blockstore");
        let store = BlockStore::open(StoreOptions::new(store_dir.path())).map_err(err)?;
        let (put, put_s) = timed(|| {
            store.put(
                "probe",
                "probe",
                &raw,
                records.len() as u64,
                raw.len() as u64,
            )
        });
        put.map_err(err)?;
        let store_get_s = median_time(3, || store.get("probe"))?;
        let stats = store.stats();
        sink.put("blockstore.store.put_mb_per_s", rate(put_s));
        sink.put("blockstore.store.get_mb_per_s", rate(store_get_s));
        sink.put(
            "blockstore.store.stored_bytes_written",
            stats.stored_bytes_written as f64,
        );
        sink.put(
            "blockstore.store.stored_bytes_read",
            stats.stored_bytes_read as f64,
        );

        let dfs_dir = StoreDir::new("probe-dfs");
        let budget = raw.len() / 6;
        let durable = Cluster::try_new(cluster_config(
            &self.w.spec,
            DfsBackend::Durable(DurableConfig::new(dfs_dir.path()).memory_budget(budget)),
        ))
        .map_err(err)?;
        let (put, put_s) = timed(|| persist_tensor(&durable, TENSOR_KEY, &self.x));
        put.map_err(err)?;
        persist_tensor(&self.cluster, TENSOR_KEY, &self.x).map_err(err)?;
        let scan = |cluster: &Cluster| -> Res<(f64, f64)> {
            let mut fetch = Vec::new();
            let mut whole = Vec::new();
            for _ in 0..3 {
                let (records, fetch_s) = timed(|| scan_fetch(cluster, 0));
                let records = records?;
                let (out, job_s) = timed(|| scan_job(cluster, 0, &records));
                black_box(out?);
                fetch.push(fetch_s);
                whole.push(fetch_s + job_s);
            }
            Ok((median(&fetch), median(&whole)))
        };
        let (durable_get_s, durable_scan_s) = scan(&durable)?;
        let (_, memory_scan_s) = scan(&self.cluster)?;
        let spill = durable.dfs().spill_stats();
        let read = durable
            .dfs()
            .durable_dataset_io()
            .and_then(|io| io.get(TENSOR_KEY).map(|t| t.bytes_read))
            .unwrap_or(0);
        sink.put("mapreduce.dfs.put_mb_per_s", rate(put_s));
        sink.put("mapreduce.dfs.get_mb_per_s", rate(durable_get_s));
        sink.put("mapreduce.dfs.reload_events", spill.reload_events as f64);
        sink.put("mapreduce.dfs.reloaded_bytes", spill.reloaded_bytes as f64);
        sink.put("mapreduce.dfs.spilled_bytes", spill.spilled_bytes as f64);
        sink.put(
            "mapreduce.dfs.read_amplification",
            read as f64 / (self.x.nnz() as u64 * tensor_record_bytes()) as f64,
        );
        sink.put(
            "mapreduce.dfs.durable_over_memory",
            durable_scan_s / memory_scan_s,
        );
        sink.put(
            "blockstore.store.share_of_dfs_get",
            store_get_s / durable_get_s,
        );
        Ok(())
    }
}

/// `haten2-data`'s generator at the workload's shape — timed once so a
/// slowdown there is visible, though the benchmark never runs on its
/// output.
fn data_generate(spec: &Spec, seed: u64) -> CooTensor3 {
    let cfg = RandomTensorConfig {
        dims: spec.dims,
        nnz: spec.nnz,
        value_range: (0.5, 2.0),
        seed,
    };
    match spec.shape {
        // `haten2-data` plants concepts only through its knowledge-base
        // generator; at this shape its uniform generator is the closest.
        Shape::Uniform | Shape::Planted => random_tensor(&cfg),
        Shape::PowerLaw => haten2_data::powerlaw_tensor(&cfg, 1.0),
    }
}

fn write_trace(spec: &Spec, seed: u64, spans: &[Span]) -> Res<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join(format!("trace-{}.json", spec.name));
    let metadata = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        (
            "sweep_id",
            Json::str("0.. = the traced sweeps, 1000 = probes"),
        ),
    ]);
    std::fs::write(&path, chrome_trace(spans, metadata).pretty()).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_mapreduce::JobMetrics;

    fn job(started_s: f64, finished_s: f64) -> JobMetrics {
        JobMetrics {
            started_s,
            finished_s,
            ..Default::default()
        }
    }

    #[test]
    fn gap_is_wall_minus_union_of_job_intervals() {
        let m = RunMetrics {
            jobs: vec![job(0.0, 1.0), job(0.5, 2.0), job(3.0, 4.0), job(3.2, 3.4)],
        };
        assert!((inter_job_gap_s(&m) - 1.0).abs() < 1e-12);
        let back_to_back = RunMetrics {
            jobs: vec![job(1.0, 2.0), job(2.0, 3.0)],
        };
        assert_eq!(inter_job_gap_s(&back_to_back), 0.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_start_with_the_shares() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert!(names[..Layer::ALL.len()]
            .iter()
            .all(|n| n.starts_with("share.")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn sink_orders_by_table_and_skips_replace() {
        let mut sink = Sink::default();
        for (name, _) in PER_LAYER.iter().rev() {
            sink.put(name, 1.0);
        }
        sink.skip("mapreduce.sched.peak_concurrency", "one worker");
        let metrics = sink.finish();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics
            .iter()
            .zip(PER_LAYER)
            .all(|(m, (n, u))| m.name == *n && m.unit == *u));
        let skipped: Vec<_> = metrics.iter().filter(|m| m.skipped.is_some()).collect();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].skipped.as_deref(), Some("one worker"));
        assert_eq!(skipped[0].name, "mapreduce.sched.peak_concurrency");
    }
}
