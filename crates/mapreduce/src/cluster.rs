//! Cluster configuration, cost model, and the [`Cluster`] handle.

use crate::dfs::{Dfs, DfsBackend};
use crate::fault::FaultPlan;
use crate::metrics::{BatchReport, JobMetrics, RunMetrics};
use crate::pool::{SharedPool, WorkerPool};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How [`crate::sched::Batch::run`] executes the jobs of a batch.
///
/// Both modes produce bit-identical outputs, DFS contents, and
/// [`JobMetrics`]/[`RunMetrics`] — `Sequential` is the oracle the
/// equivalence property tests hold `Dag` to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Dependency-aware concurrent execution: any job whose inputs are
    /// available is dispatched onto the shared worker pool, interleaving
    /// tasks from concurrent jobs. Results still commit in submission
    /// order.
    #[default]
    Dag,
    /// Strict submission-order execution, one job at a time — exactly the
    /// behaviour of the pre-scheduler drivers.
    Sequential,
}

/// Static description of the simulated cluster.
///
/// The defaults are calibrated to the paper's testbed: 40 machines, quad-core
/// Xeon E3, 32 GB RAM — scaled so that experiments complete at laptop scale
/// while preserving the *ratios* the figures depend on (per-job overhead vs.
/// per-byte work).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated machines (the paper sweeps 10–40).
    pub machines: usize,
    /// Reduce partitions per job; `None` means one per machine.
    pub reducers: Option<usize>,
    /// Fixed per-job overhead in simulated seconds (JVM start, scheduling,
    /// synchronization). Hadoop-era jobs paid ~10–20 s; this constant is what
    /// makes job *count* dominate run time and machine scalability flatten.
    pub per_job_overhead_s: f64,
    /// Map-side processing throughput, bytes/second/machine.
    pub map_bytes_per_s: f64,
    /// Shuffle (network) throughput, bytes/second/machine.
    pub shuffle_bytes_per_s: f64,
    /// Reduce-side processing throughput, bytes/second/machine.
    pub reduce_bytes_per_s: f64,
    /// Per-reducer memory budget in bytes; a reduce-side key group larger
    /// than this aborts the job with [`crate::MrError::ReducerOom`].
    pub reducer_memory_bytes: Option<usize>,
    /// Aggregate cluster spill capacity in bytes; a job whose intermediate
    /// data exceeds it aborts with
    /// [`crate::MrError::ClusterCapacityExceeded`].
    pub cluster_capacity_bytes: Option<usize>,
    /// Real worker threads used to execute tasks (not a semantic knob).
    pub threads: usize,
    /// Deterministic fault injection and recovery schedule; `None` disables
    /// injection entirely. The legacy every-`n`-th-map-task knob lives on
    /// as [`FaultPlan::fail_every_nth`].
    pub fault_plan: Option<FaultPlan>,
    /// How scheduler batches execute (not a semantic knob: outputs and
    /// metrics are bit-identical across modes).
    pub scheduler: SchedulerMode,
    /// Storage backend for the cluster-owned [`Dfs`]
    /// ([`Cluster::dfs`]). `Memory` is the historical in-memory map;
    /// `Durable` writes every dataset through a block store and spills
    /// resident copies under a memory budget. When a durable backend
    /// declares no budget of its own, the cluster derives one from the
    /// per-machine budgets already configured here:
    /// `reducer_memory_bytes × machines`.
    pub dfs: DfsBackend,
    /// Aggregate DFS storage capacity in bytes across live datasets; a
    /// `put` that would exceed it fails with
    /// [`crate::MrError::SpillCapacityExceeded`] on either backend.
    /// `None` is unlimited.
    pub dfs_capacity_bytes: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .min(16);
        ClusterConfig {
            machines: 40,
            reducers: None,
            per_job_overhead_s: 10.0,
            map_bytes_per_s: 50.0e6,
            shuffle_bytes_per_s: 25.0e6,
            reduce_bytes_per_s: 50.0e6,
            reducer_memory_bytes: None,
            cluster_capacity_bytes: None,
            threads,
            fault_plan: None,
            scheduler: SchedulerMode::default(),
            dfs: DfsBackend::Memory,
            dfs_capacity_bytes: None,
        }
    }
}

impl ClusterConfig {
    /// Config with `machines` machines and everything else default.
    pub fn with_machines(machines: usize) -> Self {
        ClusterConfig {
            machines,
            ..Default::default()
        }
    }

    /// Number of reduce partitions for a job.
    pub fn num_reducers(&self) -> usize {
        self.reducers.unwrap_or(self.machines).max(1)
    }
}

/// Converts measured per-job counters into simulated wall-clock seconds.
///
/// The model is the standard bulk-synchronous decomposition of a MapReduce
/// job:
///
/// ```text
/// T = overhead + map_bytes/(M·map_bw) + shuffle_bytes/(M·net_bw)
///              + reduce_bytes/(M·red_bw) + skew·T_work
/// ```
///
/// `overhead` does not shrink with `M`, which is exactly why the paper's
/// Figure 8 flattens and why reducing job count (DRN → DRI) matters.
#[derive(Debug, Clone, Default)]
pub struct CostModel;

impl CostModel {
    /// Simulated seconds for one job under `cfg`, given its counters.
    pub fn job_time_s(cfg: &ClusterConfig, m: &JobMetrics) -> f64 {
        let machines = cfg.machines.max(1) as f64;
        let map_t = m.map_input_bytes as f64 / (machines * cfg.map_bytes_per_s);
        let shuffle_t = m.shuffle_bytes as f64 / (machines * cfg.shuffle_bytes_per_s);
        let reduce_t =
            (m.shuffle_bytes + m.reduce_output_bytes) as f64 / (machines * cfg.reduce_bytes_per_s);
        // Mild skew term: the largest reduce group serializes on one machine.
        let skew_t = m.max_group_bytes as f64 / cfg.reduce_bytes_per_s;
        // Recovery time (retry backoff, straggler delay) is serial with the
        // job: a task's retries delay its completion, not overlap it.
        cfg.per_job_overhead_s + map_t + shuffle_t + reduce_t + skew_t + m.recovery_sim_time_s
    }
}

/// A handle to the simulated cluster: configuration plus accumulated
/// metrics. Jobs are submitted through [`crate::job::run_job`].
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    dfs: Dfs,
    metrics: Mutex<RunMetrics>,
    batch_reports: Mutex<Vec<BatchReport>>,
    pool: Arc<SharedPool>,
    epoch: Instant,
    #[cfg(feature = "race-detect")]
    races: Mutex<Vec<crate::race::RaceReport>>,
}

impl Cluster {
    /// Create a cluster with the given configuration.
    ///
    /// Panics if a durable DFS backend fails to open its store directory
    /// — the fallible form is [`Cluster::try_new`]. Memory-backed
    /// configurations (the default) cannot fail.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster::try_new(config).expect("failed to open the cluster's DFS backend")
    }

    /// Create a cluster, surfacing durable-backend open failures as
    /// [`crate::MrError::StorageFailed`] instead of panicking.
    pub fn try_new(config: ClusterConfig) -> crate::Result<Self> {
        // A durable backend without its own memory budget inherits the
        // cluster's per-machine budgets: spilling starts where the
        // simulated cluster's aggregate reducer memory ends.
        let backend = match &config.dfs {
            DfsBackend::Durable(cfg) if cfg.memory_budget_bytes.is_none() => {
                let mut cfg = cfg.clone();
                cfg.memory_budget_bytes = config
                    .reducer_memory_bytes
                    .map(|per_machine| per_machine.saturating_mul(config.machines.max(1)));
                DfsBackend::Durable(cfg)
            }
            other => other.clone(),
        };
        let pool = Arc::new(SharedPool::new(config.threads));
        let mut dfs = Dfs::from_backend(&backend, config.dfs_capacity_bytes)?;
        dfs.pool = Some(Arc::clone(&pool));
        Ok(Cluster {
            config,
            dfs,
            metrics: Mutex::new(RunMetrics::default()),
            batch_reports: Mutex::new(Vec::new()),
            pool,
            epoch: Instant::now(),
            #[cfg(feature = "race-detect")]
            races: Mutex::new(Vec::new()),
        })
    }

    /// Cluster with default (paper-testbed-like) configuration.
    pub fn with_defaults() -> Self {
        Cluster::new(ClusterConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster-owned DFS, built from [`ClusterConfig::dfs`]. Drivers
    /// that persist datasets across jobs (tensors, per-sweep factors)
    /// should store them here so a durable backend can make them survive
    /// a process restart. Standalone `Dfs::new()` instances remain valid
    /// for callers that want private storage.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The persistent worker pool backing this cluster's jobs — and its
    /// DFS's block-parallel spills and reloads — created on first use. The
    /// pool holds `threads - 1` threads because the thread submitting a
    /// job always participates as an executor; with `threads <= 1` the
    /// pool is empty and jobs run inline.
    pub fn pool(&self) -> &WorkerPool {
        self.pool.get()
    }

    /// Record a finished job's metrics.
    pub(crate) fn record(&self, job: JobMetrics) {
        self.metrics
            .lock()
            .expect("metrics lock poisoned")
            .push(job);
    }

    /// Snapshot of all metrics so far.
    pub fn metrics(&self) -> RunMetrics {
        self.metrics.lock().expect("metrics lock poisoned").clone()
    }

    /// Clear accumulated metrics (e.g. between experiment repetitions).
    pub fn reset_metrics(&self) {
        *self.metrics.lock().expect("metrics lock poisoned") = RunMetrics::default();
    }

    /// Metrics accumulated since `mark` jobs had run; used to attribute jobs
    /// to a phase of an algorithm.
    pub fn metrics_since(&self, mark: usize) -> RunMetrics {
        let all = self.metrics.lock().expect("metrics lock poisoned");
        RunMetrics {
            jobs: all.jobs[mark.min(all.jobs.len())..].to_vec(),
        }
    }

    /// Number of jobs run so far (for use with [`Cluster::metrics_since`]).
    pub fn jobs_run(&self) -> usize {
        self.metrics
            .lock()
            .expect("metrics lock poisoned")
            .total_jobs()
    }

    /// Seconds since this cluster was created — the timeline that
    /// [`JobMetrics::started_s`]/[`JobMetrics::finished_s`] stamps live on.
    pub fn since_epoch(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Record a finished scheduler batch's concurrency report.
    pub(crate) fn record_batch(&self, report: BatchReport) {
        self.batch_reports
            .lock()
            .expect("batch reports lock poisoned")
            .push(report);
    }

    /// Concurrency reports for every completed scheduler batch, in
    /// completion order. Kept out of [`Cluster::metrics`] because host
    /// scheduling decides these numbers — they vary run to run while the
    /// per-job counters stay bit-identical.
    pub fn batch_reports(&self) -> Vec<BatchReport> {
        self.batch_reports
            .lock()
            .expect("batch reports lock poisoned")
            .clone()
    }

    /// Record the dynamic race detector's findings for one completed
    /// batch run.
    #[cfg(feature = "race-detect")]
    pub(crate) fn record_races(&self, reports: Vec<crate::race::RaceReport>) {
        self.races
            .lock()
            .expect("race reports lock poisoned")
            .extend(reports);
    }

    /// Every race the dynamic detector flagged on this cluster so far.
    /// Only exists under the `race-detect` feature; the chaos harness
    /// cross-validates this against the static certification.
    #[cfg(feature = "race-detect")]
    pub fn race_reports(&self) -> Vec<crate::race::RaceReport> {
        self.races
            .lock()
            .expect("race reports lock poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_sane() {
        let c = ClusterConfig::default();
        assert_eq!(c.machines, 40);
        assert!(c.per_job_overhead_s > 0.0);
        assert!(c.num_reducers() >= 1);
    }

    #[test]
    fn cost_model_overhead_floor() {
        let cfg = ClusterConfig::default();
        let m = JobMetrics::default();
        let t = CostModel::job_time_s(&cfg, &m);
        assert!((t - cfg.per_job_overhead_s).abs() < 1e-9);
    }

    #[test]
    fn cost_model_scales_with_machines() {
        let m = JobMetrics {
            map_input_bytes: 1_000_000_000,
            shuffle_bytes: 1_000_000_000,
            ..Default::default()
        };
        let t10 = CostModel::job_time_s(&ClusterConfig::with_machines(10), &m);
        let t40 = CostModel::job_time_s(&ClusterConfig::with_machines(40), &m);
        assert!(t40 < t10);
        // Sub-linear speedup because of the fixed overhead.
        let speedup = t10 / t40;
        assert!(speedup > 1.0 && speedup < 4.0, "speedup={speedup}");
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        let c = Cluster::with_defaults();
        assert_eq!(c.jobs_run(), 0);
        c.record(JobMetrics {
            name: "x".into(),
            ..Default::default()
        });
        c.record(JobMetrics {
            name: "y".into(),
            ..Default::default()
        });
        assert_eq!(c.jobs_run(), 2);
        let since = c.metrics_since(1);
        assert_eq!(since.total_jobs(), 1);
        assert_eq!(since.jobs[0].name, "y");
        c.reset_metrics();
        assert_eq!(c.jobs_run(), 0);
    }
}
