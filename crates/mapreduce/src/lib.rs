//! A hand-rolled, cluster-simulated MapReduce engine.
//!
//! HaTen2 runs on Hadoop; no Hadoop cluster is available here, so this crate
//! reproduces the *behaviourally relevant* parts of that substrate:
//!
//! * **Real dataflow semantics** — map → (combine) → partition → shuffle →
//!   sort/group → reduce, executed with genuine thread parallelism on a
//!   persistent worker pool ([`pool::WorkerPool`]) whose threads stand in
//!   for cluster nodes. Map tasks emit sorted runs and the shuffle moves
//!   them zero-copy; reducers k-way merge instead of re-sorting, and
//!   results are deterministic across runs and thread counts.
//! * **Exact intermediate-data accounting** — every record a mapper emits is
//!   counted and sized. "Max intermediate data" is the quantity the paper's
//!   Tables III and IV bound per HaTen2 variant, so it must be measured, not
//!   modelled.
//! * **Job counting** — the second column of those tables.
//! * **A calibrated cluster cost model** — converts measured per-job work
//!   into simulated wall-clock for an `M`-machine cluster with per-job fixed
//!   overhead (JVM start, synchronization). This produces the paper's
//!   machine-scalability flattening (Fig. 8) and the job-count-dominated
//!   running-time differences between variants (Figs. 1 and 7).
//! * **Memory budgets** — a per-reducer budget makes broadcast-style jobs
//!   (HaTen2-Naive copies a whole factor column to every reducer) fail with
//!   an explicit [`MrError::ReducerOom`], reproducing the paper's "o.o.m."
//!   data points at scaled-down thresholds.
//! * **An in-memory DFS** ([`dfs::Dfs`]) with read/write metering, so the
//!   disk-access saving of HaTen2-DRI (the input tensor is read once, not
//!   twice) is observable.
//! * **Fault injection and recovery** — a seeded [`fault::FaultPlan`]
//!   schedules task failures, worker crashes and stragglers; the engine
//!   recovers with bounded retries + simulated-time backoff, speculative
//!   re-execution and worker blacklisting — all expanded deterministically
//!   so results stay bit-identical to fault-free runs.
//! * **A sequential oracle** — [`reference::run_job_reference`] is a
//!   straight-line, single-threaded executor with the same observable
//!   semantics; property tests hold the pooled engine to it bit-for-bit.
//! * **A declarative plan IR** — [`plan::JobGraph`] lets pipelines publish
//!   their dataset wiring and symbolic cost expressions up front, so the
//!   `haten2-analyze` crate can verify the paper's static cost table
//!   *before* a job runs.
//! * **A DAG-aware job scheduler** — pipelines submit [`sched::Batch`]es
//!   of jobs with declared dataset read/write sets (validated against the
//!   plan IR); a ready-queue dispatches any job whose inputs are available
//!   onto the shared worker pool, interleaving tasks from concurrent
//!   jobs. Results still *commit* in submission order and fault schedules
//!   are keyed by submission index, so outputs, DFS contents, and metrics
//!   stay bit-identical to sequential execution
//!   ([`cluster::SchedulerMode::Sequential`] is the in-tree oracle).
//!   Races are ruled out where jobs run: a job reads only its declared
//!   dependencies' outputs, each shard has one writer per batch, and a
//!   [`Dfs`] write from inside a running job is refused.

// The workspace's two unsafe sites live here, each behind narrowly
// scoped `#[allow]`s with SAFETY arguments and its own tests: the lifetime
// erasure of `WorkerPool::broadcast` (`pool.rs`, stress-tested) and the
// in-place fills of `fill.rs` (Miri-tested) — a reloaded dataset's
// assembly, and the out-of-place moves that sort a shuffle bucket.
// Everything else in this crate is denied from adding more.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod cluster;
pub mod dfs;
pub mod fault;
mod fill;
pub mod job;
pub mod metrics;
pub mod persist;
pub mod plan;
pub mod pool;
mod recycle;
pub mod reference;
pub mod sched;
pub mod size;

pub use arena::{Chunks, Collect, GroupValues, MapOutput};
pub use cluster::{Cluster, ClusterConfig, CostModel, SchedulerMode};
pub use dfs::{Block, Dfs, DfsBackend, DurableConfig, SpillStats};
pub use fault::{FaultPlan, JobFaultSchedule, RetryPolicy, TaskFaults};
pub use haten2_blockstore::Codec;
pub use job::{
    concat_partitions, key_slice, run_job, run_job_collect, run_job_streaming, run_job_written,
    Combiner, JobSite, JobSpec, MapInput, RECORD_FRAMING_BYTES,
};
pub use metrics::{BatchReport, JobMetrics, RunMetrics};
pub use persist::{decode_records, encode_records, parse_records, Persist};
pub use plan::{dataset_base, Env, JobGraph, JobInstance, PlanJob, SymExpr, Var};
pub use pool::WorkerPool;
pub use reference::{run_job_reference, run_job_reference_streaming};
pub use sched::{datasets_overlap, Batch, BatchResults, JobCtx, JobHandle, TakeOnce};
pub use size::EstimateSize;

/// Always `false`: the engine has no dynamic race detector. Races are
/// ruled out where jobs run ([`JobCtx::get`], [`Batch::submit`], and the
/// refusal of [`Dfs`] writes from inside a running job). Kept only because
/// the benchmark (`benchmark/`) still asserts it at startup.
#[must_use]
pub const fn race_detector_compiled() -> bool {
    false
}

/// Errors surfaced by the MapReduce engine.
#[derive(Debug, Clone, PartialEq)]
pub enum MrError {
    /// A reduce-side key group exceeded the configured per-reducer memory
    /// budget — the distributed analogue of an out-of-memory crash.
    ReducerOom {
        /// Job that failed.
        job: String,
        /// Bytes the offending key group required.
        group_bytes: usize,
        /// Configured budget.
        budget_bytes: usize,
    },
    /// Total intermediate (shuffle) data exceeded the cluster's aggregate
    /// capacity (sum of per-machine spill space).
    ClusterCapacityExceeded {
        /// Job that failed.
        job: String,
        /// Bytes of intermediate data produced.
        intermediate_bytes: usize,
        /// Configured aggregate capacity.
        capacity_bytes: usize,
    },
    /// A task failed more times than the retry budget allows.
    TaskFailed {
        /// Job that failed.
        job: String,
        /// Phase of the failing task (`"map"` or `"reduce"`).
        phase: &'static str,
        /// Task index within the job (map task or reduce partition).
        task: usize,
        /// Failed attempts when the budget ran out.
        attempts: usize,
    },
    /// A pipeline stage referenced a DFS dataset that does not exist (or
    /// holds records of a different type).
    DatasetMissing {
        /// Job that failed.
        job: String,
        /// The dataset name.
        dataset: String,
    },
    /// A scheduler batch disagreed with the static plan: a submitted job
    /// does not match any [`plan::JobGraph`] template, declared reads or
    /// writes that the plan does not, ran a job it never declared,
    /// touched an output it never claimed as a dependency, or wrote or
    /// deleted a [`Dfs`] dataset while running.
    PlanViolation {
        /// The offending job (or batch) name.
        job: String,
        /// What disagreed.
        detail: String,
    },
    /// A DFS `put` would push aggregate live dataset bytes past the
    /// configured storage capacity — the spill space (durable backend) or
    /// simulated DFS capacity (memory backend) is exhausted. Fired
    /// identically by both backends so capacity behaviour is
    /// backend-independent.
    SpillCapacityExceeded {
        /// Dataset whose put was rejected.
        dataset: String,
        /// Estimated bytes the put requested.
        requested_bytes: usize,
        /// Live bytes already stored (after accounting for the
        /// generation this put would have replaced).
        live_bytes: usize,
        /// Configured aggregate capacity.
        capacity_bytes: usize,
    },
    /// The durable storage backend failed an I/O operation (open, put,
    /// get, delete, or decode). Carries the formatted OS error, since
    /// `io::Error` itself is neither `Clone` nor `PartialEq`.
    StorageFailed {
        /// Dataset involved (or `"(store)"` for store-wide operations).
        dataset: String,
        /// The failing operation.
        op: &'static str,
        /// Human-readable failure detail.
        detail: String,
    },
    /// Two jobs of the same batch declared a write to the *same exact*
    /// dataset shard. The scheduler would silently serialize them into a
    /// last-writer-wins WAW edge, and a reader declaring the shard could
    /// not tell which output it names; rejecting at submission time keeps
    /// every shard single-writer.
    DuplicateWrite {
        /// Job whose submission was rejected.
        job: String,
        /// The earlier-submitted job already writing the shard.
        prior_job: String,
        /// The contested dataset shard.
        dataset: String,
    },
}

impl std::fmt::Display for MrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrError::ReducerOom { job, group_bytes, budget_bytes } => write!(
                f,
                "job '{job}': reducer out of memory (key group needs {group_bytes} B, budget {budget_bytes} B)"
            ),
            MrError::ClusterCapacityExceeded { job, intermediate_bytes, capacity_bytes } => write!(
                f,
                "job '{job}': intermediate data {intermediate_bytes} B exceeds cluster capacity {capacity_bytes} B"
            ),
            MrError::TaskFailed { job, phase, task, attempts } => {
                write!(
                    f,
                    "job '{job}': {phase} task {task} exhausted its retry budget after {attempts} failed attempts"
                )
            }
            MrError::DatasetMissing { job, dataset } => {
                write!(f, "job '{job}': DFS dataset '{dataset}' missing or wrong type")
            }
            MrError::SpillCapacityExceeded { dataset, requested_bytes, live_bytes, capacity_bytes } => write!(
                f,
                "dataset '{dataset}': put of {requested_bytes} B would push live DFS bytes ({live_bytes} B) past capacity {capacity_bytes} B"
            ),
            MrError::StorageFailed { dataset, op, detail } => {
                write!(f, "dataset '{dataset}': durable storage {op} failed: {detail}")
            }
            MrError::PlanViolation { job, detail } => {
                write!(f, "job '{job}': plan violation: {detail}")
            }
            MrError::DuplicateWrite { job, prior_job, dataset } => {
                write!(
                    f,
                    "job '{job}': duplicate write: dataset shard '{dataset}' is already written by job '{prior_job}'"
                )
            }
        }
    }
}

impl std::error::Error for MrError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, MrError>;
