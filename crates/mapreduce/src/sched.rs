//! DAG-aware inter-job scheduler: run independent jobs of a batch
//! concurrently on the shared worker pool.
//!
//! HaTen2's cost model counts *jobs* because Hadoop's JobTracker admits
//! them one at a time — but the Naive/DNN/DRN variants issue `Q+R`
//! (Tucker) and `2R`/`4R` (PARAFAC) per-column jobs per sweep that are
//! mutually independent. A [`Batch`] holds those jobs with declared
//! dataset read/write sets — the HaTen2 pipelines' declarations are read
//! off their [`JobGraph`] by one submitter (`haten2_core::plan`), so what
//! is declared is the graph the analyzer checks; [`Batch::run`] builds the
//! dependency DAG, validates it against that
//! [`JobGraph`], and dispatches any job whose inputs are available onto
//! the cluster's shared [`crate::pool::WorkerPool`], interleaving map and
//! reduce tasks from concurrent jobs. The paper's "number of jobs" column
//! becomes a *critical-path depth* ([`JobGraph::critical_path_jobs`]).
//!
//! **Determinism contract.** Outputs, DFS contents, and every
//! [`JobMetrics`]/[`crate::metrics::RunMetrics`] counter are bit-identical
//! to sequential execution:
//!
//! * jobs *commit* (record metrics, surface errors) strictly in
//!   submission order, regardless of completion order. Commit is
//!   *eager*: a commit cursor advances as soon as every earlier
//!   submission has resolved, instead of waiting for the whole batch —
//!   the order is unchanged, only the latency of reaching the cluster's
//!   metrics log;
//! * each job's fault schedule is keyed by its submission index
//!   (`jobs already recorded + position in batch`), the exact index a
//!   sequential driver would have produced, so [`crate::fault::FaultPlan`]
//!   replay is unaffected by concurrency;
//! * a failed job's dependents never run; jobs *after* the first
//!   (submission-order) failure are discarded uncommitted, so the batch
//!   records exactly the jobs a sequential driver would have recorded
//!   before aborting.
//!
//! [`crate::cluster::SchedulerMode::Sequential`] executes the same batch
//! strictly in submission order — the oracle the equivalence property
//! tests (`tests/equivalence.rs`, `tests/faults.rs`) hold the DAG mode
//! to, alongside the per-job [`crate::reference::run_job_reference`].
//!
//! **Dataset naming.** Reads/writes are plain dataset names, optionally
//! sharded as `base#shard` (e.g. the per-column `t#3`). Two declarations
//! conflict when their bases match and either side is unsharded or both
//! name the same shard — so per-column writers `t#0`, `t#1`, … are
//! mutually independent while a reader of `t` depends on all of them.
//!
//! **No races.** Two jobs with no dependency path between them may run
//! at once, so each is held to its declarations where it runs:
//! [`JobCtx::get`] refuses the output of a job that is not a declared
//! dependency, [`Batch::submit`] refuses a second writer of a shard, a
//! committed output is written once (a `OnceLock`, or a [`TakeOnce`] with
//! one reader), and a [`crate::Dfs`] write or delete from inside a running
//! job's closure is refused. Each refusal is a typed error, never a wrong
//! answer; the DFS is written by driver code between batches.
//!
//! **Liveness.** Scheduler workers never block: each loops popping ready
//! jobs and exits when the queue is momentarily empty; the worker that
//! completes a job enqueues (and can itself execute) newly-ready
//! dependents. Blocking here would deadlock — a pool worker waiting on a
//! condition variable inside a help-first [`crate::pool::WorkerPool`]
//! broadcast could be *nested inside* another job's map-phase wait. The
//! trade-off is that a worker finding the queue empty retires early, so
//! late-ready jobs run on however many workers are still looping — at
//! least one per dependency chain, which is exactly the width of the
//! registered pipelines' DAGs.
//!
//! **Pool split.** Scheduler workers and the jobs' own map/reduce tasks
//! share one pool. [`Batch::run`] splits it statically per *dependency
//! level* ([`level_split`]): a job alone at its depth keeps every
//! executor, a level at least `threads` wide runs its jobs' tasks inline,
//! and no more scheduler workers start than the widest level holds — a
//! chain drains on the caller alone. The grant is recorded as
//! [`JobMetrics::task_executors`]; it never reaches a result.
//!
//! **Dispatch order.** Ready jobs are popped
//! longest-processing-time-first by estimated cost — the bytes a job's
//! finished predecessors fed it — so the job with the most to read starts
//! first instead of straggling behind its lighter siblings. Nothing backs
//! up a job the estimate misjudged: speculative execution (DESIGN.md §5)
//! is a simulated-time charge under a [`crate::FaultPlan`]
//! ([`crate::TaskFaults`]), and no task ever runs twice on the host. A
//! misjudged job just starts later, on the executors its dependency
//! level was granted, so a wrong estimate costs host wall time (the
//! batch's makespan) and nothing else. Estimates only reorder execution;
//! the commit order (and with it every output and metric) is untouched.

use crate::cluster::{Cluster, SchedulerMode};
use crate::job::JobSite;
use crate::metrics::{BatchReport, JobMetrics, RunMetrics};
use crate::plan::{dataset_base, JobGraph};
use crate::MrError;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

thread_local! {
    /// The batch job whose closure this thread is running, if any.
    static RUNNING_JOB: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Marks the current thread as running job `name` until dropped, then
/// restores the job it ran before: a pool thread waiting on one job's
/// tasks may run another job's closure nested inside.
struct RunningJob(Option<String>);

impl RunningJob {
    fn enter(name: &str) -> RunningJob {
        RunningJob(RUNNING_JOB.with(|c| c.replace(Some(name.to_string()))))
    }
}

impl Drop for RunningJob {
    fn drop(&mut self) {
        RUNNING_JOB.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Refuse a [`crate::Dfs`] write (`op` on `dataset`) from inside a
/// running batch job. The scheduler orders jobs by their declared
/// datasets only, so a write it cannot see could race with any job
/// unordered with the writer; the DFS is for driver code between batches.
pub(crate) fn refuse_dfs_write_in_job(op: &str, dataset: &str) -> crate::Result<()> {
    RUNNING_JOB.with(|c| match &*c.borrow() {
        Some(job) => Err(MrError::PlanViolation {
            job: job.clone(),
            detail: format!(
                "job '{job}' tried to {op} DFS dataset '{dataset}' while running; \
                 the DFS is written only between batches"
            ),
        }),
        None => Ok(()),
    })
}

/// A submitted job's future output. Cheap to clone; downstream jobs
/// capture clones and read them through [`JobCtx::get`], the driver takes
/// the final value with [`JobHandle::take`] after [`Batch::run`].
pub struct JobHandle<T> {
    idx: usize,
    name: String,
    slot: Arc<OnceLock<T>>,
}

impl<T> Clone for JobHandle<T> {
    fn clone(&self) -> Self {
        JobHandle {
            idx: self.idx,
            name: self.name.clone(),
            slot: Arc::clone(&self.slot),
        }
    }
}

impl<T> JobHandle<T> {
    /// The job's submission-order output, once [`Batch::run`] returned
    /// successfully. Requires this to be the last live clone of the
    /// handle (clones captured by downstream job closures are dropped
    /// when the batch finishes).
    pub fn take(self) -> crate::Result<T> {
        let name = self.name;
        let slot = Arc::try_unwrap(self.slot).map_err(|_| MrError::PlanViolation {
            job: name.clone(),
            detail: "output handle still shared; take() needs the last clone".to_string(),
        })?;
        slot.into_inner().ok_or(MrError::PlanViolation {
            job: name,
            detail: "output taken before the batch ran the job".to_string(),
        })
    }
}

/// A job output its one reader takes by ownership instead of borrowing
/// through [`JobCtx::get`]: output written for one consumer, such as the
/// next job's map output ([`crate::MapOutput`]). Taking it twice is a
/// plan error, never an empty input: the second reader gets a
/// [`MrError::PlanViolation`] naming the producer and the job that took
/// the output first. An output nobody takes is dropped with its handle.
pub struct TakeOnce<T> {
    producer: String,
    /// The output, or the name of the job that took it.
    cell: Mutex<Result<T, String>>,
}

impl<T> TakeOnce<T> {
    /// `value`, written by the job named `producer`.
    pub fn new(producer: impl Into<String>, value: T) -> Self {
        TakeOnce {
            producer: producer.into(),
            cell: Mutex::new(Ok(value)),
        }
    }

    /// Take the output for the job named `reader`.
    pub fn take(&self, reader: &str) -> crate::Result<T> {
        let mut cell = self.cell.lock().expect("take-once cell poisoned");
        match std::mem::replace(&mut *cell, Err(reader.to_string())) {
            Ok(value) => Ok(value),
            Err(first) => {
                let detail = format!(
                    "reading job '{reader}' read the output of producing job '{}', \
                     which job '{first}' already took",
                    self.producer
                );
                *cell = Err(first);
                Err(MrError::PlanViolation {
                    job: reader.to_string(),
                    detail,
                })
            }
        }
    }
}

/// Execution context handed to a submitted job's closure: the
/// [`JobSite`] its `run_job` call runs against, plus typed access to the
/// outputs of its declared dependencies.
pub struct JobCtx<'c> {
    cluster: &'c Cluster,
    graph: Option<&'c JobGraph>,
    job_index: usize,
    name: &'c str,
    ran: &'c AtomicBool,
    metrics: &'c OnceLock<JobMetrics>,
    preds: &'c [usize],
    /// Pool executors granted to this job's task broadcasts, fixed when
    /// the batch starts (see [`level_split`]).
    task_executors: usize,
}

impl JobCtx<'_> {
    /// The output of a dependency, available because every declared
    /// dependency committed before this job was dispatched. Accessing a
    /// handle whose job is *not* a declared dependency (no read/write
    /// overlap) is a [`MrError::PlanViolation`]: the scheduler would be
    /// free to run that job concurrently or later.
    pub fn get<'h, T>(&self, handle: &'h JobHandle<T>) -> crate::Result<&'h T> {
        if !self.preds.contains(&handle.idx) {
            return Err(MrError::PlanViolation {
                job: self.name.to_string(),
                detail: format!(
                    "reading job '{}' read the output of producing job '{}' \
                     without a declared dataset dependency",
                    self.name, handle.name
                ),
            });
        }
        handle.slot.get().ok_or_else(|| MrError::PlanViolation {
            job: self.name.to_string(),
            detail: format!("dependency '{}' has no output yet", handle.name),
        })
    }
}

impl JobSite for JobCtx<'_> {
    fn cluster(&self) -> &Cluster {
        self.cluster
    }

    fn job_index(&self) -> usize {
        self.job_index
    }

    fn derived_emit_hint(&self, name: &str) -> Option<usize> {
        self.graph.and_then(|g| g.emit_hint(name))
    }

    fn before_run(&self, name: &str) -> crate::Result<()> {
        if name != self.name {
            return Err(MrError::PlanViolation {
                job: name.to_string(),
                detail: format!("submitted as '{}' but ran as '{name}'", self.name),
            });
        }
        if self.ran.swap(true, Ordering::SeqCst) {
            return Err(MrError::PlanViolation {
                job: name.to_string(),
                detail: "submitted job ran more than one MapReduce job".to_string(),
            });
        }
        Ok(())
    }

    fn commit_metrics(&self, metrics: JobMetrics) {
        // Stash for submission-order commit; `before_run` guarantees at
        // most one set per job.
        let _ = self.metrics.set(metrics);
    }

    fn task_parallelism(&self, threads: usize) -> usize {
        // The batch's static per-level split (`level_split`): a job alone
        // at its dependency depth keeps the whole pool, a level at least
        // `threads` wide runs every job's tasks inline on its scheduler
        // worker with zero nested-broadcast queue traffic. Purely a
        // performance decision (results are independent of executor
        // count); sequential batches keep full intra-job parallelism.
        self.task_executors.min(threads).max(1)
    }
}

type JobFn<'a> = Box<dyn FnOnce(&JobCtx<'_>) -> crate::Result<()> + Send + 'a>;

struct Submitted<'a> {
    name: String,
    reads: Vec<String>,
    writes: Vec<String>,
    run: Mutex<Option<JobFn<'a>>>,
}

/// Outcome of one submitted job, written exactly once by the worker that
/// resolved it.
enum Status {
    Done,
    Failed(MrError),
    Skipped,
}

/// State of the eager submission-order commit: the next submission index
/// to commit, everything committed so far, and whether a non-Done status
/// halted the cursor for good.
struct CommitCursor {
    next: usize,
    committed: RunMetrics,
    halted: bool,
}

/// What [`Batch::run`] returns on success.
#[derive(Debug, Clone)]
pub struct BatchResults {
    report: BatchReport,
}

impl BatchResults {
    /// Concurrency accounting for the batch (also recorded on the
    /// cluster, see [`Cluster::batch_reports`]).
    pub fn report(&self) -> &BatchReport {
        &self.report
    }
}

/// A batch of jobs with declared dataset read/write sets, executed by
/// [`Batch::run`] according to the cluster's
/// [`SchedulerMode`](crate::cluster::SchedulerMode).
///
/// ```
/// use haten2_mapreduce::{run_job, Batch, Cluster, ClusterConfig, JobSpec};
///
/// let cluster = Cluster::new(ClusterConfig::with_machines(2));
/// let input = vec![(0u64, 2.0f64), (1, 3.0)];
/// let mut batch = Batch::new();
/// // Two independent scale jobs (they could run concurrently)…
/// let doubled = batch
///     .submit("double", vec!["x".into()], vec!["d".into()], {
///         let input = &input;
///         move |ctx| {
///             run_job(
///                 ctx,
///                 JobSpec::named("double"),
///                 input,
///                 |k, v: &f64, emit| emit(*k, v * 2.0),
///                 |k, vs, emit| emit(*k, vs.iter().sum::<f64>()),
///             )
///         }
///     })
///     .unwrap();
/// // …and a dependent sum reading the first job's output.
/// let total = batch.submit("sum", vec!["d".into()], vec!["s".into()], {
///     let doubled = doubled.clone();
///     move |ctx| {
///         let d: &Vec<(u64, f64)> = ctx.get(&doubled)?;
///         run_job(
///             ctx,
///             JobSpec::named("sum"),
///             d,
///             |_, v: &f64, emit| emit(0u64, *v),
///             |k, vs, emit| emit(*k, vs.iter().sum::<f64>()),
///         )
///     }
/// }).unwrap();
/// let results = batch.run(&cluster).unwrap();
/// assert_eq!(results.report().jobs, 2);
/// let total: Vec<(u64, f64)> = total.take().unwrap();
/// assert_eq!(total, vec![(0, 10.0)]);
/// assert_eq!(cluster.metrics().jobs[0].name, "double"); // submission order
/// ```
pub struct Batch<'a> {
    graph: Option<&'a JobGraph>,
    jobs: Vec<Submitted<'a>>,
}

impl Default for Batch<'_> {
    fn default() -> Self {
        Batch::new()
    }
}

impl<'a> Batch<'a> {
    /// An unvalidated batch, for jobs no registered [`JobGraph`]
    /// describes (tests, the benchmark's probes).
    pub fn new() -> Self {
        Batch {
            graph: None,
            jobs: Vec::new(),
        }
    }

    /// A batch validated against `graph` at [`Batch::run`]: every
    /// submitted job must instantiate one of the graph's templates, with
    /// declared reads/writes matching the template's (shard suffixes
    /// `#…` stripped). The graph also supplies derived
    /// `map_emit_hint`s ([`JobGraph::emit_hint`]).
    pub fn with_graph(graph: &'a JobGraph) -> Self {
        Batch {
            graph: Some(graph),
            jobs: Vec::new(),
        }
    }

    /// Number of submitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The declared `(name, reads, writes)` of every submitted job, in
    /// submission order — everything the scheduler will order them by.
    pub fn declared(&self) -> Vec<(&str, &[String], &[String])> {
        self.jobs
            .iter()
            .map(|j| (j.name.as_str(), j.reads.as_slice(), j.writes.as_slice()))
            .collect()
    }

    /// Submit one job: its concrete name (checked against the `run_job`
    /// spec it must issue exactly once), the datasets it reads and
    /// writes (`base` or `base#shard`), and the closure that runs it
    /// against the provided [`JobCtx`]. Submission order is the commit
    /// order — and must match what a sequential driver would run, since
    /// it keys the fault schedule.
    ///
    /// Two jobs of one batch declaring a write to the *same exact* shard
    /// are rejected here with [`MrError::DuplicateWrite`]: the scheduler
    /// would otherwise serialize them into a silent last-writer-wins WAW
    /// edge, and a reader declaring the shard could not tell which of the
    /// two outputs it names. One writer per shard per batch keeps every
    /// declared shard read naming exactly one output. (`t#0` vs `t#1` is
    /// fine; `t#0` vs an unsharded `t` is an ordinary WAW dependency, not a
    /// duplicate.)
    pub fn submit<T, F>(
        &mut self,
        name: impl Into<String>,
        reads: Vec<String>,
        writes: Vec<String>,
        f: F,
    ) -> crate::Result<JobHandle<T>>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&JobCtx<'_>) -> crate::Result<T> + Send + 'a,
    {
        let name = name.into();
        for w in &writes {
            if let Some(prior) = self.jobs.iter().find(|p| p.writes.iter().any(|pw| pw == w)) {
                return Err(MrError::DuplicateWrite {
                    job: name,
                    prior_job: prior.name.clone(),
                    dataset: w.clone(),
                });
            }
        }
        let idx = self.jobs.len();
        let slot: Arc<OnceLock<T>> = Arc::new(OnceLock::new());
        let out = Arc::clone(&slot);
        self.jobs.push(Submitted {
            name: name.clone(),
            reads,
            writes,
            run: Mutex::new(Some(Box::new(move |ctx| {
                let value = f(ctx)?;
                let _ = out.set(value);
                Ok(())
            }))),
        });
        Ok(JobHandle { idx, name, slot })
    }

    /// Declared-dataset dependency edges: for each job, the submission
    /// indices of the earlier jobs it must wait for (read-after-write,
    /// write-after-write, and write-after-read overlaps).
    fn dependencies(&self) -> Vec<Vec<usize>> {
        let n = self.jobs.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, j_preds) in preds.iter_mut().enumerate() {
            for i in 0..j {
                let a = &self.jobs[i];
                let b = &self.jobs[j];
                let raw = a
                    .writes
                    .iter()
                    .any(|w| b.reads.iter().any(|r| datasets_overlap(w, r)));
                let waw = a
                    .writes
                    .iter()
                    .any(|w| b.writes.iter().any(|w2| datasets_overlap(w, w2)));
                let war = a
                    .reads
                    .iter()
                    .any(|r| b.writes.iter().any(|w| datasets_overlap(r, w)));
                if raw || waw || war {
                    j_preds.push(i);
                }
            }
        }
        preds
    }

    /// Check every submitted job against the batch's [`JobGraph`].
    fn validate(&self) -> crate::Result<()> {
        let Some(graph) = self.graph else {
            return Ok(());
        };
        for job in &self.jobs {
            let Some(t) = graph.template_for(&job.name) else {
                return Err(MrError::PlanViolation {
                    job: job.name.clone(),
                    detail: format!("no template in plan graph '{}' matches", graph.name),
                });
            };
            let declared_reads = base_set(&job.reads);
            let declared_writes = base_set(&job.writes);
            if declared_reads != base_set(&t.reads) {
                return Err(MrError::PlanViolation {
                    job: job.name.clone(),
                    detail: format!(
                        "declared reads {declared_reads:?} but template '{}' reads {:?}",
                        t.name, t.reads
                    ),
                });
            }
            if declared_writes != base_set(&t.writes) {
                return Err(MrError::PlanViolation {
                    job: job.name.clone(),
                    detail: format!(
                        "declared writes {declared_writes:?} but template '{}' writes {:?}",
                        t.name, t.writes
                    ),
                });
            }
        }
        Ok(())
    }

    /// Execute the batch on `cluster` per its configured
    /// [`SchedulerMode`](crate::cluster::SchedulerMode). On success every
    /// job's metrics are recorded in submission order and a
    /// [`BatchReport`] is pushed; on failure the error of the
    /// (submission-order) first failed job is returned, with exactly the
    /// jobs before it recorded — bit-identical to a sequential driver.
    pub fn run(self, cluster: &Cluster) -> crate::Result<BatchResults> {
        self.validate()?;
        let n = self.jobs.len();
        if n == 0 {
            return Ok(BatchResults {
                report: BatchReport::default(),
            });
        }
        let preds = self.dependencies();
        let depth = depths(&preds);
        let base = cluster.jobs_run();
        let ran: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let metrics: Vec<OnceLock<JobMetrics>> = (0..n).map(|_| OnceLock::new()).collect();
        let graph = self.graph;
        let jobs = &self.jobs;
        // Intra-job parallelism is fixed per batch: a sequential batch
        // gives each job the whole pool (one job in flight at a time); a
        // DAG batch splits the pool between the jobs of each dependency
        // level, so a chain keeps the whole pool at every step and a
        // full-width wave runs every job's tasks inline with no nested
        // broadcasts at all.
        let threads = cluster.config().threads.max(1);
        let (task_executors, dag_workers) = match cluster.config().scheduler {
            SchedulerMode::Sequential => (vec![threads; n], 1),
            SchedulerMode::Dag => level_split(&depth, threads),
        };

        let ctx_for = |j: usize| JobCtx {
            cluster,
            graph,
            job_index: base + j,
            name: &jobs[j].name,
            ran: &ran[j],
            metrics: &metrics[j],
            preds: &preds[j],
            task_executors: task_executors[j],
        };
        // Run the job's closure, marked as running so that it cannot write
        // the DFS, and turn "returned Ok without running its declared job"
        // into the violation it is.
        let execute = |j: usize| -> Status {
            let f = jobs[j]
                .run
                .lock()
                .expect("job closure lock poisoned")
                .take()
                .expect("job dispatched once");
            let _running = RunningJob::enter(&jobs[j].name);
            match f(&ctx_for(j)) {
                Ok(()) if metrics[j].get().is_some() => Status::Done,
                Ok(()) => Status::Failed(MrError::PlanViolation {
                    job: jobs[j].name.clone(),
                    detail: "submitted job finished without running its MapReduce job".to_string(),
                }),
                Err(e) => Status::Failed(e),
            }
        };

        let statuses: Vec<OnceLock<Status>> = (0..n).map(|_| OnceLock::new()).collect();

        // ---- Eager submission-order commit -------------------------------
        // A commit cursor advances whenever the prefix of resolved
        // statuses grows: job j commits (metrics recorded on the cluster)
        // as soon as submissions 0..j are all Done — not when the whole
        // batch drains. The cursor and the cluster's metrics log are
        // updated under one lock, so records land strictly in submission
        // order even when workers race to advance. The first non-Done
        // status halts the cursor permanently: nothing after a failure
        // ever commits.
        let commit = Mutex::new(CommitCursor {
            next: 0,
            committed: RunMetrics::default(),
            halted: false,
        });
        let advance_commit = || {
            let mut cur = commit.lock().expect("commit cursor poisoned");
            while !cur.halted && cur.next < n {
                match statuses[cur.next].get() {
                    Some(Status::Done) => {
                        let m = metrics[cur.next]
                            .get()
                            .expect("done job stashed metrics")
                            .clone();
                        cluster.record(m.clone());
                        cur.committed.push(m);
                        cur.next += 1;
                    }
                    Some(Status::Failed(_)) | Some(Status::Skipped) => cur.halted = true,
                    None => break,
                }
            }
        };

        let worker_busy_s = match cluster.config().scheduler {
            SchedulerMode::Sequential => {
                // Strict submission order, abort at the first failure —
                // exactly the pre-scheduler drivers' behaviour. Jobs after
                // the failure never run. One logical worker: the caller.
                let mut busy = 0.0f64;
                for (j, slot) in statuses.iter().enumerate() {
                    let started = std::time::Instant::now();
                    let status = execute(j);
                    busy += started.elapsed().as_secs_f64();
                    let stop = !matches!(status, Status::Done);
                    let _ = slot.set(status);
                    advance_commit();
                    if stop {
                        break;
                    }
                }
                vec![busy]
            }
            SchedulerMode::Dag => self.run_dag(
                cluster,
                dag_workers,
                &preds,
                &metrics,
                &statuses,
                &execute,
                &advance_commit,
            ),
        };

        // ---- Surface the submission-order outcome ------------------------
        // Dependency edges only point backwards, so a skipped job always
        // follows its failed ancestor: the first uncommitted status is a
        // failure, and everything before it committed eagerly above.
        let cur = commit.into_inner().expect("commit cursor poisoned");
        if cur.next < n {
            match statuses[cur.next].get() {
                Some(Status::Failed(e)) => return Err(e.clone()),
                _ => unreachable!(
                    "job {} uncommitted but not failed; dependency edges only point backwards",
                    cur.next
                ),
            }
        }
        let report = batch_report(&cur.committed, &preds, &depth, threads, worker_busy_s);
        cluster.record_batch(report.clone());
        Ok(BatchResults { report })
    }

    /// Ready-queue execution on the shared pool. Workers never block (see
    /// the module docs' liveness argument): the worker completing a job
    /// enqueues its newly-ready dependents and keeps looping, so every
    /// chain retains an executor even after idle workers retire.
    ///
    /// **Dispatch order** is longest-processing-time-first: among ready
    /// jobs, the one with the highest estimated cost runs next — the
    /// bytes its already-finished predecessors fed it (their stashed
    /// [`JobMetrics`] are written before dependents wake, so the estimate
    /// is always available for dependency-released jobs). Ties fall back
    /// to smallest submission index, so a single-wave batch keeps plain
    /// FIFO order. LPT only reorders *execution*; commit order (and
    /// therefore every output and metric) is unchanged.
    ///
    /// `workers` is the widest dependency level capped at the configured
    /// threads ([`level_split`]): a chain-shaped batch drains on one
    /// worker — a `broadcast(1)`, inline on the caller with no pool
    /// traffic — which leaves every pool thread to the jobs' own task
    /// broadcasts.
    ///
    /// Returns per-worker busy seconds (time spent inside `execute`),
    /// indexed by pool broadcast slot.
    #[allow(
        clippy::too_many_arguments,
        reason = "the DAG loop's shared state, passed once from `run`"
    )]
    fn run_dag(
        &self,
        cluster: &Cluster,
        workers: usize,
        preds: &[Vec<usize>],
        metrics: &[OnceLock<JobMetrics>],
        statuses: &[OnceLock<Status>],
        execute: &(dyn Fn(usize) -> Status + Sync),
        commit: &(dyn Fn() + Sync),
    ) -> Vec<f64> {
        let n = self.jobs.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(j);
            }
        }
        let remaining: Vec<AtomicUsize> = preds.iter().map(|p| AtomicUsize::new(p.len())).collect();
        let poisoned: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let ready: Mutex<Vec<usize>> =
            Mutex::new((0..n).filter(|&j| preds[j].is_empty()).collect::<Vec<_>>());
        let est_cost = |j: usize| -> f64 {
            preds[j]
                .iter()
                .filter_map(|&p| metrics[p].get())
                .map(|m| (m.shuffle_bytes + m.reduce_output_bytes) as f64)
                .sum()
        };
        // Cap scheduler workers at the host's real core count: configured
        // `threads` beyond that only adds context switching and queue
        // contention (a simulated 8-machine cluster is still one host).
        // Worker count never affects results — on a single-core host the
        // whole DAG drains inline on the caller with zero pool traffic.
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = workers.min(host);
        let busy: Vec<Mutex<f64>> = (0..workers).map(|_| Mutex::new(0.0f64)).collect();
        cluster.pool().broadcast(workers, &|executor| loop {
            let next = lpt_pick(&mut ready.lock().expect("ready queue poisoned"), &est_cost);
            let Some(j) = next else { break };
            let status = if poisoned[j].load(Ordering::SeqCst) {
                Status::Skipped
            } else {
                let started = std::time::Instant::now();
                let status = execute(j);
                *busy[executor].lock().expect("busy counter poisoned") +=
                    started.elapsed().as_secs_f64();
                status
            };
            let ok = matches!(status, Status::Done);
            let _ = statuses[j].set(status);
            // Advance the commit cursor before waking dependents: a
            // dependent reading its predecessor's output through
            // `JobCtx::get` may rely on that job's metrics already being
            // on the cluster log (exactly as under sequential execution).
            commit();
            for &s in &succs[j] {
                if !ok {
                    poisoned[s].store(true, Ordering::SeqCst);
                }
                if remaining[s].fetch_sub(1, Ordering::SeqCst) == 1 {
                    ready.lock().expect("ready queue poisoned").push(s);
                }
            }
        });
        busy.into_iter()
            .map(|b| b.into_inner().expect("busy counter poisoned"))
            .collect()
    }
}

/// Remove and return the ready job with the highest estimated cost
/// (longest-processing-time-first); ties break toward the smallest
/// submission index, so a batch of equal estimates degrades to FIFO.
fn lpt_pick(queue: &mut Vec<usize>, est: &dyn Fn(usize) -> f64) -> Option<usize> {
    let best = queue
        .iter()
        .enumerate()
        .map(|(pos, &j)| (pos, j, est(j)))
        .max_by(|a, b| a.2.total_cmp(&b.2).then_with(|| b.1.cmp(&a.1)))?;
    Some(queue.remove(best.0))
}

/// Shard-aware dataset overlap: same base, and either side unsharded or
/// the same shard. Two jobs whose declarations overlap get a dependency
/// edge; two that do not may run at once, which is safe because each job
/// reads and writes only what it declares (see the module docs). Public
/// because the pipelines' submitter (`haten2_core::plan`) resolves a
/// job's inputs by the same rule, so a job is handed exactly the outputs
/// of the jobs it is ordered after.
pub fn datasets_overlap(a: &str, b: &str) -> bool {
    let (base_a, shard_a) = split_shard(a);
    let (base_b, shard_b) = split_shard(b);
    base_a == base_b
        && match (shard_a, shard_b) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        }
}

fn split_shard(name: &str) -> (&str, Option<&str>) {
    match name.split_once('#') {
        Some((base, shard)) => (base, Some(shard)),
        None => (name, None),
    }
}

/// Shard-stripped, deduplicated, sorted dataset names.
fn base_set(names: &[String]) -> Vec<String> {
    let mut out: Vec<String> = names.iter().map(|n| dataset_base(n).to_string()).collect();
    out.sort();
    out.dedup();
    out
}

/// Dependency depth of every job: 1 for a job with no predecessors, else
/// one more than its deepest predecessor. Submission order is topological
/// (dependency edges only point backwards), so a single pass suffices.
fn depths(preds: &[Vec<usize>]) -> Vec<usize> {
    let mut depth = vec![0usize; preds.len()];
    for (j, ps) in preds.iter().enumerate() {
        depth[j] = 1 + ps.iter().map(|&p| depth[p]).max().unwrap_or(0);
    }
    depth
}

/// The DAG scheduler's static split of `threads` pool executors, computed
/// once per batch from the dependency depths: the task executors granted
/// to each job, and the number of scheduler workers to start.
///
/// Jobs at the same depth are the ones that can be in flight together, so
/// a job at a level holding `w` jobs gets `threads / min(threads, w)`
/// executors (never below 1, for `threads >= 1`), and the scheduler needs
/// no more workers than the widest level. The batch's job *count* never enters: a two-job chain
/// is two levels of one job, so both jobs keep the whole pool instead of
/// running with every task inline on one thread while the others idle.
/// Jobs of different depths can still overlap (a slow level-1 job next to
/// a fast sibling's dependent), which only over-asks: the pool's broadcast
/// is help-first and tasks are claimed from an atomic counter, so an
/// executor that arrives late finds no work.
fn level_split(depth: &[usize], threads: usize) -> (Vec<usize>, usize) {
    let mut width = vec![0usize; depth.iter().max().map_or(0, |d| d + 1)];
    for &d in depth {
        width[d] += 1;
    }
    let executors = depth
        .iter()
        .map(|&d| threads / threads.min(width[d]))
        .collect();
    let workers = threads.min(width.iter().copied().max().unwrap_or(1));
    (executors, workers)
}

/// Concurrency accounting over the committed jobs of one batch.
fn batch_report(
    committed: &RunMetrics,
    preds: &[Vec<usize>],
    depth: &[usize],
    slots: usize,
    worker_busy_s: Vec<f64>,
) -> BatchReport {
    let n = committed.jobs.len();
    // Longest dependency chain in host seconds.
    let mut path_s = vec![0.0f64; n];
    for j in 0..n {
        let longest = preds[j].iter().map(|&p| path_s[p]).fold(0.0, f64::max);
        path_s[j] = longest + committed.jobs[j].wall_time_s;
    }
    BatchReport {
        jobs: n,
        critical_path_len: depth.iter().copied().max().unwrap_or(0),
        critical_path_s: path_s.iter().copied().fold(0.0, f64::max),
        wall_s: committed.wall_s(),
        busy_s: committed.busy_s(),
        peak_concurrency: committed.peak_concurrency(),
        sim_sequential_s: committed.jobs.iter().map(|j| j.sim_time_s).sum(),
        sim_makespan_s: sim_makespan(committed, preds, slots),
        worker_busy_s,
    }
}

/// Simulated makespan of the batch on `slots` job slots: jobs are
/// list-scheduled in submission order without backfilling — each starts
/// at the later of its dependencies' simulated finishes and the earliest
/// slot becoming free, and occupies that slot for its `sim_time_s`.
/// Submission order is topological (dependency edges only point
/// backwards), so a single pass suffices. Purely a function of committed
/// metrics and the dependency DAG: bit-identical across scheduler modes.
fn sim_makespan(committed: &RunMetrics, preds: &[Vec<usize>], slots: usize) -> f64 {
    let n = committed.jobs.len();
    let mut finish = vec![0.0f64; n];
    let mut slot_free = vec![0.0f64; slots.max(1)];
    for j in 0..n {
        let ready = preds[j].iter().map(|&p| finish[p]).fold(0.0, f64::max);
        let (slot, free) = slot_free
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, 0.0));
        let start = ready.max(free);
        finish[j] = start + committed.jobs[j].sim_time_s;
        slot_free[slot] = finish[j];
    }
    finish.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::job::{run_job, JobSpec};
    use crate::plan::{PlanJob, SymExpr};

    fn cluster(mode: SchedulerMode) -> Cluster {
        let mut cfg = ClusterConfig::with_machines(2);
        cfg.scheduler = mode;
        cfg.threads = 4;
        Cluster::new(cfg)
    }

    fn scale_job(
        ctx: &JobCtx<'_>,
        name: &str,
        input: &[(u64, f64)],
        factor: f64,
    ) -> crate::Result<Vec<(u64, f64)>> {
        run_job(
            ctx,
            JobSpec::named(name),
            input,
            move |k, v: &f64, emit| emit(*k, v * factor),
            |k, vs, emit| emit(*k, vs.iter().sum::<f64>()),
        )
    }

    fn submit_chain<'a>(
        batch: &mut Batch<'a>,
        input: &'a [(u64, f64)],
        col: usize,
    ) -> JobHandle<Vec<(u64, f64)>> {
        let first = batch
            .submit(
                format!("scale{col}"),
                vec!["x".into()],
                vec![format!("t#{col}")],
                move |ctx| scale_job(ctx, &format!("scale{col}"), input, 2.0),
            )
            .unwrap();
        let chained = first.clone();
        batch
            .submit(
                format!("rescale{col}"),
                vec![format!("t#{col}")],
                vec![format!("y#{col}")],
                move |ctx| {
                    let t = ctx.get(&chained)?;
                    scale_job(ctx, &format!("rescale{col}"), t, 10.0)
                },
            )
            .unwrap()
    }

    #[test]
    fn dag_and_sequential_are_bit_identical() {
        let input: Vec<(u64, f64)> = (0..64).map(|i| (i, i as f64)).collect();
        type ModeOutcome = (Vec<Vec<(u64, f64)>>, Vec<JobMetrics>);
        let mut all: Vec<ModeOutcome> = Vec::new();
        let mut sims: Vec<(f64, f64)> = Vec::new();
        for mode in [SchedulerMode::Sequential, SchedulerMode::Dag] {
            let c = cluster(mode);
            let mut batch = Batch::new();
            let handles: Vec<_> = (0..3)
                .map(|col| submit_chain(&mut batch, &input, col))
                .collect();
            let results = batch.run(&c).unwrap();
            assert_eq!(results.report().jobs, 6);
            assert_eq!(results.report().critical_path_len, 2);
            // The simulated schedule is a model quantity: positive, never
            // worse than one-job-at-a-time, and identical across modes.
            assert!(results.report().sim_makespan_s > 0.0);
            assert!(results.report().sim_makespan_s <= results.report().sim_sequential_s + 1e-12);
            sims.push((
                results.report().sim_sequential_s,
                results.report().sim_makespan_s,
            ));
            let outs: Vec<Vec<(u64, f64)>> =
                handles.into_iter().map(|h| h.take().unwrap()).collect();
            let jobs = c.metrics().jobs;
            let m: Vec<JobMetrics> = jobs.iter().map(JobMetrics::without_host_time).collect();
            all.push((outs, m));
        }
        assert_eq!(all[0].0, all[1].0, "outputs differ across modes");
        assert_eq!(all[0].1, all[1].1, "metrics differ across modes");
        assert_eq!(sims[0], sims[1], "simulated schedule differs across modes");
        // Commit order is submission order in both modes.
        let names: Vec<&str> = all[1].1.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(
            names,
            ["scale0", "rescale0", "scale1", "rescale1", "scale2", "rescale2"]
        );
    }

    /// `level_split` over the dependency edges `preds`, at `threads`.
    fn split(preds: &[&[usize]], threads: usize) -> (Vec<usize>, usize) {
        let preds: Vec<Vec<usize>> = preds.iter().map(|p| p.to_vec()).collect();
        level_split(&depths(&preds), threads)
    }

    #[test]
    fn level_split_gives_a_chain_the_whole_pool_on_one_worker() {
        // DRI's IMHP → PairwiseMerge, and any longer chain: every level
        // holds one job, whatever the batch's job count.
        assert_eq!(split(&[&[], &[0]], 2), (vec![2, 2], 1));
        assert_eq!(split(&[&[], &[0], &[1], &[2]], 4), (vec![4; 4], 1));
        // A single-job batch is a one-job chain.
        assert_eq!(split(&[&[]], 4), (vec![4], 1));
        assert_eq!(split(&[&[]], 1), (vec![1], 1));
    }

    #[test]
    fn level_split_runs_a_wide_wave_inline() {
        // 300 independent jobs, and R = 4 independent 2-job chains (Naive,
        // DNN): every level is at least `threads` wide.
        assert_eq!(split(&vec![&[][..]; 300], 2), (vec![1; 300], 2));
        let chains: [&[usize]; 8] = [&[], &[0], &[], &[2], &[], &[4], &[], &[6]];
        assert_eq!(split(&chains, 4), (vec![1; 8], 4));
        // A level narrower than the pool shares it evenly, rounding down.
        assert_eq!(split(&[&[], &[]], 4), (vec![2, 2], 2));
        assert_eq!(split(&[&[], &[], &[]], 8), (vec![2, 2, 2], 3));
    }

    #[test]
    fn level_split_fan_in_fan_out_and_diamond() {
        // Fan-in (DRN): R Hadamard jobs, then one merge reading them all.
        assert_eq!(
            split(&[&[], &[], &[], &[], &[0, 1, 2, 3]], 4),
            (vec![1, 1, 1, 1, 4], 4)
        );
        // Fan-out and back in: one job, four reading it, one reading those.
        // The single-job levels get the full pool.
        assert_eq!(
            split(&[&[], &[0], &[0], &[0], &[0], &[1, 2, 3, 4]], 4),
            (vec![4, 1, 1, 1, 1, 4], 4)
        );
        // Diamond: the two-job middle level halves the pool.
        assert_eq!(split(&[&[], &[0], &[0], &[1, 2]], 4), (vec![4, 2, 2, 4], 2));
        // Depth is the *longest* path: a job reading levels 1 and 2 sits
        // on level 3, alone.
        assert_eq!(split(&[&[], &[0], &[0, 1]], 4), (vec![4, 4, 4], 1));
    }

    #[test]
    fn level_split_commits_task_executors_per_level() {
        let input: Vec<(u64, f64)> = (0..64).map(|i| (i, i as f64)).collect();
        let executors = |mode, chains: usize| -> Vec<usize> {
            let c = cluster(mode);
            let mut batch = Batch::new();
            for col in 0..chains {
                let _ = submit_chain(&mut batch, &input, col);
            }
            batch.run(&c).unwrap();
            let jobs = c.metrics().jobs;
            jobs.iter().map(|j| j.task_executors).collect()
        };
        // One 2-job chain on `threads = 4`: both jobs keep the whole pool.
        assert_eq!(executors(SchedulerMode::Dag, 1), [4, 4]);
        // Four chains make both levels 4 wide: tasks stay inline.
        assert_eq!(executors(SchedulerMode::Dag, 4), [1; 8]);
        // Two chains share the pool per level.
        assert_eq!(executors(SchedulerMode::Dag, 2), [2; 4]);
        // Sequential mode is unchanged: every job gets `threads`.
        assert_eq!(executors(SchedulerMode::Sequential, 4), [4; 8]);
    }

    #[test]
    fn undeclared_dependency_access_is_a_plan_violation() {
        let input = vec![(0u64, 1.0f64)];
        let c = cluster(SchedulerMode::Sequential);
        let mut batch = Batch::new();
        let a = batch
            .submit("a", vec!["x".into()], vec!["t".into()], {
                let input = &input;
                move |ctx| scale_job(ctx, "a", input, 2.0)
            })
            .unwrap();
        // "b" reads dataset "u", not "t": accessing a's output is illegal
        // even though sequential execution happens to have it available.
        let stolen = a.clone();
        let b = batch
            .submit("b", vec!["u".into()], vec!["v".into()], move |ctx| {
                let t = ctx.get(&stolen)?;
                scale_job(ctx, "b", t, 1.0)
            })
            .unwrap();
        let err = batch.run(&c).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { job, detail }
                if job == "b" && detail.contains("'b'") && detail.contains("'a'")),
            "{err}"
        );
        drop(b);
        // Job "a" committed before the failure surfaced.
        assert_eq!(c.jobs_run(), 1);
    }

    #[test]
    fn name_mismatch_and_double_run_are_plan_violations() {
        let input = vec![(0u64, 1.0f64)];
        let c = cluster(SchedulerMode::Dag);
        let mut batch = Batch::new();
        let _ = batch
            .submit("declared", vec!["x".into()], vec!["t".into()], {
                let input = &input;
                move |ctx| scale_job(ctx, "other", input, 2.0)
            })
            .unwrap();
        let err = batch.run(&c).unwrap_err();
        assert!(matches!(err, MrError::PlanViolation { .. }), "{err}");

        let mut batch = Batch::new();
        let _ = batch
            .submit("twice", vec!["x".into()], vec!["t".into()], {
                let input = &input;
                move |ctx| {
                    scale_job(ctx, "twice", input, 2.0)?;
                    scale_job(ctx, "twice", input, 2.0)
                }
            })
            .unwrap();
        let err = batch.run(&c).unwrap_err();
        assert!(matches!(err, MrError::PlanViolation { .. }), "{err}");

        let mut batch = Batch::new();
        let _: JobHandle<()> = batch
            .submit("lazy", vec!["x".into()], vec!["t".into()], |_| Ok(()))
            .unwrap();
        let err = batch.run(&c).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { detail, .. }
                if detail.contains("without running")),
            "{err}"
        );
    }

    #[test]
    fn failure_skips_dependents_and_commits_prefix() {
        let input = vec![(0u64, 1.0f64)];
        for mode in [SchedulerMode::Sequential, SchedulerMode::Dag] {
            let c = cluster(mode);
            let mut batch = Batch::new();
            let _ = batch
                .submit("ok0", vec!["x".into()], vec!["a".into()], {
                    let input = &input;
                    move |ctx| scale_job(ctx, "ok0", input, 2.0)
                })
                .unwrap();
            let _: JobHandle<Vec<(u64, f64)>> = batch
                .submit("boom", vec!["x".into()], vec!["b".into()], move |_| {
                    Err(MrError::DatasetMissing {
                        job: "boom".to_string(),
                        dataset: "x".to_string(),
                    })
                })
                .unwrap();
            let _: JobHandle<()> = batch
                .submit("after", vec!["b".into()], vec!["c".into()], {
                    move |_| panic!("dependent of a failed job must never run")
                })
                .unwrap();
            let err = batch.run(&c).unwrap_err();
            assert!(matches!(err, MrError::DatasetMissing { .. }), "{err}");
            assert_eq!(c.jobs_run(), 1, "mode {mode:?}: prefix commit");
            assert!(c.batch_reports().is_empty(), "no report for failed batch");
        }
    }

    #[test]
    fn graph_validation_rejects_wrong_wiring() {
        let graph = JobGraph::new("demo", ["x"])
            .job(
                PlanJob::new("stage-a{}")
                    .repeat(SymExpr::rank_q())
                    .reads(["x"])
                    .writes(["t"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
            .job(
                PlanJob::new("stage-b")
                    .reads(["t"])
                    .writes(["y"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            );
        let input = vec![(0u64, 1.0f64)];
        let c = cluster(SchedulerMode::Dag);

        // Unknown name.
        let mut batch = Batch::with_graph(&graph);
        let _ = batch
            .submit("mystery", vec!["x".into()], vec!["t".into()], {
                let input = &input;
                move |ctx| scale_job(ctx, "mystery", input, 2.0)
            })
            .unwrap();
        let err = batch.run(&c).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { detail, .. } if detail.contains("template")),
            "{err}"
        );

        // Wrong reads.
        let mut batch = Batch::with_graph(&graph);
        let _ = batch
            .submit("stage-b", vec!["x".into()], vec!["y".into()], {
                let input = &input;
                move |ctx| scale_job(ctx, "stage-b", input, 2.0)
            })
            .unwrap();
        let err = batch.run(&c).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { detail, .. } if detail.contains("reads")),
            "{err}"
        );
        // Validation precedes execution: nothing ran or committed.
        assert_eq!(c.jobs_run(), 0);

        // Correct wiring passes, sharded writes included.
        let mut batch = Batch::with_graph(&graph);
        let handles: Vec<_> = (0..2)
            .map(|q| {
                batch
                    .submit(
                        format!("stage-a{q}"),
                        vec!["x".into()],
                        vec![format!("t#{q}")],
                        {
                            let input = &input;
                            move |ctx| scale_job(ctx, &format!("stage-a{q}"), input, 2.0)
                        },
                    )
                    .unwrap()
            })
            .collect();
        let merged = handles.clone();
        let _ = batch
            .submit("stage-b", vec!["t".into()], vec!["y".into()], move |ctx| {
                let mut t: Vec<(u64, f64)> = Vec::new();
                for h in &merged {
                    t.extend(ctx.get(h)?.iter().copied());
                }
                scale_job(ctx, "stage-b", &t, 1.0)
            })
            .unwrap();
        let results = batch.run(&c).unwrap();
        assert_eq!(results.report().jobs, 3);
        assert_eq!(results.report().critical_path_len, 2);
        assert!(results.report().peak_concurrency >= 1);
        assert_eq!(c.batch_reports().len(), 1);
        drop(handles);
    }

    #[test]
    fn derived_emit_hint_fills_in_from_graph() {
        // stage-a emits 2 records per input record; the scheduler derives
        // the hint from the graph so the driver does not hand-maintain it.
        let graph = JobGraph::new("demo", ["x"]).job(
            PlanJob::new("stage-a")
                .reads(["x"])
                .writes(["t"])
                .emits(SymExpr::c(2) * SymExpr::nnz(), SymExpr::nnz()),
        );
        assert_eq!(graph.emit_hint("stage-a"), Some(2));
        let input = vec![(0u64, 1.0f64), (1, 2.0)];
        let c = cluster(SchedulerMode::Dag);
        let mut batch = Batch::with_graph(&graph);
        let h = batch
            .submit("stage-a", vec!["x".into()], vec!["t".into()], {
                let input = &input;
                move |ctx| {
                    run_job(
                        ctx,
                        JobSpec::named("stage-a"),
                        input,
                        |k, v: &f64, emit| {
                            emit(*k, *v);
                            emit(*k + 100, *v);
                        },
                        |k, vs, emit| emit(*k, vs.iter().sum::<f64>()),
                    )
                }
            })
            .unwrap();
        batch.run(&c).unwrap();
        assert_eq!(h.take().unwrap().len(), 4);
    }

    #[test]
    fn lpt_runs_costliest_ready_job_first_but_commits_in_submission_order() {
        // One DAG worker makes the dispatch order observable. `gate`
        // releases both dependents at once; `after-heavy` was fed 64 keys
        // by its own predecessor and `after-light` one, so it must start
        // first although it was submitted second.
        let light = vec![(0u64, 1.0f64)];
        let heavy: Vec<(u64, f64)> = (0..64).map(|k| (k, k as f64)).collect();
        let run = |mode: SchedulerMode| {
            let mut cfg = ClusterConfig::with_machines(2);
            cfg.scheduler = mode;
            cfg.threads = 1;
            let c = Cluster::new(cfg);
            let order: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
            let mut batch = Batch::new();
            let mut fed = Vec::new();
            for (name, input) in [("light", &light), ("heavy", &heavy), ("gate", &light)] {
                let order = &order;
                let h = batch
                    .submit(
                        name,
                        vec!["x".into()],
                        vec![format!("t-{name}")],
                        move |ctx| {
                            order.lock().unwrap().push(name);
                            scale_job(ctx, name, input, 2.0)
                        },
                    )
                    .unwrap();
                fed.push(h);
            }
            let mut outs = Vec::new();
            let dependents = [
                ("after-light", "t-light", &fed[0]),
                ("after-heavy", "t-heavy", &fed[1]),
            ];
            for (name, own, src) in dependents {
                let (order, src) = (&order, src.clone());
                let reads = vec![own.into(), "t-gate".into()];
                let h = batch
                    .submit(name, reads, vec![format!("u-{name}")], move |ctx| {
                        order.lock().unwrap().push(name);
                        scale_job(ctx, name, ctx.get(&src)?, 3.0)
                    })
                    .unwrap();
                outs.push(h);
            }
            let results = batch.run(&c).unwrap();
            assert_eq!(results.report().worker_busy_s.len(), 1);
            assert!(results.report().worker_busy_s[0] > 0.0);
            // Commit order is submission order: LPT is invisible in the
            // metrics log.
            let names: Vec<String> = c.metrics().jobs.iter().map(|j| j.name.clone()).collect();
            assert_eq!(
                names,
                ["light", "heavy", "gate", "after-light", "after-heavy"]
            );
            let outs: Vec<Vec<(u64, f64)>> = outs.into_iter().map(|h| h.take().unwrap()).collect();
            (order.into_inner().unwrap(), outs)
        };
        let (dag_order, dag_outs) = run(SchedulerMode::Dag);
        assert_eq!(
            dag_order,
            ["light", "heavy", "gate", "after-heavy", "after-light"]
        );
        let (seq_order, seq_outs) = run(SchedulerMode::Sequential);
        assert_eq!(
            seq_order,
            ["light", "heavy", "gate", "after-light", "after-heavy"]
        );
        assert_eq!(dag_outs, seq_outs);
    }

    #[test]
    fn equal_estimates_fall_back_to_fifo_on_one_worker() {
        let input = vec![(0u64, 1.0f64)];
        let mut cfg = ClusterConfig::with_machines(2);
        cfg.scheduler = SchedulerMode::Dag;
        cfg.threads = 1;
        let c = Cluster::new(cfg);
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let mut batch = Batch::new();
        for j in 0..4usize {
            let _ = batch
                .submit(
                    format!("job{j}"),
                    vec!["x".into()],
                    vec![format!("t#{j}")],
                    {
                        let input = &input;
                        let order = &order;
                        move |ctx| {
                            order.lock().unwrap().push(j);
                            scale_job(ctx, &format!("job{j}"), input, 2.0)
                        }
                    },
                )
                .unwrap();
        }
        batch.run(&c).unwrap();
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3]);
    }

    #[test]
    fn report_carries_worker_busy() {
        let input: Vec<(u64, f64)> = (0..32).map(|i| (i % 4, i as f64)).collect();
        for mode in [SchedulerMode::Sequential, SchedulerMode::Dag] {
            let c = cluster(mode);
            let mut batch = Batch::new();
            let _ = batch
                .submit("grp", vec!["x".into()], vec!["t".into()], {
                    let input = &input;
                    move |ctx| scale_job(ctx, "grp", input, 2.0)
                })
                .unwrap();
            let results = batch.run(&c).unwrap();
            let report = results.report();
            assert!(!report.worker_busy_s.is_empty(), "mode {mode:?}");
            assert!(
                report.worker_busy_s.iter().sum::<f64>() > 0.0,
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let c = cluster(SchedulerMode::Dag);
        let results = Batch::new().run(&c).unwrap();
        assert_eq!(results.report().jobs, 0);
        assert_eq!(c.jobs_run(), 0);
    }

    #[test]
    fn overlap_rules() {
        assert!(datasets_overlap("t", "t"));
        assert!(datasets_overlap("t", "t#3"));
        assert!(datasets_overlap("t#3", "t"));
        assert!(datasets_overlap("t#3", "t#3"));
        assert!(!datasets_overlap("t#3", "t#4"));
        assert!(!datasets_overlap("t", "u"));
        assert!(!datasets_overlap("t#1", "u#1"));
    }

    #[test]
    fn running_job_scope_nests_and_restores() {
        let refused_as = |job_name: &str| {
            matches!(refuse_dfs_write_in_job("put", "d"),
                Err(MrError::PlanViolation { job, detail })
                    if job == job_name && detail.contains("put DFS dataset 'd'"))
        };
        assert!(refuse_dfs_write_in_job("put", "d").is_ok());
        {
            let _outer = RunningJob::enter("outer");
            assert!(refused_as("outer"));
            {
                // A pool thread waiting on `outer`'s tasks runs `inner`.
                let _inner = RunningJob::enter("inner");
                assert!(refused_as("inner"));
            }
            assert!(refused_as("outer"));
        }
        assert!(refuse_dfs_write_in_job("delete", "d").is_ok());
    }

    #[test]
    fn take_before_run_or_while_shared_is_an_error() {
        let mut batch: Batch<'_> = Batch::new();
        let h: JobHandle<Vec<(u64, f64)>> = batch
            .submit("a", vec!["x".into()], vec!["t".into()], |_| Ok(Vec::new()))
            .unwrap();
        let kept = h.clone();
        assert!(matches!(h.take(), Err(MrError::PlanViolation { .. })));
        drop(batch);
        assert!(matches!(kept.take(), Err(MrError::PlanViolation { .. })));
    }

    /// A batch whose `producer` writes `payload` as a take-once output and
    /// whose readers, in submission order, take it (`true`) or fail
    /// before taking it (`false`).
    fn take_once_batch(
        mode: SchedulerMode,
        payload: &Arc<()>,
        readers: &[(&'static str, bool)],
    ) -> crate::Result<BatchResults> {
        let input = vec![(0u64, 1.0f64)];
        let c = cluster(mode);
        let mut batch = Batch::new();
        let written = batch
            .submit("producer", vec!["x".into()], vec!["t".into()], {
                let (input, payload) = (&input, Arc::clone(payload));
                move |ctx| {
                    scale_job(ctx, "producer", input, 2.0)?;
                    Ok(TakeOnce::new("producer", payload))
                }
            })
            .unwrap();
        for &(name, takes) in readers {
            let (input, written) = (&input, written.clone());
            let _: JobHandle<Vec<(u64, f64)>> = batch
                .submit(
                    name,
                    vec!["t".into()],
                    vec![format!("y-{name}")],
                    move |ctx| {
                        if !takes {
                            return Err(MrError::DatasetMissing {
                                job: name.to_string(),
                                dataset: "t".to_string(),
                            });
                        }
                        drop(ctx.get(&written)?.take(name)?);
                        scale_job(ctx, name, input, 1.0)
                    },
                )
                .unwrap();
        }
        drop(written);
        batch.run(&c)
    }

    #[test]
    fn a_second_reader_of_a_taken_output_is_a_plan_violation() {
        let payload = Arc::new(());
        let readers = [("first", true), ("second", true)];
        let err = take_once_batch(SchedulerMode::Sequential, &payload, &readers).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { job, detail }
                if job == "second"
                    && detail.contains("'producer'")
                    && detail.contains("'first'")),
            "{err}"
        );
        // Concurrent readers race for it; whichever loses fails the same way.
        let err = take_once_batch(SchedulerMode::Dag, &payload, &readers).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { detail, .. } if detail.contains("already took")),
            "{err}"
        );
        assert_eq!(
            Arc::strong_count(&payload),
            1,
            "the taken output was dropped"
        );
    }

    #[test]
    fn an_untaken_output_is_dropped_with_a_failed_batch() {
        for mode in [SchedulerMode::Sequential, SchedulerMode::Dag] {
            let payload = Arc::new(());
            let err = take_once_batch(mode, &payload, &[("reader", false)]).unwrap_err();
            assert!(matches!(err, MrError::DatasetMissing { .. }), "{err}");
            assert_eq!(Arc::strong_count(&payload), 1, "{mode:?}");
        }
    }

    #[test]
    fn duplicate_exact_shard_write_is_rejected_at_submission() {
        let mut batch: Batch<'_> = Batch::new();
        let _w0: JobHandle<()> = batch
            .submit("w0", vec!["x".into()], vec!["t#0".into()], |_| Ok(()))
            .unwrap();
        let err =
            match batch.submit::<(), _>("w1", vec!["x".into()], vec!["t#0".into()], |_| Ok(())) {
                Err(e) => e,
                Ok(_) => panic!("duplicate exact-shard write must be rejected"),
            };
        assert!(
            matches!(&err, MrError::DuplicateWrite { job, prior_job, dataset }
                if job == "w1" && prior_job == "w0" && dataset == "t#0"),
            "{err}"
        );
        // A different shard of the same base is a legitimate sibling…
        let _w2: JobHandle<()> = batch
            .submit("w2", vec!["x".into()], vec!["t#1".into()], |_| Ok(()))
            .unwrap();
        // …and an unsharded write of the base is an ordinary WAW
        // dependency, serialized by `dependencies()`, not a duplicate.
        let _w3: JobHandle<()> = batch
            .submit("w3", vec!["t".into()], vec!["t".into()], |_| Ok(()))
            .unwrap();
    }
}
