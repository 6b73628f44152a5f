//! Per-job and per-run metrics.
//!
//! These counters are the experiment's primary observables: Tables III/IV of
//! the paper are bounds on `map_output_records` (max intermediate data) and
//! on the number of jobs; Figures 1/7/8 plot (simulated) running time.

/// Counters for one MapReduce job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobMetrics {
    /// Job name (used for grouping in reports).
    pub name: String,
    /// Records read by all map tasks.
    pub map_input_records: usize,
    /// Bytes read by all map tasks.
    pub map_input_bytes: usize,
    /// Records emitted by all map tasks **before** the combiner. This is the
    /// paper's "intermediate data" quantity.
    pub map_output_records: usize,
    /// Bytes emitted by all map tasks before the combiner.
    pub map_output_bytes: usize,
    /// Records crossing the network after the (optional) combiner.
    pub shuffle_records: usize,
    /// Bytes crossing the network after the (optional) combiner.
    pub shuffle_bytes: usize,
    /// Distinct reduce-side key groups.
    pub reduce_groups: usize,
    /// Records emitted by all reduce tasks.
    pub reduce_output_records: usize,
    /// Bytes emitted by all reduce tasks.
    pub reduce_output_bytes: usize,
    /// Largest single reduce-side key group in bytes (memory-pressure proxy;
    /// compared against the per-reducer budget).
    pub max_group_bytes: usize,
    /// Map task attempts that failed (injected faults or crashed workers)
    /// and were retried.
    pub task_retries: usize,
    /// Reduce task attempts that failed and were retried.
    pub reduce_task_retries: usize,
    /// Simulated workers blacklisted during this job.
    pub workers_blacklisted: usize,
    /// Speculative backup attempts launched for straggling map tasks.
    pub speculative_launched: usize,
    /// Speculative attempts that finished before the straggler they
    /// shadowed.
    pub speculative_wins: usize,
    /// Simulated seconds spent on recovery: retry backoff plus straggler
    /// delay (net of speculative wins). Included in `sim_time_s`.
    pub recovery_sim_time_s: f64,
    /// Simulated wall-clock for the configured cluster (seconds).
    pub sim_time_s: f64,
    /// Actual wall-clock spent executing the job in this process (seconds).
    pub wall_time_s: f64,
    /// Host time the job started, in seconds since the cluster's epoch.
    /// Together with [`JobMetrics::finished_s`] this places the job on the
    /// cluster's timeline, which is what lets [`RunMetrics::wall_s`] and
    /// [`RunMetrics::peak_concurrency`] account for overlapping jobs
    /// without double-counting.
    pub started_s: f64,
    /// Host time the job finished, in seconds since the cluster's epoch.
    pub finished_s: f64,
    /// Pool executors the job's map and reduce broadcasts were granted
    /// ([`crate::job::JobSite::task_parallelism`]): the cluster's `threads`
    /// on a bare cluster or a sequential batch, the scheduler's per-level
    /// split inside a DAG batch. Host-side, like the timings below.
    pub task_executors: usize,
    /// Host seconds from job start to the end of the map phase (plan
    /// lookup, fault-schedule expansion, map tasks incl. seal and sort).
    /// The four phase timers partition `wall_time_s`.
    pub map_s: f64,
    /// Host seconds moving sealed runs to their partitions.
    pub shuffle_s: f64,
    /// Host seconds in the reduce phase (k-way merge and reduce tasks).
    pub reduce_s: f64,
    /// Host seconds assembling the output in partition order.
    pub assemble_s: f64,
}

impl JobMetrics {
    /// This job's metrics with every host-side field zeroed: the timeline
    /// stamps, the per-phase timers and the executor grant. Host
    /// scheduling decides those, so they are the only fields allowed to
    /// differ between executors, scheduler modes and thread counts — the
    /// one definition of "excluded from bit-identity" every equivalence
    /// test compares through. The reference executor leaves
    /// `task_executors` and the phase timers at 0.
    #[must_use]
    pub fn without_host_time(&self) -> JobMetrics {
        JobMetrics {
            wall_time_s: 0.0,
            started_s: 0.0,
            finished_s: 0.0,
            task_executors: 0,
            map_s: 0.0,
            shuffle_s: 0.0,
            reduce_s: 0.0,
            assemble_s: 0.0,
            ..self.clone()
        }
    }
}

/// Metrics for a sequence of jobs (one decomposition, one experiment, …).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
}

impl RunMetrics {
    /// Number of jobs executed.
    pub fn total_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Maximum intermediate data (records) over all jobs — the quantity the
    /// paper's Tables III/IV report per variant.
    pub fn max_intermediate_records(&self) -> usize {
        self.jobs
            .iter()
            .map(|j| j.map_output_records)
            .max()
            .unwrap_or(0)
    }

    /// Maximum intermediate data in bytes over all jobs.
    pub fn max_intermediate_bytes(&self) -> usize {
        self.jobs
            .iter()
            .map(|j| j.map_output_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total intermediate records across all jobs.
    pub fn total_intermediate_records(&self) -> usize {
        self.jobs.iter().map(|j| j.map_output_records).sum()
    }

    /// Total simulated time, including per-job overheads.
    pub fn total_sim_time_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.sim_time_s).sum()
    }

    /// Total actual wall time, summed per job. Once jobs overlap (the DAG
    /// scheduler runs independent jobs concurrently) this *busy* time
    /// exceeds the elapsed span — use [`RunMetrics::wall_s`] for elapsed
    /// time. Kept as an alias of [`RunMetrics::busy_s`] for callers that
    /// predate the split.
    pub fn total_wall_time_s(&self) -> f64 {
        self.busy_s()
    }

    /// Aggregate host CPU-side busy time: the sum of per-job
    /// `wall_time_s`. Under sequential execution `busy_s == wall_s`
    /// (modulo gaps between jobs); under concurrent execution
    /// `busy_s > wall_s` exactly when jobs overlapped.
    pub fn busy_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_time_s).sum()
    }

    /// Elapsed host time spanned by the run: latest `finished_s` minus
    /// earliest `started_s` over all jobs. This is the quantity a
    /// stopwatch would measure and does **not** double-count overlapped
    /// jobs. Zero when no job carries timeline stamps.
    pub fn wall_s(&self) -> f64 {
        let start = self
            .jobs
            .iter()
            .map(|j| j.started_s)
            .fold(f64::INFINITY, f64::min);
        let end = self.jobs.iter().map(|j| j.finished_s).fold(0.0, f64::max);
        if start.is_finite() && end > start {
            end - start
        } else {
            0.0
        }
    }

    /// Maximum number of jobs whose `[started_s, finished_s)` intervals
    /// overlap at any instant — 1 for strictly sequential execution,
    /// higher when the DAG scheduler overlapped independent jobs.
    pub fn peak_concurrency(&self) -> usize {
        let mut events: Vec<(f64, isize)> = Vec::with_capacity(self.jobs.len() * 2);
        for j in &self.jobs {
            if j.finished_s > j.started_s {
                events.push((j.started_s, 1));
                events.push((j.finished_s, -1));
            }
        }
        // Ends sort before starts at equal times, so back-to-back jobs do
        // not count as concurrent.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cur = 0isize;
        let mut peak = 0isize;
        for (_, delta) in events {
            cur += delta;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }

    /// Total bytes read by map tasks (disk-access proxy: HaTen2-DRI reads
    /// the input tensor once, earlier variants read it per job).
    pub fn total_map_input_bytes(&self) -> usize {
        self.jobs.iter().map(|j| j.map_input_bytes).sum()
    }

    /// Total failed-and-retried task attempts (map + reduce) across the run.
    pub fn total_task_retries(&self) -> usize {
        self.jobs
            .iter()
            .map(|j| j.task_retries + j.reduce_task_retries)
            .sum()
    }

    /// Total speculative attempts launched across the run.
    pub fn total_speculative_launched(&self) -> usize {
        self.jobs.iter().map(|j| j.speculative_launched).sum()
    }

    /// Total speculative wins across the run.
    pub fn total_speculative_wins(&self) -> usize {
        self.jobs.iter().map(|j| j.speculative_wins).sum()
    }

    /// Total workers blacklisted across the run (per-job counts summed).
    pub fn total_workers_blacklisted(&self) -> usize {
        self.jobs.iter().map(|j| j.workers_blacklisted).sum()
    }

    /// Total simulated time spent on recovery (backoff + straggler delay).
    pub fn total_recovery_sim_time_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.recovery_sim_time_s).sum()
    }

    /// Append another run's jobs.
    pub fn extend(&mut self, other: RunMetrics) {
        self.jobs.extend(other.jobs);
    }

    /// Push one job.
    pub fn push(&mut self, job: JobMetrics) {
        self.jobs.push(job);
    }
}

/// Concurrency accounting for one scheduler batch (see `crate::sched`).
///
/// These are *observability* numbers, deliberately kept out of
/// [`JobMetrics`]/[`RunMetrics`] equality: host scheduling decides them,
/// so they vary run to run while the per-job counters stay bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Length (in jobs) of the longest dependency chain actually executed
    /// — the measured counterpart of the plan IR's symbolic
    /// critical-path depth.
    pub critical_path_len: usize,
    /// Host seconds along the longest dependency chain, weighting each
    /// job by its `wall_time_s`: the lower bound on elapsed time no
    /// amount of parallelism can beat.
    pub critical_path_s: f64,
    /// Elapsed host seconds from first job start to last job finish.
    pub wall_s: f64,
    /// Summed per-job host seconds (`Σ wall_time_s`).
    pub busy_s: f64,
    /// Maximum number of the batch's jobs in flight at one instant.
    pub peak_concurrency: usize,
    /// Summed per-job *simulated* seconds (`Σ sim_time_s`) — the makespan
    /// a one-job-at-a-time JobTracker would schedule for this batch.
    pub sim_sequential_s: f64,
    /// Simulated makespan of the batch: whole jobs list-scheduled (in
    /// submission order, no backfilling) onto the configured number of
    /// worker threads, honoring the dependency edges, each job costing
    /// its `sim_time_s`. A deterministic model quantity — identical
    /// across scheduler modes and host core counts — so
    /// `sim_sequential_s / sim_makespan_s` is the reproducible speedup
    /// the DAG scheduler unlocks on the simulated cluster.
    pub sim_makespan_s: f64,
    /// Host seconds each pool worker spent executing this batch's jobs
    /// (index = worker slot; one entry for Sequential mode). The
    /// histogram makes dispatch imbalance visible: under LPT ordering a
    /// skewed batch should still fill every slot, while FIFO ordering
    /// leaves the tail worker idle behind the straggler.
    pub worker_busy_s: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, inter: usize, t: f64) -> JobMetrics {
        JobMetrics {
            name: name.into(),
            map_output_records: inter,
            map_output_bytes: inter * 24,
            sim_time_s: t,
            ..Default::default()
        }
    }

    #[test]
    fn aggregations() {
        let mut run = RunMetrics::default();
        run.push(job("a", 10, 1.0));
        run.push(job("b", 30, 2.0));
        run.push(job("c", 20, 0.5));
        assert_eq!(run.total_jobs(), 3);
        assert_eq!(run.max_intermediate_records(), 30);
        assert_eq!(run.max_intermediate_bytes(), 720);
        assert_eq!(run.total_intermediate_records(), 60);
        assert!((run.total_sim_time_s() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run() {
        let run = RunMetrics::default();
        assert_eq!(run.total_jobs(), 0);
        assert_eq!(run.max_intermediate_records(), 0);
        assert_eq!(run.total_sim_time_s(), 0.0);
    }

    #[test]
    fn recovery_aggregates() {
        let mut run = RunMetrics::default();
        run.push(JobMetrics {
            name: "a".into(),
            task_retries: 2,
            reduce_task_retries: 1,
            speculative_launched: 2,
            speculative_wins: 1,
            workers_blacklisted: 1,
            recovery_sim_time_s: 5.0,
            ..Default::default()
        });
        run.push(JobMetrics {
            name: "b".into(),
            task_retries: 1,
            recovery_sim_time_s: 1.5,
            ..Default::default()
        });
        assert_eq!(run.total_task_retries(), 4);
        assert_eq!(run.total_speculative_launched(), 2);
        assert_eq!(run.total_speculative_wins(), 1);
        assert_eq!(run.total_workers_blacklisted(), 1);
        assert!((run.total_recovery_sim_time_s() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn busy_vs_wall_under_overlap() {
        let mut run = RunMetrics::default();
        // Two fully overlapped jobs plus one sequential tail.
        for (s, e) in [(0.0, 2.0), (0.0, 2.0), (2.0, 3.0)] {
            run.push(JobMetrics {
                name: "j".into(),
                wall_time_s: e - s,
                started_s: s,
                finished_s: e,
                ..Default::default()
            });
        }
        assert!((run.busy_s() - 5.0).abs() < 1e-12);
        assert!((run.total_wall_time_s() - run.busy_s()).abs() < 1e-12);
        assert!((run.wall_s() - 3.0).abs() < 1e-12);
        assert_eq!(run.peak_concurrency(), 2);
    }

    #[test]
    fn back_to_back_jobs_are_not_concurrent() {
        let mut run = RunMetrics::default();
        for (s, e) in [(0.0, 1.0), (1.0, 2.0)] {
            run.push(JobMetrics {
                name: "j".into(),
                wall_time_s: e - s,
                started_s: s,
                finished_s: e,
                ..Default::default()
            });
        }
        assert_eq!(run.peak_concurrency(), 1);
        assert!((run.wall_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unstamped_jobs_have_zero_span() {
        let mut run = RunMetrics::default();
        run.push(job("a", 1, 0.1));
        assert_eq!(run.wall_s(), 0.0);
        assert_eq!(run.peak_concurrency(), 0);
    }

    #[test]
    fn without_host_time_zeroes_exactly_the_host_fields() {
        let m = JobMetrics {
            wall_time_s: 0.4,
            started_s: 1.0,
            finished_s: 1.4,
            task_executors: 4,
            map_s: 0.1,
            shuffle_s: 0.1,
            reduce_s: 0.1,
            assemble_s: 0.1,
            ..job("j", 7, 1.5)
        };
        assert_eq!(m.without_host_time(), job("j", 7, 1.5));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = RunMetrics::default();
        a.push(job("a", 1, 0.1));
        let mut b = RunMetrics::default();
        b.push(job("b", 2, 0.2));
        a.extend(b);
        assert_eq!(a.total_jobs(), 2);
    }
}
