//! Deterministic fault injection: seeded schedules of task failures,
//! worker crashes and stragglers.
//!
//! A [`FaultPlan`] is a *pure function* from (job, task, attempt) to fault
//! decisions, driven by the vendored ChaCha `StdRng`. Both executors — the
//! pooled engine ([`crate::job::run_job`]) and the sequential oracle
//! ([`crate::reference::run_job_reference`]) — expand the plan into the
//! same [`JobFaultSchedule`] *before* running any task, so recovery
//! behaviour and its metrics are bit-identical regardless of real thread
//! scheduling.
//!
//! The fault model mirrors Hadoop's (§ DESIGN.md "Fault model"):
//!
//! * **Task failures** — a map/reduce task attempt dies; the engine re-runs
//!   it (bounded by [`RetryPolicy::max_attempts`]) after a simulated-time
//!   backoff. Exhausting the budget fails the job with a typed
//!   [`crate::MrError::TaskFailed`] naming the task.
//! * **Worker crashes** — a simulated worker (tasks are assigned to
//!   workers round-robin, `(task + attempt) % machines`) fails every
//!   attempt placed on it. After [`FaultPlan::blacklist_after`] failures
//!   the worker is blacklisted and no longer receives attempts.
//! * **Stragglers** — a map task runs `factor ×` slower than its nominal
//!   time. With speculation enabled a backup attempt launches once the
//!   task is one nominal duration late and wins iff the original would
//!   finish after `2 ×` nominal — Hadoop's speculative execution.
//!
//! All retry delays come from the single shared helper
//! [`RetryPolicy::backoff_s`], which both executors charge through the same
//! `TaskFaults::account_map`/`account_reduce`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A speculative backup attempt launches when a straggling task is one
/// nominal duration late, so it completes at `2 ×` nominal time; the
/// original wins only when its slowdown factor is below this.
pub const SPECULATIVE_FINISH_FACTOR: f64 = 2.0;

/// Bounded-retry policy with exponential simulated-time backoff.
///
/// The **shared backoff helper** for every retry site in the workspace:
/// map and reduce task retries charge delays through
/// [`RetryPolicy::backoff_s`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (first attempt included). A task whose
    /// schedule fails `max_attempts` times exhausts the budget and fails
    /// the job.
    pub max_attempts: usize,
    /// Simulated seconds charged before the first retry.
    pub backoff_base_s: f64,
    /// Multiplier applied per subsequent retry (exponential backoff).
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff delay before re-running a task whose attempt
    /// `failed_attempt` (0-based count of failures so far) just failed:
    /// `base · factor^failed_attempt`.
    pub fn backoff_s(&self, failed_attempt: usize) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(failed_attempt as i32)
    }
}

/// Seeded, deterministic fault schedule for a whole run.
///
/// Every decision is a pure function of `(seed, job name, job index, task,
/// attempt)` — independent of which real thread executes what — so the
/// pooled engine and the sequential reference executor recover
/// identically, metric-for-metric.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the ChaCha-derived decision stream.
    pub seed: u64,
    /// Probability a map task suffers one injected failure.
    pub map_fail_p: f64,
    /// Probability a reduce task suffers one injected failure.
    pub reduce_fail_p: f64,
    /// Probability a simulated worker is crashed for a given job.
    pub worker_crash_p: f64,
    /// Probability a map task straggles.
    pub straggle_p: f64,
    /// Straggler slowdown factors are drawn uniformly from
    /// `[2, straggle_factor_max]` (values below 2 are clamped to 2).
    pub straggle_factor_max: f64,
    /// Launch speculative backup attempts for stragglers.
    pub speculation: bool,
    /// Legacy deterministic knob: every `n`-th map task fails exactly once
    /// (the engine's original `fail_every_nth_task` behaviour).
    pub fail_every_nth: Option<usize>,
    /// Make the job with this submission index (see [`FaultPlan::schedule`])
    /// exhaust its retry budget immediately — a deterministic mid-pipeline
    /// "crash" for checkpoint/restart tests.
    pub kill_at_job: Option<usize>,
    /// Retry budget and backoff shared by every recovery site.
    pub retry: RetryPolicy,
    /// Blacklist a crashed worker after this many failures attributed to
    /// it within one job; `0` disables blacklisting.
    pub blacklist_after: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            map_fail_p: 0.0,
            reduce_fail_p: 0.0,
            worker_crash_p: 0.0,
            straggle_p: 0.0,
            straggle_factor_max: 4.0,
            speculation: true,
            fail_every_nth: None,
            kill_at_job: None,
            retry: RetryPolicy::default(),
            blacklist_after: 2,
        }
    }
}

/// Faults scheduled for one task.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskFaults {
    /// Attempts that fail before one succeeds (each is retried after a
    /// [`RetryPolicy::backoff_s`] delay).
    pub failed_attempts: usize,
    /// The retry budget is exhausted: the job fails with
    /// [`crate::MrError::TaskFailed`].
    pub exhausted: bool,
    /// Straggler slowdown factor (map tasks only).
    pub straggle_factor: Option<f64>,
}

/// The full fault schedule for one job, expanded up front so both
/// executors replay it identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobFaultSchedule {
    /// Per-map-task faults.
    pub map: Vec<TaskFaults>,
    /// Per-reduce-task (partition) faults.
    pub reduce: Vec<TaskFaults>,
    /// Workers blacklisted during this job.
    pub workers_blacklisted: usize,
}

impl JobFaultSchedule {
    /// Index of the first map task whose budget is exhausted, if any.
    pub fn first_exhausted_map(&self) -> Option<usize> {
        self.map.iter().position(|f| f.exhausted)
    }
}

impl TaskFaults {
    /// Charge one map task's faults into `metrics`: retry count, backoff
    /// delay, and straggler delay (net of a speculative win). Shared by
    /// the pooled engine and the sequential reference executor so their
    /// accounting is bit-identical. `nominal_task_s` is the task's
    /// fault-free duration (`input bytes / map throughput`).
    pub(crate) fn account_map(
        &self,
        plan: &FaultPlan,
        nominal_task_s: f64,
        metrics: &mut crate::metrics::JobMetrics,
    ) {
        metrics.task_retries += self.failed_attempts;
        for a in 0..self.failed_attempts {
            metrics.recovery_sim_time_s += plan.retry.backoff_s(a);
        }
        if let Some(factor) = self.straggle_factor {
            let effective = if plan.speculation {
                metrics.speculative_launched += 1;
                if factor > SPECULATIVE_FINISH_FACTOR {
                    metrics.speculative_wins += 1;
                }
                factor.min(SPECULATIVE_FINISH_FACTOR)
            } else {
                factor
            };
            metrics.recovery_sim_time_s += (effective - 1.0) * nominal_task_s;
        }
    }

    /// Charge one reduce task's faults into `metrics`. Reduce retries are
    /// accounting-only: the attempt dies before emitting, so re-running
    /// the reducer would change no output — only time is charged.
    pub(crate) fn account_reduce(
        &self,
        plan: &FaultPlan,
        metrics: &mut crate::metrics::JobMetrics,
    ) {
        metrics.reduce_task_retries += self.failed_attempts;
        for a in 0..self.failed_attempts {
            metrics.recovery_sim_time_s += plan.retry.backoff_s(a);
        }
    }
}

/// FNV-1a over a byte string (stable, dependency-free).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: decorrelates the packed decision coordinates.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decision kinds, used as salts so the same coordinates never reuse a
/// random stream.
mod salt {
    pub const WORKER: u64 = 1;
    pub const MAP_FAIL: u64 = 2;
    pub const REDUCE_FAIL: u64 = 3;
    pub const STRAGGLE: u64 = 4;
    pub const STRAGGLE_FACTOR: u64 = 5;
}

impl FaultPlan {
    /// A plan injecting nothing (useful for measuring the fault-free
    /// overhead of the recovery machinery itself).
    pub fn noop() -> Self {
        FaultPlan::default()
    }

    /// Compatibility constructor for the engine's original knob: every
    /// `n`-th map task fails exactly once and is retried.
    pub fn fail_every_nth(n: usize) -> Self {
        FaultPlan {
            fail_every_nth: Some(n),
            ..FaultPlan::default()
        }
    }

    /// A randomized schedule with moderate fault rates that, under the
    /// default [`RetryPolicy`], does not exhaust retry budgets — the
    /// chaos harness's bread and butter.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            map_fail_p: 0.15,
            reduce_fail_p: 0.10,
            worker_crash_p: 0.05,
            straggle_p: 0.10,
            straggle_factor_max: 6.0,
            retry: RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            },
            ..FaultPlan::default()
        }
    }

    /// A plan whose only effect is to crash the job with submission index
    /// `job_index` (a deterministic mid-pipeline failure).
    pub fn kill_at_job(job_index: usize) -> Self {
        FaultPlan {
            kill_at_job: Some(job_index),
            ..FaultPlan::default()
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.map_fail_p == 0.0
            && self.reduce_fail_p == 0.0
            && self.worker_crash_p == 0.0
            && self.straggle_p == 0.0
            && self.fail_every_nth.is_none_or(|n| n == 0)
            && self.kill_at_job.is_none()
    }

    /// One uniform draw in `[0, 1)` for the decision at coordinates
    /// `(salt, key, a, b)`. Order-independent: each decision seeds its own
    /// ChaCha stream, so engine and reference agree no matter who asks
    /// first.
    fn draw(&self, salt_kind: u64, key: u64, a: u64, b: u64) -> f64 {
        let packed = mix(self.seed ^ mix(key ^ mix(salt_kind ^ mix(a ^ mix(b)))));
        StdRng::seed_from_u64(packed).gen::<f64>()
    }

    /// Expand the plan into the complete fault schedule for one job.
    ///
    /// `job_index` is the cluster-wide submission index
    /// ([`crate::Cluster::jobs_run`] at submission time); it
    /// differentiates repeated runs of the same job name and anchors
    /// [`FaultPlan::kill_at_job`].
    ///
    /// The expansion is a single sequential pass (map tasks then reduce
    /// tasks in index order) so that the evolving worker blacklist is
    /// well-defined; executors replay the returned schedule instead of
    /// making their own time-dependent decisions.
    pub fn schedule(
        &self,
        job: &str,
        job_index: usize,
        map_tasks: usize,
        reduce_tasks: usize,
        machines: usize,
    ) -> JobFaultSchedule {
        let machines = machines.max(1);
        // A no-op plan schedules nothing for every job; skip the worker
        // walk and per-task draws so "having the subsystem" costs two
        // zeroed `Vec`s per job, keeping fault-free overhead negligible.
        if self.is_noop() {
            return JobFaultSchedule {
                map: vec![TaskFaults::default(); map_tasks],
                reduce: vec![TaskFaults::default(); reduce_tasks],
                workers_blacklisted: 0,
            };
        }
        let job_key = fnv1a(job.as_bytes()) ^ mix(job_index as u64);
        let max_attempts = self.retry.max_attempts.max(1);

        if self.kill_at_job == Some(job_index) {
            // Deterministic crash: the first map task burns the whole
            // budget.
            let mut map = vec![TaskFaults::default(); map_tasks.max(1)];
            map[0] = TaskFaults {
                failed_attempts: max_attempts,
                exhausted: true,
                straggle_factor: None,
            };
            return JobFaultSchedule {
                map,
                reduce: vec![TaskFaults::default(); reduce_tasks],
                workers_blacklisted: 0,
            };
        }

        let mut crashed = vec![false; machines];
        if self.worker_crash_p > 0.0 {
            for (w, c) in crashed.iter_mut().enumerate() {
                *c = self.draw(salt::WORKER, job_key, w as u64, 0) < self.worker_crash_p;
            }
        }
        let mut fail_count = vec![0usize; machines];
        let mut blacklisted = vec![false; machines];
        let mut workers_blacklisted = 0usize;

        // Walk a task's attempts across the simulated workers, counting
        // failures until a healthy attempt or an exhausted budget.
        let mut attempts_for = |task: usize, intrinsic: bool| -> (usize, bool) {
            let mut failed = 0usize;
            let mut attempt = 0usize;
            loop {
                if failed >= max_attempts {
                    return (failed, true);
                }
                let worker = (task + attempt) % machines;
                let worker_fails = crashed[worker] && !blacklisted[worker];
                let this_fails = (attempt == 0 && intrinsic) || worker_fails;
                if !this_fails {
                    return (failed, false);
                }
                failed += 1;
                if worker_fails {
                    fail_count[worker] += 1;
                    if self.blacklist_after > 0 && fail_count[worker] >= self.blacklist_after {
                        blacklisted[worker] = true;
                        workers_blacklisted += 1;
                    }
                }
                attempt += 1;
            }
        };

        let mut map = Vec::with_capacity(map_tasks);
        for t in 0..map_tasks {
            let intrinsic = match self.fail_every_nth {
                Some(n) => n > 0 && (t + 1).is_multiple_of(n),
                None => {
                    self.map_fail_p > 0.0
                        && self.draw(salt::MAP_FAIL, job_key, t as u64, 0) < self.map_fail_p
                }
            };
            let (failed_attempts, exhausted) = attempts_for(t, intrinsic);
            let straggle_factor = if self.straggle_p > 0.0
                && self.draw(salt::STRAGGLE, job_key, t as u64, 0) < self.straggle_p
            {
                let span = (self.straggle_factor_max - 2.0).max(0.0);
                Some(2.0 + self.draw(salt::STRAGGLE_FACTOR, job_key, t as u64, 0) * span)
            } else {
                None
            };
            map.push(TaskFaults {
                failed_attempts,
                exhausted,
                straggle_factor,
            });
        }

        let mut reduce = Vec::with_capacity(reduce_tasks);
        for p in 0..reduce_tasks {
            let intrinsic = self.reduce_fail_p > 0.0
                && self.draw(salt::REDUCE_FAIL, job_key, p as u64, 0) < self.reduce_fail_p;
            let (failed_attempts, exhausted) = attempts_for(p, intrinsic);
            reduce.push(TaskFaults {
                failed_attempts,
                exhausted,
                straggle_factor: None,
            });
        }

        JobFaultSchedule {
            map,
            reduce,
            workers_blacklisted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_s(0), 1.0);
        assert_eq!(r.backoff_s(1), 2.0);
        assert_eq!(r.backoff_s(2), 4.0);
    }

    #[test]
    fn noop_plan_schedules_nothing() {
        let plan = FaultPlan::noop();
        assert!(plan.is_noop());
        let s = plan.schedule("job", 0, 16, 8, 4);
        assert!(s.map.iter().all(|f| *f == TaskFaults::default()));
        assert!(s.reduce.iter().all(|f| *f == TaskFaults::default()));
        assert_eq!(s.workers_blacklisted, 0);
    }

    #[test]
    fn fail_every_nth_matches_legacy_semantics() {
        let plan = FaultPlan::fail_every_nth(3);
        let s = plan.schedule("legacy", 0, 9, 2, 4);
        for (t, f) in s.map.iter().enumerate() {
            let expect = usize::from((t + 1) % 3 == 0);
            assert_eq!(f.failed_attempts, expect, "task {t}");
            assert!(!f.exhausted);
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan::seeded(42);
        let a = plan.schedule("j", 3, 20, 10, 8);
        let b = plan.schedule("j", 3, 20, 10, 8);
        assert_eq!(a, b);
        // Different job index => (almost surely) different schedule.
        let c = plan.schedule("j", 4, 20, 10, 8);
        assert!(a != c || a.map.iter().all(|f| f.failed_attempts == 0));
    }

    #[test]
    fn seeded_plans_eventually_inject() {
        let plan = FaultPlan::seeded(7);
        let mut any = false;
        for idx in 0..20 {
            let s = plan.schedule("busy", idx, 16, 8, 8);
            any |= s
                .map
                .iter()
                .any(|f| f.failed_attempts > 0 || f.straggle_factor.is_some());
        }
        assert!(any, "a moderate plan must inject something in 20 jobs");
    }

    #[test]
    fn kill_at_job_exhausts_only_that_job() {
        let plan = FaultPlan::kill_at_job(5);
        assert!(plan
            .schedule("a", 4, 4, 2, 2)
            .first_exhausted_map()
            .is_none());
        let s = plan.schedule("a", 5, 4, 2, 2);
        assert_eq!(s.first_exhausted_map(), Some(0));
        assert!(s.map[0].failed_attempts >= plan.retry.max_attempts);
    }

    #[test]
    fn crashed_workers_get_blacklisted() {
        let plan = FaultPlan {
            worker_crash_p: 1.0, // every worker crashed
            blacklist_after: 1,
            retry: RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            ..FaultPlan::default()
        };
        let s = plan.schedule("doom", 0, 6, 0, 3);
        // All three workers fail once, get blacklisted, and later tasks run
        // clean.
        assert_eq!(s.workers_blacklisted, 3);
        assert!(s.map.iter().all(|f| !f.exhausted));
        let total_failures: usize = s.map.iter().map(|f| f.failed_attempts).sum();
        assert_eq!(total_failures, 3);
    }

    #[test]
    fn all_workers_down_without_blacklist_exhausts() {
        let plan = FaultPlan {
            worker_crash_p: 1.0,
            blacklist_after: 0, // never blacklist
            ..FaultPlan::default()
        };
        let s = plan.schedule("doom", 0, 2, 0, 2);
        assert!(s.map[0].exhausted);
        assert_eq!(s.map[0].failed_attempts, plan.retry.max_attempts);
    }

    #[test]
    fn straggle_factors_in_range() {
        let plan = FaultPlan {
            straggle_p: 1.0,
            straggle_factor_max: 5.0,
            ..FaultPlan::default()
        };
        let s = plan.schedule("slow", 0, 32, 0, 4);
        for f in &s.map {
            let factor = f.straggle_factor.expect("all tasks straggle");
            assert!((2.0..=5.0).contains(&factor), "factor {factor}");
        }
    }
}
