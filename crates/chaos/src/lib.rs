//! Chaos harness for the fault-injection subsystem.
//!
//! Runs all **eight** HaTen2 pipelines — {PARAFAC, Tucker} × {Naive, DNN,
//! DRN, DRI} — on a fixed small tensor, first fault-free and then under
//! randomized [`FaultPlan`] schedules, and checks the subsystem's core
//! invariant:
//!
//! > Any fault schedule that does not exhaust a retry budget must yield
//! > output **bit-identical** to the fault-free run.
//!
//! Outcomes are classified per (pipeline, seed):
//!
//! * `Identical` — the run completed and its fingerprint (FNV-1a over the
//!   raw `f64` bits of every factor, λ, and core entry) matches the
//!   fault-free fingerprint.
//! * `Exhausted` — a retry budget ran out (a typed engine error). Not a
//!   violation: losing a job after max attempts is correct Hadoop
//!   behaviour; the report records it separately.
//! * `Diverged` — the run completed but produced different bits, or
//!   failed with a non-fault error. **This is the bug the harness
//!   exists to catch.**
//!
//! Every faulty run is additionally replayed under
//! [`SchedulerMode::Sequential`]: the DAG scheduler interleaving jobs on
//! the shared pool must not change a single bit of output (or the typed
//! error) relative to one-job-at-a-time execution, even mid-fault-storm.
//! A mismatch between the two scheduler modes is reported as `Diverged`.
//!
//! The harness also aggregates the recovery counters, so callers can
//! assert the invariant was exercised (retries actually happened) rather
//! than vacuously true.

pub mod restart;

use haten2_core::{parafac_als, tucker_als, AlsOptions, CoreError, Variant};
use haten2_mapreduce::{Cluster, ClusterConfig, FaultPlan, MrError, SchedulerMode};
use haten2_tensor::{CooTensor3, Entry3};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Number of randomized fault schedules per pipeline.
    pub seeds: usize,
    /// First fault seed; schedule `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Simulated machines per cluster.
    pub machines: usize,
    /// ALS sweeps per decomposition (kept small: 8 pipelines × seeds).
    pub sweeps: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seeds: 3,
            seed_base: 0xC0FFEE,
            machines: 4,
            sweeps: 2,
        }
    }
}

/// Outcome of one (pipeline, fault seed) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Output bit-identical to the fault-free run.
    Identical,
    /// A retry budget was exhausted (typed engine failure, message kept).
    Exhausted(String),
    /// Output differed from the fault-free run, or a non-fault error —
    /// an invariant violation.
    Diverged(String),
}

/// One row of the chaos report.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Pipeline label, e.g. `parafac/HaTen2-DRI`.
    pub pipeline: String,
    /// Fault seed this run used.
    pub seed: u64,
    /// Classified result.
    pub status: Status,
    /// Task retries (map + reduce) the schedule injected.
    pub retries: usize,
    /// Speculative backups launched.
    pub speculative: usize,
    /// Workers blacklisted.
    pub blacklisted: usize,
    /// Simulated seconds spent on recovery (backoff + straggler delay).
    pub recovery_sim_time_s: f64,
}

/// Aggregated result of a chaos sweep.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// One row per (pipeline, seed).
    pub outcomes: Vec<Outcome>,
}

impl ChaosReport {
    /// Rows that violated the fault-transparency invariant.
    pub fn violations(&self) -> Vec<&Outcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, Status::Diverged(_)))
            .collect()
    }

    /// Rows that exhausted a retry budget (correct behaviour, reported).
    pub fn exhausted(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, Status::Exhausted(_)))
            .count()
    }

    /// Total task retries injected across every run — when this is 0 the
    /// invariant was never exercised.
    pub fn total_retries(&self) -> usize {
        self.outcomes.iter().map(|o| o.retries).sum()
    }

    /// True when no run violated the invariant.
    pub fn ok(&self) -> bool {
        self.violations().is_empty()
    }
}

/// The fixed chaos tensor: 6×5×4, deterministic values, ~40% fill.
pub fn chaos_tensor() -> CooTensor3 {
    let mut entries = Vec::new();
    for i in 0..6u64 {
        for j in 0..5u64 {
            for k in 0..4u64 {
                if (i + 2 * j + 3 * k) % 3 == 0 {
                    let v = 1.0 + (i as f64) * 0.5 + (j as f64) * 0.25 + (k as f64) * 0.125;
                    entries.push(Entry3::new(i, j, k, v));
                }
            }
        }
    }
    CooTensor3::from_entries([6, 5, 4], entries).expect("fixed tensor is valid")
}

/// FNV-1a over the exact bit patterns of a stream of `f64`s: equal
/// fingerprints ⟺ bit-identical values (including signed zeros and NaN
/// payloads).
pub fn fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cluster(machines: usize, plan: Option<FaultPlan>, scheduler: SchedulerMode) -> Cluster {
    Cluster::new(ClusterConfig {
        fault_plan: plan,
        scheduler,
        ..ClusterConfig::with_machines(machines)
    })
}

fn opts_for(variant: Variant, sweeps: usize) -> AlsOptions {
    AlsOptions {
        max_iters: sweeps,
        tol: 0.0,
        ..AlsOptions::with_variant(variant)
    }
}

/// Is this error an exhausted-retry-budget failure (correct under heavy
/// schedules) rather than a genuine divergence?
fn is_fault_exhaustion(err: &CoreError) -> bool {
    matches!(err, CoreError::MapReduce(MrError::TaskFailed { .. }))
}

/// Run one pipeline on `c`, returning its output fingerprint.
fn run_pipeline(
    c: &Cluster,
    x: &CooTensor3,
    decomp: &str,
    variant: Variant,
    sweeps: usize,
) -> Result<u64, CoreError> {
    let opts = opts_for(variant, sweeps);
    match decomp {
        "parafac" => {
            let r = parafac_als(c, x, 2, &opts)?;
            let values = r
                .lambda
                .iter()
                .copied()
                .chain(r.factors.iter().flat_map(|f| f.data().iter().copied()))
                .chain(r.fits.iter().copied());
            Ok(fingerprint(values))
        }
        _ => {
            let r = tucker_als(c, x, [2, 2, 2], &opts)?;
            let values = r
                .factors
                .iter()
                .flat_map(|f| f.data().iter().copied())
                .chain(r.core.data().iter().copied())
                .chain(r.core_norms.iter().copied());
            Ok(fingerprint(values))
        }
    }
}

/// Run the full chaos sweep: every pipeline fault-free once, then under
/// `opts.seeds` randomized schedules each.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let x = chaos_tensor();
    let mut report = ChaosReport::default();

    for decomp in ["parafac", "tucker"] {
        for variant in Variant::ALL {
            let pipeline = format!("{decomp}/{}", variant.name());
            let clean = run_pipeline(
                &cluster(opts.machines, None, SchedulerMode::Dag),
                &x,
                decomp,
                variant,
                opts.sweeps,
            )
            .expect("fault-free pipeline must succeed");

            for i in 0..opts.seeds {
                let seed = opts.seed_base + i as u64;
                let c = cluster(
                    opts.machines,
                    Some(FaultPlan::seeded(seed)),
                    SchedulerMode::Dag,
                );
                let dag = run_pipeline(&c, &x, decomp, variant, opts.sweeps);
                // Scheduler cross-check: the same fault schedule replayed
                // under sequential scheduling must agree bit-for-bit —
                // same fingerprint or same typed error.
                let seq_cluster = cluster(
                    opts.machines,
                    Some(FaultPlan::seeded(seed)),
                    SchedulerMode::Sequential,
                );
                let seq = run_pipeline(&seq_cluster, &x, decomp, variant, opts.sweeps);
                let status = match (&dag, &seq) {
                    (Ok(a), Ok(b)) if a != b => Status::Diverged(format!(
                        "scheduler divergence: dag {a:#018x} vs sequential {b:#018x}"
                    )),
                    (Ok(_), Err(e)) => Status::Diverged(format!(
                        "scheduler divergence: sequential failed where dag succeeded: {e}"
                    )),
                    (Err(e), Ok(_)) => Status::Diverged(format!(
                        "scheduler divergence: dag failed where sequential succeeded: {e}"
                    )),
                    (Err(a), Err(b)) if a.to_string() != b.to_string() => Status::Diverged(
                        format!("scheduler divergence: dag error `{a}` vs sequential `{b}`"),
                    ),
                    _ => match dag {
                        Ok(fp) if fp == clean => Status::Identical,
                        Ok(_) => Status::Diverged("fingerprint mismatch".into()),
                        Err(e) if is_fault_exhaustion(&e) => Status::Exhausted(e.to_string()),
                        Err(e) => Status::Diverged(e.to_string()),
                    },
                };
                let m = c.metrics();
                report.outcomes.push(Outcome {
                    pipeline: pipeline.clone(),
                    seed,
                    status,
                    retries: m.total_task_retries(),
                    speculative: m.total_speculative_launched(),
                    blacklisted: m.total_workers_blacklisted(),
                    recovery_sim_time_s: m.total_recovery_sim_time_s(),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_bit_exact() {
        assert_eq!(fingerprint([1.0, 2.0]), fingerprint([1.0, 2.0]));
        assert_ne!(fingerprint([1.0, 2.0]), fingerprint([2.0, 1.0]));
        // Signed zero differs in bits, so it must differ in fingerprint.
        assert_ne!(fingerprint([0.0]), fingerprint([-0.0]));
    }

    #[test]
    fn chaos_tensor_is_fixed() {
        let a = chaos_tensor();
        let b = chaos_tensor();
        assert_eq!(a.nnz(), b.nnz());
        assert_eq!(a.dims(), [6, 5, 4]);
        assert!(a.nnz() >= 30, "tensor too sparse for a meaningful run");
    }
}
