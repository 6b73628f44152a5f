//! Kill-and-reexec scenario: crash a decomposition driver **as a real
//! process** and prove a freshly exec'd process resumes it bit-identically
//! from the durable block store.
//!
//! The in-crate crash-resume tests (`haten2_core::checkpoint`) simulate a
//! driver death by a [`FaultPlan::kill_at_job`] error return — the process
//! itself survives, so in-memory state could in principle leak into the
//! "resumed" run. This module closes that gap with three real processes:
//!
//! 1. **victim** — opens a [`DfsBackend::Durable`] cluster over a fresh
//!    store directory, persists the input tensor into the durable DFS
//!    ([`haten2_core::persist_tensor`]), and runs the checkpointed driver
//!    under a fault plan that kills a job inside sweep 2. When the typed
//!    retry-exhaustion error surfaces it calls [`std::process::abort`]:
//!    no destructors, no buffered flushes — whatever the block store
//!    fsynced is all the next process gets.
//! 2. **resume** — a *new* process (re-exec'd image) reopens the same
//!    store directory, asserts the tensor reloads bit-identically from
//!    the durable DFS, and resumes via `*_als_checkpointed`; the factor
//!    snapshot comes from the block store (`crate::store` datasets
//!    written before the sweep marker committed).
//! 3. **orchestrator** ([`drive`], the `haten2-restart` binary) — runs
//!    the clean decomposition in-process, spawns the two children via
//!    [`std::env::current_exe`], and compares fingerprints.
//!
//! The invariant is the chaos harness's, extended across an exec
//! boundary: *crash + restart must not change a single output bit.*

use crate::{chaos_tensor, fingerprint};
use haten2_core::{
    load_sweep_marker, load_tensor, parafac_als, parafac_als_checkpointed, persist_tensor,
    tucker_als, tucker_als_checkpointed, AlsOptions, Variant,
};
use haten2_mapreduce::{Cluster, ClusterConfig, DfsBackend, DurableConfig, FaultPlan};
use std::path::{Path, PathBuf};

/// Durable DFS dataset key the victim stores the input tensor under.
pub const TENSOR_KEY: &str = "restart/input";

/// PARAFAC rank / Tucker core size used by every phase.
const RANK: usize = 2;

/// Total sweeps; the victim dies during sweep 2, so the resume replays
/// the remaining `SWEEPS − 1`.
const SWEEPS: usize = 4;

/// The two pipelines the scenario certifies (one PARAFAC, one Tucker, as
/// the acceptance criteria require).
pub const DECOMPS: [&str; 2] = ["parafac", "tucker"];

/// Where the durable block store lives under the scenario directory.
pub fn store_dir(dir: &Path) -> PathBuf {
    dir.join("store")
}

/// Filesystem checkpoint prefix for one decomposition.
pub fn checkpoint_prefix(dir: &Path, decomp: &str) -> String {
    dir.join(format!("{decomp}-ck")).display().to_string()
}

fn base_opts(prefix: Option<String>) -> AlsOptions {
    AlsOptions {
        max_iters: SWEEPS,
        tol: 0.0,
        checkpoint_prefix: prefix,
        ..AlsOptions::with_variant(Variant::Dri)
    }
}

fn durable_cluster(dir: &Path, plan: Option<FaultPlan>) -> Cluster {
    Cluster::new(ClusterConfig {
        dfs: DfsBackend::Durable(DurableConfig::new(store_dir(dir))),
        fault_plan: plan,
        ..ClusterConfig::with_machines(4)
    })
}

/// Model fingerprint: λ + factors (PARAFAC) or factors + core (Tucker).
/// Per-sweep traces (fits, core norms) are excluded — a resumed run only
/// has them for the replayed sweeps.
fn model_fingerprint(
    cluster: &Cluster,
    x: &haten2_tensor::CooTensor3,
    decomp: &str,
    opts: &AlsOptions,
    checkpointed: bool,
) -> haten2_core::Result<u64> {
    if decomp == "parafac" {
        let r = if checkpointed {
            parafac_als_checkpointed(cluster, x, RANK, opts)?
        } else {
            parafac_als(cluster, x, RANK, opts)?
        };
        let values = r
            .lambda
            .iter()
            .copied()
            .chain(r.factors.iter().flat_map(|f| f.data().iter().copied()));
        Ok(fingerprint(values))
    } else {
        let r = if checkpointed {
            tucker_als_checkpointed(cluster, x, [RANK; 3], opts)?
        } else {
            tucker_als(cluster, x, [RANK; 3], opts)?
        };
        let values = r
            .factors
            .iter()
            .flat_map(|f| f.data().iter().copied())
            .chain(r.core.data().iter().copied());
        Ok(fingerprint(values))
    }
}

/// The uninterrupted reference run, on a plain in-memory cluster.
pub fn clean_fingerprint(decomp: &str) -> u64 {
    let x = chaos_tensor();
    let cluster = Cluster::new(ClusterConfig::with_machines(4));
    model_fingerprint(&cluster, &x, decomp, &base_opts(None), false)
        .expect("fault-free reference run must succeed")
}

/// Jobs one sweep issues, so the victim's kill lands inside sweep 2.
fn jobs_per_sweep(decomp: &str) -> usize {
    let x = chaos_tensor();
    let probe = Cluster::new(ClusterConfig::with_machines(4));
    let opts = AlsOptions {
        max_iters: 1,
        ..base_opts(None)
    };
    model_fingerprint(&probe, &x, decomp, &opts, false).expect("probe run must succeed");
    probe.metrics().total_jobs()
}

/// Victim phase: persist the tensor durably, run until the scheduled kill
/// inside sweep 2 surfaces as a retry-exhaustion error, then die without
/// any cleanup. Never returns normally.
pub fn run_victim(dir: &Path, decomp: &str) -> ! {
    let x = chaos_tensor();
    let kill_at = jobs_per_sweep(decomp) + 1;
    let cluster = durable_cluster(dir, Some(FaultPlan::kill_at_job(kill_at)));
    persist_tensor(&cluster, TENSOR_KEY, &x).expect("tensor must persist to the durable DFS");
    let opts = base_opts(Some(checkpoint_prefix(dir, decomp)));
    let err = model_fingerprint(&cluster, &x, decomp, &opts, true)
        .expect_err("the fault plan must kill the run");
    eprintln!("victim[{decomp}]: dying after `{err}`");
    // Die like a kill -9: no Drop impls, no flushes. Only fsynced state
    // survives into the resume process.
    std::process::abort();
}

/// Resume phase, run in a fresh process: reopen the store, verify the
/// tensor survived the crash bit-identically, and finish the remaining
/// sweeps from the durable checkpoint. Returns the model fingerprint and
/// the number of datasets reloaded from segment files.
pub fn run_resume(dir: &Path, decomp: &str) -> (u64, usize) {
    let cluster = durable_cluster(dir, None);
    let survived = load_tensor(&cluster, TENSOR_KEY)
        .expect("durable tensor load must not error")
        .expect("the input tensor must survive the crash");
    let reference = chaos_tensor();
    assert_eq!(survived.dims(), reference.dims(), "tensor dims changed");
    assert_eq!(
        survived.entries(),
        reference.entries(),
        "tensor entries must survive the crash bit-identically"
    );

    let prefix = checkpoint_prefix(dir, decomp);
    let done = load_sweep_marker(&prefix)
        .expect("sweep marker must parse")
        .expect("the victim must have committed a sweep marker before dying");
    assert!(
        (1..SWEEPS).contains(&done),
        "victim died with {done} of {SWEEPS} sweeps marked — the kill \
         must land mid-run"
    );

    let opts = base_opts(Some(prefix));
    let fp = model_fingerprint(&cluster, &survived, decomp, &opts, true)
        .expect("the resumed run must succeed");
    let reloads = cluster.dfs().spill_stats().reload_events;
    (fp, reloads)
}

/// One child outcome the orchestrator records.
#[derive(Debug)]
pub struct RestartOutcome {
    /// Pipeline label (`parafac` / `tucker`).
    pub decomp: String,
    /// Fingerprint of the uninterrupted in-process run.
    pub clean: u64,
    /// Fingerprint the re-exec'd resume process reported.
    pub resumed: u64,
    /// Datasets the resume process reloaded from segment files.
    pub reloads: usize,
}

impl RestartOutcome {
    /// Did crash + restart preserve every output bit?
    pub fn identical(&self) -> bool {
        self.clean == self.resumed
    }
}

/// Spawn one child phase of this same executable and collect its output.
fn spawn_child(role: &str, dir: &Path, decomp: &str) -> std::process::Output {
    let exe = std::env::current_exe().expect("current_exe must resolve for re-exec");
    std::process::Command::new(exe)
        .args(["--role", role, "--decomp", decomp, "--dir"])
        .arg(dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {role} child: {e}"))
}

/// Orchestrate the full scenario for one decomposition: clean run
/// in-process, victim child (must die abnormally), resume child (must
/// print a fingerprint). Panics on protocol violations; bit-divergence is
/// reported in the returned outcome so callers can aggregate.
pub fn drive_one(dir: &Path, decomp: &str) -> RestartOutcome {
    let clean = clean_fingerprint(decomp);

    let victim = spawn_child("victim", dir, decomp);
    assert!(
        !victim.status.success(),
        "victim[{decomp}] must die by abort, got {:?}\nstderr:\n{}",
        victim.status,
        String::from_utf8_lossy(&victim.stderr)
    );

    let resume = spawn_child("resume", dir, decomp);
    assert!(
        resume.status.success(),
        "resume[{decomp}] failed with {:?}\nstdout:\n{}\nstderr:\n{}",
        resume.status,
        String::from_utf8_lossy(&resume.stdout),
        String::from_utf8_lossy(&resume.stderr)
    );
    let stdout = String::from_utf8_lossy(&resume.stdout);
    let (resumed, reloads) = parse_resume_report(&stdout)
        .unwrap_or_else(|| panic!("resume[{decomp}] printed no report:\n{stdout}"));

    RestartOutcome {
        decomp: decomp.to_string(),
        clean,
        resumed,
        reloads,
    }
}

/// Line the resume child prints; the orchestrator parses it back.
pub fn format_resume_report(fp: u64, reloads: usize) -> String {
    format!("resume-fingerprint {fp:#018x} reloads {reloads}")
}

/// Inverse of [`format_resume_report`]; `None` when no report line exists.
pub fn parse_resume_report(stdout: &str) -> Option<(u64, usize)> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("resume-fingerprint "))?;
    let mut parts = line.split_whitespace();
    let fp = parts
        .nth(1)?
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())?;
    let reloads = parts.nth(1)?.parse().ok()?;
    Some((fp, reloads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_report_roundtrips() {
        let line = format_resume_report(0xdead_beef_0123_4567, 12);
        assert_eq!(
            parse_resume_report(&line),
            Some((0xdead_beef_0123_4567, 12))
        );
        assert_eq!(parse_resume_report("no report here"), None);
    }

    #[test]
    fn clean_fingerprints_are_deterministic_and_distinct() {
        let p = clean_fingerprint("parafac");
        assert_eq!(p, clean_fingerprint("parafac"));
        let t = clean_fingerprint("tucker");
        assert_ne!(p, t, "the two pipelines must not collide");
    }
}
