//! The host descriptor every result file carries: a number measured on
//! one effective worker must be recognisable as such.

use crate::json::Json;
use crate::workloads::bench_threads;
use haten2_mapreduce::{run_job, Batch, Cluster, ClusterConfig, JobSpec};
use std::process::Command;

/// Where and how a result file was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `ClusterConfig.threads` of every benchmark cluster.
    pub threads: usize,
    /// Workers a full-width batch of independent jobs actually ran on.
    pub effective_workers: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Describe this host.
    pub fn describe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: bench_threads(),
            effective_workers: effective_workers(),
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The `host` member of a result file.
    pub fn json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("threads", Json::Num(self.threads as f64)),
            (
                "effective_workers",
                Json::Num(self.effective_workers as f64),
            ),
            ("rustc", Json::str(&self.rustc)),
            ("profile", Json::str(self.profile)),
            ("git_rev", Json::str(&self.git_rev)),
            (
                "race_detector_compiled",
                Json::Bool(haten2_mapreduce::race_detector_compiled()),
            ),
        ])
    }
}

/// First line of a command's output; `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A batch of `jobs` independent sum-by-key jobs over `input`: no job
/// reads what another writes, so the scheduler is free to spread them over
/// every worker it has.
pub fn independent_jobs(input: &[(u64, f64)], jobs: usize) -> haten2_mapreduce::Result<Batch<'_>> {
    let mut batch = Batch::new();
    for n in 0..jobs {
        let name = format!("independent{n}");
        batch.submit(
            name.clone(),
            vec!["in".into()],
            vec![format!("out#{n}")],
            move |ctx| {
                run_job(
                    ctx,
                    JobSpec::named(name),
                    input,
                    |k: &u64, v: &f64, emit| emit(k % 16, *v),
                    |k: &u64, vs: Vec<f64>, emit| emit(*k, vs.iter().sum::<f64>()),
                )
            },
        )?;
    }
    Ok(batch)
}

/// How many pool workers a batch of independent jobs is spread over on a
/// benchmark-shaped cluster (`BatchReport.worker_busy_s.len()`): the
/// engine caps workers at the host's parallelism, so this — not the
/// configured thread count — says whether concurrency was measurable.
fn effective_workers() -> usize {
    let cluster = Cluster::new(ClusterConfig {
        threads: bench_threads(),
        ..ClusterConfig::with_machines(2)
    });
    let input: Vec<(u64, f64)> = (0..8).map(|i| (i, 1.0)).collect();
    independent_jobs(&input, 16)
        .and_then(|batch| batch.run(&cluster))
        .map_or(0, |results| results.report().worker_busy_s.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_is_complete_and_consistent() {
        let host = Host::describe();
        assert!(host.nproc >= 1);
        assert_eq!(host.threads, host.nproc.min(4));
        assert!((1..=host.threads).contains(&host.effective_workers));
        let json = host.json();
        for key in [
            "nproc",
            "threads",
            "effective_workers",
            "rustc",
            "profile",
            "git_rev",
        ] {
            assert!(json.get(key).is_some(), "{key} missing");
        }
    }

    #[test]
    fn missing_commands_read_unknown() {
        assert_eq!(command_line("haten2-no-such-program", &[]), "unknown");
    }
}
