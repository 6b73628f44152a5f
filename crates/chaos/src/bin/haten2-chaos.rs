//! `haten2-chaos` — run the chaos harness from the command line.
//!
//! ```text
//! haten2-chaos [--seeds N] [--seed-base S] [--machines M] [--sweeps T]
//! ```
//!
//! Runs all eight pipelines fault-free and under `N` randomized fault
//! schedules each, prints one row per run, and exits non-zero if any run
//! violates the fault-transparency invariant.

use haten2_chaos::{run_chaos, ChaosOptions, Status};

fn usage() -> ! {
    eprintln!("usage: haten2-chaos [--seeds N] [--seed-base S] [--machines M] [--sweeps T]");
    std::process::exit(2);
}

fn parse_args() -> ChaosOptions {
    let mut opts = ChaosOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs an integer argument");
                usage()
            })
        };
        match flag.as_str() {
            "--seeds" => opts.seeds = take("--seeds") as usize,
            "--seed-base" => opts.seed_base = take("--seed-base"),
            "--machines" => opts.machines = (take("--machines") as usize).max(1),
            "--sweeps" => opts.sweeps = (take("--sweeps") as usize).max(1),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    println!(
        "chaos: 8 pipelines x {} seeds (base {:#x}), {} machines, {} sweeps",
        opts.seeds, opts.seed_base, opts.machines, opts.sweeps
    );
    let report = run_chaos(&opts);

    println!(
        "{:<24} {:>10} {:<10} {:>7} {:>5} {:>6} {:>12}",
        "pipeline", "seed", "status", "retries", "spec", "blist", "recovery_s"
    );
    for o in &report.outcomes {
        let status = match &o.status {
            Status::Identical => "identical",
            Status::Exhausted(_) => "exhausted",
            Status::Diverged(_) => "DIVERGED",
        };
        println!(
            "{:<24} {:>10} {:<10} {:>7} {:>5} {:>6} {:>12.3}",
            o.pipeline,
            o.seed,
            status,
            o.retries,
            o.speculative,
            o.blacklisted,
            o.recovery_sim_time_s
        );
        if let Status::Diverged(why) = &o.status {
            println!("  !! {why}");
        }
    }

    let violations = report.violations().len();
    println!(
        "summary: {} runs, {} identical, {} exhausted, {} DIVERGED, {} task retries injected",
        report.outcomes.len(),
        report
            .outcomes
            .iter()
            .filter(|o| o.status == Status::Identical)
            .count(),
        report.exhausted(),
        violations,
        report.total_retries(),
    );
    if report.total_retries() == 0 {
        println!("warning: no retries were injected — the invariant was not exercised");
    }
    if violations > 0 {
        std::process::exit(1);
    }
}
