//! CLI for the static plan analyzer.
//!
//! * `--verify-paper-table` — check all eight registered pipelines against
//!   the paper's Tables III/IV and the communication bounds, and print
//!   the markdown report (committed as `ANALYSIS.md`; regenerate it with
//!   `cargo run -q -p haten2-analyze --release -- --verify-paper-table >
//!   ANALYSIS.md`). Exits non-zero on any violation.
//! * `--reject-demo` — run every row of the known-bad plan table
//!   (`haten2_analyze::demo`) through the passes its claim selects and
//!   print the diagnostics, proving that defective plans — mis-wired
//!   dataflow, cost lies, wrong or under-declared shuffle
//!   volumes — are rejected naming the offender. Exits non-zero if any
//!   row is not rejected as it demands.

use haten2_analyze::{cost::regime_envs, demo};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: haten2-analyze [--verify-paper-table] [--reject-demo]\n\
         \n\
         --verify-paper-table  verify all 8 pipelines against the paper's cost\n\
         \x20                     tables and communication bounds, and print\n\
         \x20                     the report (the committed ANALYSIS.md:\n\
         \x20                     --verify-paper-table > ANALYSIS.md)\n\
         --reject-demo         show that every known-bad plan is rejected\n\
         \x20                     with diagnostics naming the offender"
    );
    ExitCode::from(2)
}

fn verify_paper_table() -> bool {
    let report = haten2_analyze::verify_paper_table();
    print!("{}", report.to_markdown());
    if report.ok() {
        true
    } else {
        eprintln!(
            "\npaper-table verification FAILED: {} violation(s)",
            report.violations().len()
        );
        false
    }
}

fn reject_demo() -> bool {
    let envs = regime_envs();
    let mut all_rejected = true;
    println!("# Analyzer rejection demo\n");
    for r in demo::rejections() {
        let violations = r.run(&envs);
        println!("## {} — {}", r.graph.name, r.defect);
        if violations.is_empty() {
            println!("NOT REJECTED (analyzer found nothing)\n");
        } else {
            for v in &violations {
                println!("- {v}");
            }
            println!();
        }
        if !r.rejected(&violations) {
            all_rejected = false;
            eprintln!(
                "demo plan '{}' was not rejected with {:?} naming '{}'",
                r.graph.name, r.fires, r.must_name
            );
        }
    }
    if all_rejected {
        println!(
            "all demo plans rejected, each diagnostic names the offending \
             job, dataset or graph"
        );
    }
    all_rejected
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut actions: Vec<fn() -> bool> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--verify-paper-table" => actions.push(verify_paper_table),
            "--reject-demo" => actions.push(reject_demo),
            _ => return usage(),
        }
    }
    let mut ok = true;
    for action in actions {
        ok &= action();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
