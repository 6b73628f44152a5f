//! CLI for the static plan analyzer.
//!
//! * `--verify-paper-table` — check all eight registered pipelines against
//!   the paper's Tables III/IV, certify them race-free, run the
//!   determinism scan, and print the report
//!   (this is what `cargo xtask analyze` commits to `ANALYSIS.md`). Exits
//!   non-zero on any violation.
//! * `--reject-demo` — run deliberately defective plans through the
//!   analyzer and print the diagnostics, proving that malformed plans are
//!   rejected naming the offending job or dataset — including
//!   seeded racy batches and communication lies (wrong closed form,
//!   under-declared shuffle volume). Exits non-zero if any demo plan
//!   slips through.
//! * `--determinism` — print only the UDF-purity scan verdict.
//! * `--format md|json` — report format for `--verify-paper-table`
//!   (default `md`). JSON output is a single stable document with one
//!   object per violation (`haten2_analyze::json`).

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: haten2-analyze [--format md|json] [--verify-paper-table] [--reject-demo] [--determinism]\n\
         \n\
         --verify-paper-table  verify all 8 pipelines against the paper's cost\n\
         \x20                     tables, certify race freedom, scan UDF purity,\n\
         \x20                     and print the report\n\
         --reject-demo         show that defective plans are\n\
         \x20                     rejected with diagnostics naming the offender\n\
         --determinism         print only the UDF-purity scan verdict\n\
         --format md|json      report format for --verify-paper-table (default md)"
    );
    ExitCode::from(2)
}

fn verify_paper_table(format: &str) -> bool {
    let report = haten2_analyze::verify_paper_table();
    match format {
        "json" => println!("{}", haten2_analyze::json::full_json(&report)),
        _ => print!("{}", report.to_markdown()),
    }
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

fn determinism() -> bool {
    let report = haten2_analyze::check_determinism();
    println!(
        "determinism scan: {} file(s), {} reducer site(s), {} violation(s)",
        report.files_scanned,
        report.reducers.len(),
        report.violations.len()
    );
    for v in &report.violations {
        println!("- {v}");
    }
    report.ok()
}

fn reject_demo() -> bool {
    let mut all_rejected = true;
    println!("# Analyzer rejection demo\n");
    for (r, violations, ok) in haten2_analyze::demo::run_rejections() {
        println!("## {} — {}", r.graph.name, r.defect);
        if violations.is_empty() {
            println!("NOT REJECTED (analyzer found nothing)\n");
        } else {
            for v in &violations {
                println!("- {v}");
            }
            println!();
        }
        if !ok {
            all_rejected = false;
            eprintln!(
                "demo plan '{}' was not rejected with the expected diagnostic \
                 naming '{}'",
                r.graph.name, r.must_name
            );
        }
    }
    for r in haten2_analyze::races::run_race_rejections() {
        println!("## {} — {}", r.graph, r.defect);
        if r.violations.is_empty() {
            println!("NOT REJECTED (races pass found nothing)\n");
        } else {
            for v in &r.violations {
                println!("- {v}");
            }
            println!();
        }
        if !r.rejected {
            all_rejected = false;
            eprintln!(
                "seeded racing batch '{}' ({}) was not rejected naming jobs \
                 '{}'/'{}' and dataset '{}'",
                r.graph, r.defect, r.job_a, r.job_b, r.dataset
            );
        }
    }
    let envs = haten2_analyze::cost::regime_envs();
    for r in haten2_analyze::comm::run_comm_rejections(&envs) {
        println!("## {} — {}", r.graph, r.defect);
        if r.violations.is_empty() {
            println!("NOT REJECTED (comm pass found nothing)\n");
        } else {
            for v in &r.violations {
                println!("- {v}");
            }
            println!();
        }
        if !r.rejected {
            all_rejected = false;
            eprintln!(
                "seeded communication lie '{}' ({}) was not rejected via rule '{}'",
                r.graph, r.defect, r.rule
            );
        }
    }
    if all_rejected {
        println!(
            "all demo plans rejected, each diagnostic names the offending \
             job, dataset, or racing pair"
        );
    }
    all_rejected
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut format = "md".to_string();
    let mut actions: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                if f != "md" && f != "json" {
                    return usage();
                }
                format = f.clone();
                i += 1;
            }
            "--verify-paper-table" => actions.push("verify"),
            "--reject-demo" => actions.push("reject"),
            "--determinism" => actions.push("determinism"),
            _ => return usage(),
        }
        i += 1;
    }
    if actions.is_empty() {
        return usage();
    }
    let mut ok = true;
    for action in actions {
        ok &= match action {
            "verify" => verify_paper_table(&format),
            "reject" => reject_demo(),
            "determinism" => determinism(),
            _ => unreachable!(),
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
