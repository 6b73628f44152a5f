//! `cargo xtask` — workspace automation CLI.
//!
//! * `cargo xtask lint` — run the source-level lint pass (see the library
//!   docs for the rule set). Exits non-zero on any finding.
//! * `cargo xtask lint --list-allows` — print every `lint:allow(...)`
//!   suppression in the workspace with its justification; exits non-zero
//!   if any suppression is reasonless.
//! * `cargo xtask analyze [--write]` — the unified static-analysis gate:
//!   source lint, paper-table + communication + determinism verification
//!   with the `ANALYSIS.md` staleness check (`--write` refreshes the file
//!   instead of failing), and the rejection demo.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::{Command, ExitCode};
use xtask::{collect_allows, run_lint};

fn lint() -> ExitCode {
    let root = haten2_srcscan::workspace_root();
    let (findings, count) = run_lint(&root);
    if findings.is_empty() {
        println!("xtask lint: {count} files clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("xtask lint: {} finding(s) in {count} files", findings.len());
        ExitCode::FAILURE
    }
}

fn list_allows() -> ExitCode {
    let root = haten2_srcscan::workspace_root();
    let allows = collect_allows(&root);
    println!(
        "xtask lint: {} suppression(s) in the workspace",
        allows.len()
    );
    let mut reasonless = 0usize;
    for a in &allows {
        println!("  {a}");
        if a.reason.is_empty() {
            reasonless += 1;
        }
    }
    if reasonless > 0 {
        eprintln!("xtask lint: {reasonless} suppression(s) without a justification");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the analyzer binary with `args`, returning (success, stdout).
fn run_analyzer(root: &Path, args: &[&str]) -> (bool, String) {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .args(["run", "-q", "-p", "haten2-analyze", "--release", "--"])
        .args(args);
    match cmd.output() {
        Ok(out) => {
            if !out.status.success() {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
            }
            (
                out.status.success(),
                String::from_utf8_lossy(&out.stdout).into_owned(),
            )
        }
        Err(e) => {
            eprintln!("failed to spawn cargo: {e}");
            (false, String::new())
        }
    }
}

fn analyze(write: bool) -> ExitCode {
    let root = haten2_srcscan::workspace_root();
    let mut ok = true;

    println!("==> xtask analyze: source lint");
    let (findings, count) = run_lint(&root);
    if findings.is_empty() {
        println!("    {count} files clean");
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        ok = false;
    }

    println!("==> xtask analyze: paper table + communication + determinism");
    let (verified, report) = run_analyzer(&root, &["--verify-paper-table"]);
    ok &= verified;

    // Staleness gate: the committed ANALYSIS.md must match what the
    // analyzer derives from the current plans and sources.
    let analysis = root.join("ANALYSIS.md");
    if verified {
        let committed = std::fs::read_to_string(&analysis).unwrap_or_default();
        if committed != report {
            if write {
                match std::fs::write(&analysis, &report) {
                    Ok(()) => println!("    ANALYSIS.md refreshed"),
                    Err(e) => {
                        eprintln!("    cannot write ANALYSIS.md: {e}");
                        ok = false;
                    }
                }
            } else {
                eprintln!(
                    "    ANALYSIS.md is stale: regenerate with `cargo xtask analyze --write`"
                );
                ok = false;
            }
        } else {
            println!("    ANALYSIS.md is current");
        }
    }

    println!("==> xtask analyze: rejection demo");
    let (rejected, _) = run_analyzer(&root, &["--reject-demo"]);
    ok &= rejected;

    if ok {
        println!("xtask analyze: all static passes green");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze: FAILED");
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <lint [--list-allows] | analyze [--write]>\n\
         \n\
         lint                run the source-level lint pass\n\
         lint --list-allows  print every lint:allow suppression with its reason\n\
         analyze             full static-analysis gate (lint, paper table,\n\
         \x20                   communication and determinism, ANALYSIS.md\n\
         \x20                   staleness, rejection demo)\n\
         analyze --write     same, but refresh ANALYSIS.md instead of failing"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match args.get(1).map(String::as_str) {
            None => lint(),
            Some("--list-allows") => list_allows(),
            Some(_) => usage(),
        },
        Some("analyze") => match args.get(1).map(String::as_str) {
            None => analyze(false),
            Some("--write") => analyze(true),
            Some(_) => usage(),
        },
        _ => usage(),
    }
}
