//! Smoke tests for the `haten2-exp` experiment binary.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use std::process::Command;

fn exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_haten2-exp"))
}

#[test]
fn table2_prints_method_matrix() {
    let out = exp().args(["table2"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("Table II"));
    assert!(text.contains("HaTen2-DRI"));
    assert!(text.contains("Yes"));
}

#[test]
fn tiny_cost_tables_run_fast_and_match() {
    let out = exp().args(["table3", "--tiny"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("Table III"));
    // Measured and analytic job columns are printed for all variants.
    for v in ["HaTen2-Naive", "HaTen2-DNN", "HaTen2-DRN", "HaTen2-DRI"] {
        assert!(text.contains(v), "{v} missing");
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    let out = exp().args(["figzz"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn csv_flag_writes_files() {
    let dir = std::env::temp_dir().join(format!("haten2_exp_cli_csv-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = exp().args(["table2", "--csv"]).arg(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 1);
    let content = std::fs::read_to_string(files[0].as_ref().unwrap().path()).unwrap();
    assert!(content.starts_with("Method,"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lemma3_ratios_parse_below_one() {
    let out = exp().args(["lemma3", "--tiny"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("Lemma 3"));
    // Ratio column values are in (0, 1].
    for line in text.lines().skip(3) {
        if let Some(last) = line.split_whitespace().last() {
            if let Ok(ratio) = last.parse::<f64>() {
                assert!(ratio > 0.0 && ratio <= 1.0 + 1e-9, "ratio {ratio}");
            }
        }
    }
}
