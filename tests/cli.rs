//! End-to-end tests of the `haten2-cli` binary: generate → stats →
//! decompose → verify the written artifacts.

// Test code: `unwrap` is the assertion (allowed by the workspace clippy
// policy only here).
#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_haten2-cli"))
}

/// A fresh pid-unique directory; the test removes it when it is done.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haten2_cli_tests-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_stats_decompose_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let tns = dir.join("x.tns");

    // generate random
    let out = cli()
        .args([
            "generate", "random", "--dims", "30,30,30", "--nnz", "300", "--seed", "7", "--out",
        ])
        .arg(&tns)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("300 nonzeros"));

    // stats
    let out = cli().args(["stats", "--input"]).arg(&tns).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("nnz:       300"));
    assert!(text.contains("density"));

    // decompose parafac
    let prefix = dir.join("cp");
    let out = cli()
        .args(["decompose", "parafac", "--input"])
        .arg(&tns)
        .args([
            "--rank",
            "3",
            "--iters",
            "3",
            "--machines",
            "4",
            "--out-prefix",
        ])
        .arg(&prefix)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("PARAFAC rank 3"));
    assert!(text.contains("mapreduce:"));

    // written artifacts load back with the right shapes
    for name in ["A", "B", "C"] {
        let m = haten2::linalg::load_mat(format!("{}.{name}.mat", prefix.display())).unwrap();
        assert_eq!(m.shape(), (30, 3), "{name}");
    }
    let lambda = std::fs::read_to_string(format!("{}.lambda.txt", prefix.display())).unwrap();
    assert_eq!(lambda.trim().lines().count(), 3);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn decompose_tucker_writes_core() {
    let dir = tmp_dir("tucker");
    let tns = dir.join("x.tns");
    cli()
        .args([
            "generate", "random", "--dims", "20,20,20", "--nnz", "200", "--out",
        ])
        .arg(&tns)
        .status()
        .unwrap();
    let prefix = dir.join("tk");
    let out = cli()
        .args(["decompose", "tucker", "--input"])
        .arg(&tns)
        .args([
            "--core",
            "2,3,2",
            "--iters",
            "2",
            "--machines",
            "2",
            "--out-prefix",
        ])
        .arg(&prefix)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a = haten2::linalg::load_mat(format!("{}.A.mat", prefix.display())).unwrap();
    assert_eq!(a.shape(), (20, 2));
    let b = haten2::linalg::load_mat(format!("{}.B.mat", prefix.display())).unwrap();
    assert_eq!(b.shape(), (20, 3));
    let core = haten2::tensor::io::load_coo3(format!("{}.core.tns", prefix.display())).unwrap();
    assert!(core.nnz() > 0);
    assert!(core.dims()[0] <= 2 && core.dims()[1] <= 3);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn generate_kb_and_nonneg_and_complete() {
    let dir = tmp_dir("kb");
    let tns = dir.join("kb.tns");
    let out = cli()
        .args([
            "generate",
            "kb",
            "--preset",
            "freebase-music",
            "--scale",
            "1",
            "--out",
        ])
        .arg(&tns)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("preprocessed"));

    let prefix = dir.join("nn");
    let out = cli()
        .args(["decompose", "parafac", "--input"])
        .arg(&tns)
        .args([
            "--rank",
            "2",
            "--iters",
            "2",
            "--machines",
            "2",
            "--nonneg",
            "--out-prefix",
        ])
        .arg(&prefix)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("nonnegative PARAFAC"));
    // Nonnegativity of written factors.
    let a = haten2::linalg::load_mat(format!("{}.A.mat", prefix.display())).unwrap();
    assert!(a.data().iter().all(|&v| v >= 0.0));

    let prefix = dir.join("em");
    let out = cli()
        .args(["complete", "--input"])
        .arg(&tns)
        .args([
            "--rank",
            "2",
            "--iters",
            "2",
            "--machines",
            "2",
            "--out-prefix",
        ])
        .arg(&prefix)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("EM-ALS completion"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn convert_triples_to_tensor() {
    let dir = tmp_dir("convert");
    let tsv = dir.join("kb.tsv");
    std::fs::write(
        &tsv,
        "alice\tknows\tbob\nbob\tknows\tcarol\n\
         alice\tlikes\tmusic\ncarol\tlikes\topera\n\
         alice\tns:type.object.name\t\"Alice\"\n",
    )
    .unwrap();
    let tns = dir.join("kb.tns");
    let out = cli()
        .args(["convert", "--triples"])
        .arg(&tsv)
        .args(["--order", "spo", "--out"])
        .arg(&tns)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("parsed 5 triples"), "{text}");
    assert!(text.contains("1 literal"), "{text}");
    // The literal triple is filtered by preprocessing; knows/likes survive.
    let t = haten2::tensor::io::load_coo3(&tns).unwrap();
    assert_eq!(t.nnz(), 4);

    // Unknown order rejected.
    let out = cli()
        .args(["convert", "--triples"])
        .arg(&tsv)
        .args(["--order", "xyz", "--out", "/tmp/never.tns"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn bad_usage_reports_errors() {
    let out = cli().args(["decompose", "parafac"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --input"));

    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = cli()
        .args([
            "generate",
            "random",
            "--dims",
            "1,2",
            "--nnz",
            "5",
            "--out",
            "/dev/null",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("three comma-separated"));

    let out = cli()
        .args(["stats", "--input", "/nonexistent/x.tns"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn variant_selection_works() {
    let dir = tmp_dir("variant");
    let tns = dir.join("x.tns");
    cli()
        .args([
            "generate", "random", "--dims", "15,15,15", "--nnz", "100", "--out",
        ])
        .arg(&tns)
        .status()
        .unwrap();
    for variant in ["naive", "dnn", "drn", "dri"] {
        let prefix = dir.join(variant);
        let out = cli()
            .args(["decompose", "parafac", "--input"])
            .arg(&tns)
            .args([
                "--rank",
                "2",
                "--iters",
                "1",
                "--machines",
                "2",
                "--variant",
                variant,
            ])
            .args(["--out-prefix"])
            .arg(&prefix)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{variant}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = cli()
        .args(["decompose", "parafac", "--input"])
        .arg(&tns)
        .args([
            "--rank",
            "2",
            "--variant",
            "bogus",
            "--out-prefix",
            "/tmp/x",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown variant"));
    std::fs::remove_dir_all(dir).unwrap();
}
