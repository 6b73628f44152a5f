//! Kill-and-reexec durability test: a real process crash (abort, no
//! cleanup) followed by a real process restart must resume both a PARAFAC
//! and a Tucker pipeline bit-identically from the durable block store.
//!
//! The heavy lifting lives in `haten2_chaos::restart`; this test drives
//! the `haten2-restart` orchestrator binary, which re-execs itself for
//! the victim and resume phases so each phase is a separate OS process.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

#[test]
fn kill_and_reexec_resumes_bit_identical() {
    let dir = std::env::temp_dir().join(format!("haten2-restart-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let exe = env!("CARGO_BIN_EXE_haten2-restart");
    let out = std::process::Command::new(exe)
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("haten2-restart must spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "kill-and-reexec scenario failed ({:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    // Both pipelines must have been certified, each by an actual restart.
    for decomp in ["parafac", "tucker"] {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(decomp) && l.ends_with("identical")),
            "no identical verdict for {decomp}:\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
