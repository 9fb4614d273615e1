//! The CLI's stdout contract when the reader goes away early.
//!
//! `faircrowd audit | head -1` closes the pipe after one line. The
//! process must then end quietly, as a SIGPIPE'd tool would, instead
//! of panicking with exit status 101.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_process_quietly() {
    // Close the read end before the child starts, so its first write
    // meets a closed pipe however fast it runs.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_faircrowd"))
        .args(["audit", "--rounds", "2"])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn closed_stdout_keeps_a_usage_error_a_failure() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_faircrowd"))
        .args(["export", "--sacle", "4", "--out", "never-written.jsonl"])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown flag `--sacle`"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
}
