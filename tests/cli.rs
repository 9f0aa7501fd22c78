//! End-to-end checks of the `vcache` binary's command-line surface: a
//! typo'd flag fails naming the flag, and a reader that closes the pipe
//! early (`vcache analyze … | head -1`) ends the command with exit 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_vcache");

#[test]
fn closing_stdout_after_one_line_exits_zero() {
    let dir = std::env::temp_dir().join(format!("vcache-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let trace = trace.to_str().unwrap();
    let simulate = Command::new(BIN)
        .args(["simulate", "--cache", "direct:64", "--stride", "8"])
        .args(["--length", "8192", "--trace", trace])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(simulate.success());

    // `--window 1` prints one timeline row per access, over a megabyte
    // in all: far more than a pipe buffers, so the writer must meet the
    // closed pipe rather than finish into the buffer.
    let mut child = Command::new(BIN)
        .args(["analyze", "--trace", trace, "--window", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.contains("events from"), "{first}");
    drop(stdout);
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_typo_in_a_flag_fails_naming_it() {
    let output = Command::new(BIN)
        .args(["plan-fft", "--points", "1024", "--exponnent", "7"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "planned despite the typo");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("`--exponnent`"), "{stderr}");
}
