//! End-to-end checks of the `vcache` binary's command-line surface: a
//! typo'd or out-of-range flag fails naming the flag, a command that runs
//! and fails prints its error without the usage text, a cache too large
//! to simulate fails with a typed message instead of aborting, a source
//! scan that reads no file fails the gate, and a reader that closes the
//! pipe early (`vcache analyze … | head -1`) ends the command with exit 0.

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
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn a_command_that_fails_at_run_time_prints_no_usage() {
    let missing = std::env::temp_dir().join(format!("vcache-cli-missing-{}", std::process::id()));
    let missing = missing.join("t.jsonl");
    let missing = missing.to_str().unwrap();
    for (args, error) in [
        // Port 1 refuses at once.
        (
            &["client", "ping", "--addr", "127.0.0.1:1", "--attempts", "1"][..],
            "error: cannot connect to daemon at 127.0.0.1:1",
        ),
        (&["serve", "--addr", "noport"], "error: cannot bind"),
        (
            &["analyze", "--trace", missing],
            &*format!("error: cannot open {missing}"),
        ),
    ] {
        let (code, text) = run(args);
        assert_eq!(code, Some(1), "{args:?}: {text}");
        assert!(text.contains(error), "{args:?}: {text}");
        assert!(!text.contains("USAGE:"), "{args:?}: {text}");
    }
}

#[test]
fn a_cache_past_the_line_bound_fails_with_a_typed_message() {
    // 2^20 sets of 2^20 ways: the set count is in bound, the line count
    // (2^40) is not.
    let output = Command::new(BIN)
        .args(["simulate", "--cache", "assoc:1099511627776:1048576"])
        .args(["--stride", "1", "--length", "10"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("1099511627776 lines exceed the simulator's allocation bound of 268435456"),
        "{stderr}"
    );
}

/// Runs `vcache` with `args`; returns its exit code and its stdout
/// followed by its stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(BIN).args(args).output().unwrap();
    let text = [output.stdout, output.stderr].concat();
    (
        output.status.code(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

#[test]
fn out_of_range_flags_fail_naming_them() {
    for (args, named) in [
        (
            &["compare", "--tm", "32", "--pds", "2"][..],
            "--pds must be",
        ),
        (&["compare", "--tm", "32", "--pds", "nan"], "--pds must be"),
        (&["compare", "--tm", "0"], "--tm must be between 1 and 1024"),
        (
            &["compare", "--tm", "1025"],
            "--tm must be between 1 and 1024",
        ),
        (&["compare", "--tm", "99999999999"], "--tm must be"),
        (
            &["compare", "--tm", "32", "--blocking", "0"],
            "--blocking must be between 1 and 1048576",
        ),
        (
            &["compare", "--tm", "32", "--blocking", "99999999999"],
            "--blocking must be between 1 and 1048576",
        ),
        (
            &[
                "simulate", "--cache", "prime:13", "--stride", "8", "--length", "0",
            ],
            "--length must be at least 1, got 0",
        ),
        (
            &[
                "simulate", "--cache", "prime:13", "--stride", "8", "--length", "16", "--sweeps",
                "0",
            ],
            "--sweeps must be at least 1, got 0",
        ),
        (
            &["compare", "--tm", "32", "--pstride1", "-1"],
            "--pstride1 must be",
        ),
        // The address has no port, so a daemon that wrongly took its
        // flags would still fail at bind, before starting a thread.
        (
            &["serve", "--addr", "noport", "--workers", "0"],
            "--workers must be",
        ),
        (
            &["serve", "--addr", "noport", "--workers", "100000"],
            "--workers must be",
        ),
        (
            &["serve", "--addr", "noport", "--queue", "0"],
            "--queue must be",
        ),
        (
            &["serve", "--addr", "noport", "--deadline-ms", "0"],
            "--deadline-ms must be",
        ),
        // Port 1 refuses at once, so a client that wrongly took its flags
        // would fail at connect instead of hanging.
        (
            &[
                "client",
                "ping",
                "--addr",
                "127.0.0.1:1",
                "--deadline-ms",
                "0",
            ],
            "--deadline-ms must be at least 1, got 0",
        ),
        (
            &["client", "ping", "--addr", "127.0.0.1:1", "--attempts", "0"],
            "--attempts must be at least 1, got 0",
        ),
        (
            &["stat", "--addr", "127.0.0.1:1", "--attempts", "0"],
            "--attempts must be at least 1, got 0",
        ),
        (
            &[
                "client",
                "analyze",
                "--addr",
                "127.0.0.1:1",
                "--trace",
                "t.jsonl",
                "--window",
                "0",
            ],
            "--window must be at least 1, got 0",
        ),
    ] {
        let (code, text) = run(args);
        assert_eq!(code, Some(1), "{args:?}: {text}");
        assert!(text.contains(named), "{args:?}: {text}");
    }
}

#[test]
fn a_source_scan_that_reads_nothing_fails() {
    let dir = std::env::temp_dir().join(format!("vcache-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (code, text) = run(&["check", "--src", "--root", dir.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("VC107 check:src"), "{text}");
}
