//! Out-of-process chaos tests for the analysis daemon: a fault-injected
//! soak (panics, delays, torn writes) that the retrying client must ride
//! out, a byte-identity check between local and remote `check --nests
//! --json`, and a SIGTERM drain. These drive the real `vcache` binary,
//! not an in-process server, so they also cover the CLI wiring and
//! signal handling.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use prime_cache::check::{AffineRef, LoopNest, Term};
use prime_cache::serve::{Client, ClientError, RetryPolicy};
use prime_cache::trace::SpanRecord;
use serde::{Serialize, Value};

const BIN: &str = env!("CARGO_BIN_EXE_vcache");

struct Daemon {
    child: Child,
    addr: String,
    /// Drains the daemon's stderr from the moment it spawns: with
    /// `--slow-ms` armed the soak emits hundreds of slow-request lines,
    /// and an unread pipe would fill and deadlock the daemon mid-test.
    stderr_drain: thread::JoinHandle<String>,
}

impl Daemon {
    /// Spawns `vcache serve` with the given extra args and scrapes the
    /// ephemeral address from its `listening on <addr>` banner.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut stderr_pipe = child.stderr.take().expect("daemon stderr");
        let stderr_drain = thread::spawn(move || {
            let mut buffer = String::new();
            let _ = stderr_pipe.read_to_string(&mut buffer);
            buffer
        });
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stderr_drain,
        }
    }

    fn client(&self, attempts: u32) -> Client {
        Client::with_policy(
            self.addr.clone(),
            RetryPolicy {
                max_attempts: attempts,
                base: Duration::from_millis(10),
                cap: Duration::from_millis(250),
                seed: 0xc4a05,
            },
        )
    }

    /// Waits (bounded) for the daemon to exit on its own; returns the
    /// exit status and everything it wrote to stderr.
    fn wait_exit(mut self, timeout: Duration) -> (ExitStatus, String) {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(_) => break,
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not exit within {timeout:?}");
                }
                None => thread::sleep(Duration::from_millis(25)),
            }
        }
        let status = self.child.wait().expect("wait");
        let stderr = self.stderr_drain.join().expect("stderr drain thread");
        (status, stderr)
    }

    /// SIGTERMs the daemon, then waits for the drain.
    fn sigterm_and_wait(self) -> (ExitStatus, String) {
        let pid = self.child.id().to_string();
        let kill = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(kill.success(), "kill -TERM failed");
        self.wait_exit(Duration::from_secs(30))
    }
}

/// Params for a small but real worker-pool op (the canonical nest suite
/// would be slow under a 500-request soak; a single fast nest is not).
fn nest_params() -> Value {
    let nest = LoopNest::new(
        "soak",
        vec![AffineRef::new(0, vec![Term { coeff: 1, trip: 64 }], 0)],
    );
    Value::Obj(vec![
        ("nest".into(), nest.to_value()),
        (
            "geometry".into(),
            Value::Obj(vec![
                ("kind".into(), Value::Str("prime".into())),
                ("exponent".into(), Value::U64(5)),
                ("line_words".into(), Value::U64(8)),
            ]),
        ),
    ])
}

/// Looks up a counter inside a `status` result's metrics snapshot.
fn counter(status: &Value, name: &str) -> u64 {
    let Some(Value::Arr(counters)) = status
        .get("metrics")
        .and_then(|metrics| metrics.get("counters"))
    else {
        panic!("status without counters: {status:?}");
    };
    counters
        .iter()
        .find(|c| matches!(c.get("name"), Some(Value::Str(s)) if s == name))
        .map_or(0, |c| match c.get("value") {
            Some(Value::U64(v)) => *v,
            other => panic!("counter {name} has non-u64 value {other:?}"),
        })
}

#[test]
fn chaos_soak_every_request_resolves_and_sigterm_drains() {
    // Panics, delays, and torn writes all armed. Torn writes surface to
    // clients as transport EOF, so retries (on fresh connections) are
    // what makes the soak converge — exactly the claim under test.
    // Spans are exported so the drain can audit one complete tree per
    // accepted request; --slow-ms 1 makes the injected 10ms delays
    // surface as structured slow_request lines.
    let span_path =
        std::env::temp_dir().join(format!("vcache-chaos-spans-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&span_path);
    // `--cache 0`: this soak repeats one nest, and the span audit below
    // insists every ok analyze_nest tree shows queue_wait + worker
    // attribution — verdict-cache hits legitimately skip both. The
    // cache's own properties live in crates/serve/tests/cache_props.rs.
    let daemon = Daemon::spawn(&[
        "--workers",
        "4",
        "--queue",
        "32",
        "--cache",
        "0",
        "--faults",
        "seed=11,panic=0.15,delay=0.2:10,torn=0.08",
        "--spans",
        span_path.to_str().expect("utf-8 temp path"),
        "--slow-ms",
        "1",
    ]);

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 125; // 500 requests total

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = daemon.client(12);
            thread::spawn(move || {
                let (mut ok, mut typed) = (0u32, 0u32);
                for i in 0..PER_CLIENT {
                    // Mix control-plane and worker-pool ops; op choice is
                    // deterministic per (client, iteration).
                    let result = match (c + i) % 3 {
                        0 => client.call("ping", Value::Null, Some(5_000)),
                        1 => client.call("status", Value::Null, Some(5_000)),
                        _ => client.call("analyze_nest", nest_params(), Some(5_000)),
                    };
                    match result {
                        Ok(_) => ok += 1,
                        // A typed server error is a well-formed outcome:
                        // the request resolved to exactly one response.
                        Err(ClientError::Server(_)) => typed += 1,
                        Err(other) => {
                            panic!("client {c} request {i}: untyped failure {other}")
                        }
                    }
                }
                (ok, typed)
            })
        })
        .collect();

    let mut total_ok = 0u32;
    let mut total_typed = 0u32;
    for w in workers {
        let (ok, typed) = w.join().expect("client thread");
        total_ok += ok;
        total_typed += typed;
    }
    assert_eq!(total_ok + total_typed, (CLIENTS * PER_CLIENT) as u32);
    // With panic=0.15 armed on the worker pool, some analyze_nest calls
    // MUST have resolved as typed internal errors...
    assert!(total_typed > 0, "fault plan never fired");
    // ...and plenty must still have succeeded.
    assert!(total_ok > 0, "no request ever succeeded");

    // The daemon survived all of it.
    let mut daemon = daemon;
    assert!(
        daemon.child.try_wait().expect("try_wait").is_none(),
        "daemon exited during the soak"
    );

    // Crash isolation is observable: workers caught injected panics.
    let status = daemon
        .client(12)
        .call("status", Value::Null, Some(5_000))
        .expect("status after soak");
    let panics = counter(&status, "serve.panics_caught");
    assert!(panics > 0, "no panics caught: {status:?}");

    // SIGTERM drains: exit code 0 and a final metrics snapshot.
    let (exit, stderr) = daemon.sigterm_and_wait();
    assert!(exit.success(), "drain exited nonzero: {exit:?}\n{stderr}");
    assert!(
        stderr.contains("final metrics"),
        "no final snapshot in stderr: {stderr}"
    );
    assert!(
        stderr.contains("serve.panics_caught"),
        "snapshot lacks panic counter: {stderr}"
    );
    // The injected 10ms delays crossed the 1ms threshold, so the drain
    // left structured slow-request lines behind.
    assert!(
        stderr.contains("{\"slow_request\":{\"op\":"),
        "no structured slow_request log in stderr: {stderr}"
    );

    audit_span_trees(&span_path, &stderr);
    let _ = std::fs::remove_file(&span_path);
}

/// The span-tree audit run over the chaos soak's export: every accepted
/// request — shed, panicked, delayed, or clean — must have left exactly
/// one *complete* span tree behind (DESIGN.md §8).
fn audit_span_trees(span_path: &std::path::Path, final_stderr: &str) {
    use std::collections::HashMap;

    let text = std::fs::read_to_string(span_path).expect("read span export");
    let spans: Vec<SpanRecord> = text
        .lines()
        .map(|line| {
            SpanRecord::from_jsonl(line)
                .unwrap_or_else(|e| panic!("unparseable span line {line:?}: {e}"))
        })
        .collect();
    assert!(!spans.is_empty(), "soak produced no spans");

    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "duplicate span ids in export");

    let mut roots = 0u64;
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for span in &spans {
        // Completeness: a span that reached the export was *finished* —
        // the Drop fallback would have stamped it "abandoned".
        assert_ne!(
            span.status, "abandoned",
            "unclosed span leaked into the export: {span}"
        );
        match span.parent {
            None => {
                roots += 1;
                assert!(
                    span.req_id.is_some(),
                    "root span without a wire correlation id: {span}"
                );
                assert!(
                    span.label == "malformed" || span.digest.is_some(),
                    "root span without a canonical digest: {span}"
                );
            }
            Some(parent) => {
                let parent = by_id
                    .get(&parent)
                    .unwrap_or_else(|| panic!("orphan span (parent missing): {span}"));
                assert_eq!(
                    parent.request, span.request,
                    "span crossed request trees: {span} under {parent}"
                );
                children.entry(parent.span).or_default().push(span);
            }
        }
    }

    // One root per accepted request: the server counts `serve.requests`
    // once per non-empty line, and every such line mints a root span.
    let requests = final_snapshot_counter(final_stderr, "serve.requests");
    assert_eq!(
        roots, requests,
        "span roots disagree with serve.requests ({roots} vs {requests})"
    );

    // Attribution: children fit inside their parent's recorded wall
    // time. Starts and durations come from one monotonic epoch, so the
    // slack only covers microsecond rounding at both ends.
    const SLACK_US: u64 = 50;
    for (parent_id, kids) in &children {
        let parent = by_id[parent_id];
        let parent_end = parent.start_us + parent.dur_us;
        let mut kid_sum = 0u64;
        for kid in kids {
            assert!(
                kid.start_us + SLACK_US >= parent.start_us
                    && kid.start_us + kid.dur_us <= parent_end + SLACK_US,
                "child span escapes its parent's window: {kid} under {parent}"
            );
            kid_sum += kid.dur_us;
        }
        // Siblings never overlap (queue wait precedes the worker; phases
        // nest), so their durations also sum within the parent's.
        assert!(
            kid_sum <= parent.dur_us + SLACK_US * kids.len() as u64,
            "children of span {parent_id} sum to {kid_sum}us > parent {}us",
            parent.dur_us
        );
    }

    // The soak's specific shapes all occurred: queue waits and worker
    // execution for pool ops, analyzer phases under workers, inline
    // handlers for control-plane ops, and spans finished by the panic
    // path (crash isolation is visible in the trace).
    let label_count = |label: &str| spans.iter().filter(|s| s.label == label).count();
    assert!(label_count("queue_wait") > 0, "no queue_wait spans");
    assert!(label_count("worker") > 0, "no worker spans");
    assert!(label_count("handler") > 0, "no inline handler spans");
    assert!(
        label_count("lineset") > 0 && label_count("rules") > 0,
        "no analyzer phase spans under the workers"
    );
    assert!(
        spans.iter().any(|s| s.status == "panic"),
        "injected panics left no panic-status spans"
    );
    // Every ok analyze_nest tree has both queue and worker attribution.
    for root in spans
        .iter()
        .filter(|s| s.is_root() && s.label == "analyze_nest" && s.status == "ok")
    {
        let kids = &children[&root.span];
        for want in ["queue_wait", "worker"] {
            assert!(
                kids.iter().any(|k| k.label == want),
                "ok analyze_nest tree lacks a {want} child: {root}"
            );
        }
    }
}

/// Pulls one counter out of the `final metrics` JSON snapshot the daemon
/// prints to stderr on drain.
fn final_snapshot_counter(stderr: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = stderr
        .find(&needle)
        .unwrap_or_else(|| panic!("no {name} in final snapshot: {stderr}"));
    stderr[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad {name} value in final snapshot: {e}"))
}

#[test]
fn remote_check_json_is_byte_identical_to_local() {
    let local = Command::new(BIN)
        .args(["check", "--nests", "--json"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("local check");

    let daemon = Daemon::spawn(&[]);
    let remote = Command::new(BIN)
        .args([
            "client",
            "check",
            "--nests",
            "--json",
            "--addr",
            &daemon.addr,
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("remote check");

    assert_eq!(
        local.status.code(),
        remote.status.code(),
        "exit codes differ: local stderr {:?}, remote stderr {:?}",
        String::from_utf8_lossy(&local.stderr),
        String::from_utf8_lossy(&remote.stderr)
    );
    assert_eq!(local.status.code(), Some(0), "canonical nest suite dirty");
    assert!(
        local.stdout == remote.stdout,
        "local and remote --json reports differ:\nlocal:  {}\nremote: {}",
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout)
    );

    // `client shutdown` stops the daemon cleanly (and is never retried).
    let stop = Command::new(BIN)
        .args(["client", "shutdown", "--addr", &daemon.addr])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("client shutdown");
    assert!(
        stop.status.success(),
        "client shutdown failed: {}",
        String::from_utf8_lossy(&stop.stderr)
    );
    let (exit, stderr) = daemon.wait_exit(Duration::from_secs(30));
    assert!(exit.success(), "shutdown drain exited nonzero:\n{stderr}");
}
