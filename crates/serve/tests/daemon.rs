//! In-process integration tests for the daemon: deadlines, crash
//! isolation, backpressure, graceful drain, and the client's retry rules
//! over a torn transport.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};
use vcache_check::{AffineRef, LoopNest, Term, MAX_PAD_BOUND};
use vcache_serve::protocol::{ErrorCode, GeometrySpec, Request, Response};
use vcache_serve::{Client, ClientError, FaultPlan, RetryPolicy, Server, ServerConfig};

/// Boots a daemon on an ephemeral port; returns (addr, shutdown handle,
/// metrics, runner join handle).
fn boot(
    config: ServerConfig,
) -> (
    String,
    vcache_serve::ShutdownHandle,
    vcache_trace::SharedMetrics,
    thread::JoinHandle<vcache_trace::MetricsSnapshot>,
) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let metrics = server.metrics();
    let runner = thread::spawn(move || server.run().unwrap());
    (addr, handle, metrics, runner)
}

/// One raw request/response exchange over a fresh TCP connection, no
/// retries — for asserting on exact single responses.
fn raw_call(addr: &str, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut line = request.to_json();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    Response::from_json(response.trim_end()).unwrap()
}

fn nest_params(nest: &LoopNest, deadline_ms: Option<u64>) -> Request {
    let mut request = Request::new(42, "analyze_nest");
    request.params = Value::Obj(vec![
        ("nest".to_string(), nest.to_value()),
        (
            "geometry".to_string(),
            Value::Obj(vec![
                ("kind".to_string(), Value::Str("pow2".into())),
                ("sets".to_string(), Value::U64(32)),
                ("line_words".to_string(), Value::U64(8)),
            ]),
        ),
    ]);
    request.deadline_ms = deadline_ms;
    request
}

/// A Lattice-shaped nest whose exact enumeration walks 2^24 steps —
/// hundreds of milliseconds of work, beyond a short deadline. Four
/// odd-stride dimensions overflow the relational domain's class-split
/// cap (8·8·8·2 classes > MAX_CLASSES), so it genuinely falls back.
fn slow_nest() -> LoopNest {
    LoopNest::new(
        "slow",
        vec![AffineRef::new(
            0,
            vec![
                Term {
                    coeff: 3,
                    trip: 1 << 17,
                },
                Term { coeff: 5, trip: 8 },
                Term { coeff: 7, trip: 8 },
                Term { coeff: 9, trip: 2 },
            ],
            0,
        )],
    )
}

/// A trivially fast nest.
fn fast_nest() -> LoopNest {
    LoopNest::new(
        "fast",
        vec![AffineRef::new(0, vec![Term { coeff: 1, trip: 16 }], 0)],
    )
}

#[test]
fn deadline_exceeded_is_typed_and_the_worker_stays_usable() {
    let (addr, handle, metrics, runner) = boot(ServerConfig {
        workers: 1, // one worker: the second request reuses the survivor
        ..ServerConfig::default()
    });

    let started = Instant::now();
    let response = raw_call(&addr, &nest_params(&slow_nest(), Some(200)));
    let elapsed = started.elapsed();
    match response.outcome {
        Err(body) => {
            assert_eq!(body.code, ErrorCode::DeadlineExceeded, "{}", body.message);
        }
        Ok(v) => panic!("expected deadline_exceeded, got success: {v:?}"),
    }
    // Cancellation is cooperative (polled every enumeration quantum), so
    // the response lands promptly instead of after the full walk. The
    // generous bound absorbs debug-build and CI noise; the typed error
    // above is the real proof the budget hook fired.
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline response took {elapsed:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(150),
        "cancelled before the deadline: {elapsed:?}"
    );

    // The same (sole) worker serves the next request.
    let response = raw_call(&addr, &nest_params(&fast_nest(), Some(5_000)));
    let result = response.outcome.expect("fast nest should analyze");
    let analysis = result.get("analysis").expect("analysis in result");
    assert!(analysis.get("verdict").is_some());

    // The successful analysis registers the enumeration-freedom counter;
    // the relational domain decides the fast nest without materializing
    // lines, so it must read zero.
    let snapshot = metrics.snapshot();
    assert!(
        snapshot
            .counters
            .iter()
            .any(|c| c.name == "serve.enumerated_lines"),
        "serve.enumerated_lines counter not registered"
    );
    assert_eq!(snapshot.counter("serve.enumerated_lines"), 0);

    handle.trigger();
    runner.join().unwrap();
}

/// Twelve references, each walking three odd strides over two rows 8300
/// lines apart, bases a million words apart, under the 8191-set prime
/// mapper. No reference's congruence split overflows, so the relational
/// domain decides every component without enumerating — yet the 78
/// components take seconds together, and only the poll before each
/// component's decision can see a deadline.
fn symbolic_slow_nest() -> LoopNest {
    let refs = (0..12u32)
        .map(|i| {
            let terms = [(3, 20), (5, 24), (7, 24), (66_400, 2)]
                .map(|(coeff, trip)| Term { coeff, trip })
                .to_vec();
            AffineRef::new(u64::from(i) * 1_000_000, terms, i)
        })
        .collect();
    LoopNest::new("symbolic-slow", refs)
}

#[test]
fn deadline_holds_when_every_component_decides_symbolically() {
    let nest = symbolic_slow_nest();
    assert!(nest
        .refs
        .iter()
        .all(|r| vcache_check::relational::class_lattices(r, 8).is_ok()));
    let (addr, handle, _metrics, runner) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut request = Request::new(43, "analyze_nest");
    request.params = Value::Obj(vec![
        ("nest".to_string(), nest.to_value()),
        (
            "geometry".to_string(),
            Value::Obj(vec![
                ("kind".to_string(), Value::Str("prime".into())),
                ("exponent".to_string(), Value::U64(13)),
                ("line_words".to_string(), Value::U64(8)),
            ]),
        ),
    ]);
    request.deadline_ms = Some(50);
    let started = Instant::now();
    let response = raw_call(&addr, &request);
    let elapsed = started.elapsed();
    match response.outcome {
        Err(body) => {
            assert_eq!(body.code, ErrorCode::DeadlineExceeded, "{}", body.message);
        }
        Ok(v) => panic!("expected deadline_exceeded, got success: {v:?}"),
    }
    // The abort comes within one component's decision of the deadline,
    // not after the whole nest.
    assert!(
        elapsed < Duration::from_secs(1),
        "deadline response took {elapsed:?}"
    );
    handle.trigger();
    runner.join().unwrap();
}

#[test]
fn panicking_handlers_yield_typed_errors_and_the_pool_survives() {
    let plan = FaultPlan::parse("seed=3,panic=1.0").unwrap();
    let (addr, handle, metrics, runner) = boot(ServerConfig {
        workers: 2,
        fault_plan: plan,
        ..ServerConfig::default()
    });

    // Every worker op panics; each must still resolve to exactly one
    // typed internal_error — six in a row proves the workers survive
    // their own crashes (dead workers would leave requests hanging).
    for _ in 0..6 {
        let response = raw_call(&addr, &nest_params(&fast_nest(), None));
        match response.outcome {
            Err(body) => assert_eq!(body.code, ErrorCode::InternalError, "{}", body.message),
            Ok(v) => panic!("expected internal_error, got {v:?}"),
        }
    }
    assert!(metrics.counter_value("serve.panics_caught") >= 6);

    // Control-plane ops bypass the worker pool and still succeed.
    let response = raw_call(&addr, &Request::new(1, "ping"));
    assert!(response.outcome.is_ok());

    handle.trigger();
    let snapshot = runner.join().unwrap();
    assert!(snapshot.counter("serve.panics_caught") >= 6);
}

#[test]
fn saturated_queue_sheds_with_a_retry_after_hint() {
    let plan = FaultPlan::parse("seed=1,delay=1.0:600").unwrap();
    let (addr, handle, metrics, runner) = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 75,
        fault_plan: plan,
        ..ServerConfig::default()
    });

    // First request occupies the only worker (600 ms injected delay),
    // second fills the queue, third must be shed immediately.
    let spawn_req = |addr: String, settle_ms: u64| {
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(settle_ms));
            raw_call(&addr, &nest_params(&fast_nest(), Some(5_000)))
        })
    };
    let a = spawn_req(addr.clone(), 0);
    let b = spawn_req(addr.clone(), 150);
    let c = spawn_req(addr.clone(), 300);

    let shed = c.join().unwrap();
    match shed.outcome {
        Err(body) => {
            assert_eq!(body.code, ErrorCode::Overloaded, "{}", body.message);
            assert_eq!(body.retry_after_ms, Some(75));
        }
        Ok(v) => panic!("expected overloaded, got {v:?}"),
    }
    // The occupant and the queued request both complete normally.
    assert!(a.join().unwrap().outcome.is_ok());
    assert!(b.join().unwrap().outcome.is_ok());
    assert!(metrics.counter_value("serve.sheds") >= 1);

    handle.trigger();
    runner.join().unwrap();
}

#[test]
fn retrying_client_rides_out_sheds_and_honors_retry_after() {
    let plan = FaultPlan::parse("seed=5,delay=1.0:400").unwrap();
    let (addr, handle, _metrics, runner) = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 100,
        fault_plan: plan,
        ..ServerConfig::default()
    });

    // Saturate: one in the worker, one in the queue.
    let occupants: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(50 * i));
                raw_call(&addr, &nest_params(&fast_nest(), Some(10_000)))
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(200));

    // A retrying client gets shed, backs off per the hint, and lands
    // once the injected delays clear.
    let mut client = Client::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(500),
            seed: 7,
        },
    );
    let request_params = nest_params(&fast_nest(), Some(10_000)).params;
    let result = client
        .call("analyze_nest", request_params, Some(10_000))
        .expect("retrying client should eventually succeed");
    assert!(result.get("analysis").is_some());

    for occupant in occupants {
        assert!(occupant.join().unwrap().outcome.is_ok());
    }
    handle.trigger();
    runner.join().unwrap();
}

#[test]
fn graceful_drain_finishes_in_flight_work() {
    let plan = FaultPlan::parse("seed=2,delay=1.0:400").unwrap();
    let (addr, handle, _metrics, runner) = boot(ServerConfig {
        workers: 1,
        fault_plan: plan,
        ..ServerConfig::default()
    });

    // Put a slow request in flight, then trigger shutdown behind it.
    let in_flight = {
        let addr = addr.clone();
        thread::spawn(move || raw_call(&addr, &nest_params(&fast_nest(), Some(10_000))))
    };
    thread::sleep(Duration::from_millis(150));
    handle.trigger();

    // The in-flight request still resolves successfully: drain, not drop.
    assert!(in_flight.join().unwrap().outcome.is_ok());
    let snapshot = runner.join().unwrap();
    assert!(snapshot.counter("serve.responses_ok") >= 1);

    // After drain, the daemon is gone: connections fail outright.
    thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect(&addr).is_err());
}

#[test]
fn a_torn_transport_resends_only_idempotent_ops() {
    let (addr, _handle, metrics, runner) = boot(ServerConfig {
        fault_plan: FaultPlan::parse("seed=1,torn=1.0").unwrap(),
        ..ServerConfig::default()
    });
    let mut client = Client::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 3,
        },
    );

    // Every response is torn. `ping` is a pure read: each of its three
    // attempts sends it again, each on a fresh connection.
    let err = client.call("ping", Value::Null, None).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "got {err}");
    assert_eq!(metrics.counter_value("serve.requests"), 3);
    assert_eq!(metrics.counter_value("serve.connections"), 3);

    // `shutdown` may have landed, so it is never sent twice. It did land:
    // the daemon drains.
    let err = client.call("shutdown", Value::Null, None).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "got {err}");
    let snapshot = runner.join().unwrap();
    assert_eq!(snapshot.counter("serve.requests"), 4);
    assert_eq!(snapshot.counter("serve.connections"), 4);
}

#[test]
fn malformed_and_unknown_requests_get_bad_request() {
    let (addr, handle, _metrics, runner) = boot(ServerConfig::default());

    // Not JSON at all.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Response::from_json(line.trim_end()).unwrap();
    match response.outcome {
        Err(body) => assert_eq!(body.code, ErrorCode::BadRequest),
        Ok(v) => panic!("expected bad_request, got {v:?}"),
    }

    // Valid envelope, unknown op — same connection still works.
    let response = raw_call(&addr, &Request::new(5, "transmogrify"));
    match response.outcome {
        Err(body) => {
            assert_eq!(body.code, ErrorCode::BadRequest);
            assert!(body.message.contains("transmogrify"));
        }
        Ok(v) => panic!("expected bad_request, got {v:?}"),
    }

    handle.trigger();
    runner.join().unwrap();
}

#[test]
fn a_deeply_nested_line_gets_bad_request_and_the_daemon_keeps_serving() {
    let (addr, handle, _metrics, runner) = boot(ServerConfig::default());

    // One line of 10,000 `[`: the parser refuses it at its recursion
    // limit instead of overflowing the connection thread's stack.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut hostile = "[".repeat(10_000);
    hostile.push('\n');
    stream.write_all(hostile.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::from_json(line.trim_end()).unwrap().outcome {
        Err(body) => {
            assert_eq!(body.code, ErrorCode::BadRequest);
            assert!(
                body.message.contains("recursion limit exceeded"),
                "{}",
                body.message
            );
        }
        Ok(v) => panic!("expected bad_request, got {v:?}"),
    }

    // The same connection, and a fresh one, still get answers.
    let mut ping = Request::new(8, "ping").to_json();
    ping.push('\n');
    stream.write_all(ping.as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let response = Response::from_json(line.trim_end()).unwrap();
    assert_eq!(response.id, 8);
    assert!(response.outcome.is_ok(), "{response:?}");
    assert!(raw_call(&addr, &Request::new(9, "ping")).outcome.is_ok());

    handle.trigger();
    runner.join().unwrap();
}

#[test]
fn span_export_yields_complete_trees_with_phase_attribution() {
    let dir = std::env::temp_dir().join(format!("vcache-daemon-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let span_path = dir.join("spans.jsonl");
    let (addr, handle, _metrics, runner) = boot(ServerConfig {
        workers: 1,
        span_path: Some(span_path.clone()),
        slow_request_ms: 0, // exercise the "disabled" setting
        ..ServerConfig::default()
    });

    // One cooperative cancellation, one clean analysis, one clean and
    // one cancelled plan, one inline op.
    let response = raw_call(&addr, &nest_params(&slow_nest(), Some(200)));
    assert_eq!(
        response.outcome.unwrap_err().code,
        ErrorCode::DeadlineExceeded
    );
    raw_call(&addr, &nest_params(&fast_nest(), Some(5_000)))
        .outcome
        .expect("fast nest should analyze");
    let mut planned = plan_params(&pow2_stride_nest(), pow2(8192, 8), None);
    planned.id = 11;
    let result = raw_call(&addr, &planned)
        .outcome
        .expect("stride nest should plan");
    let analyzed = match result.get("plan").and_then(|p| p.get("analyzed")) {
        Some(Value::U64(n)) => *n,
        other => panic!("no plan.analyzed in the result: {other:?}"),
    };
    let mut cancelled_plan = planner_slow_params();
    cancelled_plan.id = 12;
    assert_eq!(
        raw_call(&addr, &cancelled_plan).outcome.unwrap_err().code,
        ErrorCode::DeadlineExceeded
    );
    raw_call(&addr, &Request::new(1, "ping"))
        .outcome
        .expect("ping");
    // An op holding a control character: its root span's label is
    // exported with a `\u000d` escape that must read back.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"{\"id\":7,\"op\":\"a\\rb\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert_eq!(
        Response::from_json(line.trim_end())
            .unwrap()
            .outcome
            .unwrap_err()
            .code,
        ErrorCode::BadRequest
    );

    handle.trigger();
    runner.join().unwrap();

    let text = std::fs::read_to_string(&span_path).unwrap();
    let spans: Vec<vcache_trace::SpanRecord> = text
        .lines()
        .map(|l| vcache_trace::SpanRecord::from_jsonl(l).unwrap())
        .collect();

    assert!(
        spans.iter().any(|s| s.is_root() && s.label == "a\rb"),
        "{text}"
    );

    // Complete trees: every span finished (no Drop-fallback statuses),
    // every parent present in the same tree.
    for span in &spans {
        assert_ne!(span.status, "abandoned", "unclosed span: {span}");
        assert_ne!(span.status, "panic", "panicked span: {span}");
        if let Some(parent) = span.parent {
            let parent = spans
                .iter()
                .find(|s| s.span == parent)
                .unwrap_or_else(|| panic!("orphan span: {span}"));
            assert_eq!(parent.request, span.request, "tree crossed: {span}");
        }
    }

    // The cancelled request: worker closed with the typed outcome, the
    // phase that finished closed `ok`, and the enumeration the deadline
    // interrupted closed `cancelled`.
    let cancelled_root = spans
        .iter()
        .find(|s| s.is_root() && s.status == "deadline_exceeded" && s.req_id == Some(42))
        .expect("cancelled analyze_nest root");
    let status_in_tree = |label: &str| {
        spans
            .iter()
            .find(|s| s.request == cancelled_root.request && s.label == label)
            .map(|s| s.status.as_str())
    };
    assert_eq!(status_in_tree("queue_wait"), Some("ok"), "{text}");
    assert_eq!(
        status_in_tree("worker"),
        Some("deadline_exceeded"),
        "{text}"
    );
    assert_eq!(status_in_tree("rules"), Some("ok"), "{text}");
    assert_eq!(status_in_tree("enumerate"), Some("cancelled"), "{text}");

    // The clean request carries analyzer phases under its worker span.
    let ok_root = spans
        .iter()
        .find(|s| s.is_root() && s.label == "analyze_nest" && s.status == "ok")
        .expect("clean analyze_nest root");
    assert!(
        spans
            .iter()
            .any(|s| s.request == ok_root.request && s.label == "lineset"),
        "{text}"
    );

    // A served plan: one child of `prescribe` per analyzed candidate, in
    // frontier order, named by its label and closed `ok`.
    let prescribe_of = |req_id: u64| {
        let root = spans
            .iter()
            .find(|s| s.is_root() && s.req_id == Some(req_id))
            .unwrap_or_else(|| panic!("no root for request {req_id}: {text}"));
        let prescribe = spans
            .iter()
            .find(|s| s.request == root.request && s.label == "prescribe")
            .unwrap_or_else(|| panic!("no prescribe span for request {req_id}: {text}"));
        let mut candidates: Vec<&vcache_trace::SpanRecord> = spans
            .iter()
            .filter(|s| s.parent == Some(prescribe.span))
            .collect();
        candidates.sort_by_key(|s| s.start_us);
        (root, prescribe, candidates)
    };
    let (root, prescribe, candidates) = prescribe_of(11);
    assert_eq!(
        (root.status.as_str(), prescribe.status.as_str()),
        ("ok", "ok")
    );
    let labels: Vec<(&str, &str)> = candidates
        .iter()
        .map(|s| (s.label.as_str(), s.status.as_str()))
        .collect();
    assert_eq!(
        labels,
        [
            ("shrink-r0d0", "ok"),
            ("switch-2^13", "ok"),
            ("switch-2^17", "ok"),
            ("switch-2^19", "ok")
        ]
    );
    assert_eq!(candidates.len() as u64, analyzed);

    // A plan the deadline cancelled: `prescribe` and the candidate it was
    // checking close `cancelled`; every earlier candidate closed `ok`.
    let (root, prescribe, candidates) = prescribe_of(12);
    assert_eq!(root.status, "deadline_exceeded");
    assert_eq!(prescribe.status, "cancelled");
    let (last, done) = candidates.split_last().expect("a candidate was checked");
    assert_eq!(last.status, "cancelled", "{text}");
    assert!(done.iter().all(|s| s.status == "ok"), "{text}");

    // Inline ops span too, without touching the queue.
    let ping_root = spans
        .iter()
        .find(|s| s.is_root() && s.label == "ping")
        .expect("ping root");
    assert!(ping_root.digest.is_some() && ping_root.req_id == Some(1));
    assert!(
        spans
            .iter()
            .any(|s| s.request == ping_root.request && s.label == "handler"),
        "{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds an `analyze_nest` request with the planner enabled and an
/// optional explicit padding frontier.
fn plan_params(nest: &LoopNest, geometry: GeometrySpec, max_pad: Option<u64>) -> Request {
    let mut request = Request::new(7, "analyze_nest");
    let mut params = vec![
        ("nest".to_string(), nest.to_value()),
        ("geometry".to_string(), geometry.to_value()),
        ("prescribe".to_string(), Value::Bool(true)),
    ];
    if let Some(pad) = max_pad {
        params.push(("max_pad".to_string(), Value::U64(pad)));
    }
    request.params = Value::Obj(params);
    request.deadline_ms = Some(30_000);
    request
}

fn pow2(sets: u64, line_words: u64) -> GeometrySpec {
    GeometrySpec::Pow2 { sets, line_words }
}

/// Four odd strides over 24 iterations with a leading dimension of 3,
/// under the 31-set prime mapper. Its analysis enumerates, but finishes
/// in milliseconds; planned with every padding up to [`MAX_PAD_BOUND`],
/// it checks 4,104 candidates, each enumerating, for over a minute. A
/// deadline of seconds therefore fires inside the planner.
fn planner_slow_params() -> Request {
    let terms = [3, 5, 7, 9].map(|coeff| Term { coeff, trip: 24 });
    let mut nest = LoopNest::new("planner-slow", vec![AffineRef::new(0, terms.to_vec(), 0)]);
    nest.leading_dim = Some(3);
    let geometry = GeometrySpec::Prime {
        exponent: 5,
        line_words: 8,
    };
    let mut request = plan_params(&nest, geometry, Some(MAX_PAD_BOUND));
    request.deadline_ms = Some(PLANNER_DEADLINE_MS);
    request
}

/// Deadline for [`planner_slow_params`]: the analysis takes about 6 ms in
/// release and 130 ms in debug builds, the plan over a minute.
const PLANNER_DEADLINE_MS: u64 = 2_000;

/// The Eq. 8 headline nest: one shrink site plus three viable geometry
/// switches under the 8192-set power-of-two mapper — a multi-kind
/// ranking, decided without enumerating.
fn pow2_stride_nest() -> LoopNest {
    LoopNest::new(
        "pow2-stride",
        vec![AffineRef::new(
            0,
            vec![Term {
                coeff: 4096,
                trip: 8191,
            }],
            0,
        )],
    )
}

/// A 256-word leading dimension walked in whole-row steps under a
/// 16-set × 16-word mapper: every padding δ < 16 leaves iterations 0
/// and 1 on the same set, so the cheapest repair (pad δ=16, cost 128)
/// sits beyond the daemon's old hardcoded frontier of 8 but well inside
/// [`DEFAULT_MAX_PAD`].
fn deep_pad_nest() -> LoopNest {
    let mut nest = LoopNest::new(
        "deep-pad",
        vec![AffineRef::new(
            0,
            vec![Term {
                coeff: 256,
                trip: 8,
            }],
            0,
        )],
    );
    nest.leading_dim = Some(256);
    nest
}

/// Regression for the daemon's padding-frontier default: it used to
/// hardcode `max_pad = 8` while the CLI used [`DEFAULT_MAX_PAD`] (64),
/// so the daemon silently prescribed an expensive trip shrink for nests
/// whose cheap pad repair needed δ > 8. The default must match the
/// local planner byte-for-byte; the old behavior is still reachable by
/// passing `max_pad` explicitly.
#[test]
fn daemon_padding_frontier_default_matches_the_local_planner() {
    use vcache_check::{plan, prescribe::DEFAULT_MAX_PAD, Geometry};
    let (addr, handle, _metrics, runner) = boot(ServerConfig {
        workers: 2,
        cache_capacity: 0, // same nest, different max_pad: keep the cache out
        ..ServerConfig::default()
    });
    let nest = deep_pad_nest();
    let geometry = Geometry::pow2(16, 16).unwrap();

    // Default frontier: the daemon must find the δ=16 pad, exactly as
    // the local planner does.
    let response = raw_call(&addr, &plan_params(&nest, pow2(16, 16), None));
    let result = response.outcome.expect("analyze_nest with prescribe");
    let served = result.get("certificate").expect("certificate in result");
    let local = plan(&nest, &geometry, DEFAULT_MAX_PAD)
        .expect("nest is repairable")
        .into_best()
        .expect("planner ranks at least one repair");
    // Compare serialized bytes: the response rode the wire as JSON, so
    // integral floats come back as integers in the parsed `Value`.
    assert_eq!(
        serde_json::to_string(served).unwrap(),
        serde_json::to_string(&local.to_value()).unwrap(),
        "served certificate differs from the local planner's"
    );
    let fix = serde_json::to_string(served).unwrap();
    assert!(
        fix.contains("PadLeadingDim"),
        "expected the deep pad repair, got {fix}"
    );

    // The old default, requested explicitly: no pad ≤ 8 works, so the
    // planner falls back to the expensive shrink — the bug this pins.
    let response = raw_call(&addr, &plan_params(&nest, pow2(16, 16), Some(8)));
    let result = response.outcome.expect("analyze_nest with max_pad=8");
    let served = result.get("certificate").expect("certificate in result");
    let fix = serde_json::to_string(served).unwrap();
    assert!(
        fix.contains("ShrinkTrip"),
        "a frontier of 8 cannot pad this nest, got {fix}"
    );

    handle.trigger();
    runner.join().unwrap();
}

/// A `max_pad` past [`vcache_check::MAX_PAD_BOUND`] is refused as a bad
/// request naming the bound, before any analysis: the planner would
/// otherwise build one candidate per delta up front.
#[test]
fn a_max_pad_past_the_bound_gets_bad_request() {
    let (addr, handle, _metrics, runner) = boot(ServerConfig::default());
    for max_pad in [MAX_PAD_BOUND + 1, u64::MAX] {
        let response = raw_call(
            &addr,
            &plan_params(&deep_pad_nest(), pow2(16, 16), Some(max_pad)),
        );
        match response.outcome {
            Err(body) => {
                assert_eq!(body.code, ErrorCode::BadRequest, "{}", body.message);
                let bound = format!("`max_pad` must be at most {MAX_PAD_BOUND}, got {max_pad}");
                assert!(body.message.contains(&bound), "{}", body.message);
            }
            Ok(v) => panic!("max_pad {max_pad}: expected bad_request, got {v:?}"),
        }
    }
    // The bound itself is accepted.
    let response = raw_call(
        &addr,
        &plan_params(&deep_pad_nest(), pow2(16, 16), Some(MAX_PAD_BOUND)),
    );
    assert!(response.outcome.is_ok(), "{response:?}");
    handle.trigger();
    runner.join().unwrap();
}

/// The served ranking — best certificate, alternatives array, and plan
/// counters — must be byte-identical to the local planner's, and stable
/// across repeated requests.
#[test]
fn served_ranking_is_deterministic_and_matches_local() {
    use vcache_check::{plan, prescribe::DEFAULT_MAX_PAD, Geometry};
    let (addr, handle, metrics, runner) = boot(ServerConfig {
        workers: 4,
        cache_capacity: 0, // exercise the planner on every request
        ..ServerConfig::default()
    });
    let nest = pow2_stride_nest();
    let geometry = Geometry::pow2(8192, 8).unwrap();
    let local = plan(&nest, &geometry, DEFAULT_MAX_PAD).expect("interfering nest plans");
    assert!(local.ranked.len() >= 2, "need a real ranking to compare");

    let mut served_results = Vec::new();
    for _ in 0..2 {
        let response = raw_call(&addr, &plan_params(&nest, pow2(8192, 8), None));
        served_results.push(response.outcome.expect("analyze_nest with prescribe"));
    }
    assert_eq!(
        served_results[0], served_results[1],
        "same request, different served ranking"
    );

    let result = &served_results[0];
    // Compare serialized bytes: the response rode the wire as JSON, so
    // integral floats come back as integers in the parsed `Value`.
    let best = result.get("certificate").expect("certificate in result");
    assert_eq!(
        serde_json::to_string(best).unwrap(),
        serde_json::to_string(&local.ranked[0].to_value()).unwrap()
    );
    let alternatives = result.get("alternatives").expect("alternatives in result");
    let local_alts: Vec<Value> = local.ranked[1..].iter().map(|c| c.to_value()).collect();
    assert_eq!(
        serde_json::to_string(alternatives).unwrap(),
        serde_json::to_string(&Value::Arr(local_alts)).unwrap()
    );

    // The plan summary echoes the frontier and carries the cost-model
    // weights the ranking was priced under.
    let summary = result.get("plan").expect("plan summary in result");
    assert_eq!(
        summary.get("candidates").cloned(),
        Some(Value::U64(local.candidates))
    );
    assert_eq!(
        summary.get("analyzed").cloned(),
        Some(Value::U64(local.analyzed))
    );
    assert_eq!(
        summary.get("ranked").cloned(),
        Some(Value::U64(local.ranked.len() as u64))
    );
    let weights = serde_json::to_string(summary.get("weights").expect("weights")).unwrap();
    assert!(weights.contains("pad_word"), "{weights}");

    // Two planner runs worth of counters.
    let snapshot = metrics.snapshot();
    assert_eq!(
        snapshot.counter("serve.plan.candidates"),
        2 * local.candidates
    );
    assert_eq!(snapshot.counter("serve.plan.analyzed"), 2 * local.analyzed);
    assert_eq!(
        snapshot.counter("serve.plan.ranked"),
        2 * local.ranked.len() as u64
    );

    handle.trigger();
    runner.join().unwrap();
}

/// A deadline expiring inside the planner must surface as the typed
/// deadline error with no partial ranking attached — the planner aborts
/// the whole frontier rather than serving a truncated list.
#[test]
fn planner_deadline_yields_typed_error_and_no_partial_ranking() {
    let (addr, handle, metrics, runner) = boot(ServerConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let started = Instant::now();
    let response = raw_call(&addr, &planner_slow_params());
    let elapsed = started.elapsed();
    match response.outcome {
        Err(body) => {
            assert_eq!(body.code, ErrorCode::DeadlineExceeded, "{}", body.message);
        }
        Ok(v) => panic!("expected deadline_exceeded, got a (possibly partial) result: {v:?}"),
    }
    // The analysis finished (it counts its enumerated lines before the
    // planner starts), and no plan did.
    let snapshot = metrics.snapshot();
    assert!(
        snapshot.counter("serve.enumerated_lines") > 0,
        "{snapshot:?}"
    );
    assert_eq!(snapshot.counter("serve.plan.candidates"), 0);
    // The response lands within a few candidate checks of the deadline,
    // long before the full frontier would have.
    assert!(
        elapsed >= Duration::from_millis(PLANNER_DEADLINE_MS) && elapsed < Duration::from_secs(20),
        "planner deadline response took {elapsed:?}"
    );
    handle.trigger();
    runner.join().unwrap();
}
