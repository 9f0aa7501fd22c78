//! The analysis daemon: accept loops, a crash-isolated worker pool,
//! deadlines, backpressure, and graceful drain.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!   accept(TCP)──┐                 ┌─ worker 0 ─ catch_unwind(handler)
//!   accept(Unix)─┤→ conn threads →│  worker 1 ─ catch_unwind(handler)
//!                │   (1/socket)    │  ...       deadline → NestBudget
//!                └─ bounded queue ─┴─ worker N
//! ```
//!
//! Every request runs inside `catch_unwind`: a panicking handler (real
//! or injected by the [`crate::fault`] layer) produces a typed
//! `internal_error` response and the worker survives. The queue is
//! bounded; when full, requests are shed immediately with `overloaded`
//! plus a retry-after hint rather than queuing without bound. Deadlines
//! are enforced *cooperatively*: the worker threads a cancellation
//! callback into the abstract interpreter's [`NestBudget`], which polls
//! it before each component's symbolic decision and every enumeration
//! quantum, so a too-slow analysis aborts within one component decision
//! or one quantum and the client gets `deadline_exceeded`, never a hung
//! connection.
//!
//! Shutdown ([`ShutdownHandle::trigger`], a `shutdown` request, or a
//! signal wired up by the binary) stops the accept loops, drains every
//! queued request, lets connection threads finish their in-flight
//! exchange, and returns the final [`MetricsSnapshot`].
//!
//! **Request spans** (DESIGN.md §8): every request line mints a root
//! span labelled with its op, carrying the wire correlation id and the
//! canonical [`crate::digest`] of the request. The stages it crosses —
//! queue wait, worker execution, the analyzer's phases via the
//! [`NestBudget`] observer hook — open children, so one request yields
//! one complete tree whatever its fate: a shed request finishes its
//! `queue_wait` span with `shed`, a cancelled analysis closes its phase
//! spans with `cancelled`, and a panicking handler's spans record
//! themselves from `Drop` during the unwind. Span export is optional
//! (`span_path`); without it the collector only counts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize, Value};
use vcache_check::{
    analyze_nest_with_budget, plan_parallel, run_check_observed, CheckError, CheckOptions,
    CostWeights, LoopNest, NestBudget, NestError, DEFAULT_MAX_PAD,
};
use vcache_trace::analyze;
use vcache_trace::{
    MetricsSnapshot, RollingWindow, SharedMetrics, SpanCollector, SpanContext, SpanHandle,
};

use crate::cache::{is_cacheable, VerdictCache};
use crate::digest::request_digest;
use crate::fault::{FaultInjector, FaultPlan};
use crate::protocol::{
    bool_param, str_param, u64_param, ErrorBody, ErrorCode, GeometrySpec, Request, Response,
    PROTOCOL_VERSION,
};
use crate::queue::{Bounded, PushError};

/// How long an accept loop sleeps between polls of the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Read timeout on connection sockets; bounds how long a connection
/// thread can outlive a shutdown request.
const READ_POLL: Duration = Duration::from_millis(250);
/// Latency histogram bounds, microseconds.
const LATENCY_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 2_000_000,
];
/// Raw samples kept per op for the exact rolling-window quantiles the
/// `status` op reports.
const OP_WINDOW: usize = 256;

/// Everything configurable about a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address (use port 0 for an ephemeral port).
    pub addr: String,
    /// Optional Unix-domain socket path (ignored on non-Unix targets).
    pub unix_path: Option<PathBuf>,
    /// Worker pool size.
    pub workers: usize,
    /// Bounded queue capacity; beyond this, requests are shed.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: u64,
    /// Retry-after hint attached to `overloaded` sheds.
    pub retry_after_ms: u64,
    /// Fault-injection plan (defaults to none).
    pub fault_plan: FaultPlan,
    /// Workspace root for `check` requests.
    pub root: PathBuf,
    /// Export every finished request span as a JSONL line to this file
    /// (`None`: spans are counted but not exported).
    pub span_path: Option<PathBuf>,
    /// Requests taking at least this long emit a structured
    /// `slow_request` log line on stderr (0 disables).
    pub slow_request_ms: u64,
    /// Verdict-cache capacity in entries (0 disables caching). Hits are
    /// answered before queue admission and never touch the worker pool.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            unix_path: None,
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 10_000,
            retry_after_ms: 50,
            fault_plan: FaultPlan::none(),
            root: PathBuf::from("."),
            span_path: None,
            slow_request_ms: 1_000,
            cache_capacity: 1_024,
        }
    }
}

/// One queued request plus the channel its response travels back on.
struct Job {
    request: Request,
    reply: SyncSender<Response>,
    received: Instant,
    deadline: Instant,
    /// Open since enqueue; the worker (or the shedding pusher) closes
    /// it, so queue time is always attributed.
    queue_span: SpanHandle,
    /// Lets the worker open its `worker` span under the request root,
    /// which stays on the connection thread.
    root_ctx: SpanContext,
}

/// State shared by every thread of one daemon instance.
struct Shared {
    queue: Bounded<Job>,
    metrics: SharedMetrics,
    spans: SpanCollector,
    injector: FaultInjector,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    default_deadline: Duration,
    retry_after_ms: u64,
    root: PathBuf,
    /// Worker-pool size; also the width of the planner's internal
    /// candidate fan-out on the `analyze_nest --prescribe` batch path.
    workers: usize,
    started: Instant,
    /// Slow-request log threshold (`None` disables).
    slow_request: Option<Duration>,
    /// Per-op rolling latency windows feeding the `status` op.
    op_windows: Mutex<BTreeMap<String, RollingWindow>>,
    /// The digest-keyed verdict cache, consulted before queue admission.
    cache: Mutex<VerdictCache>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Refuse new work immediately; queued jobs still drain.
        self.queue.close();
    }
}

/// Triggers a graceful drain from another thread (signal handler,
/// test, or the `shutdown` request op).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begins the graceful shutdown sequence. Idempotent.
    pub fn trigger(&self) {
        self.shared.trigger_shutdown();
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        self.shared.shutting_down()
    }
}

/// A bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    #[cfg(unix)]
    unix: Option<std::os::unix::net::UnixListener>,
    unix_path: Option<PathBuf>,
    workers: usize,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listening sockets and builds the shared state; no
    /// threads start until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        #[cfg(unix)]
        let unix = match &config.unix_path {
            Some(path) => {
                // A previous unclean exit may have left the socket file.
                let _ = std::fs::remove_file(path);
                Some(std::os::unix::net::UnixListener::bind(path)?)
            }
            None => None,
        };
        let metrics = SharedMetrics::default();
        metrics.register_histogram("serve.latency_us", &LATENCY_BOUNDS_US);
        let spans = match &config.span_path {
            Some(path) => SpanCollector::to_file(path)?,
            None => SpanCollector::new(),
        };
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            metrics,
            spans,
            injector: FaultInjector::new(config.fault_plan),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            default_deadline: Duration::from_millis(config.default_deadline_ms.max(1)),
            retry_after_ms: config.retry_after_ms,
            root: config.root,
            workers: config.workers.max(1),
            started: Instant::now(),
            slow_request: match config.slow_request_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            op_windows: Mutex::new(BTreeMap::new()),
            cache: Mutex::new(VerdictCache::new(config.cache_capacity)),
        });
        Ok(Self {
            listener,
            #[cfg(unix)]
            unix,
            unix_path: config.unix_path,
            workers: config.workers.max(1),
            shared,
        })
    }

    /// The bound TCP address (reports the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers graceful shutdown from anywhere.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The daemon's live metrics registry.
    #[must_use]
    pub fn metrics(&self) -> SharedMetrics {
        self.shared.metrics.clone()
    }

    /// Runs the daemon until shutdown, then drains and returns the
    /// final metrics snapshot.
    ///
    /// # Errors
    ///
    /// Socket configuration failures; individual connection errors are
    /// absorbed and counted.
    pub fn run(self) -> io::Result<MetricsSnapshot> {
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let worker_handles: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        #[cfg(unix)]
        let unix_accept = self.unix.map(|listener| {
            let shared = Arc::clone(&self.shared);
            let handles = Arc::clone(&conn_handles);
            thread::spawn(move || {
                let _ = accept_loop_unix(&listener, &shared, &handles);
            })
        });

        self.listener.set_nonblocking(true)?;
        loop {
            if self.shared.shutting_down() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    spawn_tcp_conn(stream, &self.shared, &conn_handles);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.shared.metrics.count("serve.accept_errors", 1);
                    thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Shutdown sequence: the flag is set and the queue is closed
        // (trigger_shutdown). Workers drain what is queued, connection
        // threads finish their in-flight exchange and exit at the next
        // read poll.
        self.shared.queue.close();
        for handle in worker_handles {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Some(handle) = unix_accept {
            let _ = handle.join();
        }
        let handles =
            std::mem::take(&mut *conn_handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        let _ = self.shared.spans.flush();
        Ok(self.shared.metrics.snapshot())
    }
}

fn spawn_tcp_conn(
    stream: TcpStream,
    shared: &Arc<Shared>,
    handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let shared = Arc::clone(shared);
    let handle = thread::spawn(move || {
        shared.metrics.count("serve.connections", 1);
        // Request/response lines are small; Nagle + delayed ACK would
        // stall pipelined peers ~40ms per exchange.
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(READ_POLL)).is_err() {
            return;
        }
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        serve_connection(BufReader::new(read_half), stream, &shared);
    });
    handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
}

#[cfg(unix)]
fn accept_loop_unix(
    listener: &std::os::unix::net::UnixListener,
    shared: &Arc<Shared>,
    handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if shared.shutting_down() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared_conn = Arc::clone(shared);
                let handle = thread::spawn(move || {
                    shared_conn.metrics.count("serve.connections", 1);
                    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
                        return;
                    }
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    serve_connection(BufReader::new(read_half), stream, &shared_conn);
                });
                handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// One connection: read a request line, resolve it to exactly one
/// response, write the response, repeat. Strictly ordered — concurrency
/// comes from multiple connections feeding the shared worker pool.
fn serve_connection<R: Read, W: Write>(
    mut reader: BufReader<R>,
    mut writer: W,
    shared: &Arc<Shared>,
) {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                if buf.is_empty() {
                    return; // clean EOF between requests
                }
                // Final request without a trailing newline.
            }
            Ok(_) if !buf.ends_with(b"\n") => continue, // partial read, keep going
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let line = String::from_utf8_lossy(&buf).trim().to_string();
        let at_eof = !buf.ends_with(b"\n");
        buf.clear();
        if line.is_empty() {
            if at_eof {
                return;
            }
            continue;
        }
        shared.metrics.count("serve.requests", 1);
        let (response, close_after) = dispatch_line(&line, shared);
        if !write_response(&mut writer, &response, shared) || close_after || at_eof {
            return;
        }
    }
}

/// Resolves one request line to a response. The bool asks the caller to
/// close the connection afterwards (used by `shutdown`).
///
/// This is where request identity is born: every line — even an
/// unparseable one — gets a root span, and every root span is finished
/// here with the response's outcome after per-op latency accounting.
fn dispatch_line(line: &str, shared: &Arc<Shared>) -> (Response, bool) {
    let received = Instant::now();
    let request = match Request::from_json(line) {
        Ok(request) => request,
        Err(msg) => {
            let root = shared.spans.root("malformed", 0, None);
            let response = Response::err(0, ErrorBody::new(ErrorCode::BadRequest, msg));
            finish_request(shared, root, "malformed", 0, None, received, &response);
            return (response, false);
        }
    };
    let id = request.id;
    let digest = request_digest(&request.op, &request.params);
    let op = request.op.clone();
    let root = shared.spans.root(&op, id, Some(digest.clone()));
    let (response, close_after) = match request.op.as_str() {
        // Control-plane ops run inline on the connection thread so they
        // respond even when the queue is saturated.
        "ping" | "status" => {
            let deadline = Instant::now() + shared.default_deadline;
            let handler = root.child("handler");
            let result = handle_request(shared, &request, deadline, &handler);
            handler.finish(result.as_ref().map_or_else(|e| e.code.as_str(), |_| "ok"));
            let response = match result {
                Ok(v) => Response::ok(id, v),
                Err(e) => Response::err(id, e),
            };
            (response, false)
        }
        "shutdown" => {
            shared.trigger_shutdown();
            (
                Response::ok(id, Value::Obj(vec![("stopping".into(), Value::Bool(true))])),
                true,
            )
        }
        _ if shared.shutting_down() => (
            Response::err(
                id,
                ErrorBody::new(ErrorCode::ShuttingDown, "daemon is draining"),
            ),
            false,
        ),
        _ => (serve_cacheable(request, &digest, shared, &root), false),
    };
    finish_request(shared, root, &op, id, Some(digest), received, &response);
    (response, close_after)
}

/// The data-plane path: consult the verdict cache, and only on a miss
/// pay queue admission and a worker. Hits skip the pool entirely and
/// return the cached result value verbatim — byte-identical to the cold
/// computation, re-enveloped with this caller's correlation id. Only
/// successful results of cacheable ops are stored; typed errors never
/// shadow a future honest attempt.
fn serve_cacheable(
    request: Request,
    digest: &str,
    shared: &Arc<Shared>,
    root: &SpanHandle,
) -> Response {
    let cacheable = is_cacheable(&request.op)
        && !shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_disabled();
    if cacheable {
        let lookup = root.child("cache_lookup");
        let hit = shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(digest);
        match hit {
            Some(value) => {
                shared.metrics.count("serve.cache.hits", 1);
                lookup.finish("hit");
                return Response::ok(request.id, value);
            }
            None => {
                shared.metrics.count("serve.cache.misses", 1);
                lookup.finish("miss");
            }
        }
    }
    let response = enqueue_and_wait(request, shared, root);
    if cacheable {
        if let Ok(value) = &response.outcome {
            let (evicted, entries, bytes) = {
                let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
                let evicted = cache.insert(digest, value);
                (evicted, cache.len(), cache.bytes())
            };
            if evicted.entries > 0 {
                shared
                    .metrics
                    .count("serve.cache.evictions", evicted.entries);
            }
            shared.metrics.gauge("serve.cache.entries", entries as f64);
            // Precise below 2^52 cached bytes — far beyond any real cache.
            shared.metrics.gauge("serve.cache.bytes", bytes as f64);
        }
    }
    response
}

/// Closes a request's root span with the response outcome, records the
/// socket-to-response latency (overall and per-op, histogram and rolling
/// window), and emits the structured slow-request log when the
/// configured threshold is crossed.
fn finish_request(
    shared: &Arc<Shared>,
    root: SpanHandle,
    op: &str,
    req_id: u64,
    digest: Option<String>,
    received: Instant,
    response: &Response,
) {
    let status = response
        .outcome
        .as_ref()
        .map_or_else(|body| body.code.as_str(), |_| "ok");
    let elapsed = received.elapsed();
    let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    let name = format!("serve.latency_us.{op}");
    shared.metrics.with(|m| {
        m.register_histogram(&name, &LATENCY_BOUNDS_US);
        m.observe(&name, micros);
    });
    shared
        .op_windows
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(op.to_string())
        .or_insert_with(|| RollingWindow::new(OP_WINDOW))
        .record(micros);
    if shared
        .slow_request
        .is_some_and(|threshold| elapsed >= threshold)
    {
        shared.metrics.count("serve.slow_requests", 1);
        let record = Value::Obj(vec![(
            "slow_request".into(),
            Value::Obj(vec![
                ("op".into(), Value::Str(op.to_string())),
                ("req_id".into(), Value::U64(req_id)),
                ("span".into(), Value::U64(root.id())),
                ("digest".into(), digest.map_or(Value::Null, Value::Str)),
                ("dur_us".into(), Value::U64(micros)),
                ("status".into(), Value::Str(status.to_string())),
            ]),
        )]);
        if let Ok(line) = serde_json::to_string(&record) {
            eprintln!("{line}");
        }
    }
    root.finish(status);
}

fn enqueue_and_wait(request: Request, shared: &Arc<Shared>, root: &SpanHandle) -> Response {
    let id = request.id;
    let received = Instant::now();
    let deadline = received
        + request
            .deadline_ms
            .map_or(shared.default_deadline, Duration::from_millis);
    let (reply_tx, reply_rx) = sync_channel::<Response>(1);
    let job = Job {
        request,
        reply: reply_tx,
        received,
        deadline,
        queue_span: root.child("queue_wait"),
        root_ctx: root.context(),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {
            update_queue_gauge(shared);
            match reply_rx.recv() {
                Ok(response) => response,
                Err(_) => Response::err(
                    id,
                    ErrorBody::new(
                        ErrorCode::InternalError,
                        "worker dropped the request without responding",
                    ),
                ),
            }
        }
        // A rejected push hands the job back, so its queue span closes
        // with the precise reason the request never reached a worker.
        Err(PushError::Full(job)) => {
            job.queue_span.finish("shed");
            shared.metrics.count("serve.sheds", 1);
            let mut body = ErrorBody::new(
                ErrorCode::Overloaded,
                "request queue is full; request was shed before any work",
            );
            body.retry_after_ms = Some(shared.retry_after_ms);
            Response::err(id, body)
        }
        Err(PushError::Closed(job)) => {
            job.queue_span.finish("shutting_down");
            Response::err(
                id,
                ErrorBody::new(ErrorCode::ShuttingDown, "daemon is draining"),
            )
        }
    }
}

/// Writes one response line, possibly tearing it per the fault plan.
/// Returns false when the connection should be dropped.
fn write_response<W: Write>(writer: &mut W, response: &Response, shared: &Arc<Shared>) -> bool {
    if let Err(body) = &response.outcome {
        shared
            .metrics
            .count(&format!("serve.errors.{}", body.code), 1);
    } else {
        shared.metrics.count("serve.responses_ok", 1);
    }
    let mut line = response.to_json();
    line.push('\n');
    let bytes = line.as_bytes();
    if let Some(keep) = shared.injector.roll_torn_write(bytes.len()) {
        shared.metrics.count("serve.faults.torn_write", 1);
        let _ = writer.write_all(&bytes[..keep]);
        let _ = writer.flush();
        return false;
    }
    writer.write_all(bytes).is_ok() && writer.flush().is_ok()
}

fn update_queue_gauge(shared: &Shared) {
    // Cast is lossless at any realistic queue capacity.
    let depth = u32::try_from(shared.queue.len()).unwrap_or(u32::MAX);
    shared.metrics.gauge("serve.queue_depth", f64::from(depth));
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let Job {
            request,
            reply,
            received,
            deadline,
            queue_span,
            root_ctx,
        } = job;
        queue_span.finish("ok");
        update_queue_gauge(shared);
        let in_flight = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        shared.metrics.gauge("serve.in_flight", in_flight as f64);

        // The worker span is created (and finished) outside the unwind
        // boundary: a panicking handler loses its phase spans to Drop
        // (status `panic`) but the worker span still closes with the
        // typed outcome the client sees.
        let worker_span = root_ctx.child("worker");
        let fault = shared.injector.roll_handler();
        if let Some(delay) = fault.delay {
            shared.metrics.count("serve.faults.delay", 1);
            thread::sleep(delay);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if fault.panic {
                shared.metrics.count("serve.faults.panic", 1);
                panic!("injected fault");
            }
            handle_request(shared, &request, deadline, &worker_span)
        }));
        let (response, status) = match outcome {
            Ok(Ok(result)) => (Response::ok(request.id, result), "ok"),
            Ok(Err(body)) => {
                let status = body.code.as_str();
                (Response::err(request.id, body), status)
            }
            Err(_) => {
                shared.metrics.count("serve.panics_caught", 1);
                (
                    Response::err(
                        request.id,
                        ErrorBody::new(
                            ErrorCode::InternalError,
                            "handler panicked; worker recovered",
                        ),
                    ),
                    "panic",
                )
            }
        };
        worker_span.finish(status);
        let micros = u64::try_from(received.elapsed().as_micros()).unwrap_or(u64::MAX);
        shared.metrics.observe("serve.latency_us", micros);
        let in_flight = shared.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        shared.metrics.gauge("serve.in_flight", in_flight as f64);
        // The connection may already be gone (torn write, client hangup)
        // — a failed send is not an error.
        let _ = reply.send(response);
    }
}

/// A stack of phase spans driven by the `(phase, begin)` observer
/// callbacks of [`NestBudget`] and `run_check_observed`: each `begin`
/// opens a child of the deepest open phase (or of the handler's span),
/// so nested phases — `prescribe` re-running the analyzer, say — nest in
/// the tree exactly as they nested in time. The observers guarantee
/// balance on success *and* error; [`PhaseSpans::drain`] is the
/// belt-and-braces close for anything still open on an error path.
struct PhaseSpans<'a> {
    parent: &'a SpanHandle,
    stack: RefCell<Vec<SpanHandle>>,
}

impl<'a> PhaseSpans<'a> {
    fn new(parent: &'a SpanHandle) -> Self {
        Self {
            parent,
            stack: RefCell::new(Vec::new()),
        }
    }

    fn observe(&self, phase: &str, begin: bool) {
        let mut stack = self.stack.borrow_mut();
        if begin {
            let span = match stack.last() {
                Some(open) => open.child(phase),
                None => self.parent.child(phase),
            };
            stack.push(span);
        } else if let Some(span) = stack.pop() {
            span.finish("ok");
        }
    }

    /// Closes every still-open phase with `status`, innermost first.
    fn drain(self, status: &str) {
        let mut stack = self.stack.into_inner();
        while let Some(span) = stack.pop() {
            span.finish(status);
        }
    }
}

/// Dispatches one request to its handler. Every failure is a typed
/// [`ErrorBody`]; panics are the caller's (`catch_unwind`) problem.
/// `span` is the request's enclosing span (the worker span, or the
/// inline `handler` span for control-plane ops) — handlers hang their
/// phase children off it.
fn handle_request(
    shared: &Shared,
    request: &Request,
    deadline: Instant,
    span: &SpanHandle,
) -> Result<Value, ErrorBody> {
    if Instant::now() >= deadline {
        return Err(ErrorBody::new(
            ErrorCode::DeadlineExceeded,
            "deadline passed before the request reached a worker",
        ));
    }
    match request.op.as_str() {
        "ping" => Ok(Value::Obj(vec![
            ("pong".into(), Value::Bool(true)),
            ("version".into(), Value::U64(PROTOCOL_VERSION)),
        ])),
        "status" => Ok(op_status(shared, span)),
        "check" => op_check(shared, &request.params, span),
        "analyze_nest" => op_analyze_nest(shared, &request.params, deadline, span),
        "analyze_trace" => op_analyze_trace(&request.params, span),
        other => Err(ErrorBody::new(
            ErrorCode::BadRequest,
            format!("unknown op {other:?}"),
        )),
    }
}

fn op_status(shared: &Shared, span: &SpanHandle) -> Value {
    let snap_span = span.child("snapshot");
    let snapshot = shared.metrics.snapshot();
    let counts = shared.spans.counts();
    let uptime_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let ops: Vec<(String, Value)> = {
        let windows = shared
            .op_windows
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        windows
            .iter()
            .map(|(op, w)| {
                let mut fields = vec![
                    ("count".into(), Value::U64(w.seen())),
                    ("window".into(), Value::U64(w.len() as u64)),
                ];
                if let (Some(p50), Some(p95), Some(p99), Some(mean), Some(max)) = (
                    w.quantile(0.50),
                    w.quantile(0.95),
                    w.quantile(0.99),
                    w.mean(),
                    w.max(),
                ) {
                    fields.push(("p50_us".into(), Value::U64(p50)));
                    fields.push(("p95_us".into(), Value::U64(p95)));
                    fields.push(("p99_us".into(), Value::U64(p99)));
                    fields.push(("mean_us".into(), Value::F64(mean)));
                    fields.push(("max_us".into(), Value::U64(max)));
                }
                (op.clone(), Value::Obj(fields))
            })
            .collect()
    };
    snap_span.finish("ok");
    Value::Obj(vec![
        ("version".into(), Value::U64(PROTOCOL_VERSION)),
        ("uptime_ms".into(), Value::U64(uptime_ms)),
        ("queue_depth".into(), Value::U64(shared.queue.len() as u64)),
        (
            "in_flight".into(),
            Value::U64(shared.in_flight.load(Ordering::SeqCst)),
        ),
        ("draining".into(), Value::Bool(shared.shutting_down())),
        (
            "spans".into(),
            Value::Obj(vec![
                ("opened".into(), Value::U64(counts.opened)),
                ("finished".into(), Value::U64(counts.finished)),
            ]),
        ),
        ("ops".into(), Value::Obj(ops)),
        ("metrics".into(), snapshot.to_value()),
    ])
}

fn op_check(shared: &Shared, params: &Value, span: &SpanHandle) -> Result<Value, ErrorBody> {
    let bad = |msg: String| ErrorBody::new(ErrorCode::BadRequest, msg);
    let src = bool_param(params, "src").map_err(bad)?;
    let programs = bool_param(params, "programs").map_err(bad)?;
    let nests = bool_param(params, "nests").map_err(bad)?;
    let workloads = bool_param(params, "workloads").map_err(bad)?;
    let probabilistic = bool_param(params, "probabilistic").map_err(bad)?;
    let all = !src && !programs && !nests && !workloads && !probabilistic;
    let options = CheckOptions {
        root: str_param(params, "root")
            .map_err(bad)?
            .map_or_else(|| shared.root.clone(), PathBuf::from),
        src: src || all,
        programs: programs || all,
        nests: nests || all,
        prescribe: bool_param(params, "prescribe").map_err(bad)?,
        workloads: workloads || all,
        probabilistic: probabilistic || all,
    };
    let phases = PhaseSpans::new(span);
    let outcome = {
        let obs = |phase: &'static str, begin: bool| phases.observe(phase, begin);
        run_check_observed(&options, &obs)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            phases.drain("error");
            return Err(match e {
                CheckError::Io(io) => ErrorBody::new(ErrorCode::IoError, io.to_string()),
                other => ErrorBody::new(ErrorCode::AnalysisFailed, other.to_string()),
            });
        }
    };
    // Surface the enumeration-freedom gate operationally: the counter
    // stays at zero for as long as the relational domain holds.
    let enumerated: u64 = report
        .nests
        .iter()
        .map(|r| r.enumerated_lines)
        .chain(report.battery.iter().map(|r| r.enumerated_lines))
        .chain(report.workloads.iter().map(|r| r.enumerated_lines))
        .sum();
    shared.metrics.count("serve.enumerated_lines", enumerated);
    // Every Monte-Carlo-validated ExpectedConflicts verdict served, for
    // the `vcache_serve_probabilistic_verdicts_total` exposition.
    let verdicts = u64::try_from(report.probabilistic.len()).unwrap_or(u64::MAX);
    shared
        .metrics
        .count("serve.probabilistic_verdicts", verdicts);
    Ok(Value::Obj(vec![
        ("clean".into(), Value::Bool(report.is_clean())),
        ("report".into(), report.to_value()),
        ("text".into(), Value::Str(report.render_text())),
    ]))
}

fn op_analyze_nest(
    shared: &Shared,
    params: &Value,
    deadline: Instant,
    span: &SpanHandle,
) -> Result<Value, ErrorBody> {
    let bad = |msg: String| ErrorBody::new(ErrorCode::BadRequest, msg);
    let nest_value = params
        .get("nest")
        .ok_or_else(|| bad("missing param `nest`".into()))?;
    let nest = LoopNest::from_value(nest_value)
        .map_err(|e| bad(format!("param `nest` is not a loop nest: {e}")))?;
    let geometry_value = params
        .get("geometry")
        .ok_or_else(|| bad("missing param `geometry`".into()))?;
    let geometry = GeometrySpec::from_value(geometry_value)
        .map_err(|e| bad(format!("param `geometry`: {e}")))?
        .to_geometry()
        .map_err(|e| bad(format!("param `geometry`: {e}")))?;
    let want_prescription = bool_param(params, "prescribe").map_err(bad)?;
    // The daemon's default padding frontier matches the CLI's, so serve
    // and local prescriptions stay byte-identical.
    let max_pad = u64_param(params, "max_pad")
        .map_err(bad)?
        .unwrap_or(DEFAULT_MAX_PAD);

    let phases = PhaseSpans::new(span);
    let analysis = {
        let cancelled = move || Instant::now() >= deadline;
        let obs = |phase: &'static str, begin: bool| phases.observe(phase, begin);
        let budget = NestBudget::with_cancel(&cancelled).with_observer(&obs);
        match analyze_nest_with_budget(&nest, &geometry, &budget) {
            Ok(a) => a,
            Err(e) => {
                phases.drain(match e {
                    NestError::Cancelled => "cancelled",
                    _ => "error",
                });
                return Err(nest_error(e));
            }
        }
    };
    shared
        .metrics
        .count("serve.enumerated_lines", analysis.enumerated_lines);
    let mut pairs = vec![("analysis".to_string(), analysis.to_value())];
    if want_prescription && !analysis.verdict.is_conflict_free() {
        // The planner analyzes every candidate repair; the batch path
        // fans those analyses across a thread pool as wide as the
        // daemon's worker pool, with one child span per candidate under
        // the `prescribe` span.
        let prescribe_span = span.child("prescribe");
        let candidates = CandidateSpans::new(prescribe_span.context());
        let weights = CostWeights::default();
        let outcome = {
            let cancelled = move || Instant::now() >= deadline;
            let obs = |label: &str, begin: bool| candidates.observe(label, begin);
            plan_parallel(
                &nest,
                &geometry,
                max_pad,
                &weights,
                shared.workers,
                Some(&cancelled),
                Some(&obs),
            )
        };
        match outcome {
            Ok(planned) => {
                candidates.drain("ok");
                prescribe_span.finish("ok");
                let (frontier, analyzed, mut ranked) =
                    planned.map_or((0, 0, Vec::new()), |p| (p.candidates, p.analyzed, p.ranked));
                shared.metrics.count("serve.plan.candidates", frontier);
                shared.metrics.count("serve.plan.analyzed", analyzed);
                let ranked_count = u64::try_from(ranked.len()).unwrap_or(u64::MAX);
                shared.metrics.count("serve.plan.ranked", ranked_count);
                let best = if ranked.is_empty() {
                    Value::Null
                } else {
                    ranked.remove(0).to_value()
                };
                pairs.push(("certificate".to_string(), best));
                pairs.push((
                    "alternatives".to_string(),
                    Value::Arr(ranked.iter().map(|c| c.to_value()).collect()),
                ));
                pairs.push((
                    "plan".to_string(),
                    Value::Obj(vec![
                        ("candidates".into(), Value::U64(frontier)),
                        ("analyzed".into(), Value::U64(analyzed)),
                        ("ranked".into(), Value::U64(ranked_count)),
                        ("weights".into(), weights.to_value()),
                    ]),
                ));
            }
            Err(e) => {
                let status = match e {
                    NestError::Cancelled => "cancelled",
                    _ => "error",
                };
                candidates.drain(status);
                prescribe_span.finish(status);
                phases.drain(status);
                return Err(nest_error(e));
            }
        }
    }
    Ok(Value::Obj(pairs))
}

/// Per-candidate child spans for the planner's parallel batch path.
/// Candidate labels are unique within one plan, so a label-keyed map
/// pairs each begin with its end even when the callbacks arrive from
/// different pool threads.
struct CandidateSpans {
    ctx: SpanContext,
    open: Mutex<BTreeMap<String, SpanHandle>>,
}

impl CandidateSpans {
    fn new(ctx: SpanContext) -> Self {
        Self {
            ctx,
            open: Mutex::new(BTreeMap::new()),
        }
    }

    fn observe(&self, label: &str, begin: bool) {
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        if begin {
            open.insert(label.to_owned(), self.ctx.child(label));
        } else if let Some(span) = open.remove(label) {
            span.finish("ok");
        }
    }

    /// Closes any candidate still open (a cancelled plan abandons its
    /// in-flight analyses) with `status`.
    fn drain(self, status: &str) {
        let open = self
            .open
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for (_, span) in open {
            span.finish(status);
        }
    }
}

fn nest_error(e: NestError) -> ErrorBody {
    match e {
        NestError::Cancelled => ErrorBody::new(
            ErrorCode::DeadlineExceeded,
            "deadline exceeded during nest analysis; work abandoned",
        ),
        other => ErrorBody::new(ErrorCode::AnalysisFailed, other.to_string()),
    }
}

fn op_analyze_trace(params: &Value, span: &SpanHandle) -> Result<Value, ErrorBody> {
    let bad = |msg: String| ErrorBody::new(ErrorCode::BadRequest, msg);
    let path = str_param(params, "path")
        .map_err(bad)?
        .ok_or_else(|| bad("missing param `path`".into()))?;
    let window = u64_param(params, "window").map_err(bad)?.unwrap_or(1024);
    if window == 0 {
        return Err(bad("param `window` must be positive".into()));
    }
    let top = usize::try_from(u64_param(params, "top").map_err(bad)?.unwrap_or(10))
        .map_err(|_| bad("param `top` out of range".into()))?;
    let read_span = span.child("read");
    let parsed = std::fs::File::open(&path)
        .map_err(|e| ErrorBody::new(ErrorCode::IoError, format!("cannot open {path}: {e}")))
        .and_then(|file| {
            analyze::read_jsonl(BufReader::new(file))
                .map_err(|e| ErrorBody::new(ErrorCode::IoError, format!("cannot read {path}: {e}")))
        });
    read_span.finish(parsed.as_ref().map_or_else(|e| e.code.as_str(), |_| "ok"));
    let (events, errors) = parsed?;
    if events.is_empty() {
        return Err(ErrorBody::new(
            ErrorCode::AnalysisFailed,
            format!(
                "{path}: no trace events parsed ({} corrupt line(s) skipped)",
                errors.len()
            ),
        ));
    }
    let analyze_span = span.child("analyze");
    let result = Value::Obj(vec![
        ("events".into(), Value::U64(events.len() as u64)),
        ("skipped".into(), Value::U64(errors.len() as u64)),
        (
            "timelines".into(),
            Value::Str(analyze::render_timelines(&analyze::miss_timelines(
                &events, window,
            ))),
        ),
        (
            "banks".into(),
            Value::Str(analyze::render_bank_table(&analyze::bank_occupancy(
                &events,
            ))),
        ),
        (
            "conflicts".into(),
            Value::Str(analyze::render_conflict_sets(&analyze::top_conflict_sets(
                &events, top,
            ))),
        ),
    ]);
    analyze_span.finish("ok");
    Ok(result)
}
