//! The retrying client: connection pooling and multi-address failover,
//! exponential backoff with decorrelated jitter, and an
//! idempotency-aware retry policy.
//!
//! Retry rules (see DESIGN.md §7):
//!
//! * `overloaded` — always retryable: the daemon sheds *before* any
//!   work, so nothing happened. The server's `retry_after_ms` hint is
//!   honored as the backoff floor.
//! * Connect failures — always retryable, for every op: the request
//!   never left this process. They surface as the typed
//!   [`ClientError::Connect`] carrying the offending daemon address.
//! * Post-connect transport errors (torn response, mid-line EOF,
//!   connection reset) — retryable only for idempotent ops. Every
//!   analysis op is a pure read, so all built-in ops except `shutdown`
//!   qualify; `shutdown` is never blindly resent because the first
//!   attempt may have landed.
//! * Every other typed error (`bad_request`, `analysis_failed`,
//!   `io_error`, `internal_error`, `deadline_exceeded`,
//!   `shutting_down`) — final: retrying cannot change the outcome.
//!
//! A client may hold **several daemon addresses** (`Client::new`
//! accepts a comma-separated list); each transport failure rotates to
//! the next address, so a dead daemon only costs the attempts it eats.
//! Idempotent calls reuse pooled connections ([`crate::pool`]); a
//! failure on a pooled connection is retried once on a fresh one before
//! counting as a real attempt failure, because the pooled socket may
//! simply have been reaped by the peer. Non-idempotent ops always dial
//! fresh — a half-open pooled write can appear to succeed.
//!
//! Backoff is decorrelated jitter: `sleep = min(cap, uniform(base,
//! prev * 3))`, which spreads concurrent retriers instead of
//! synchronizing them into waves.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::pool::ConnPool;
use crate::protocol::{ErrorBody, Request, Response};

/// Retry/backoff knobs.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Backoff floor.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed (deterministic backoff sequence per seed).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x5eed,
        }
    }
}

/// Why a call ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect to a daemon (after retries). Carries the
    /// offending address so an operator knows *which* daemon is
    /// unreachable, not just that something io-failed.
    Connect {
        /// The address that refused or timed out.
        addr: String,
        /// The underlying socket error.
        source: io::Error,
    },
    /// Post-connect transport failure (after retries, where permitted).
    Io(io::Error),
    /// The daemon answered, but not with a valid protocol line.
    Protocol(String),
    /// A typed error response (final, or retries exhausted).
    Server(ErrorBody),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Connect { addr, source } => {
                write!(f, "cannot connect to daemon at {addr}: {source}")
            }
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
            Self::Server(body) => write!(f, "server error [{}]: {}", body.code, body.message),
        }
    }
}

impl std::error::Error for ClientError {}

/// A client for one daemon, or several to fail over across. Idempotent calls
/// reuse pooled connections; everything else dials fresh, so a torn
/// connection never poisons later calls.
pub struct Client {
    addrs: Vec<String>,
    cursor: usize,
    pool: ConnPool,
    policy: RetryPolicy,
    rng: StdRng,
    next_id: u64,
}

impl Client {
    /// A client with the default retry policy. `addr` may be a single
    /// address or a comma-separated list of daemon addresses to fail
    /// over across.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_policy(addr, RetryPolicy::default())
    }

    /// A client with an explicit retry policy.
    #[must_use]
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let joined = addr.into();
        let mut addrs: Vec<String> = joined
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(String::from)
            .collect();
        if addrs.is_empty() {
            addrs.push(joined);
        }
        Self {
            addrs,
            cursor: 0,
            pool: ConnPool::default(),
            rng: StdRng::seed_from_u64(policy.seed),
            policy,
            next_id: 1,
        }
    }

    /// The addresses this client rotates across.
    #[must_use]
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The address the next attempt will dial.
    #[must_use]
    pub fn current_addr(&self) -> &str {
        &self.addrs[self.cursor % self.addrs.len()]
    }

    /// Fetches the daemon's `status` result — the input both `vcache
    /// stat` renderers ([`crate::stat`]) consume.
    ///
    /// # Errors
    ///
    /// [`ClientError`] once the outcome is final.
    pub fn status(&mut self) -> Result<Value, ClientError> {
        self.call("status", Value::Null, None)
    }

    /// Issues `op` and returns the `result` value, retrying per policy
    /// and failing over across daemon addresses on transport errors.
    ///
    /// # Errors
    ///
    /// [`ClientError`] once the outcome is final.
    pub fn call(
        &mut self,
        op: &str,
        params: Value,
        deadline_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        let mut request = Request::new(self.next_id, op);
        self.next_id += 1;
        request.params = params;
        request.deadline_ms = deadline_ms;
        // Every built-in op except `shutdown` is a pure read; pure
        // reads may retry over a broken transport and may ride pooled
        // connections.
        let idempotent = op != "shutdown";

        let mut prev_sleep = self.policy.base;
        let mut last_error: ClientError;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.attempt(&request, idempotent) {
                Ok(response) => {
                    if response.id != request.id {
                        return Err(ClientError::Protocol(format!(
                            "response id {} does not match request id {}",
                            response.id, request.id
                        )));
                    }
                    match response.outcome {
                        Ok(result) => return Ok(result),
                        Err(body) if body.code.request_not_started() => {
                            // `overloaded` / `shutting_down`: no work
                            // happened; another daemon (or a later try)
                            // may accept. Rotate and retry.
                            self.rotate();
                            last_error = ClientError::Server(body);
                        }
                        Err(body) => return Err(ClientError::Server(body)),
                    }
                }
                Err(AttemptError::Connect(addr, e)) => {
                    // The request never left this process: always safe
                    // to retry, even for non-idempotent ops.
                    self.rotate();
                    last_error = ClientError::Connect { addr, source: e };
                }
                Err(AttemptError::Transport(e)) => {
                    if !idempotent {
                        return Err(ClientError::Io(e));
                    }
                    self.rotate();
                    last_error = ClientError::Io(e);
                }
                Err(AttemptError::Protocol(msg)) => return Err(ClientError::Protocol(msg)),
            }
            if attempt >= self.policy.max_attempts {
                return Err(last_error);
            }
            let floor = match &last_error {
                ClientError::Server(body) => body
                    .retry_after_ms
                    .map_or(self.policy.base, Duration::from_millis),
                _ => self.policy.base,
            };
            prev_sleep = self.backoff(floor, prev_sleep);
            std::thread::sleep(prev_sleep);
        }
    }

    /// Advances to the next daemon address (no-op for a single address).
    fn rotate(&mut self) {
        self.cursor = (self.cursor + 1) % self.addrs.len();
    }

    /// Decorrelated jitter: uniform in `[floor, prev * 3]`, capped.
    fn backoff(&mut self, floor: Duration, prev: Duration) -> Duration {
        let floor_us = u64::try_from(floor.as_micros()).unwrap_or(u64::MAX);
        let hi = u64::try_from(prev.as_micros())
            .unwrap_or(u64::MAX)
            .saturating_mul(3)
            .max(floor_us.saturating_add(1));
        let cap_us = u64::try_from(self.policy.cap.as_micros()).unwrap_or(u64::MAX);
        let sleep_us = self.rng.random_range(floor_us..=hi).min(cap_us);
        Duration::from_micros(sleep_us)
    }

    /// One request/response exchange against the current address.
    /// Idempotent requests may ride a pooled connection; a failure on a
    /// pooled socket is retried once on a fresh dial before counting,
    /// because the pool may simply have handed back a reaped socket.
    fn attempt(&mut self, request: &Request, idempotent: bool) -> Result<Response, AttemptError> {
        let addr = self.current_addr().to_string();
        if idempotent {
            if let Some(stream) = self.pool.checkout(&addr) {
                match exchange(stream, request) {
                    Ok((response, stream)) => {
                        self.pool.checkin(&addr, stream);
                        return Ok(response);
                    }
                    Err(AttemptError::Protocol(msg)) => return Err(AttemptError::Protocol(msg)),
                    Err(_) => {
                        // Suspicion, not verdict: drop the stale idle
                        // set and fall through to one fresh dial.
                        self.pool.evict(&addr);
                    }
                }
            }
        }
        let stream =
            TcpStream::connect(&addr).map_err(|e| AttemptError::Connect(addr.clone(), e))?;
        // Latency over batching: one-line exchanges suffer ~40ms Nagle
        // + delayed-ACK stalls on reused connections otherwise.
        let _ = stream.set_nodelay(true);
        let (response, stream) = exchange(stream, request)?;
        if idempotent {
            self.pool.checkin(&addr, stream);
        }
        Ok(response)
    }
}

/// Writes one request line and reads one response line on `stream`,
/// returning the stream for reuse on success.
fn exchange(stream: TcpStream, request: &Request) -> Result<(Response, TcpStream), AttemptError> {
    let mut writer = stream.try_clone().map_err(AttemptError::Transport)?;
    let mut line = request.to_json();
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(AttemptError::Transport)?;
    let mut reader = BufReader::new(stream);
    let mut response_line = String::new();
    let n = reader
        .read_line(&mut response_line)
        .map_err(AttemptError::Transport)?;
    if n == 0 || !response_line.ends_with('\n') {
        // EOF before a complete line: a dropped connection or a torn
        // write. Transport-class, so idempotent ops may retry.
        return Err(AttemptError::Transport(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a complete response line",
        )));
    }
    let response = Response::from_json(response_line.trim_end()).map_err(AttemptError::Protocol)?;
    Ok((response, reader.into_inner()))
}

enum AttemptError {
    /// Dialing `addr` failed; the request never left this process.
    Connect(String, io::Error),
    /// The connection broke after the dial (write or read side).
    Transport(io::Error),
    /// The daemon answered with something unparseable.
    Protocol(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_floored_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 9,
        };
        let mut client = Client::with_policy("127.0.0.1:1", policy);
        let mut prev = policy.base;
        for _ in 0..100 {
            let next = client.backoff(policy.base, prev);
            assert!(next >= policy.base.min(policy.cap));
            assert!(next <= policy.cap);
            prev = next;
        }
        // Honoring a retry-after floor above base.
        let floored = client.backoff(Duration::from_millis(50), Duration::from_millis(10));
        assert!(floored >= Duration::from_millis(50));
    }

    #[test]
    fn connect_failure_is_typed_with_the_offending_address() {
        // Port 1 on localhost refuses connections immediately.
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 1,
        };
        let mut client = Client::with_policy("127.0.0.1:1", policy);
        let err = client
            .call("ping", Value::Obj(Vec::new()), None)
            .unwrap_err();
        match &err {
            ClientError::Connect { addr, .. } => assert_eq!(addr, "127.0.0.1:1"),
            other => panic!("expected Connect, got {other}"),
        }
        assert!(err.to_string().contains("127.0.0.1:1"), "got {err}");
        // Connect failures are request-not-started: even `shutdown`
        // retries them rather than failing on the first dial.
        let err = client.call("shutdown", Value::Null, None).unwrap_err();
        assert!(matches!(err, ClientError::Connect { .. }), "got {err}");
    }

    #[test]
    fn multi_addr_clients_rotate_on_failure() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 4,
        };
        let mut client = Client::with_policy("127.0.0.1:1, 127.0.0.1:2", policy);
        assert_eq!(client.addrs().len(), 2);
        assert_eq!(client.current_addr(), "127.0.0.1:1");
        let err = client
            .call("ping", Value::Obj(Vec::new()), None)
            .unwrap_err();
        // 3 attempts across 2 dead addresses: the last one dialed is
        // reported, and the cursor kept rotating.
        assert!(matches!(err, ClientError::Connect { .. }), "got {err}");
    }
}
