//! The retrying client: one daemon address, a fresh connection per
//! attempt, exponential backoff with decorrelated jitter, and an
//! idempotency-aware retry policy.
//!
//! Retry rules (see DESIGN.md §7):
//!
//! * `overloaded`, `shutting_down` — always retryable: the daemon
//!   answers them *before* any work, so nothing happened. The server's
//!   `retry_after_ms` hint is honored as the backoff floor.
//! * Connect failures — always retryable, for every op: the request
//!   never left this process. They surface as the typed
//!   [`ClientError::Connect`] carrying the daemon address.
//! * Post-connect transport errors (torn response, mid-line EOF,
//!   connection reset) — retryable only for idempotent ops. Every
//!   analysis op is a pure read, so all built-in ops except `shutdown`
//!   qualify; `shutdown` is never blindly resent because the first
//!   attempt may have landed.
//! * Every other typed error (`bad_request`, `analysis_failed`,
//!   `io_error`, `internal_error`, `deadline_exceeded`) — final:
//!   retrying cannot change the outcome.
//!
//! Each attempt dials, exchanges one line and drops the connection, so a
//! torn connection never carries over into a later attempt or call.
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
    /// Could not connect to the daemon (after retries). Carries its
    /// address so an operator knows *which* daemon is unreachable, not
    /// just that something io-failed.
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

/// A client for one daemon. Every attempt dials a fresh connection.
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    rng: StdRng,
    next_id: u64,
}

impl Client {
    /// A client for the daemon at `addr` with the default retry policy.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_policy(addr, RetryPolicy::default())
    }

    /// A client with an explicit retry policy.
    #[must_use]
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        Self {
            addr: addr.into(),
            rng: StdRng::seed_from_u64(policy.seed),
            policy,
            next_id: 1,
        }
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

    /// Issues `op` and returns the `result` value, retrying per policy.
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
        // reads may retry over a broken transport.
        let idempotent = op != "shutdown";

        let mut prev_sleep = self.policy.base;
        let mut last_error: ClientError;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.attempt(&request) {
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
                            // happened; a later try may be accepted.
                            last_error = ClientError::Server(body);
                        }
                        Err(body) => return Err(ClientError::Server(body)),
                    }
                }
                Err(AttemptError::Connect(e)) => {
                    // The request never left this process: always safe
                    // to retry, even for non-idempotent ops.
                    last_error = ClientError::Connect {
                        addr: self.addr.clone(),
                        source: e,
                    };
                }
                Err(AttemptError::Transport(e)) => {
                    if !idempotent {
                        return Err(ClientError::Io(e));
                    }
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

    /// One request/response exchange on a fresh connection, which is
    /// dropped afterwards.
    fn attempt(&self, request: &Request) -> Result<Response, AttemptError> {
        let stream = TcpStream::connect(&self.addr).map_err(AttemptError::Connect)?;
        // A request line longer than one segment would otherwise wait
        // out Nagle and the peer's delayed ACK on its tail.
        let _ = stream.set_nodelay(true);
        let mut line = request.to_json();
        line.push('\n');
        (&stream)
            .write_all(line.as_bytes())
            .map_err(AttemptError::Transport)?;
        let mut response_line = String::new();
        let n = BufReader::new(&stream)
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
        Response::from_json(response_line.trim_end()).map_err(AttemptError::Protocol)
    }
}

enum AttemptError {
    /// Dialing the daemon failed; the request never left this process.
    Connect(io::Error),
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
}
