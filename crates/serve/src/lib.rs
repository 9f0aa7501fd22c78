//! # vcache-serve
//!
//! A crash-isolated, fault-injectable analysis daemon and its retrying
//! client. The daemon speaks newline-delimited JSON over TCP (and a
//! Unix-domain socket on Unix targets) and serves the `vcache-check`
//! static analyses — Layer-2 program verdicts, the Layer-3 affine
//! loop-nest abstract interpreter, the prescriber — and `vcache-trace`
//! trace analysis, without paying process startup per request.
//!
//! Robustness properties, each covered by tests:
//!
//! * **Crash isolation** — every request runs under `catch_unwind` in a
//!   fixed worker pool; a panicking handler yields a typed
//!   `internal_error` response and the daemon keeps serving.
//! * **Deadlines** — per-request deadlines are enforced cooperatively
//!   through the abstract interpreter's budget
//!   ([`vcache_check::NestBudget`]); a too-slow analysis aborts within
//!   one component decision or one enumeration quantum as
//!   `deadline_exceeded`, never a hung connection.
//! * **Backpressure** — the request queue is bounded; excess load is
//!   shed immediately with `overloaded` plus a retry-after hint.
//! * **Graceful drain** — shutdown (signal or `shutdown` op) stops the
//!   accept loops, finishes all queued work, and flushes a final
//!   metrics snapshot.
//! * **Fault injection** — a seeded [`fault::FaultPlan`] can inject
//!   worker panics, delays, and torn response writes; the chaos soak
//!   test drives the daemon through all three at once.
//! * **Retrying client** — exponential backoff with decorrelated
//!   jitter, honoring retry-after on sheds and never blindly retrying
//!   non-idempotent requests over a broken transport.
//!
//! The wire protocol (envelopes, the stable error-code taxonomy,
//! deadline and shed semantics) is specified in DESIGN.md §7 and pinned
//! by a golden-file test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod digest;
pub mod fault;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stat;

pub use cache::VerdictCache;
pub use client::{Client, ClientError, RetryPolicy};
pub use digest::request_digest;
pub use fault::{FaultInjector, FaultPlan};
pub use pool::ConnPool;
pub use protocol::{ErrorBody, ErrorCode, GeometrySpec, Request, Response, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ShutdownHandle};
