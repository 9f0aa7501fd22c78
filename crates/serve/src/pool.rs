//! A per-address connection pool for the retrying client.
//!
//! Opening a TCP connection per request is correct but wasteful: every
//! call would pay a connect round-trip. The pool keeps a small number
//! of idle connections per daemon address and hands them back out in
//! LIFO order (the most recently used connection is the least likely
//! to have been reaped by the peer).
//!
//! The pool is deliberately dumb about liveness: a checked-out
//! connection may be half-open (the peer died or reaped it). Callers
//! must treat a failure on a *pooled* connection as suspicion, not
//! verdict — retry once on a *fresh* connection before declaring the
//! address dead. Non-idempotent requests must never use a pooled
//! connection at all (a half-open write can appear to succeed), which
//! is why [`ConnPool::checkout`] is something callers opt into per
//! request.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};

/// Default cap on idle connections kept per address.
pub const DEFAULT_PER_ADDR: usize = 4;

/// A bounded per-address pool of idle TCP connections.
///
/// Thread-safe: connections may be checked in and out from many
/// threads at once.
pub struct ConnPool {
    per_addr: usize,
    idle: Mutex<HashMap<String, Vec<TcpStream>>>,
}

impl Default for ConnPool {
    fn default() -> Self {
        Self::new(DEFAULT_PER_ADDR)
    }
}

impl ConnPool {
    /// A pool keeping at most `per_addr` idle connections per address
    /// (0 disables pooling: checkouts always miss, checkins drop).
    #[must_use]
    pub fn new(per_addr: usize) -> Self {
        Self {
            per_addr,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Takes an idle connection for `addr`, most recently returned
    /// first. `None` means the caller should dial fresh.
    #[must_use]
    pub fn checkout(&self, addr: &str) -> Option<TcpStream> {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(addr)?
            .pop()
    }

    /// Returns a healthy connection for reuse. Dropped (closed) when
    /// the address is already at its idle cap.
    pub fn checkin(&self, addr: &str, stream: TcpStream) {
        if self.per_addr == 0 {
            return;
        }
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = idle.entry(addr.to_string()).or_default();
        if slot.len() < self.per_addr {
            slot.push(stream);
        }
    }

    /// Drops every idle connection for `addr` — called when the address
    /// is observed dead, so stale sockets never serve another checkout.
    pub fn evict(&self, addr: &str) {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(addr);
    }

    /// Idle connections currently held for `addr`.
    #[must_use]
    pub fn idle_count(&self, addr: &str) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(addr)
            .map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn checkout_misses_when_empty_and_is_lifo() {
        let pool = ConnPool::new(2);
        assert!(pool.checkout("a").is_none());
        let (c1, _s1) = pair();
        let (c2, mut s2) = pair();
        pool.checkin("a", c1);
        pool.checkin("a", c2);
        assert_eq!(pool.idle_count("a"), 2);
        // LIFO: c2 came last, comes out first — prove it by writing a
        // byte through the checked-out half and reading it on s2.
        let mut out = pool.checkout("a").unwrap();
        out.write_all(b"x").unwrap();
        let mut buf = [0u8; 1];
        s2.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x");
        assert_eq!(pool.idle_count("a"), 1);
        assert!(pool.checkout("a").is_some());
        assert!(pool.checkout("a").is_none());
    }

    #[test]
    fn checkin_respects_cap_and_zero_disables() {
        let pool = ConnPool::new(1);
        let (c1, _s1) = pair();
        let (c2, _s2) = pair();
        pool.checkin("a", c1);
        pool.checkin("a", c2); // over cap: dropped
        assert_eq!(pool.idle_count("a"), 1);

        let none = ConnPool::new(0);
        let (c3, _s3) = pair();
        none.checkin("a", c3);
        assert_eq!(none.idle_count("a"), 0);
        assert!(none.checkout("a").is_none());
    }

    #[test]
    fn evict_clears_one_address_only() {
        let pool = ConnPool::new(4);
        let (c1, _s1) = pair();
        let (c2, _s2) = pair();
        pool.checkin("a", c1);
        pool.checkin("b", c2);
        pool.evict("a");
        assert_eq!(pool.idle_count("a"), 0);
        assert_eq!(pool.idle_count("b"), 1);
    }
}
