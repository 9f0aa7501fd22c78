//! A thread-safe handle for sharing a metrics registry across threads:
//! the daemon (`vcache serve`) feeds one registry from its connection
//! threads and every worker.
//!
//! The handle is a cheap clone over `Arc<Mutex<_>>`. The lock is
//! *poison-tolerant*: a panic in one worker (the daemon catches panics
//! per request) must not wedge metrics for the rest of the process, so a
//! poisoned lock is recovered by taking the inner value as-is. Counters
//! and histograms are updated atomically under the lock, so snapshots
//! are never torn: a [`MetricsSnapshot`] always reflects a single
//! consistent instant.

use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// A clone-able, thread-safe handle to a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct SharedMetrics {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl SharedMetrics {
    /// A handle to a fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with the registry locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Adds `delta` to the named monotonic counter (created at 0).
    pub fn count(&self, name: &str, delta: u64) {
        self.with(|m| m.count(name, delta));
    }

    /// Sets the named gauge to `value`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.with(|m| m.gauge(name, value));
    }

    /// Records an observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.with(|m| m.observe(name, value));
    }

    /// Registers a histogram with explicit bucket bounds (no-op if it
    /// already exists).
    pub fn register_histogram(&self, name: &str, bounds: &[u64]) {
        self.with(|m| m.register_histogram(name, bounds));
    }

    /// Current value of a counter (0 if never touched).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.with(|m| m.counter_value(name))
    }

    /// A consistent point-in-time copy of everything.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|m| m.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_registry() {
        let a = SharedMetrics::new();
        let b = a.clone();
        a.count("x", 1);
        b.count("x", 2);
        b.gauge("g", 0.5);
        b.observe("h", 7);
        b.register_histogram("h", &[1, 2]); // no-op: already exists
        assert_eq!(a.counter_value("x"), 3);
        let snap = a.snapshot();
        assert_eq!(snap.counter("x"), 3);
        assert_eq!(snap.histograms[0].total, 1);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let metrics = SharedMetrics::new();
        metrics.count("x", 1);
        let poisoner = metrics.clone();
        let joined = std::thread::spawn(move || {
            poisoner.with(|_| panic!("poison the lock"));
        })
        .join();
        assert!(joined.is_err());
        // The handle still works and the pre-panic value survives.
        metrics.count("x", 1);
        assert_eq!(metrics.counter_value("x"), 2);
    }
}
