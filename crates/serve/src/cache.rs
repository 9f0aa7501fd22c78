//! The content-addressed verdict cache (DESIGN.md §9).
//!
//! Every analysis the daemon serves — a Layer-2/3/4 verdict, a repair
//! certificate, a trace report — is a pure function of the request's
//! canonical [`crate::digest`], so results are perfectly memoizable.
//! This module holds the bounded in-process cache that exploits that:
//! an LRU map from `request_digest` to the successful `result` value,
//! consulted *before* queue admission so a hit never touches the worker
//! pool, never waits behind a saturated queue, and returns bytes
//! identical to the cold computation (the cached value IS the value the
//! cold path produced; the response envelope is rebuilt around it with
//! the caller's correlation id).
//!
//! Only the pure analysis ops are cacheable — [`is_cacheable`] admits
//! `check`, `analyze_nest`, and `analyze_trace`. Control-plane ops
//! (`ping`, `status`, `shutdown`) are answered live by definition, and
//! only **successful** results are stored: a typed error (a deadline,
//! an injected panic, a shed) must never shadow a future honest
//! attempt.
//!
//! Accounting is part of the contract: hits, misses, and evictions are
//! monotonic counters and the entry/byte footprint is a pair of gauges,
//! all flowing through the vcache-trace metrics registry into `vcache
//! stat` (`vcache_serve_cache_{hits,misses,evictions}_total`).

use std::collections::{BTreeMap, HashMap};

use serde::Value;

/// True for ops whose results are pure functions of the request digest
/// and therefore safe to memoize. Control-plane ops (`ping`, `status`,
/// `shutdown`) and unknown ops are never cached.
#[must_use]
pub fn is_cacheable(op: &str) -> bool {
    matches!(op, "check" | "analyze_nest" | "analyze_trace")
}

/// One cached verdict plus its bookkeeping.
struct Entry {
    /// The successful `result` value, exactly as the cold path built it.
    value: Value,
    /// Serialized size of `value`, for the bytes gauge.
    bytes: u64,
    /// Recency stamp; the key into [`VerdictCache::recency`].
    tick: u64,
}

/// What an insertion displaced, for the caller's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Evictions {
    /// Entries evicted to make room.
    pub entries: u64,
    /// Bytes those entries accounted for.
    pub bytes: u64,
}

/// A bounded LRU map from request digest to cached result value.
///
/// Capacity is in entries; `0` disables the cache entirely (every
/// lookup misses, nothing is stored). Eviction is strict LRU via a
/// recency index, `O(log n)` per operation.
pub struct VerdictCache {
    capacity: usize,
    entries: HashMap<String, Entry>,
    /// Recency order: oldest tick first. Values are the digests.
    recency: BTreeMap<u64, String>,
    next_tick: u64,
    bytes: u64,
}

impl VerdictCache {
    /// A cache holding at most `capacity` verdicts (0 disables).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            next_tick: 0,
            bytes: 0,
        }
    }

    /// True when the cache can never hold anything.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Entry capacity this cache was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Verdicts currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total serialized bytes of every cached value.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Looks up a digest, refreshing its recency on a hit. The clone is
    /// the cached value itself — byte-identical to the cold result.
    #[must_use]
    pub fn get(&mut self, digest: &str) -> Option<Value> {
        let tick = self.next_tick;
        let entry = self.entries.get_mut(digest)?;
        self.recency.remove(&entry.tick);
        entry.tick = tick;
        self.next_tick += 1;
        self.recency.insert(tick, digest.to_string());
        Some(entry.value.clone())
    }

    /// Stores a successful result under its digest, evicting
    /// least-recently-used verdicts to stay within capacity. Returns
    /// what was displaced so the caller can count evictions. A
    /// re-insertion under a live digest refreshes the value in place
    /// (the digests are content addresses, so the value is identical by
    /// construction).
    pub fn insert(&mut self, digest: &str, value: &Value) -> Evictions {
        if self.capacity == 0 {
            return Evictions::default();
        }
        let bytes = serde_json::to_string(value).map_or(0, |s| s.len() as u64);
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(old) = self.entries.get_mut(digest) {
            self.recency.remove(&old.tick);
            self.bytes = self.bytes - old.bytes + bytes;
            old.value = value.clone();
            old.bytes = bytes;
            old.tick = tick;
            self.recency.insert(tick, digest.to_string());
            return Evictions::default();
        }
        let mut evicted = Evictions::default();
        while self.entries.len() >= self.capacity {
            let Some((&oldest, _)) = self.recency.iter().next() else {
                break;
            };
            if let Some(victim) = self.recency.remove(&oldest) {
                if let Some(gone) = self.entries.remove(&victim) {
                    evicted.entries += 1;
                    evicted.bytes += gone.bytes;
                    self.bytes -= gone.bytes;
                }
            }
        }
        self.entries.insert(
            digest.to_string(),
            Entry {
                value: value.clone(),
                bytes,
                tick,
            },
        );
        self.recency.insert(tick, digest.to_string());
        self.bytes += bytes;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: u64) -> Value {
        Value::Obj(vec![("v".into(), Value::U64(n))])
    }

    #[test]
    fn cacheable_ops_are_exactly_the_pure_analyses() {
        for op in ["check", "analyze_nest", "analyze_trace"] {
            assert!(is_cacheable(op), "{op} should be cacheable");
        }
        for op in ["ping", "status", "shutdown", "transmogrify", ""] {
            assert!(!is_cacheable(op), "{op} must not be cacheable");
        }
    }

    #[test]
    fn hit_returns_the_inserted_value_verbatim() {
        let mut cache = VerdictCache::new(4);
        assert!(cache.get("d1").is_none());
        cache.insert("d1", &val(7));
        assert_eq!(cache.get("d1"), Some(val(7)));
        // Byte identity: the cached value serializes identically.
        assert_eq!(
            serde_json::to_string(&cache.get("d1").unwrap()).unwrap(),
            serde_json::to_string(&val(7)).unwrap()
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = VerdictCache::new(2);
        cache.insert("a", &val(1));
        cache.insert("b", &val(2));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get("a").is_some());
        let evicted = cache.insert("c", &val(3));
        assert_eq!(evicted.entries, 1);
        assert!(evicted.bytes > 0);
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsertion_refreshes_in_place_without_eviction() {
        let mut cache = VerdictCache::new(2);
        cache.insert("a", &val(1));
        cache.insert("b", &val(2));
        let evicted = cache.insert("a", &val(1));
        assert_eq!(evicted, Evictions::default());
        assert_eq!(cache.len(), 2);
        // `a` is now most recent; inserting `c` evicts `b`.
        cache.insert("c", &val(3));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
    }

    #[test]
    fn bytes_track_insertions_and_evictions_exactly() {
        let mut cache = VerdictCache::new(2);
        let a = val(1);
        let b = Value::Str("a much longer cached value".into());
        let a_bytes = serde_json::to_string(&a).unwrap().len() as u64;
        let b_bytes = serde_json::to_string(&b).unwrap().len() as u64;
        cache.insert("a", &a);
        cache.insert("b", &b);
        assert_eq!(cache.bytes(), a_bytes + b_bytes);
        let evicted = cache.insert("c", &a); // evicts "a" (oldest)
        assert_eq!(evicted.bytes, a_bytes);
        assert_eq!(cache.bytes(), b_bytes + a_bytes);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut cache = VerdictCache::new(0);
        assert!(cache.is_disabled());
        assert_eq!(cache.insert("a", &val(1)), Evictions::default());
        assert!(cache.get("a").is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn capacity_one_holds_exactly_the_latest() {
        let mut cache = VerdictCache::new(1);
        for i in 0..10 {
            cache.insert(&format!("d{i}"), &val(i));
            assert_eq!(cache.len(), 1);
        }
        assert!(cache.get("d9").is_some());
        assert!(cache.get("d0").is_none());
    }
}
