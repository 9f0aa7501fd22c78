//! A small metrics registry: named monotonic counters, gauges, and
//! fixed-bucket histograms, with a serializable point-in-time snapshot.

use std::collections::BTreeMap;

/// Default histogram bucket bounds: powers of two through 2^16. Good
/// for cycle counts and distances at simulator scale.
pub const DEFAULT_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A fixed-bucket histogram. Bucket `i` counts observations `v` with
/// `v <= bounds[i]` (and `v > bounds[i-1]`); one extra overflow bucket
/// counts everything above the last bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram over the given ascending, deduplicated bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Observations recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, last is overflow).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }
}

/// Collects metrics during a run. Names are free-form; convention in
/// this workspace is `layer.metric`, e.g. `mem.bank_wait_cycles`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named monotonic counter (created at 0),
    /// saturating at `u64::MAX`.
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = c.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets the named gauge to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Registers a histogram with explicit bucket bounds (no-op if it
    /// already exists).
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records an observation into the named histogram, creating it
    /// with [`DEFAULT_BOUNDS`] on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(&DEFAULT_BOUNDS);
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Removes the named histogram, for a caller that records into it
    /// directly and hands it back with [`Self::put_histogram`].
    pub(crate) fn take_histogram(&mut self, name: &str) -> Option<Histogram> {
        self.histograms.remove(name)
    }

    /// Stores `histogram` under `name`, replacing any held there.
    pub(crate) fn put_histogram(&mut self, name: &str, histogram: Histogram) {
        self.histograms.insert(name.to_string(), histogram);
    }

    /// Current value of a counter (0 if never touched).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A point-in-time copy of everything, ready for export.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, &value)| CounterSnapshot {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, &value)| GaugeSnapshot {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| HistogramSnapshot {
                    name: name.clone(),
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    total: h.total,
                    sum: h.sum,
                })
                .collect(),
        }
    }
}

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// One histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (one more than `bounds`; last is overflow).
    pub counts: Vec<u64>,
    /// Observations recorded.
    pub total: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Exact nearest-rank quantile resolved to a bucket upper bound.
    ///
    /// `q` is clamped to `[0, 1]`; the rank is `ceil(q · total)`
    /// (minimum 1), and the answer is the upper bound of the bucket
    /// containing that rank — i.e. an upper bound on the true quantile
    /// that is tight to the bucket resolution. An observation equal to a
    /// bound reports that bound exactly (the `v == bound` placement is
    /// pinned by a regression test below). Ranks landing in the overflow
    /// bucket report [`u64::MAX`]. Returns `None` on an empty histogram.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let scaled = (q * self.total as f64).ceil();
        // total is a real observation count; the f64 round-trip is exact
        // far beyond any plausible request volume.
        let rank = if scaled < 1.0 {
            1
        } else if scaled >= self.total as f64 {
            self.total
        } else {
            scaled as u64
        };
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Mean of observed values; `None` on an empty histogram.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }
}

/// A bounded ring of raw samples for **exact** recent quantiles — the
/// complement to [`HistogramSnapshot::percentile`], which is bucket-
/// resolution over all time. The window keeps the last `cap` values
/// verbatim; quantiles sort a copy (cheap at window sizes of a few
/// hundred) and use the same nearest-rank convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingWindow {
    cap: usize,
    samples: Vec<u64>,
    next: usize,
    seen: u64,
}

impl RollingWindow {
    /// A window holding the most recent `cap` samples.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "rolling window needs capacity");
        Self {
            cap,
            samples: Vec::with_capacity(cap),
            next: 0,
            seen: 0,
        }
    }

    /// Records one sample, evicting the oldest once full.
    pub fn record(&mut self, value: u64) {
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
        }
        self.next = (self.next + 1) % self.cap;
        self.seen += 1;
    }

    /// Exact nearest-rank quantile over the windowed samples; `None`
    /// when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = (q * sorted.len() as f64).ceil();
        let idx = if rank < 1.0 {
            0
        } else {
            (rank as usize).min(sorted.len()) - 1
        };
        Some(sorted[idx])
    }

    /// Mean of the windowed samples; `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&v| u128::from(v)).sum();
        Some(sum as f64 / self.samples.len() as f64)
    }

    /// Largest windowed sample; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Samples currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True until the first sample arrives.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples ever recorded (including evicted ones).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Everything a [`MetricsRegistry`] held at one instant. Sorted by
/// name within each section, so snapshots compare deterministically.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Combines two snapshots: counters and matching-bounds histograms
    /// add; gauges and mismatched histograms take `other`'s value.
    #[must_use]
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for c in &other.counters {
            if let Some(mine) = out.counters.iter_mut().find(|m| m.name == c.name) {
                mine.value += c.value;
            } else {
                out.counters.push(c.clone());
            }
        }
        for g in &other.gauges {
            if let Some(mine) = out.gauges.iter_mut().find(|m| m.name == g.name) {
                mine.value = g.value;
            } else {
                out.gauges.push(g.clone());
            }
        }
        for h in &other.histograms {
            match out.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(mine) if mine.bounds == h.bounds => {
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.total += h.total;
                    mine.sum = mine.sum.saturating_add(h.sum);
                }
                Some(mine) => *mine = h.clone(),
                None => out.histograms.push(h.clone()),
            }
        }
        out.counters.sort_by(|a, b| a.name.cmp(&b.name));
        out.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        out.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Renders the snapshot as a JSON object — hand-rolled so export
    /// works without the `serde` feature.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn u64_list(xs: &[u64]) -> String {
            let items: Vec<String> = xs.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        }
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| format!("{}:{}", quote(&c.name), c.value))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|g| {
                let v = if g.value.is_finite() {
                    format!("{}", g.value)
                } else {
                    "null".into()
                };
                format!("{}:{}", quote(&g.name), v)
            })
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "{{\"name\":{},\"bounds\":{},\"counts\":{},\"total\":{},\"sum\":{}}}",
                    quote(&h.name),
                    u64_list(&h.bounds),
                    u64_list(&h.counts),
                    h.total,
                    h.sum
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.count("cache.accesses", 1);
        m.count("cache.accesses", 41);
        assert_eq!(m.counter_value("cache.accesses"), 42);
        assert_eq!(m.counter_value("never"), 0);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        // <=1: {0,1}; <=4: {2,4}; <=16: {5,16}; overflow: {17,1000}.
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.sum(), 1045);
        assert_eq!(h.counts().iter().sum::<u64>(), h.total());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[4, 2]);
    }

    #[test]
    fn observe_autoregisters_with_default_bounds() {
        let mut m = MetricsRegistry::new();
        m.observe("mem.bank_wait_cycles", 3);
        m.observe("mem.bank_wait_cycles", 100_000); // overflow bucket
        let snap = m.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.bounds, DEFAULT_BOUNDS.to_vec());
        assert_eq!(h.total, 2);
        assert_eq!(*h.counts.last().unwrap(), 1);
    }

    #[test]
    fn snapshot_is_deterministic_and_queryable() {
        let mut m = MetricsRegistry::new();
        m.count("b", 2);
        m.count("a", 1);
        m.gauge("g", 0.5);
        let snap = m.snapshot();
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counters[1].name, "b");
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap, m.snapshot());
    }

    #[test]
    fn merged_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.count("x", 1);
        a.observe("h", 2);
        a.gauge("g", 1.0);
        let mut b = MetricsRegistry::new();
        b.count("x", 2);
        b.count("y", 5);
        b.observe("h", 3);
        b.gauge("g", 9.0);
        let merged = a.snapshot().merged(&b.snapshot());
        assert_eq!(merged.counter("x"), 3);
        assert_eq!(merged.counter("y"), 5);
        assert_eq!(merged.gauges[0].value, 9.0);
        assert_eq!(merged.histograms[0].total, 2);

        // Other bounds under the same name: `other`'s histogram replaces
        // the old one rather than standing beside it.
        let mut c = MetricsRegistry::new();
        c.register_histogram("h", &[5, 50]);
        c.observe("h", 7);
        let other = c.snapshot();
        let replaced = merged.merged(&other);
        let named_h: Vec<_> = replaced
            .histograms
            .iter()
            .filter(|h| h.name == "h")
            .collect();
        assert_eq!(named_h, [&other.histograms[0]]);
    }

    #[test]
    fn boundary_observation_lands_in_le_bucket() {
        // Regression pin: `v == bound` counts in the bucket whose upper
        // bound it equals, never the next one up. A percentile resolving
        // to such an observation therefore reports the bound itself.
        let mut h = Histogram::new(&[10, 20]);
        h.observe(10);
        h.observe(20);
        assert_eq!(h.counts(), &[1, 1, 0]);
        let snap = snapshot_of(&h, "edge");
        assert_eq!(snap.percentile(0.5), Some(10));
        assert_eq!(snap.percentile(1.0), Some(20));
    }

    fn snapshot_of(h: &Histogram, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            bounds: h.bounds().to_vec(),
            counts: h.counts().to_vec(),
            total: h.total(),
            sum: h.sum(),
        }
    }

    #[test]
    fn percentiles_walk_cumulative_counts() {
        let mut h = Histogram::new(&[1, 2, 4, 8]);
        // 10 observations: 5×1, 3×2, 1×4, 1×7.
        for v in [1, 1, 1, 1, 1, 2, 2, 2, 4, 7] {
            h.observe(v);
        }
        let s = snapshot_of(&h, "lat");
        assert_eq!(s.percentile(0.0), Some(1)); // rank clamps to 1
        assert_eq!(s.percentile(0.5), Some(1)); // rank 5 of 10
        assert_eq!(s.percentile(0.8), Some(2)); // rank 8
        assert_eq!(s.percentile(0.9), Some(4)); // rank 9
        assert_eq!(s.percentile(0.99), Some(8)); // rank 10 → 7 ≤ 8
        assert_eq!(s.percentile(1.0), Some(8));
        assert_eq!(s.mean(), Some(2.2));
    }

    #[test]
    fn percentile_overflow_and_empty_cases() {
        let empty = snapshot_of(&Histogram::new(&[1]), "e");
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(empty.mean(), None);

        let mut h = Histogram::new(&[1, 2]);
        h.observe(1);
        h.observe(100); // overflow bucket
        let s = snapshot_of(&h, "o");
        assert_eq!(s.percentile(0.5), Some(1));
        assert_eq!(s.percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn rolling_window_is_exact_and_evicts_oldest() {
        let mut w = RollingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.5), None);
        assert_eq!(w.mean(), None);
        for v in [10, 20, 30, 40] {
            w.record(v);
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(0.5), Some(20)); // rank 2 of 4
        assert_eq!(w.quantile(1.0), Some(40));
        assert_eq!(w.mean(), Some(25.0));
        assert_eq!(w.max(), Some(40));
        // Two more evict 10 and 20; the window is now {30,40,50,60}.
        w.record(50);
        w.record(60);
        assert_eq!(w.len(), 4);
        assert_eq!(w.seen(), 6);
        assert_eq!(w.quantile(0.0), Some(30));
        assert_eq!(w.quantile(0.5), Some(40));
        assert_eq!(w.max(), Some(60));
    }

    #[test]
    fn json_export_has_expected_shape() {
        let mut m = MetricsRegistry::new();
        m.count("cache.misses", 7);
        m.gauge("miss_rate", 0.25);
        m.observe("dist", 5);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"cache.misses\":7"));
        assert!(json.contains("\"miss_rate\":0.25"));
        assert!(json.contains("\"histograms\":[{\"name\":\"dist\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
