//! Renderers behind `vcache stat`: turn a daemon's `status` response
//! into a human summary or a Prometheus text exposition (DESIGN.md §8).
//!
//! Both renderers are pure functions of the `status` result value, so
//! they are golden-testable without a socket. The Prometheus format is
//! pinned by `tests/golden_stat.rs`: metric names are the daemon's
//! dotted metric names with `.` mapped to `_` under a `vcache_` prefix,
//! counters gain a `_total` suffix, and histograms expand to the
//! standard cumulative `_bucket{le=...}` / `_sum` / `_count` triple.

use serde::{Deserialize, Value};
use vcache_trace::MetricsSnapshot;

/// Extracts the embedded [`MetricsSnapshot`] from a `status` result.
#[must_use]
pub fn snapshot_from_status(status: &Value) -> Option<MetricsSnapshot> {
    MetricsSnapshot::from_value(status.get("metrics")?).ok()
}

fn field_u64(value: &Value, key: &str) -> Option<u64> {
    match value.get(key)? {
        Value::U64(v) => Some(*v),
        Value::I64(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

fn field_f64(value: &Value, key: &str) -> Option<f64> {
    match value.get(key)? {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        _ => None,
    }
}

fn field_bool(value: &Value, key: &str) -> Option<bool> {
    match value.get(key)? {
        Value::Bool(v) => Some(*v),
        _ => None,
    }
}

fn obj_fields(value: Option<&Value>) -> &[(String, Value)] {
    match value {
        Some(Value::Obj(fields)) => fields,
        _ => &[],
    }
}

/// A Prometheus-safe metric name: the dotted daemon name under a
/// `vcache_` prefix with every non-alphanumeric character mapped to `_`.
fn prom_name(name: &str) -> String {
    let mapped: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("vcache_{mapped}")
}

/// Renders the `status` result as a human-readable terminal summary.
#[must_use]
pub fn render_summary(status: &Value) -> String {
    let mut out = String::new();
    let version = field_u64(status, "version").unwrap_or(0);
    out.push_str(&format!("vcache serve status (protocol v{version})\n"));
    if let Some(ms) = field_u64(status, "uptime_ms") {
        out.push_str(&format!("  uptime       {:.1}s\n", ms as f64 / 1000.0));
    }
    out.push_str(&format!(
        "  queue depth  {}\n  in flight    {}\n  draining     {}\n",
        field_u64(status, "queue_depth").unwrap_or(0),
        field_u64(status, "in_flight").unwrap_or(0),
        if field_bool(status, "draining").unwrap_or(false) {
            "yes"
        } else {
            "no"
        },
    ));
    if let Some(spans) = status.get("spans") {
        out.push_str(&format!(
            "  spans        opened {}, finished {}\n",
            field_u64(spans, "opened").unwrap_or(0),
            field_u64(spans, "finished").unwrap_or(0),
        ));
    }
    let ops = obj_fields(status.get("ops"));
    if !ops.is_empty() {
        out.push_str("  per-op latency (rolling window, microseconds):\n");
        out.push_str(&format!(
            "    {:<14} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}\n",
            "op", "count", "p50", "p95", "p99", "mean", "max"
        ));
        for (op, stats) in ops {
            let cell = |key: &str| {
                field_u64(stats, key).map_or_else(|| "-".to_string(), |v| v.to_string())
            };
            let mean =
                field_f64(stats, "mean_us").map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
            out.push_str(&format!(
                "    {:<14} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}\n",
                op,
                cell("count"),
                cell("p50_us"),
                cell("p95_us"),
                cell("p99_us"),
                mean,
                cell("max_us"),
            ));
        }
    }
    if let Some(snapshot) = snapshot_from_status(status) {
        let latency: Vec<_> = snapshot
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("serve.latency_us.") && h.total > 0)
            .collect();
        if !latency.is_empty() {
            out.push_str("  lifetime latency (histogram buckets, microseconds):\n");
            out.push_str(&format!(
                "    {:<24} {:>8} {:>8} {:>8} {:>8}\n",
                "histogram", "count", "p50", "p95", "p99"
            ));
            for h in latency {
                let q = |p: f64| {
                    h.percentile(p).map_or_else(
                        || "-".to_string(),
                        |v| {
                            if v == u64::MAX {
                                "inf".to_string()
                            } else {
                                v.to_string()
                            }
                        },
                    )
                };
                out.push_str(&format!(
                    "    {:<24} {:>8} {:>8} {:>8} {:>8}\n",
                    h.name.trim_start_matches("serve.latency_us."),
                    h.total,
                    q(0.50),
                    q(0.95),
                    q(0.99),
                ));
            }
        }
    }
    out
}

/// Renders the `status` result in the Prometheus text exposition
/// format, deterministically ordered. Pinned by `tests/golden_stat.rs`.
#[must_use]
pub fn render_prom(status: &Value) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, value: String| {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    };
    // Queue depth and in-flight are NOT emitted here: the embedded
    // metrics snapshot already carries them as `serve.queue_depth` /
    // `serve.in_flight`, and duplicating a metric name is invalid
    // exposition format.
    gauge(
        "vcache_serve_uptime_ms",
        field_u64(status, "uptime_ms").unwrap_or(0).to_string(),
    );
    gauge(
        "vcache_serve_draining",
        u64::from(field_bool(status, "draining").unwrap_or(false)).to_string(),
    );
    if let Some(spans) = status.get("spans") {
        for key in ["opened", "finished"] {
            let name = format!("vcache_serve_spans_{key}_total");
            out.push_str(&format!(
                "# TYPE {name} counter\n{name} {}\n",
                field_u64(spans, key).unwrap_or(0)
            ));
        }
    }
    let Some(snapshot) = snapshot_from_status(status) else {
        return out;
    };
    for c in &snapshot.counters {
        let name = format!("{}_total", prom_name(&c.name));
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }
    for g in &snapshot.gauges {
        let name = prom_name(&g.name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
    }
    for h in &snapshot.histograms {
        let name = prom_name(&h.name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative += count;
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.total));
        out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.total));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_status() -> Value {
        Value::Obj(vec![
            ("version".into(), Value::U64(1)),
            ("uptime_ms".into(), Value::U64(2500)),
            ("queue_depth".into(), Value::U64(3)),
            ("in_flight".into(), Value::U64(2)),
            ("draining".into(), Value::Bool(false)),
            (
                "spans".into(),
                Value::Obj(vec![
                    ("opened".into(), Value::U64(40)),
                    ("finished".into(), Value::U64(38)),
                ]),
            ),
            (
                "ops".into(),
                Value::Obj(vec![(
                    "ping".into(),
                    Value::Obj(vec![
                        ("count".into(), Value::U64(10)),
                        ("window".into(), Value::U64(10)),
                        ("p50_us".into(), Value::U64(120)),
                        ("p95_us".into(), Value::U64(400)),
                        ("p99_us".into(), Value::U64(900)),
                        ("mean_us".into(), Value::F64(150.25)),
                        ("max_us".into(), Value::U64(900)),
                    ]),
                )]),
            ),
            (
                "metrics".into(),
                Value::Obj(vec![
                    (
                        "counters".into(),
                        Value::Arr(vec![Value::Obj(vec![
                            ("name".into(), Value::Str("serve.requests".into())),
                            ("value".into(), Value::U64(10)),
                        ])]),
                    ),
                    (
                        "gauges".into(),
                        Value::Arr(vec![Value::Obj(vec![
                            ("name".into(), Value::Str("serve.queue_depth".into())),
                            ("value".into(), Value::U64(3)),
                        ])]),
                    ),
                    (
                        "histograms".into(),
                        Value::Arr(vec![Value::Obj(vec![
                            ("name".into(), Value::Str("serve.latency_us.ping".into())),
                            (
                                "bounds".into(),
                                Value::Arr(vec![Value::U64(100), Value::U64(1000)]),
                            ),
                            (
                                "counts".into(),
                                Value::Arr(vec![Value::U64(4), Value::U64(5), Value::U64(1)]),
                            ),
                            ("total".into(), Value::U64(10)),
                            ("sum".into(), Value::U64(4321)),
                        ])]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn snapshot_round_trips_through_status() {
        let snapshot = snapshot_from_status(&sample_status()).unwrap();
        assert_eq!(snapshot.counter("serve.requests"), 10);
        assert_eq!(snapshot.histograms.len(), 1);
        assert_eq!(snapshot.histograms[0].percentile(0.5), Some(1000));
    }

    #[test]
    fn summary_mentions_every_section() {
        let text = render_summary(&sample_status());
        assert!(text.contains("uptime       2.5s"), "{text}");
        assert!(text.contains("opened 40, finished 38"), "{text}");
        assert!(text.contains("per-op latency"), "{text}");
        assert!(text.contains("150.2"), "{text}");
        assert!(text.contains("lifetime latency"), "{text}");
    }

    #[test]
    fn prom_buckets_are_cumulative() {
        let text = render_prom(&sample_status());
        assert!(text.contains("vcache_serve_latency_us_ping_bucket{le=\"100\"} 4\n"));
        assert!(text.contains("vcache_serve_latency_us_ping_bucket{le=\"1000\"} 9\n"));
        assert!(text.contains("vcache_serve_latency_us_ping_bucket{le=\"+Inf\"} 10\n"));
        assert!(text.contains("vcache_serve_latency_us_ping_sum 4321\n"));
        assert!(text.contains("vcache_serve_requests_total 10\n"));
    }

    #[test]
    fn renderers_tolerate_a_minimal_status() {
        let minimal = Value::Obj(vec![("version".into(), Value::U64(1))]);
        assert!(render_summary(&minimal).contains("protocol v1"));
        assert!(render_prom(&minimal).contains("vcache_serve_uptime_ms 0"));
    }
}
