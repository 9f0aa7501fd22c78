//! Golden-file tests pinning the observability surface to DESIGN.md §8:
//! the span JSONL schema, the canonical request digest, and the
//! `vcache stat --prom` Prometheus exposition. Any drift — a reordered
//! field, a renamed metric, a digest algorithm change — fails here,
//! making a format break a deliberate act (edit the spec AND this test).

use serde::Value;
use vcache_serve::request_digest;
use vcache_serve::stat::{render_prom, render_summary, snapshot_from_status};
use vcache_trace::SpanRecord;

/// The exact span lines quoted in DESIGN.md §8: one root (with wire
/// correlation id and canonical digest) and one child.
const GOLDEN_ROOT_SPAN: &str = r#"{"span":7,"parent":null,"request":7,"label":"analyze_nest","start_us":5190,"dur_us":1833,"status":"ok","req_id":42,"digest":"e5e5dea634a8d09f141cd2beb59ea078"}"#;
const GOLDEN_CHILD_SPAN: &str = r#"{"span":12,"parent":7,"request":7,"label":"worker","start_us":5210,"dur_us":1804,"status":"ok","req_id":null,"digest":null}"#;

fn design_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    std::fs::read_to_string(path).expect("DESIGN.md at the workspace root")
}

fn golden_root() -> SpanRecord {
    SpanRecord {
        span: 7,
        parent: None,
        request: 7,
        label: "analyze_nest".into(),
        start_us: 5_190,
        dur_us: 1_833,
        status: "ok".into(),
        req_id: Some(42),
        digest: Some("e5e5dea634a8d09f141cd2beb59ea078".into()),
    }
}

fn golden_child() -> SpanRecord {
    SpanRecord {
        span: 12,
        parent: Some(7),
        request: 7,
        label: "worker".into(),
        start_us: 5_210,
        dur_us: 1_804,
        status: "ok".into(),
        req_id: None,
        digest: None,
    }
}

#[test]
fn span_jsonl_schema_is_pinned() {
    assert_eq!(golden_root().to_jsonl(), GOLDEN_ROOT_SPAN);
    assert_eq!(golden_child().to_jsonl(), GOLDEN_CHILD_SPAN);
    assert_eq!(
        SpanRecord::from_jsonl(GOLDEN_ROOT_SPAN).unwrap(),
        golden_root()
    );
    assert_eq!(
        SpanRecord::from_jsonl(GOLDEN_CHILD_SPAN).unwrap(),
        golden_child()
    );
}

#[test]
fn span_examples_match_design_md() {
    let spec = design_md();
    for line in [GOLDEN_ROOT_SPAN, GOLDEN_CHILD_SPAN] {
        assert!(
            spec.contains(line),
            "DESIGN.md §8 no longer quotes the golden span line:\n{line}"
        );
    }
}

#[test]
fn request_digest_is_pinned() {
    // The golden root span's digest is the real digest of the request it
    // describes; the spec's worked example uses the same value.
    assert_eq!(
        request_digest(
            "analyze_nest",
            &Value::Obj(vec![("prescribe".into(), Value::Bool(true))]),
        ),
        "e5e5dea634a8d09f141cd2beb59ea078"
    );
    assert_eq!(
        request_digest("ping", &Value::Null),
        "c56bc202c61726d841bdf5abeec8b083"
    );
}

/// A small but fully-populated `status` result, shaped exactly as
/// `op_status` shapes it.
fn golden_status() -> Value {
    Value::Obj(vec![
        ("version".into(), Value::U64(1)),
        ("uptime_ms".into(), Value::U64(2500)),
        ("queue_depth".into(), Value::U64(3)),
        ("in_flight".into(), Value::U64(1)),
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
                "analyze_nest".into(),
                Value::Obj(vec![
                    ("count".into(), Value::U64(10)),
                    ("window".into(), Value::U64(10)),
                    ("p50_us".into(), Value::U64(450)),
                    ("p95_us".into(), Value::U64(900)),
                    ("p99_us".into(), Value::U64(900)),
                    ("mean_us".into(), Value::F64(432.1)),
                    ("max_us".into(), Value::U64(900)),
                ]),
            )]),
        ),
        (
            "metrics".into(),
            Value::Obj(vec![
                (
                    "counters".into(),
                    Value::Arr(vec![
                        Value::Obj(vec![
                            ("name".into(), Value::Str("serve.requests".into())),
                            ("value".into(), Value::U64(10)),
                        ]),
                        Value::Obj(vec![
                            (
                                "name".into(),
                                Value::Str("serve.probabilistic_verdicts".into()),
                            ),
                            ("value".into(), Value::U64(8)),
                        ]),
                        Value::Obj(vec![
                            ("name".into(), Value::Str("serve.cache.hits".into())),
                            ("value".into(), Value::U64(6)),
                        ]),
                        Value::Obj(vec![
                            ("name".into(), Value::Str("serve.cache.misses".into())),
                            ("value".into(), Value::U64(4)),
                        ]),
                        Value::Obj(vec![
                            ("name".into(), Value::Str("serve.cache.evictions".into())),
                            ("value".into(), Value::U64(1)),
                        ]),
                        Value::Obj(vec![
                            ("name".into(), Value::Str("serve.plan.candidates".into())),
                            ("value".into(), Value::U64(12)),
                        ]),
                        Value::Obj(vec![
                            ("name".into(), Value::Str("serve.plan.analyzed".into())),
                            ("value".into(), Value::U64(12)),
                        ]),
                        Value::Obj(vec![
                            ("name".into(), Value::Str("serve.plan.ranked".into())),
                            ("value".into(), Value::U64(5)),
                        ]),
                    ]),
                ),
                (
                    "gauges".into(),
                    Value::Arr(vec![Value::Obj(vec![
                        ("name".into(), Value::Str("serve.queue_depth".into())),
                        ("value".into(), Value::F64(3.0)),
                    ])]),
                ),
                (
                    "histograms".into(),
                    Value::Arr(vec![Value::Obj(vec![
                        (
                            "name".into(),
                            Value::Str("serve.latency_us.analyze_nest".into()),
                        ),
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

/// The exact `vcache stat --prom` output for [`golden_status`].
const GOLDEN_PROM: &str = "\
# TYPE vcache_serve_uptime_ms gauge
vcache_serve_uptime_ms 2500
# TYPE vcache_serve_draining gauge
vcache_serve_draining 0
# TYPE vcache_serve_spans_opened_total counter
vcache_serve_spans_opened_total 40
# TYPE vcache_serve_spans_finished_total counter
vcache_serve_spans_finished_total 38
# TYPE vcache_serve_requests_total counter
vcache_serve_requests_total 10
# TYPE vcache_serve_probabilistic_verdicts_total counter
vcache_serve_probabilistic_verdicts_total 8
# TYPE vcache_serve_cache_hits_total counter
vcache_serve_cache_hits_total 6
# TYPE vcache_serve_cache_misses_total counter
vcache_serve_cache_misses_total 4
# TYPE vcache_serve_cache_evictions_total counter
vcache_serve_cache_evictions_total 1
# TYPE vcache_serve_plan_candidates_total counter
vcache_serve_plan_candidates_total 12
# TYPE vcache_serve_plan_analyzed_total counter
vcache_serve_plan_analyzed_total 12
# TYPE vcache_serve_plan_ranked_total counter
vcache_serve_plan_ranked_total 5
# TYPE vcache_serve_queue_depth gauge
vcache_serve_queue_depth 3
# TYPE vcache_serve_latency_us_analyze_nest histogram
vcache_serve_latency_us_analyze_nest_bucket{le=\"100\"} 4
vcache_serve_latency_us_analyze_nest_bucket{le=\"1000\"} 9
vcache_serve_latency_us_analyze_nest_bucket{le=\"+Inf\"} 10
vcache_serve_latency_us_analyze_nest_sum 4321
vcache_serve_latency_us_analyze_nest_count 10
";

#[test]
fn prom_exposition_is_pinned() {
    assert_eq!(render_prom(&golden_status()), GOLDEN_PROM);
}

#[test]
fn prom_metric_names_are_unique() {
    // Prometheus rejects an exposition that defines a metric twice;
    // the renderer must never emit one (the queue-depth/in-flight
    // gauges exist both as status fields and snapshot gauges).
    let text = render_prom(&golden_status());
    let mut names: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate metric family in:\n{text}");
}

#[test]
fn summary_reports_exact_percentiles_from_the_histogram() {
    // p50 over {4 ≤ 100, 5 ≤ 1000, 1 overflow} is the 5th observation:
    // bucket le=1000. The summary prints it from the snapshot embedded
    // in the same status the daemon serves.
    let snapshot = snapshot_from_status(&golden_status()).unwrap();
    let hist = &snapshot.histograms[0];
    assert_eq!(hist.percentile(0.50), Some(1000));
    assert_eq!(hist.percentile(0.99), Some(u64::MAX));
    let text = render_summary(&golden_status());
    assert!(text.contains("analyze_nest"), "{text}");
    assert!(text.contains("1000"), "{text}");
    assert!(text.contains("inf"), "{text}");
}
